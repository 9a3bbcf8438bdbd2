"""Inner projection loop: iterative constraint projection over all nodes.

Each iteration sweeps every node once, Jacobi style: all gradients are taken
at the sweep-start state, then applied together. The plain step is

    s_v <- s_v - D_v,    D_v = alpha * eta_v * g_v

with eta_v the curvature step scale (1 when curvature is off) and g_v the
(optionally norm-clipped) loss gradient. The rank-one step (use_delta) is
a secant line search along -D instead:

    s <- s - beta * t * D,    t = <g(s), D> / <g(s) - g(s - D), D>

where t, one number per sweep, is the secant estimate of the loss minimiser
along -D (t = 1, the plain step, when the denominator is not positive). The
gating scalar beta places the state on that line: 1 lands on the estimated
minimiser, (0, 2) lowers the energy of a quadratic, and 2 reflects to the
same energy level. This is delta.delta_step toward the target s - t * D,
which lies on the gradient line, computed directly. Either step clips the
nodes it moves componentwise to [-1, 1]; a node whose gradient norm is
below epsilon does not move and keeps its bits, in bounds or not. The loop
stops when the driving energy falls below tau or after t_max iterations.
alpha = 0.01, tau = 1e-6 and the bounds [-1, 1] are constants of the
loop.

The loop runs one (n, d) state array, with (3,) loss weights and one
beta, or a batch (P, n, d) of them, with (P, 3) weights and (P,) beta, on
one code path: one search generation is one call, and a batch of one row
runs as that row, with no batch axis. Each row keeps its own course, and
its trace has one row per sweep it ran. It stops at tau, and at a fixed
point: a sweep that leaves every node below epsilon moves nothing, and
every later sweep would repeat it. It is dropped when its energy goes
non-finite, its trace ending with that sweep's row, or when its line-search
step does, with no row for that sweep. A divergence is data, not an error,
at both ranks: the row ends with NaN states and a trace whose failure says
why. Each batch row ends with the same states and trace, bit for bit, as
the same row run alone.

The loss is evaluated once after each sweep, at the new states. That one
evaluation gives the sweep's trace losses and the next sweep's gradient,
which is carried into sweep_once. The start states' gradient, and the
secant's at its far point, are evaluated alone, with no family loss. The
start is skipped when the caller hands in its gradient: each trace's
final_grad is the gradient at its final states, which a next call from
those states under the same weights can start from. A call of k sweeps
thus evaluates the loss k + 1 times, or k times with a carried start
gradient, plus k more for the line search's secant.

Every operator here is width-generic: d is the constraint set's state
width. A cell whose gradient is zero and that lies within the bounds never
moves, so the solver sweeps only the state columns that can: the
positions, the columns where an anchored node's start differs from its
reference, and those holding a cell out of bounds, three columns of 64 on
a generated instance. It gathers them once per solve, with the constraint
set restricted to them and the Gram matrix of the other columns, which the
cosine weights add as a constant (frozen_gram), and writes them back into
the whole states once, at the end. A call on whole (n, 64) states, with no
frozen Gram, is the d = 64 case of the same code.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import constraints as C
from .curvature import node_step_scales
# delta_step is unused here; perfbench/tracer.py wraps it under this name
from .delta import DEFAULT_CLIP, DEFAULT_EPSILON, delta_step  # noqa: F401
from .graphs import STATE_DIM, build_graph, check_finite

ROW_FIELDS = ("l_total", "l_data", "l_phys", "l_logic", "grad_max",
              "grad_mean")


@dataclass
class ProjectionConfig:
    """Knobs of the inner loop; the booleans are the ablation axes.

    alpha, tau, the state bounds state_clip and epsilon, the gradient norm
    below which a node is not stepped, are constants of the loop.
    """

    t_max: int = 10
    grad_clip: float | None = 1.0
    use_delta: bool = True
    use_curvature: bool = True
    norm: str = C.MSE
    alpha: ClassVar[float] = 0.01
    tau: ClassVar[float] = 1e-6
    state_clip: ClassVar[tuple] = DEFAULT_CLIP
    epsilon: ClassVar[float] = DEFAULT_EPSILON

    def __post_init__(self):
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError("grad_clip must be positive when set")


@dataclass
class ProjectionTrace:
    """Per-iteration records; losses are measured after each sweep.

    start_states holds each iteration's sweep-start states. sweeps_evaluated
    counts the sweeps the row was swept in: its rows, plus one when its
    line-search step went non-finite, a sweep that leaves no row. failure
    says why a run diverged, or None.
    final_grad is the loss gradient at the final states, (n, d): a next
    call from those states under the same weights can start from it. It is
    None for a run that diverged.
    """

    l_total: np.ndarray = field(default_factory=lambda: np.empty(0))
    l_data: np.ndarray = field(default_factory=lambda: np.empty(0))
    l_phys: np.ndarray = field(default_factory=lambda: np.empty(0))
    l_logic: np.ndarray = field(default_factory=lambda: np.empty(0))
    grad_max: np.ndarray = field(default_factory=lambda: np.empty(0))
    grad_mean: np.ndarray = field(default_factory=lambda: np.empty(0))
    start_states: np.ndarray = field(
        default_factory=lambda: np.empty((0, 0, STATE_DIM)))
    sweeps_evaluated: int = 0
    failure: str | None = None
    final_grad: np.ndarray | None = None

    @property
    def iterations_run(self):
        """Trace rows: one per iteration run."""
        return len(self.l_total)


_STEP_FAILED = "rank-one step met an overflowed gradient"
_ENERGY_FAILED = "energy became non-finite"


def _norm_stats(norms):
    """Max and mean over nodes, the last axis, of gradient norms."""
    return (np.maximum.reduce(norms, axis=-1),
            np.add.reduce(norms, axis=-1) / norms.shape[-1])


def grad_stats(states, cs, weights, norm):
    """Max and mean over nodes of the loss-gradient norms, per state array."""
    return _norm_stats(C.row_norms(C.loss_gradient(states, cs, weights, norm)))


def sweep_once(states, cs, weights, beta, cfg, grad=None, frozen_gram=0.0):
    """One Jacobi sweep; returns (new_states, stats dict).

    Exposed separately so update maps can be probed at a frozen state. grad
    is the loss gradient at `states` under `weights`, computed here when
    omitted; the gradient norms in stats are its norms. frozen_gram is the
    Gram matrix of the state columns the states leave out, for the
    curvature's weights (graphs.pairwise_weights). It sweeps one
    (n, d) array under one LossWeights or (3,) weights and one beta, or a
    batch (P, n, d) under weights (P, 3) or one LossWeights and beta (P,)
    or one number. stats holds grad_max and grad_mean and the masks `moved`
    (some node stepped) and `diverged` (the line-search step was non-finite
    at a moving node; the row comes back unchanged): numbers for one array,
    (P,) arrays for a batch. With the rank-one step on, a beta outside
    [0, 2] raises ValueError.
    """
    if cfg.use_delta and not np.logical_and.reduce(
            (0.0 <= beta) & (beta <= 2.0), axis=None):
        raise ValueError(f"beta must be in [0, 2], got {beta}")
    s = np.ascontiguousarray(states, dtype=float)
    if grad is None:
        grad = C.loss_gradient(s, cs, weights, cfg.norm)
    grad = grad.reshape(s.shape)
    norms = C.row_norms(grad)
    g_max, g_mean = _norm_stats(norms)
    # a NaN norm counts as active, so an overflowed gradient drops the row;
    # the max propagates it, so its row counts as moved
    active = ~(norms < cfg.epsilon)
    moved = ~(g_max < cfg.epsilon)
    diverged = np.zeros(moved.shape, dtype=bool)

    clipped = grad
    if cfg.grad_clip is not None:
        scale = np.minimum(1.0, cfg.grad_clip / np.maximum(norms, 1e-300))
        clipped = grad * scale[..., None]
    rate = cfg.alpha
    if cfg.use_curvature:
        eta, _ = node_step_scales(build_graph(s, frozen_gram))
        rate = cfg.alpha * eta[..., None]
    step = rate * clipped
    if cfg.use_delta:
        t = _secant_length(s, grad, step, cs, weights, cfg.norm)
        step = np.multiply(beta, t)[..., None, None] * step
        diverged = np.logical_or.reduce(
            active & ~np.logical_and.reduce(np.isfinite(step), axis=-1),
            axis=-1)
        # a diverged row comes back unchanged
        active &= ~diverged[..., None]
        moved = moved & ~diverged
    out = s - step
    out.clip(*cfg.state_clip, out=out)
    # an inactive node keeps its bits, in bounds or not, so a row that moved
    # nothing is a copy
    np.copyto(out, s, where=~active[..., None])
    return out, {"grad_max": g_max, "grad_mean": g_mean, "moved": moved,
                 "diverged": diverged}


def _secant_length(s, grad, step, cs, weights, norm):
    """Secant estimate of the minimiser of the loss along -step, per row.

    t = <g(s), D> / <g(s) - g(s - D), D> for D = step, summed over all
    nodes of a batch row; it is exact on a quadratic. A denominator that is
    not positive gives t = 1, the plain gradient step.
    """
    far = C.loss_gradient(s - step, cs, weights, norm)
    den = C.row_sums((grad - far) * step)
    num = C.row_sums(grad * step)
    return np.divide(num, den, out=np.ones_like(den), where=den > 0)


def project_states(states, cs, weights, beta, cfg, grad=None,
                   frozen_gram=0.0):
    """Run the projection loop.

    On one (n, d) array with one LossWeights and beta, returns (final
    states, ProjectionTrace); on a batch (P, n, d) with weights (P, 3) or
    one LossWeights and beta (P,) or one number, returns (final states
    (P, n, d), list of P traces). A row whose energy or line-search step
    goes non-finite gets NaN final states and a trace whose failure says
    why, and the other rows go on; the loop never raises for it. Start
    states that are not all finite raise ValueError, before any sweep. One
    array and a batch of one row both run without a batch axis.

    grad, shaped like states, is the loss gradient at the start states
    under the weights, as a previous call's final_grad gives it; it is
    evaluated here when omitted. The loop trusts a given gradient, and with
    the right one the run is the same, bit for bit, as without it.
    frozen_gram is sweep_once's.
    """
    s = np.array(states, dtype=float, order="C")
    check_finite(s)
    rows = s[None] if s.ndim == 2 else s  # the states as a batch
    p_count = len(rows)
    w = C.weight_rows(weights, (p_count,))
    b = np.asarray(beta, dtype=float)
    if b.shape != (p_count,):
        b = np.broadcast_to(b, (p_count,))
    t_max = cfg.t_max
    table = np.empty((len(ROW_FIELDS), t_max, p_count))
    starts = np.empty((t_max,) + rows.shape)
    traces = [None] * p_count
    live = np.arange(p_count)
    # indexes the live rows: one row's index, so that it runs without the
    # batch axis, else every row until one leaves
    sel = 0 if p_count == 1 else ...
    cur = rows[sel]
    if grad is None:
        grad = C.loss_gradient(cur, cs, w[sel], cfg.norm)
    grad = np.reshape(grad, cur.shape)
    for t in range(t_max):
        starts[t, sel] = cur
        new, st = sweep_once(cur, cs, w[sel], b[sel], cfg, grad, frozen_gram)
        # one evaluation gives this row's losses and the next sweep's gradient
        bd = C.loss_components(new, cs, cfg.norm, w[sel])
        grad = bd.grad
        table[:, t, sel] = (bd.l_total, bd.l_data, bd.l_phys, bd.l_logic,
                            st["grad_max"], st["grad_mean"])
        total = bd.l_total
        stay = st["moved"] & (total >= cfg.tau) & (total < np.inf)
        if t + 1 < t_max and np.logical_and.reduce(stay, axis=None):
            cur = new
            continue
        stay &= t + 1 < t_max  # the call's last sweep ends every row
        diverged = st["diverged"]
        if new.ndim == 2:  # the one row, viewed as a batch of one
            new, grad = new[None], grad[None]
            stay, total, diverged = np.atleast_1d(stay, total, diverged)
        for i in np.flatnonzero(~stay):  # the rows that leave at sweep t
            p = live[i]
            k = t if diverged[i] else t + 1  # a diverged sweep leaves no row
            failure = (_STEP_FAILED if diverged[i] else
                       _ENERGY_FAILED if not np.isfinite(total[i]) else None)
            rows[p] = np.nan if failure else new[i]
            traces[p] = ProjectionTrace(
                **{f: table[j, :k, p].copy()
                   for j, f in enumerate(ROW_FIELDS)},
                start_states=starts[:k, p], sweeps_evaluated=t + 1,
                failure=failure,
                final_grad=None if failure else grad[i].copy())
        if not np.logical_or.reduce(stay):
            break
        live, cur, grad = live[stay], new[stay], grad[stay]
        sel = live
    return (s, traces) if s.ndim == 3 else (s, traces[0])
