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
which lies on the gradient line, computed directly. Either step is followed
by a componentwise clip of the state to [-1, 1]. The loop stops when the
driving energy falls below tau or after t_max iterations.

The loop runs one (n, 64) state array or a batch (P, n, 64) of them, each
batch row with its own loss weights and beta: one search generation is one
call. Each row keeps its own course. It stops at tau. It is dropped when
its energy or its line-search step goes non-finite. Once a sweep leaves
every node of a row below epsilon, the row is at a fixed point: it is not
swept again, and its remaining trace rows copy its last one. Each batch row
ends with the same states and trace, bit for bit, as the same row run
alone.

The loss is evaluated once at the start states and once after each sweep,
at the new states. That one evaluation gives the sweep's trace losses and
the next sweep's gradient, which is carried into sweep_once. A run of k
sweeps thus evaluates the loss k + 1 times, plus k more for the line
search's secant.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import constraints as C
from .curvature import node_step_scales
# delta_step is unused here; perfbench/tracer.py wraps it under this name
from .delta import DEFAULT_CLIP, DEFAULT_EPSILON, delta_step  # noqa: F401
from .errors import DivergenceError
from .graphs import STATE_DIM, build_graph

ROW_FIELDS = ("l_total", "l_data", "l_phys", "l_logic", "grad_max",
              "grad_mean", "step_mean")


@dataclass
class ProjectionConfig:
    """Knobs of the inner loop; the booleans are the ablation axes.

    epsilon, the gradient norm below which a node is not stepped, is fixed.
    """

    alpha: float = 0.01
    tau: float = 1e-6
    t_max: int = 10
    grad_clip: float | None = 1.0
    use_delta: bool = True
    use_curvature: bool = True
    norm: str = C.MSE
    state_clip: tuple | None = DEFAULT_CLIP
    epsilon: ClassVar[float] = DEFAULT_EPSILON

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError("grad_clip must be positive when set")


@dataclass
class ProjectionTrace:
    """Per-iteration records; losses are measured after each sweep.

    start_states holds each iteration's sweep-start states. sweeps_evaluated
    counts the sweeps actually computed: rows copied at a fixed point are
    left out, and a sweep whose line-search step went non-finite, which
    leaves no row, is counted. failure says why a run diverged, or None.
    """

    l_total: np.ndarray = field(default_factory=lambda: np.empty(0))
    l_data: np.ndarray = field(default_factory=lambda: np.empty(0))
    l_phys: np.ndarray = field(default_factory=lambda: np.empty(0))
    l_logic: np.ndarray = field(default_factory=lambda: np.empty(0))
    grad_max: np.ndarray = field(default_factory=lambda: np.empty(0))
    grad_mean: np.ndarray = field(default_factory=lambda: np.empty(0))
    step_mean: np.ndarray = field(default_factory=lambda: np.empty(0))
    iterations_run: int = 0
    start_states: np.ndarray = field(
        default_factory=lambda: np.empty((0, 0, STATE_DIM)))
    sweeps_evaluated: int = 0
    failure: str | None = None


_STEP_FAILED = "rank-one step met an overflowed gradient"
_ENERGY_FAILED = "energy became non-finite"


def grad_stats(states, cs, weights, norm):
    """Max and mean over nodes of the loss-gradient norms, per state array."""
    norms = C.row_norms(C.loss_gradient(states, cs, weights, norm))
    return norms.max(axis=-1), norms.sum(axis=-1) / norms.shape[-1]


def sweep_once(states, cs, weights, beta, cfg, grad=None):
    """One Jacobi sweep; returns (new_states, stats dict).

    Exposed separately so update maps can be probed at a frozen state. grad
    is the loss gradient at `states` under `weights`, computed here when
    omitted; the gradient norms in stats are its norms. On one (n, 64)
    array, stats holds floats grad_max, grad_mean and step_mean, and a
    non-finite line-search step raises DivergenceError. On a batch
    (P, n, 64), with weights (P, 3) or one LossWeights and beta (P,) or one
    number, stats holds (P,) arrays of those three plus the masks `moved`
    (some node stepped) and `diverged` (the line-search step was non-finite
    at a moving node; the row comes back unchanged).
    """
    s = np.ascontiguousarray(states, dtype=float)
    single = s.ndim == 2
    if single:
        s = s[None]
    p_count = s.shape[0]
    w = C.weight_rows(weights, p_count)
    if grad is None:
        grad = C.loss_gradient(s, cs, w, cfg.norm)
    grad = grad.reshape(s.shape)
    norms = C.row_norms(grad)
    # a NaN norm counts as active, so an overflowed gradient drops the row
    active = ~(norms < cfg.epsilon)
    moved = active.any(axis=1)
    diverged = np.zeros(p_count, dtype=bool)
    out = s.copy()

    if moved.any():
        clipped = grad
        if cfg.grad_clip is not None:
            scale = np.minimum(1.0, cfg.grad_clip / np.maximum(norms, 1e-300))
            clipped = grad * scale[..., None]
        if cfg.use_curvature:
            graph = build_graph(s)
            eta, _ = node_step_scales(graph)
        else:
            eta = np.ones(norms.shape)
        step = cfg.alpha * eta[..., None] * clipped
        if cfg.use_delta:
            t = _secant_length(s, grad, step, cs, w, cfg.norm)
            step = np.multiply(beta, t)[:, None, None] * step
            diverged = (active & ~np.isfinite(step).all(axis=-1)).any(axis=1)
            active &= ~diverged[:, None]  # a diverged row comes back unchanged
        new = (s - step)[active]
        if cfg.state_clip is not None:
            np.clip(new, cfg.state_clip[0], cfg.state_clip[1], out=new)
        out[active] = new

    n = s.shape[1]
    stats = {"grad_max": norms.max(axis=1), "grad_mean": norms.sum(axis=1) / n,
             "step_mean": C.row_norms(out - s).sum(axis=1) / n}
    if single:
        if diverged[0]:
            raise DivergenceError(_STEP_FAILED)
        return out[0], {k: float(v[0]) for k, v in stats.items()}
    stats["moved"] = moved & ~diverged
    stats["diverged"] = diverged
    return out, stats


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


def project_states(states, cs, weights, beta, cfg):
    """Run the projection loop.

    On one (n, 64) array with one LossWeights and beta, returns (final
    states, ProjectionTrace) and raises DivergenceError, carrying the
    partial trace, when the energy or the line-search step goes non-finite.
    On a batch (P, n, 64) with weights (P, 3) or one LossWeights and beta
    (P,) or one number, returns (final states (P, n, 64), list of P
    traces); a row that diverged gets NaN final states and a trace whose
    failure says why, and the other rows go on.
    """
    s = np.array(states, dtype=float, order="C")
    single = s.ndim == 2
    if single:
        s = s[None]
    p_count = s.shape[0]
    w = C.weight_rows(weights, p_count)
    b = np.broadcast_to(np.asarray(beta, dtype=float), (p_count,))
    t_max = cfg.t_max
    table = np.empty((len(ROW_FIELDS), t_max, p_count))
    starts = np.empty((t_max,) + s.shape)
    done = np.zeros(p_count, dtype=int)  # trace rows per batch row
    evaluated = np.zeros(p_count, dtype=int)  # set as each row leaves
    failure = {}
    live = np.arange(p_count)
    sel = slice(None)  # indexes the live rows; a slice until one leaves
    cur = s
    grad = C.loss_components(cur, cs, cfg.norm, w).grad
    for t in range(t_max):
        starts[t, sel] = cur
        new, st = sweep_once(cur, cs, w[sel], b[sel], cfg, grad)
        # one evaluation gives this row's losses and the next sweep's gradient
        bd = C.loss_components(new, cs, cfg.norm, w[sel])
        grad = bd.grad
        table[:, t, sel] = (bd.l_total, bd.l_data, bd.l_phys, bd.l_logic,
                            st["grad_max"], st["grad_mean"], st["step_mean"])
        total = bd.l_total
        stay = st["moved"] & (total >= cfg.tau) & (total < np.inf)
        if stay.all():
            cur = new
            continue
        leave = ~stay
        gone = live[leave]
        s[gone] = new[leave]
        evaluated[gone] = t + 1
        done[gone] = t + 1 - st["diverged"][leave]
        ok = np.isfinite(total) & ~st["diverged"]
        for i in np.flatnonzero(leave & ~ok):
            failure[live[i]] = (_STEP_FAILED if st["diverged"][i]
                                else _ENERGY_FAILED)
        for i in np.flatnonzero(ok & (total >= cfg.tau) & ~st["moved"]):
            # a fixed point: every later sweep would repeat this one
            p = live[i]
            table[:, t + 1:, p] = table[:, t, p][:, None]
            starts[t + 1:, p] = new[i]
            done[p] = t_max
        live, cur, grad = live[stay], new[stay], grad[stay]
        sel = live
        if not live.size:
            break
    s[live] = cur
    evaluated[live] = done[live] = t_max
    s[list(failure)] = np.nan

    traces = []
    for p in range(p_count):
        k = done[p]
        traces.append(ProjectionTrace(
            **{f: table[i, :k, p].copy() for i, f in enumerate(ROW_FIELDS)},
            iterations_run=int(k), start_states=starts[:k, p],
            sweeps_evaluated=int(evaluated[p]),
            failure=failure.get(p)))
    if not single:
        return s, traces
    if traces[0].failure is not None:
        raise DivergenceError(traces[0].failure, trace=traces[0])
    return s[0], traces[0]
