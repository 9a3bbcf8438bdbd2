"""Outer optimization loop and the three benchmark variants.

Every variant runs one generation loop. Each generation runs the inner
projection loop on one batch holding a copy of the current states per
candidate (loss weights, gating scalar), scores each end state under the
fixed reference weights (from the family losses of its last sweep), and
adopts the best candidate's states. With the evolution strategy enabled,
the candidates are a small population sampled from it, the ranking is fed
back to it, and the reference-weighted gradient norms of the trace are
computed for the adopted candidate only. Without it, the one candidate is
the reference weights with DEFAULT_BETA, every generation. Reported
energies always use the reference weights under the variant's own
normalization.

A run stops at the sweep budget or below DEEP_TOLERANCE. The search also
has a small divergence guard that keeps adopted energies from climbing:
after three consecutive increases the step size is halved and the states
revert to the best snapshot seen so far. It stops once STALL_GENERATIONS
generations in a row have not lowered the best energy by STALL_REL of
itself (`cmaes.stall_count`).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import constraints as C
from .cmaes import (DEFAULT_SIGMA0, DEFAULT_THETA_MEAN, STALL_GENERATIONS,
                    ParamEncoding, cma_ask, cma_init, cma_tell, stall_count)
from .errors import DivergenceError
from .problems import physics_aware_init
from .projection import (ROW_FIELDS, ProjectionConfig, grad_stats,
                         project_states, sweep_once)

DEFAULT_BUDGET = 500
DEFAULT_BETA = 0.8
SUCCESS_THRESHOLD = C.SUCCESS_THRESHOLD
DEEP_TOLERANCE = SUCCESS_THRESHOLD * 1e-3  # stop refining below this energy
GUARD_PATIENCE = 3
_EVENT_EPS = 1e-12
N_PROBES = 5  # update-map probes per solve (update_map_spectrum)
PROBE_H = 1e-5  # central-difference shift of update_map_jacobian

VARIANT_FLAGS = ("use_mse", "use_grad_clip", "use_physics_init",
                 "use_delta", "use_curvature", "use_cmaes")


@dataclass(frozen=True)
class VariantConfig:
    """Toggle bundle naming one point in the ablation space."""

    name: str = "custom"
    use_mse: bool = False
    use_grad_clip: bool = False
    use_physics_init: bool = False
    use_delta: bool = False
    use_curvature: bool = False
    use_cmaes: bool = False

    def flags(self):
        return tuple(getattr(self, f) for f in VARIANT_FLAGS)

    @property
    def canonical_name(self):
        """Preset name when the toggles match one, else the given name."""
        for preset, vc in PRESETS.items():
            if self.flags() == vc.flags():
                return preset
        return self.name


PRESETS = {
    "baseline": VariantConfig(name="baseline"),
    "v1": VariantConfig(name="v1", use_curvature=True),
    "v2": VariantConfig(name="v2", use_mse=True, use_grad_clip=True,
                        use_physics_init=True, use_delta=True,
                        use_curvature=True, use_cmaes=True),
}


def variant(name):
    """Look up a preset variant by name."""
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}; "
                         f"choose from {sorted(PRESETS)}") from None


@dataclass
class SolveTrace:
    """Concatenated per-step records across adopted inner runs.

    l_total is the reference-weighted energy and the gradient columns are
    norms of the reference-weighted gradient, so rows stay comparable when
    the search varies the weights; the family columns are the unweighted
    losses under the variant's normalization.
    """

    l_total: np.ndarray
    l_data: np.ndarray
    l_phys: np.ndarray
    l_logic: np.ndarray
    grad_max: np.ndarray
    grad_mean: np.ndarray
    step_mean: np.ndarray

    @property
    def n_steps(self):
        return int(self.l_total.size)


@dataclass
class SolveResult:
    """One solve. steps counts adopted sweeps; sweeps_evaluated counts every
    candidate sweep computed, leaving out rows copied at a fixed point.

    stopped_by names why the run ended, in OptimizeResult's vocabulary:
    "budget" (it used its sweep budget), "tolerance" (it reached
    DEEP_TOLERANCE), "stagnation" (the search stopped gaining) or
    "diverged".
    """

    final_states: np.ndarray
    final_energy: float
    steps: int
    generations: int
    wall_time: float
    success: bool
    trace: SolveTrace
    violations: C.ViolationStats
    stopped_by: str
    energy_increase_events: int = 0
    guard_triggers: int = 0
    sweeps_evaluated: int = 0
    adopted_energies: list = field(default_factory=list)
    diverged: bool = False
    failure: str | None = None
    cma_history: list = field(default_factory=list)
    adopted_params: list = field(default_factory=list)
    recorded_states: list = field(default_factory=list)
    recorded_params: list = field(default_factory=list)


class _RunAccumulator:
    """Collects adopted inner traces and keeps the step census honest."""

    def __init__(self, ref_weights, record):
        self.ref = ref_weights.as_array()
        self.record = record
        self.cols = {k: [] for k in ROW_FIELDS}
        self.steps = 0
        self.recorded_states = []
        self.recorded_params = []

    def extend(self, trace, lambdas, beta):
        fams = np.stack([trace.l_data, trace.l_phys, trace.l_logic], axis=1)
        self.cols["l_total"].extend((fams @ self.ref).tolist())
        for k in ROW_FIELDS[1:]:  # all but l_total, re-weighted above
            self.cols[k].extend(getattr(trace, k).tolist())
        self.steps += trace.iterations_run
        if self.record:
            self.recorded_states.extend(np.array(trace.start_states))
            self.recorded_params.extend(
                [(np.asarray(lambdas, dtype=float), float(beta))]
                * trace.iterations_run)

    def build(self):
        return SolveTrace(**{k: np.array(v) for k, v in self.cols.items()})


def _projection_config(vc):
    return ProjectionConfig(
        grad_clip=1.0 if vc.use_grad_clip else None,
        use_delta=vc.use_delta,
        use_curvature=vc.use_curvature,
        norm=C.MSE if vc.use_mse else C.SSE,
    )


def solve(inst, vc, budget=DEFAULT_BUDGET, seed=0, record_states=False):
    """Run one variant on one instance; never raises for a diverging run.

    Raises ValueError when the start energy is not finite.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    t0 = time.perf_counter()
    cs = inst.constraints
    norm = C.MSE if vc.use_mse else C.SSE
    ref = C.DEFAULT_WEIGHTS
    cfg = _projection_config(vc)

    states = np.array(inst.initial_states, dtype=float, copy=True)
    if vc.use_physics_init:
        states[:, :C.POSITION_DIM] = physics_aware_init(inst.n, seed,
                                                        inst.min_sep)

    acc = _RunAccumulator(ref, record_states)

    e_curr = C.total_energy(states, cs, ref, norm)
    if not np.isfinite(e_curr):
        raise ValueError(f"start energy is not finite: {e_curr}")
    best_states = states.copy()
    best_energy = e_curr
    sweeps_evaluated = 0
    events = 0
    guard_triggers = 0
    increases = 0
    stall = 0
    adopted_energies = []
    diverged = False
    failure = None
    cma_history = []
    adopted_params = []

    search = vc.use_cmaes
    if search:
        st = cma_init(ParamEncoding.DIM, DEFAULT_THETA_MEAN, DEFAULT_SIGMA0)
        rng = np.random.default_rng(seed)
    else:
        params = [(ref.as_array(), DEFAULT_BETA)]
    while (acc.steps < budget and best_energy >= DEEP_TOLERANCE
           and stall < STALL_GENERATIONS):
        if search:
            thetas = cma_ask(st, rng)
            params = [ParamEncoding.decode(raw) for raw in thetas]
        batch = np.broadcast_to(states, (len(params),) + states.shape)
        outs, traces = project_states(
            batch, cs, np.array([lam for lam, _ in params]),
            np.array([beta for _, beta in params]), cfg)
        sweeps_evaluated += sum(tr.sweeps_evaluated for tr in traces)
        # a diverged candidate scores +inf and ranks last
        fits = np.array([np.inf if tr.failure is not None else
                         ref.data * tr.l_data[-1]
                         + ref.phys * tr.l_phys[-1]
                         + ref.logic * tr.l_logic[-1] for tr in traces])
        if search:
            cma_tell(st, thetas, fits)
        best_i = int(np.argmin(fits))
        trace = traces[best_i]
        lambdas, beta = params[best_i]
        if trace.failure is not None:
            diverged = True
            if search:
                failure = "all candidates diverged"
            else:  # the fixed run keeps the rows swept before it failed
                failure = trace.failure
                acc.extend(trace, lambdas, beta)
            break
        states = outs[best_i].copy()
        if search:
            trace.grad_max, trace.grad_mean = grad_stats(
                trace.start_states, cs, ref, norm)
        acc.extend(trace, lambdas, beta)
        del outs, traces, trace  # free the batch before the next one
        adopted_params.append((lambdas, beta))
        e_new = float(fits[best_i])
        if search:
            finite = fits[np.isfinite(fits)]
            cma_history.append((st.generation, e_new,
                                float(np.mean(finite)) if finite.size
                                else float("inf"), st.sigma))
        if e_new > e_curr + _EVENT_EPS:
            events += 1
            increases += 1
            if search and increases >= GUARD_PATIENCE:
                st.sigma *= 0.5
                states = best_states.copy()
                e_new = best_energy
                increases = 0
                guard_triggers += 1
        else:
            increases = 0
        e_curr = e_new
        adopted_energies.append(e_curr)
        if search:
            stall = stall_count(stall, best_energy, e_curr)
        if e_curr < best_energy:
            best_energy = e_curr
            best_states = states.copy()

    trace = acc.build()
    final_states = best_states
    final_energy = float(best_energy)
    # a fixed-weight run never stalls: its loop ends only at the budget,
    # the tolerance or a divergence
    stopped_by = ("diverged" if diverged else
                  "tolerance" if best_energy < DEEP_TOLERANCE else
                  "budget" if acc.steps >= budget else "stagnation")
    return SolveResult(
        final_states=final_states,
        final_energy=final_energy,
        steps=acc.steps,
        generations=st.generation if search else 0,
        wall_time=time.perf_counter() - t0,
        success=(not diverged) and final_energy < SUCCESS_THRESHOLD,
        trace=trace,
        violations=C.violation_stats(final_states, cs),
        stopped_by=stopped_by,
        energy_increase_events=events,
        guard_triggers=guard_triggers,
        sweeps_evaluated=sweeps_evaluated,
        adopted_energies=adopted_energies,
        diverged=diverged,
        failure=failure,
        cma_history=cma_history,
        adopted_params=adopted_params,
        recorded_states=acc.recorded_states,
        recorded_params=acc.recorded_params,
    )


def update_map_jacobian(states, cs, weights, beta, cfg, node):
    """Central-difference Jacobian of one node's sweep update map.

    The map takes the node's own 64 coordinates to their post-sweep values
    with every other node frozen at the given states. All 2 * 64 states
    shifted by PROBE_H are swept as one batch; raises DivergenceError when
    the line-search step is non-finite on any of them.
    """
    states = np.asarray(states, dtype=float)
    dim = states.shape[1]
    shifts = PROBE_H * np.eye(dim)
    probes = np.repeat(states[None], 2 * dim, axis=0)
    probes[:dim, node] = states[node] + shifts
    probes[dim:, node] = states[node] - shifts
    out, stats = sweep_once(probes, cs, weights, beta, cfg)
    if stats["diverged"].any():
        raise DivergenceError("rank-one step met an overflowed gradient "
                              "in an update-map probe")
    # row j of the difference is column j of the Jacobian
    return ((out[:dim, node] - out[dim:, node]) / (2.0 * PROBE_H)).T


def update_map_spectrum(res, cs, vc):
    """(lambda_max, cond) of the update map along a solve of vc on cs run
    with record_states=True.

    Probes the map at up to N_PROBES evenly sampled recorded iterations, at
    the node with the largest gradient norm, and returns the max eigenvalue
    and the condition number of the symmetrized Jacobian, each maximized
    over the probes; (0.0, 0.0) when nothing was recorded.
    """
    cfg = _projection_config(vc)
    lam_max = 0.0
    cond = 0.0
    n_rec = len(res.recorded_states)
    if n_rec:
        idx = np.unique(np.linspace(0, n_rec - 1, min(N_PROBES, n_rec))
                        .round().astype(int))
        for t in idx:
            snap = res.recorded_states[t]
            lambdas, beta = res.recorded_params[t]
            w = C.LossWeights(*lambdas)
            g = C.loss_gradient(snap, cs, w, cfg.norm)
            node = int(np.argmax(np.linalg.norm(g, axis=1)))
            jac = update_map_jacobian(snap, cs, w, beta, cfg, node)
            sym = 0.5 * (jac + jac.T)
            eig = np.linalg.eigvalsh(sym)
            mags = np.abs(eig)
            lam_max = max(lam_max, float(eig.max()))
            denom = mags.min()
            cond = max(cond, float(mags.max() / denom) if denom > 0 else np.inf)
    return lam_max, cond
