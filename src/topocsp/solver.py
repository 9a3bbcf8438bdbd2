"""Outer optimization loop and the three benchmark variants.

With the evolution strategy enabled, each outer generation samples a small
population of (loss weights, gating scalar) candidates, runs the inner
projection loop on one batch holding a copy of the current states per
candidate, scores each end state under the fixed reference weights (from
the family losses of its last sweep), adopts the best candidate's states,
and feeds the ranking back to the strategy. The reference-weighted
gradient norms of the trace are computed for the adopted candidate only.
Without it, the inner loop simply repeats with fixed parameters. Reported
energies always use the reference weights under the variant's own
normalization.

A small divergence guard keeps adopted energies from climbing: after three
consecutive increases the step size is halved and the states revert to the
best snapshot seen so far. The search stops at the sweep budget, below
DEEP_TOLERANCE, or once STALL_GENERATIONS generations in a row have not
lowered the best energy by STALL_REL of itself (`cmaes.stall_count`).
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
    DEEP_TOLERANCE, or the projection converged), "stagnation" (the search
    stopped gaining) or "diverged".
    """

    final_states: np.ndarray
    final_energy: float
    steps: int
    generations: int
    wall_time: float
    success: bool
    trace: SolveTrace
    violations: C.ViolationStats
    variant: VariantConfig
    seed: int
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
    generations = 0
    sweeps_evaluated = 0
    events = 0
    guard_triggers = 0
    increases = 0
    adopted_energies = []
    diverged = False
    converged = False
    failure = None
    cma_history = []
    adopted_params = []

    if vc.use_cmaes:
        st = cma_init(ParamEncoding.DIM, DEFAULT_THETA_MEAN, DEFAULT_SIGMA0)
        rng = np.random.default_rng(seed)
        stall = 0
        while (acc.steps < budget and best_energy >= DEEP_TOLERANCE
               and stall < STALL_GENERATIONS):
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
            cma_tell(st, thetas, fits)
            generations += 1
            best_i = int(np.argmin(fits))
            trace = traces[best_i]
            if trace.failure is not None:
                diverged = True
                failure = "all candidates diverged"
                break
            lambdas, beta = params[best_i]
            states = outs[best_i].copy()
            trace.grad_max, trace.grad_mean = grad_stats(
                trace.start_states, cs, ref, norm)
            acc.extend(trace, lambdas, beta)
            del outs, traces, trace  # free the batch before the next one
            adopted_params.append((lambdas, beta))
            cma_history.append((st.generation, float(fits[best_i]),
                                float(np.mean(fits[np.isfinite(fits)]))
                                if np.any(np.isfinite(fits)) else float("inf"),
                                st.sigma))
            e_new = float(fits[best_i])
            if e_new > e_curr + _EVENT_EPS:
                events += 1
                increases += 1
                if increases >= GUARD_PATIENCE:
                    st.sigma *= 0.5
                    states = best_states.copy()
                    e_new = best_energy
                    increases = 0
                    guard_triggers += 1
            else:
                increases = 0
            e_curr = e_new
            adopted_energies.append(e_curr)
            stall = stall_count(stall, best_energy, e_curr)
            if e_curr < best_energy:
                best_energy = e_curr
                best_states = states.copy()
    else:
        lambdas = ref.as_array()
        beta = DEFAULT_BETA
        while acc.steps < budget:
            try:
                states, trace = project_states(states, cs, ref, beta, cfg)
            except DivergenceError as err:
                diverged = True
                failure = str(err)
                sweeps_evaluated += err.trace.sweeps_evaluated
                if err.trace.iterations_run:
                    acc.extend(err.trace, lambdas, beta)
                break
            sweeps_evaluated += trace.sweeps_evaluated
            acc.extend(trace, lambdas, beta)
            adopted_params.append((lambdas, beta))
            e_new = float(trace.l_total[-1])  # the energy of `states`
            if e_new > e_curr + _EVENT_EPS:
                events += 1
            e_curr = e_new
            adopted_energies.append(e_curr)
            if e_curr < best_energy:
                best_energy = e_curr
                best_states = states.copy()
            if trace.converged or e_curr < DEEP_TOLERANCE:
                converged = True
                break

    trace = acc.build()
    final_states = best_states
    final_energy = float(best_energy)
    # a fixed-weight run never stalls: its loop ends only at the budget,
    # the tolerance or a divergence
    stopped_by = ("diverged" if diverged else
                  "tolerance" if converged or best_energy < DEEP_TOLERANCE else
                  "budget" if acc.steps >= budget else "stagnation")
    return SolveResult(
        final_states=final_states,
        final_energy=final_energy,
        steps=acc.steps,
        generations=generations,
        wall_time=time.perf_counter() - t0,
        success=(not diverged) and final_energy < SUCCESS_THRESHOLD,
        trace=trace,
        violations=C.violation_stats(final_states, cs),
        variant=vc,
        seed=seed,
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


def update_map_jacobian(states, cs, weights, beta, cfg, node, h=1e-5):
    """Central-difference Jacobian of one node's sweep update map.

    The map takes the node's own 64 coordinates to their post-sweep values
    with every other node frozen at the given states.
    """
    states = np.asarray(states, dtype=float)
    dim = states.shape[1]

    def apply(x):
        probe = states.copy()
        probe[node] = x
        out, _ = sweep_once(probe, cs, weights, beta, cfg)
        return out[node]

    x0 = states[node]
    jac = np.empty((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        jac[:, j] = (apply(x0 + e) - apply(x0 - e)) / (2.0 * h)
    return jac


@dataclass
class JacobianStats:
    grad_max: float
    grad_mean: float
    grad_var: float
    lambda_max_j: float
    cond_j: float
    step_std: float
    divergence_flag: bool
    energy_increase_events: int
    final_energy: float
    success: bool


def jacobian_stats(inst, vc, budget=DEFAULT_BUDGET, seed=0, n_probes=5):
    """Gradient and update-map statistics for one solve.

    Runs solve while recording per-iteration states, then probes the linear
    part of the update map by central differences at up to n_probes evenly
    sampled iterations, at the node with the largest gradient norm. Reports
    the max eigenvalue and condition number of the symmetrized Jacobian,
    maximized over probes.
    """
    res = solve(inst, vc, budget=budget, seed=seed, record_states=True)
    cfg = _projection_config(vc)
    cs = inst.constraints

    lam_max = 0.0
    cond = 0.0
    n_rec = len(res.recorded_states)
    if n_rec:
        idx = np.unique(np.linspace(0, n_rec - 1, min(n_probes, n_rec))
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

    gm = res.trace.grad_mean
    return JacobianStats(
        grad_max=float(res.trace.grad_max.max()) if gm.size else 0.0,
        grad_mean=float(gm.mean()) if gm.size else 0.0,
        grad_var=float(gm.var()) if gm.size else 0.0,
        lambda_max_j=lam_max,
        cond_j=cond,
        step_std=float(res.trace.step_mean.std()) if gm.size else 0.0,
        divergence_flag=res.diverged,
        energy_increase_events=res.energy_increase_events,
        final_energy=res.final_energy,
        success=res.success,
    )
