"""Outer optimization loop and the three benchmark variants.

Every variant runs one generation loop. Each generation runs the inner
projection loop on one batch holding a copy of the current states per
candidate (loss weights, gating scalar), scores each candidate by its
trace's last family losses re-weighted under the fixed reference weights,
and adopts the best candidate's states and trace, its energies re-weighted
the same way; the adopted traces, joined in order, are the solve's trace,
and each row keeps the pair its sweep ran under. With the evolution
strategy enabled, the candidates are a small population sampled from it,
its mean starting at the reference pair (the reference weights with
DEFAULT_BETA), the ranking is fed back to it, and the reference-weighted
gradient norms of the trace are computed for the adopted candidate only.
Without it, the one candidate is the reference pair, every generation;
the gradient of the start check, then each call's final_grad, is carried
into the next call, so that no state is evaluated twice and a run of k
sweeps evaluates the loss k + 1 times (plus the line search's). Reported energies always use the reference
weights under the variant's own normalization.

A run stops at the sweep budget, which its last call is cut to fit, or
below DEEP_TOLERANCE. A fixed-weight run also stops once its call ends at a
fixed point, a state its sweeps no longer move, since every later call
would repeat it. The search also has a small divergence guard that keeps
adopted energies from climbing: after three consecutive increases the step
size is halved and the states revert to the best snapshot seen so far. It
stops once STALL_GENERATIONS generations in a row have not lowered the best
energy by STALL_REL of itself (`cmaes.stall_count`).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import constraints as C
from .cmaes import (DEFAULT_SIGMA0, STALL_GENERATIONS, ParamEncoding,
                    cma_ask, cma_init, cma_tell, stall_count)
from .errors import DivergenceError, InfeasibleInitError
from .problems import physics_aware_init
from .projection import (ROW_FIELDS, ProjectionConfig, ProjectionTrace,
                         grad_stats, project_states, sweep_once)

DEFAULT_BUDGET = 500
DEFAULT_BETA = 0.8
DEEP_TOLERANCE = C.SUCCESS_THRESHOLD * 1e-3  # stop refining below this energy
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
class SolveResult:
    """One solve.

    trace joins the adopted candidates' projection traces in order, one row
    per adopted sweep that ran. Its l_total is the reference-weighted energy
    and its gradient columns are norms of the reference-weighted gradient,
    so rows stay comparable when the search varies the weights; the family
    columns are the unweighted losses under the variant's normalization.
    Its start_states hold the adopted sweeps' start states when the solve
    ran with record_states=True, and are empty, (0, n, 64), otherwise.
    Its sweeps_evaluated counts every candidate sweep computed, and its
    failure says why the run diverged. adopted_params holds each trace
    row's (lambdas, beta), one per step, and adopted_energies each
    generation's adopted energy.

    stopped_by names why the run ended, in OptimizeResult's vocabulary:
    "budget" (it used its sweep budget, which steps never exceeds),
    "tolerance" (it reached DEEP_TOLERANCE), "stagnation" (the search
    stopped gaining), "fixed_point" (a fixed-weight run reached a state its
    sweeps no longer move; its last trace row is the sweep that found it)
    or "diverged".
    """

    final_states: np.ndarray
    final_energy: float
    generations: int
    wall_time: float
    success: bool
    trace: ProjectionTrace
    violations: C.ViolationStats
    stopped_by: str
    energy_increase_events: int = 0
    guard_triggers: int = 0
    adopted_energies: list = field(default_factory=list)
    adopted_params: list = field(default_factory=list)

    @property
    def steps(self):
        """Adopted sweeps, one per trace row."""
        return self.trace.iterations_run

    @property
    def sweeps_evaluated(self):
        return self.trace.sweeps_evaluated

    @property
    def failure(self):
        return self.trace.failure

    @property
    def diverged(self):
        return self.trace.failure is not None


def _projection_config(vc):
    return ProjectionConfig(
        grad_clip=1.0 if vc.use_grad_clip else None,
        use_delta=vc.use_delta,
        use_curvature=vc.use_curvature,
        norm=C.MSE if vc.use_mse else C.SSE,
    )


def solve(inst, vc, budget=DEFAULT_BUDGET, seed=0, record_states=False):
    """Run one variant on one instance; never raises for a diverging run.

    With physics init on, the positions start on the jittered grid of
    problems.physics_aware_init, or where the instance puts them when that
    grid cannot keep its nodes min_sep apart. Raises ValueError when the
    budget is not a whole number of at least 1 or the start energy is not
    finite.
    """
    budget = C.whole(budget, "budget", least=1)
    t0 = time.perf_counter()
    cs = inst.constraints
    ref = C.DEFAULT_WEIGHTS
    cfg = _projection_config(vc)

    states = np.array(inst.initial_states, dtype=float, copy=True)
    if vc.use_physics_init:
        try:
            states[:, :C.POSITION_DIM] = physics_aware_init(inst.n, seed,
                                                            inst.min_sep)
        except InfeasibleInitError:
            pass  # the grid cannot honour min_sep: keep the instance's start

    start = C.loss_components(states, cs, cfg.norm, ref)
    e_curr = start.l_total
    if not np.isfinite(e_curr):
        raise ValueError(f"start energy is not finite: {e_curr}")
    best_states = states.copy()
    best_energy = e_curr
    ref_w = ref.as_array()
    no_states = np.empty((0,) + states.shape)
    adopted = [ProjectionTrace(start_states=no_states)]  # joined at the end
    steps = 0
    sweeps_evaluated = 0
    events = 0
    guard_triggers = 0
    increases = 0
    stall = 0
    adopted_energies = []
    failure = None
    adopted_params = []

    search = vc.use_cmaes
    if search:
        st = cma_init(ParamEncoding.DIM,
                      ParamEncoding.encode(ref_w, DEFAULT_BETA),
                      DEFAULT_SIGMA0)
        rng = np.random.default_rng(seed)
    else:
        params = [(ref_w, DEFAULT_BETA)]
        # the gradient at the states under the fixed weights, carried from
        # the start check and then from each call's final_grad
        grad = start.grad
    del start
    fixed_point = False
    while (steps < budget and best_energy >= DEEP_TOLERANCE
           and stall < STALL_GENERATIONS and not fixed_point):
        if search:
            thetas = cma_ask(st, rng)
            params = [ParamEncoding.decode(raw) for raw in thetas]
        batch = np.broadcast_to(states, (len(params),) + states.shape)
        call = replace(cfg, t_max=min(cfg.t_max, budget - steps))
        outs, traces = project_states(
            batch, cs, np.array([lam for lam, _ in params]),
            np.array([beta for _, beta in params]), call,
            None if search else grad)
        sweeps_evaluated += sum(tr.sweeps_evaluated for tr in traces)
        # each candidate scores its last row's reference-weighted energy, so
        # that candidates compare; a diverged one scores +inf and ranks last
        fits = np.array([
            np.inf if tr.failure is not None else C.weighted_total(
                ref_w, tr.l_data[-1], tr.l_phys[-1], tr.l_logic[-1])
            for tr in traces])
        if search:
            cma_tell(st, thetas, fits)
        best_i = int(np.argmin(fits))
        trace = traces[best_i]
        trace.l_total = C.weighted_total(ref_w, trace.l_data, trace.l_phys,
                                         trace.l_logic)
        lambdas, beta = params[best_i]
        # one row's gradient, so that no batch outlives its call
        grad, trace.final_grad = trace.final_grad, None
        if search:
            if trace.failure is not None:
                failure = "all candidates diverged"
                break
            trace.grad_max, trace.grad_mean = grad_stats(
                trace.start_states, cs, ref, cfg.norm)
        else:
            # a call cut short without a failure ended at a fixed point (or
            # at tau, below DEEP_TOLERANCE): every later call would repeat it
            fixed_point = (trace.failure is None
                           and trace.iterations_run < call.t_max)
        # copied only when recording: a view would keep the batch alive
        trace.start_states = (trace.start_states.copy() if record_states
                              else no_states)
        adopted.append(trace)
        adopted_params += [(lambdas, beta)] * trace.iterations_run
        steps += trace.iterations_run
        if trace.failure is not None:
            # the fixed run keeps the rows swept before it failed
            failure = trace.failure
            break
        states = outs[best_i].copy()
        del outs, traces, trace  # free the batch before the next one
        e_new = float(fits[best_i])
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

    trace = ProjectionTrace(
        **{f: np.concatenate([getattr(tr, f) for tr in adopted])
           for f in ROW_FIELDS + ("start_states",)},
        sweeps_evaluated=sweeps_evaluated, failure=failure)
    final_states = best_states
    final_energy = float(best_energy)
    # a fixed-weight run never stalls: its loop ends only at the budget,
    # the tolerance, a fixed point or a divergence
    stopped_by = ("diverged" if failure is not None else
                  "tolerance" if best_energy < DEEP_TOLERANCE else
                  "fixed_point" if fixed_point else
                  "budget" if steps >= budget else "stagnation")
    return SolveResult(
        final_states=final_states,
        final_energy=final_energy,
        generations=st.generation if search else 0,
        wall_time=time.perf_counter() - t0,
        success=failure is None and final_energy < C.SUCCESS_THRESHOLD,
        trace=trace,
        violations=C.violation_stats(final_states, cs),
        stopped_by=stopped_by,
        energy_increase_events=events,
        guard_triggers=guard_triggers,
        adopted_energies=adopted_energies,
        adopted_params=adopted_params,
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

    Probes the map at up to N_PROBES evenly sampled recorded sweeps (the
    trace's start_states, under their adopted_params), at the node with
    the largest gradient norm, and returns the max eigenvalue and the
    condition number of the symmetrized Jacobian, each maximized over the
    probes; (0.0, 0.0) when nothing was recorded.
    """
    cfg = _projection_config(vc)
    # the probe batches' scatter cells are built once here and not kept by cs
    cs = cs._one_off()
    lam_max = 0.0
    cond = 0.0
    recorded = res.trace.start_states
    n_rec = len(recorded)
    if n_rec:
        idx = np.unique(np.linspace(0, n_rec - 1, min(N_PROBES, n_rec))
                        .round().astype(int))
        for t in idx:
            snap = recorded[t]
            lambdas, beta = res.adopted_params[t]
            w = C.LossWeights(*lambdas)
            g = C.loss_gradient(snap, cs, w, cfg.norm)
            node = int(np.argmax(C.row_norms(g)))
            jac = update_map_jacobian(snap, cs, w, beta, cfg, node)
            sym = 0.5 * (jac + jac.T)
            eig = np.linalg.eigvalsh(sym)
            mags = np.abs(eig)
            lam_max = max(lam_max, float(eig.max()))
            denom = mags.min()
            cond = max(cond, float(mags.max() / denom) if denom > 0 else np.inf)
    return lam_max, cond
