import numpy as np
import pytest

from topocsp import constraints as C
from topocsp.constraints import (DEFAULT_WEIGHTS, MSE, ConstraintSet,
                                 LossWeights, total_energy)
from topocsp.curvature import node_step_scales
from topocsp.delta import DeltaParams, delta_step
from topocsp.graphs import build_graph
from topocsp.problems import generate_instance
from topocsp.projection import (_ENERGY_FAILED, _STEP_FAILED, ROW_FIELDS,
                                ProjectionConfig, _secant_length,
                                project_states, sweep_once)

from conftest import (gradient_step_target, random_constraint_set,
                      random_states)

UNIT_WEIGHTS = LossWeights(1.0, 1.0, 1.0)


def single_anchor_problem():
    states = np.zeros((1, 64))
    states[0, 0] = 0.3
    cs = ConstraintSet.build(n_nodes=1, anchors={0: np.zeros(64)},
                             separations=[], orderings=[])
    return states, cs


def test_termination_bound(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        states = random_states(rng, n)
        cs = random_constraint_set(rng, n)
        cfg = ProjectionConfig()
        _, trace = project_states(states, cs, UNIT_WEIGHTS, 0.8, cfg)
        assert trace.iterations_run <= cfg.t_max
        assert len(trace.l_total) == trace.iterations_run


def test_all_satisfied_unchanged():
    states = np.zeros((2, 64))
    states[1, 0] = 1.0
    cs = ConstraintSet.build(n_nodes=2, anchors={0: states[0].copy()},
                             separations=[(0, 1, 0.1)],
                             orderings=[(0, 1, 0, 0.5)])
    out, trace = project_states(states, cs, UNIT_WEIGHTS, 0.8,
                                ProjectionConfig())
    assert np.array_equal(out, states)
    assert trace.failure is None
    assert trace.iterations_run == 1
    assert trace.l_total[0] == 0.0


def test_single_anchor_geometric_decay():
    # one node pulled toward its reference by the plain gradient step: the
    # energy sequence is E_t = E_0 (1 - 2 alpha)^(2 t) exactly, each sweep a
    # fixed contraction
    states, cs = single_anchor_problem()
    e0 = total_energy(states, cs, weights=UNIT_WEIGHTS, norm=MSE)
    cfg = ProjectionConfig(t_max=10, grad_clip=None, use_delta=False)
    _, trace = project_states(states, cs, UNIT_WEIGHTS, 1.0, cfg)
    assert trace.iterations_run == 10
    factor = (1.0 - 2.0 * cfg.alpha) ** 2
    for t, lt in enumerate(trace.l_total, start=1):
        assert lt == pytest.approx(e0 * factor ** t, rel=1e-12)
    # strictly decreasing
    seq = [e0] + list(trace.l_total)
    assert all(b < a for a, b in zip(seq, seq[1:]))


def test_beta_one_matches_plain_step(rng):
    # when the target is the gradient step, the rank-one update at beta=1
    # reproduces the plain update to rounding error
    for _ in range(20):
        n = int(rng.integers(2, 7))
        states = random_states(rng, n)
        cs = random_constraint_set(rng, n)
        for grad_clip in (None, 1.0):
            cfg = ProjectionConfig(use_delta=False, grad_clip=grad_clip)
            g, target = gradient_step_target(states, cs, UNIT_WEIGHTS, cfg)
            a = delta_step(states, g, target,
                           DeltaParams(beta=1.0, epsilon=cfg.epsilon,
                                       clip=cfg.state_clip))
            b, _ = sweep_once(states.copy(), cs, UNIT_WEIGHTS, 1.0, cfg)
            assert np.max(np.abs(a - b)) < 1e-12


@pytest.mark.parametrize("n", [6, 20])
def test_line_search_is_the_rank_one_step_on_the_gradient_line(rng, n):
    # the sweep's line-search step s - beta*t*D is the rank-one update
    # toward the target s - t*D on the gradient line, then the state clip
    p_count = 8
    states = np.stack([random_states(rng, n) for _ in range(p_count)])
    cs = random_constraint_set(rng, n)
    weights = rng.uniform(0.1, 5.0, size=(p_count, 3))
    beta = rng.uniform(0.0, 2.0, size=p_count)
    beta[:2] = (0.0, 2.0)
    cfg = ProjectionConfig()
    out, stats = sweep_once(states, cs, weights, beta, cfg)
    assert not stats["diverged"].any()
    # the sweep's own D and t: the secant length amplifies rounding in D by
    # about t (up to ~1e3), which would swamp the identity under test
    grad = C.loss_gradient(states, cs, weights, cfg.norm)
    norms = np.maximum(C.row_norms(grad), 1e-300)
    g = grad * np.minimum(1.0, cfg.grad_clip / norms)[..., None]
    eta, _ = node_step_scales(build_graph(states))
    step = cfg.alpha * eta[..., None] * g
    t = _secant_length(states, grad, step, cs, weights, cfg.norm)
    ref = np.clip([delta_step(s, g[p], s - t[p] * step[p],
                              DeltaParams(beta=beta[p], clip=None))
                   for p, s in enumerate(states)], *cfg.state_clip)
    move = np.max(np.abs(ref - states))
    assert move > 0.0
    assert np.max(np.abs(out - ref)) <= 1e-14 * move


def test_secant_target_single_anchor():
    # on the one-node quadratic the secant length is exact, so the rank-one
    # target is the reference itself: beta=1 lands on it, beta in (0, 2)
    # leaves (1 - beta)^2 of the energy, beta=2 reflects to the same level
    states, cs = single_anchor_problem()
    e0 = total_energy(states, cs, weights=UNIT_WEIGHTS, norm=MSE)
    for grad_clip in (None, 0.1):
        cfg = ProjectionConfig(grad_clip=grad_clip)
        out, _ = sweep_once(states, cs, UNIT_WEIGHTS, 1.0, cfg)
        assert np.max(np.abs(out - cs.anchor_refs[0])) < 1e-15
        for beta in (0.1, 0.8, 1.5, 1.9):
            out, _ = sweep_once(states, cs, UNIT_WEIGHTS, beta, cfg)
            e1 = total_energy(out, cs, weights=UNIT_WEIGHTS, norm=MSE)
            assert e1 < e0
            assert e1 == pytest.approx((1.0 - beta) ** 2 * e0, rel=1e-9)
        out, _ = sweep_once(states, cs, UNIT_WEIGHTS, 2.0, cfg)
        e2 = total_energy(out, cs, weights=UNIT_WEIGHTS, norm=MSE)
        assert e2 == pytest.approx(e0, rel=1e-12)


def test_call_level_energy_non_increase(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        states = random_states(rng, n)
        cs = random_constraint_set(rng, n)
        e0 = total_energy(states, cs, weights=UNIT_WEIGHTS, norm=MSE)
        _, trace = project_states(states, cs, UNIT_WEIGHTS, 0.8,
                                  ProjectionConfig())
        assert trace.l_total[-1] <= e0 + 1e-9


def test_jacobi_sweep_order_independent():
    # gradients are taken from the sweep-start state, so the result cannot
    # depend on any per-node application order; check against a manual
    # one-node-at-a-time evaluation from the same frozen state
    rng = np.random.default_rng(7)
    n = 4
    states = random_states(rng, n)
    cs = random_constraint_set(rng, n)
    cfg = ProjectionConfig(use_curvature=False, grad_clip=None,
                           use_delta=False)
    swept, _ = sweep_once(states.copy(), cs, UNIT_WEIGHTS, 1.0, cfg)
    from topocsp.constraints import loss_gradient
    g = loss_gradient(states, cs, weights=UNIT_WEIGHTS, norm=MSE)
    expect = states.copy()
    for v in range(n):
        if np.linalg.norm(g[v]) >= 1e-8:
            expect[v] = np.clip(states[v] - cfg.alpha * g[v], -1.0, 1.0)
    assert np.allclose(swept, expect, atol=1e-15)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_comes_back_in_the_trace():
    # one array reports a non-finite energy as a batch row does: NaN final
    # states and a trace that ends with the sweep that blew up
    states = np.zeros((1, 64))
    ref = np.zeros(64)
    ref[0] = 1e200
    cs = ConstraintSet.build(n_nodes=1, anchors={0: ref},
                             separations=[], orderings=[])
    out, trace = project_states(states, cs, UNIT_WEIGHTS, 0.8,
                                ProjectionConfig())
    assert trace.iterations_run >= 1
    assert not np.isfinite(trace.l_total[-1])
    assert trace.failure == _ENERGY_FAILED
    assert np.all(np.isnan(out))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_overflowed_gradient_diverges():
    # a gradient entry past the float range leaves the rank-one step no
    # direction; the sweep reports divergence instead of writing NaN states
    states, cs = single_anchor_problem()
    ref = np.zeros(64)
    ref[0] = 1.5e308
    cs = ConstraintSet.build(n_nodes=1, anchors={0: ref},
                             separations=[], orderings=[])
    out, stats = sweep_once(states, cs, UNIT_WEIGHTS, 0.8, ProjectionConfig())
    assert stats["diverged"] and not stats["moved"]
    assert out.tobytes() == states.tobytes()


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_nan_gradient_drops_the_candidate():
    # a data weight of 1e308 overflows 2 * w to inf, and inf times the
    # anchored node's zero residual components puts NaN in its gradient; the
    # NaN norm must drop the candidate, not freeze the node
    inst = generate_instance(6, 0)
    cs = inst.constraints
    states = inst.initial_states.copy()
    states[cs.anchor_ids[0], 3:] = cs.anchor_refs[0, 3:]
    weights = np.array([[1e308, 10.0, 2.0]])
    for use_delta, failure in ((True, _STEP_FAILED), (False, _ENERGY_FAILED)):
        cfg = ProjectionConfig(use_delta=use_delta)
        out, (trace,) = project_states(states[None], cs, weights, 0.8, cfg)
        assert trace.failure == failure
        assert trace.sweeps_evaluated == 1
        assert np.all(np.isnan(out))


def test_grad_clip_limits_reported_norms(rng):
    # with clipping at 1 the applied plain step per node is bounded by
    # alpha * 1; reported grad stats are pre-clip, so they can exceed the cap
    states = np.zeros((2, 64))
    ref = np.zeros(64)
    ref[:] = 50.0
    cs = ConstraintSet.build(n_nodes=2, anchors={0: ref, 1: -ref},
                             separations=[], orderings=[])
    cfg = ProjectionConfig(grad_clip=1.0, use_curvature=False,
                           use_delta=False)
    out, stats = sweep_once(states.copy(), cs, UNIT_WEIGHTS, 1.0, cfg)
    step = np.linalg.norm(out - states, axis=1)
    assert np.all(step <= cfg.alpha * 1.0 + 1e-12)
    assert stats["grad_max"] > 1.0

    cfg_off = ProjectionConfig(grad_clip=None, use_curvature=False,
                               use_delta=False)
    out2, _ = sweep_once(states.copy(), cs, UNIT_WEIGHTS, 1.0, cfg_off)
    step2 = np.linalg.norm(out2 - states, axis=1)
    assert np.all(step2 > step)


def test_state_clip_bounds(rng):
    states = random_states(rng, 3)
    cs = random_constraint_set(rng, 3)
    out, _ = project_states(states, cs, UNIT_WEIGHTS, 0.8,
                            ProjectionConfig())
    assert np.all(out >= -1.0) and np.all(out <= 1.0)


def test_deterministic_repeat(rng):
    states = random_states(rng, 5)
    cs = random_constraint_set(rng, 5)
    out1, tr1 = project_states(states, cs, UNIT_WEIGHTS, 0.8,
                               ProjectionConfig())
    out2, tr2 = project_states(states, cs, UNIT_WEIGHTS, 0.8,
                               ProjectionConfig())
    assert np.array_equal(out1, out2)
    assert np.array_equal(tr1.l_total, tr2.l_total)
    assert np.array_equal(tr1.grad_mean, tr2.grad_mean)


def test_config_validation():
    with pytest.raises(ValueError):
        ProjectionConfig(t_max=0)
    with pytest.raises(ValueError):
        ProjectionConfig(grad_clip=0.0)
    # the loop's constants read from a config but cannot be set
    cfg = ProjectionConfig()
    assert (cfg.alpha, cfg.tau, cfg.state_clip) == (0.01, 1e-6, (-1.0, 1.0))
    for name in ("alpha", "tau", "state_clip", "epsilon"):
        with pytest.raises(TypeError):
            ProjectionConfig(**{name: getattr(cfg, name)})


def test_beta_outside_its_range_rejected():
    # with the rank-one step on, beta must lie in [0, 2], as one number or
    # as one per batch row; with the step off it is not read
    inst = generate_instance(6, 1)
    states, cs = inst.initial_states, inst.constraints
    batch = np.stack([states] * 3)
    cfg = ProjectionConfig()
    for bad in (-0.1, 2.5, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"beta must be in \[0, 2\]"):
            project_states(states, cs, DEFAULT_WEIGHTS, bad, cfg)
        with pytest.raises(ValueError, match=r"beta must be in \[0, 2\]"):
            project_states(batch, cs, DEFAULT_WEIGHTS,
                           np.array([0.8, bad, 1.0]), cfg)
    for good in (0.0, 2.0):
        _, trace = project_states(states, cs, DEFAULT_WEIGHTS, good, cfg)
        assert trace.failure is None
        _, traces = project_states(batch, cs, DEFAULT_WEIGHTS,
                                   np.array([good, 0.8, good]), cfg)
        assert all(tr.failure is None for tr in traces)
    project_states(states, cs, DEFAULT_WEIGHTS, 5.0,
                   ProjectionConfig(use_delta=False))


def batch_problem():
    """Three nodes under every family, and five start states for them: two
    ordinary ones, one sitting at a fixed point above tau (all nodes at one
    position, so the separation hinges are at their zero-distance
    subgradient and nothing else is violated), one a hair from a satisfied
    state, and one whose data weight overflows its gradient."""
    ref = np.zeros(64)
    ref[:3] = (0.1, 0.2, 0.3)
    cs = ConstraintSet.build(
        n_nodes=3, anchors={0: ref},
        separations=[(0, 1, 0.1), (1, 2, 0.1), (0, 2, 0.1)],
        orderings=[(0, 1, 0, 0.0)])
    rng = np.random.default_rng(11)
    states = rng.uniform(-0.5, 0.5, size=(5, 3, 64))
    states[:4, 0, 3:] = ref[3:]
    states[2] = np.tile(ref, (3, 1))
    states[3] = np.tile(ref, (3, 1))
    states[3, 1, 0] += 0.5
    states[3, 2, 0] += 1.0
    states[3, 0, 3] += 1e-4
    weights = np.array([[1.0, 10.0, 2.0], [3.0, 0.5, 7.0], [1.0, 10.0, 2.0],
                        [2.0, 4.0, 1.0], [1e308, 10.0, 2.0]])
    beta = np.array([0.8, 1.7, 0.3, 1.0, 0.8])
    return states, cs, weights, beta


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_batch_rows_match_running_alone():
    # one call over candidates with distinct weights and beta returns, per
    # candidate, the states and trace of that candidate run alone, bit for
    # bit; a candidate whose gradient overflows is dropped without touching
    # the others
    states, cs, weights, beta = batch_problem()
    cfg = ProjectionConfig()
    out, traces = project_states(states, cs, weights, beta, cfg)
    assert out.shape == states.shape and len(traces) == 5
    for p in range(4):
        alone, tr = project_states(states[p], cs, LossWeights(*weights[p]),
                                   beta[p], cfg)
        assert out[p].tobytes() == alone.tobytes()
        for f in ("l_total", "l_data", "l_phys", "l_logic", "grad_max",
                  "grad_mean", "start_states"):
            assert getattr(traces[p], f).tobytes() == getattr(tr, f).tobytes()
        for f in ("iterations_run", "sweeps_evaluated", "failure"):
            assert getattr(traces[p], f) == getattr(tr, f)
    alone, tr = project_states(states[4], cs, LossWeights(*weights[4]),
                               beta[4], cfg)
    assert tr.failure == traces[4].failure == _STEP_FAILED
    assert np.all(np.isnan(alone))
    assert traces[4].failure is not None
    assert np.all(np.isnan(out[4]))

    # each trace has one row per sweep run; the failed line-search step
    # leaves no row
    ordinary, fixed, early = traces[1], traces[2], traces[3]
    assert ordinary.iterations_run == ordinary.sweeps_evaluated == cfg.t_max
    assert traces[0].failure is None and traces[0].l_total[-1] < cfg.tau
    assert traces[0].iterations_run == traces[0].sweeps_evaluated
    assert traces[4].iterations_run == 0 and traces[4].sweeps_evaluated == 1
    # the fixed point is swept once, and its one row is that no-op sweep
    assert fixed.iterations_run == fixed.sweeps_evaluated == 1
    assert fixed.failure is None and fixed.l_total[-1] >= cfg.tau
    assert np.array_equal(fixed.start_states[-1], out[2])
    assert np.array_equal(out[2], states[2])
    assert early.failure is None and early.l_total[-1] < cfg.tau
    assert early.iterations_run < cfg.t_max
    assert early.sweeps_evaluated == early.iterations_run


@pytest.mark.parametrize("rows", [[0], [1], [2], [3],
                                  [0, 1, 2, 3, 3, 2, 1, 0]])
def test_carried_start_gradient_changes_nothing(rows):
    # a start gradient handed in runs the loop bit for bit as the one
    # evaluated in the call; row 0 leaves at tau, row 2 at a fixed point and
    # row 3 early; a next call started from each row's final_grad is the
    # same as one that evaluates its start again
    states, cs, weights, beta = batch_problem()
    cfg = ProjectionConfig()
    start, w, b = states[rows], weights[rows], beta[rows]
    fields = ROW_FIELDS + ("start_states", "final_grad")
    grad = C.loss_components(start, cs, cfg.norm, w).grad
    runs = []
    for carried in (None, grad):
        out, traces = project_states(start, cs, w, b, cfg, carried)
        again = project_states(
            out, cs, w, b, cfg,
            None if carried is None else [tr.final_grad for tr in traces])
        runs.append((out, traces) + again)
    (out, traces, out2, traces2), carried = runs
    assert out.tobytes() == carried[0].tobytes()
    assert out2.tobytes() == carried[2].tobytes()
    for tr, ct in zip(traces + traces2, carried[1] + carried[3]):
        for f in fields:
            assert getattr(tr, f).tobytes() == getattr(ct, f).tobytes()
        for f in ("sweeps_evaluated", "failure"):
            assert getattr(tr, f) == getattr(ct, f)
    for p, tr in enumerate(traces):
        # final_grad is the gradient at the final states, one row's copy
        at_end = C.loss_components(out[p], cs, cfg.norm,
                                   LossWeights(*w[p])).grad
        assert tr.final_grad.tobytes() == at_end.tobytes()
        assert tr.final_grad.base is None
    for p, row in enumerate(rows):
        if row == 0:
            assert traces[p].l_total[-1] < cfg.tau
        if row == 2:
            # a fixed point ends its trace with the sweep that moved nothing
            fixed = traces[p]
            assert fixed.iterations_run == fixed.sweeps_evaluated < cfg.t_max
            assert out[p].tobytes() == fixed.start_states[-1].tobytes()


def test_batch_takes_one_weighting_for_all():
    # one LossWeights and one beta apply to every batch row
    states, cs, weights, beta = batch_problem()
    cfg = ProjectionConfig()
    a, ta = project_states(states[:4], cs, DEFAULT_WEIGHTS, 0.8, cfg)
    b, tb = project_states(states[:4], cs, np.tile(weights[0], (4, 1)),
                           np.full(4, 0.8), cfg)
    assert a.tobytes() == b.tobytes()
    assert [t.l_total.tobytes() for t in ta] == [t.l_total.tobytes()
                                                 for t in tb]


def test_broadcast_batch_matches_running_alone(rng):
    # the search hands over a broadcast view of one state array; each row
    # must still sum like a single state array
    n = 6
    start = random_states(rng, n)
    cs = random_constraint_set(rng, n)
    weights = rng.uniform(0.5, 10.0, size=(4, 3))
    beta = rng.uniform(0.2, 1.8, size=4)
    cfg = ProjectionConfig()
    out, traces = project_states(np.broadcast_to(start, (4, n, 64)), cs,
                                 weights, beta, cfg)
    for p in range(4):
        alone, tr = project_states(start, cs, LossWeights(*weights[p]),
                                   beta[p], cfg)
        assert out[p].tobytes() == alone.tobytes()
        assert traces[p].l_total.tobytes() == tr.l_total.tobytes()


def test_one_evaluation_per_swept_state(monkeypatch):
    # the start states are evaluated once; then each sweep evaluates its new
    # states once, and the rank-one step its secant point once; a row that
    # has left the batch is not evaluated again
    states, cs, weights, beta = batch_problem()
    rows = [1, 2, 3]  # runs every sweep; a fixed point; converges early
    calls = []

    def counting(real):
        def counted(states, *args, **kwargs):
            calls.append(len(states))
            return real(states, *args, **kwargs)
        return counted

    # the start and the secant evaluate the gradient alone
    for name in ("loss_components", "loss_gradient"):
        monkeypatch.setattr(C, name, counting(getattr(C, name)))
    for use_delta, per_sweep in ((True, 2), (False, 1)):
        cfg = ProjectionConfig(use_delta=use_delta)
        calls.clear()
        _, traces = project_states(states[rows], cs, weights[rows],
                                   beta[rows], cfg)
        evaluated = [tr.sweeps_evaluated for tr in traces]
        assert evaluated[0] == cfg.t_max and evaluated[1] == 1
        assert len(calls) == per_sweep * cfg.t_max + 1
        assert sum(calls) == sum(per_sweep * k + 1 for k in evaluated)


# the projection configs of the three variants, each under both norms
RANK_CONFIGS = {
    f"{name}-{norm}": ProjectionConfig(norm=norm, **flags)
    for name, flags in (
        ("baseline", dict(grad_clip=None, use_delta=False,
                          use_curvature=False)),
        ("v1", dict(grad_clip=None, use_delta=False, use_curvature=True)),
        ("v2", {}))
    for norm in (C.MSE, C.SSE)}


def rank_cases():
    """{name: (states (n, 64), cs, weights (3,), beta)}: the rows of
    batch_problem that run every sweep, sit at a fixed point and leave
    early, the start of test_nan_gradient_drops_the_candidate, whose data
    weight overflows its gradient, and the one-node problem of
    test_overflowed_gradient_diverges, whose anchor overflows it."""
    states, cs, weights, beta = batch_problem()
    cases = {name: (states[p], cs, weights[p], beta[p])
             for name, p in (("ordinary", 1), ("fixed", 2), ("early", 3))}
    inst = generate_instance(6, 0)
    start = inst.initial_states.copy()
    c6 = inst.constraints
    start[c6.anchor_ids[0], 3:] = c6.anchor_refs[0, 3:]
    cases["overflowed weight"] = (start, c6, np.array([1e308, 10.0, 2.0]),
                                  0.8)
    one, _ = single_anchor_problem()
    ref = np.zeros(64)
    ref[0] = 1.5e308
    cases["overflowed anchor"] = (
        one, ConstraintSet.build(n_nodes=1, anchors={0: ref}),
        np.ones(3), 0.8)
    return cases


def run_three_ways(run, states, cs, weights, beta, cfg):
    """(states, report) of run, project_states or sweep_once, on one
    (n, 64) array, on a one-row batch and as row 1 of a three-row batch;
    a batch's report is taken at that row."""
    def row(report, i):
        if isinstance(report, list):  # project_states' traces
            return report[i]
        return {k: v[i] for k, v in report.items()}  # sweep_once's stats

    runs = [run(states, cs, weights, beta, cfg)]
    out, report = run(states[None], cs, weights[None], np.array([beta]), cfg)
    runs.append((out[0], row(report, 0)))
    other = np.array([1.0, 10.0, 2.0])
    out, report = run(np.stack([states] * 3), cs,
                      np.stack([other, weights, other]),
                      np.array([1.3, beta, 0.5]), cfg)
    runs.append((out[1], row(report, 1)))
    return runs


def outcome(trace, cfg):
    if trace.failure is not None:
        return trace.failure
    if trace.l_total[-1] < cfg.tau:
        return "below tau"
    return "every sweep" if trace.iterations_run == cfg.t_max \
        else "fixed point"


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_one_array_one_row_batch_and_batch_row_agree():
    # one code path runs both ranks: a state array, a batch of that one
    # row and that row among others end the same, bit for bit, whether the
    # row runs every sweep, stops at a fixed point or below tau, or is
    # dropped for a non-finite energy or line-search step
    seen = set()
    for cfg in RANK_CONFIGS.values():
        for states, cs, weights, beta in rank_cases().values():
            runs = run_three_ways(project_states, states, cs, weights, beta,
                                  cfg)
            (single, first), rest = runs[0], runs[1:]
            seen.add(outcome(first, cfg))
            assert single.shape == states.shape
            rest.append((single, first))
            for out, trace in rest:
                assert out.tobytes() == rest[0][0].tobytes()
                assert np.all(np.isnan(out)) == (first.failure is not None)
                for f in ROW_FIELDS + ("start_states",):
                    assert getattr(trace, f).tobytes() == \
                        getattr(first, f).tobytes()
                for f in ("sweeps_evaluated", "failure"):
                    assert getattr(trace, f) == getattr(first, f)
                if first.final_grad is None:
                    assert trace.final_grad is None
                else:
                    assert trace.final_grad.tobytes() == \
                        first.final_grad.tobytes()
    assert seen == {"every sweep", "fixed point", "below tau",
                    _ENERGY_FAILED, _STEP_FAILED}


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_one_array_one_row_batch_and_batch_row_sweep_alike():
    # one sweep of a state array, of a batch of that one row and of that row
    # among others gives the same bits and stats, whether the row moves,
    # sits at a fixed point or meets a non-finite line-search step
    seen = set()
    for cfg in RANK_CONFIGS.values():
        for states, cs, weights, beta in rank_cases().values():
            (single, first), *rest = run_three_ways(
                sweep_once, states, cs, weights, beta, cfg)
            assert single.shape == states.shape
            seen.add((bool(first["moved"]), bool(first["diverged"])))
            if first["diverged"]:
                assert single.tobytes() == states.tobytes()
            for out, stats in rest:
                assert out.tobytes() == single.tobytes()
                for k in ("moved", "diverged", "grad_max", "grad_mean"):
                    assert np.asarray(stats[k]).tobytes() == \
                        np.asarray(first[k]).tobytes()
    assert seen == {(True, False), (False, False), (False, True)}


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_moved_is_some_node_above_epsilon():
    # read from the max norm, moved is "some node's norm is not below
    # epsilon", a NaN norm included, less the rows whose step diverged
    seen_nan = False
    for cfg in RANK_CONFIGS.values():
        for states, cs, weights, beta in rank_cases().values():
            norms = C.row_norms(C.loss_gradient(states, cs, weights,
                                                cfg.norm))
            seen_nan |= bool(np.isnan(norms).any())
            want = np.logical_or.reduce(~(norms < cfg.epsilon), axis=-1)
            pair = (np.stack([states] * 2), np.stack([weights] * 2),
                    np.array([beta] * 2))
            for rows, w, b in ((states, weights, beta), pair):
                _, st = sweep_once(rows, cs, w, b, cfg)
                assert np.array_equal(st["moved"], want & ~st["diverged"])
    assert seen_nan


def test_inactive_node_out_of_bounds_keeps_its_value():
    # an unanchored node with a zero gradient does not move, so the clip to
    # [-1, 1] does not reach it
    inst = generate_instance(6, 1)
    states = inst.initial_states.copy()
    states[5, 10] = 3.0
    assert 5 not in inst.constraints.anchor_ids
    for name in ("baseline", "v1", "v2"):
        cfg = RANK_CONFIGS[f"{name}-{C.MSE}"]
        grad = C.loss_gradient(states, inst.constraints, DEFAULT_WEIGHTS,
                               cfg.norm)
        assert not grad[5].any()
        out, st = sweep_once(states, inst.constraints, DEFAULT_WEIGHTS, 0.8,
                             cfg)
        assert st["moved"]
        assert out[5, 10] == 3.0
        assert out[5].tobytes() == states[5].tobytes()
        assert np.all(np.abs(np.delete(out, 5, axis=0)) <= 1.0)
