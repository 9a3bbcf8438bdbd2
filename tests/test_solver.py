import hashlib

import numpy as np
import pytest

from topocsp import solver
from topocsp.cmaes import STALL_GENERATIONS, STALL_REL
from topocsp.constraints import (DEFAULT_WEIGHTS, MSE, ConstraintSet,
                                 LossWeights, total_energy)
from topocsp.errors import DivergenceError
from topocsp.problems import (ProblemInstance, generate_instance,
                              physics_aware_init)
from topocsp.projection import (ROW_FIELDS, ProjectionConfig,
                                project_states, sweep_once)
from topocsp.solver import (GUARD_PATIENCE, PRESETS, JacobianStats,
                            VariantConfig, jacobian_stats, solve,
                            update_map_jacobian, variant)


def test_presets_exist():
    assert set(PRESETS) == {"baseline", "v1", "v2"}
    base = variant("baseline")
    assert not any(base.flags())
    v2 = variant("v2")
    assert all(v2.flags())
    v1 = variant("v1")
    assert v1.use_curvature and not v1.use_cmaes


def test_unknown_variant():
    with pytest.raises(ValueError):
        variant("v3")


def test_canonical_name_matches_presets():
    same_as_v2 = VariantConfig(name="custom", use_mse=True,
                               use_grad_clip=True, use_physics_init=True,
                               use_delta=True, use_curvature=True,
                               use_cmaes=True)
    assert same_as_v2.canonical_name == "v2"
    odd = VariantConfig(name="odd", use_mse=True)
    assert odd.canonical_name == "odd"


def test_custom_all_off_equals_baseline():
    inst = generate_instance(4, seed=21)
    a = solve(inst, variant("baseline"), budget=60, seed=21)
    custom = VariantConfig(name="nothing")
    b = solve(inst, custom, budget=60, seed=21)
    assert np.array_equal(a.final_states, b.final_states)
    assert a.final_energy == b.final_energy
    assert a.steps == b.steps


def test_seed_determinism_bitwise():
    inst = generate_instance(5, seed=8)
    a = solve(inst, variant("v2"), budget=80, seed=8)
    b = solve(inst, variant("v2"), budget=80, seed=8)
    assert np.array_equal(a.final_states, b.final_states)
    assert a.final_energy == b.final_energy
    assert a.steps == b.steps
    assert a.adopted_energies == b.adopted_energies


def test_already_satisfied_fast_exit():
    # the positions are the grid start that v2 draws at seed 0, so every
    # preset starts at zero energy and sweeps nothing
    states = np.zeros((2, 64))
    states[:, :3] = physics_aware_init(2, 0, 0.1)
    cs = ConstraintSet.build(n_nodes=2, anchors={0: states[0].copy()},
                             separations=[(0, 1, 0.1)],
                             orderings=[(0, 1, 2, 0.5)])
    inst = ProblemInstance(n=2, initial_states=states, constraints=cs)
    for name in PRESETS:
        res = solve(inst, variant(name), budget=100, seed=0)
        assert res.success
        assert res.final_energy == 0.0
        assert res.steps == 0
        assert res.sweeps_evaluated == 0
        assert res.stopped_by == "tolerance"
        assert np.array_equal(res.final_states, states)


def test_budget_and_trace_accounting():
    inst = generate_instance(6, seed=3)
    for name in ("baseline", "v1", "v2"):
        res = solve(inst, variant(name), budget=120, seed=3)
        # one adopted inner call may finish past the cap, never more
        assert res.steps <= 120 + 10
        assert res.trace.n_steps == res.steps
        assert len(res.trace.l_total) == res.steps
        assert res.wall_time >= 0.0
        assert np.isfinite(res.final_energy)


def test_final_energy_is_best_ever():
    inst = generate_instance(6, seed=14)
    res = solve(inst, variant("v2"), budget=200, seed=14)
    if res.adopted_energies:
        assert res.final_energy <= min(res.adopted_energies) + 1e-15


def test_guard_limits_consecutive_increases():
    inst = generate_instance(6, seed=5)
    res = solve(inst, variant("v2"), budget=400, seed=5)
    run = 0
    worst = 0
    for prev, cur in zip(res.adopted_energies, res.adopted_energies[1:]):
        run = run + 1 if cur > prev + 1e-12 else 0
        worst = max(worst, run)
    assert worst <= GUARD_PATIENCE


def test_variant_zero_steps_never_happens():
    inst = generate_instance(4, seed=2)
    res = solve(inst, variant("v2"), budget=50, seed=2)
    assert res.steps >= 1
    assert res.generations >= 1


def test_fixed_variants_report_no_generations():
    inst = generate_instance(4, seed=2)
    res = solve(inst, variant("baseline"), budget=50, seed=2)
    assert res.generations == 0
    assert res.cma_history == []
    # the fixed path records one energy per projection call, non-increasing
    assert len(res.adopted_energies) >= 1
    for prev, cur in zip(res.adopted_energies, res.adopted_energies[1:]):
        assert cur <= prev + 1e-9


def test_physics_init_respected():
    inst = generate_instance(6, seed=17)
    res_v2 = solve(inst, variant("v2"), budget=10, seed=17,
                   record_states=True)
    start = res_v2.recorded_states[0]
    # grid start: every pair separated by at least the instance minimum
    for i in range(6):
        for j in range(i + 1, 6):
            d = np.linalg.norm(start[i, :3] - start[j, :3])
            assert d >= inst.min_sep - 1e-12


def test_update_map_jacobian_beta_zero_identity():
    inst = generate_instance(3, seed=6)
    cfg = ProjectionConfig(use_curvature=False, state_clip=None)
    jac = update_map_jacobian(inst.initial_states, inst.constraints,
                              DEFAULT_WEIGHTS, beta=0.0, cfg=cfg, node=0)
    eig = np.linalg.eigvalsh((jac + jac.T) / 2)
    assert np.max(np.abs(eig - 1.0)) < 1e-6


def per_probe_jacobian(states, cs, weights, beta, cfg, node, h=1e-5):
    """Oracle: the update-map Jacobian from one single-array sweep per
    shifted state, one column at a time."""
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


@pytest.mark.parametrize("use_delta", [True, False],
                         ids=["delta", "no-delta"])
def test_batched_jacobian_matches_per_probe_oracle(use_delta):
    inst = generate_instance(5, seed=11)
    cfg = ProjectionConfig(use_delta=use_delta)
    weights = LossWeights(1.5, 8.0, 2.5)
    for node in (0, 3):
        want = per_probe_jacobian(inst.initial_states, inst.constraints,
                                  weights, 0.7, cfg, node)
        got = update_map_jacobian(inst.initial_states, inst.constraints,
                                  weights, 0.7, cfg, node)
        assert np.array_equal(got, want)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_jacobian_probe_divergence_raises():
    # the overflow setup of test_projection's divergence test: a gradient
    # entry past the float range leaves the rank-one step no direction
    states = np.zeros((1, 64))
    states[0, 0] = 0.3
    ref = np.zeros(64)
    ref[0] = 1.5e308
    cs = ConstraintSet.build(n_nodes=1, anchors={0: ref},
                             separations=[], orderings=[])
    with pytest.raises(DivergenceError):
        update_map_jacobian(states, cs, LossWeights(1.0, 1.0, 1.0), 0.8,
                            ProjectionConfig(), node=0)


def test_jacobian_stats_fields():
    inst = generate_instance(4, seed=4)
    js = jacobian_stats(inst, variant("v2"), budget=40, seed=4)
    assert isinstance(js, JacobianStats)
    assert js.grad_max >= js.grad_mean >= 0.0
    assert np.isfinite(js.lambda_max_j)
    assert js.cond_j >= 1.0
    assert js.divergence_flag in (False, True)
    assert js.final_energy >= 0.0


def test_solve_rejects_bad_budget():
    inst = generate_instance(3, seed=0)
    with pytest.raises(ValueError):
        solve(inst, variant("v2"), budget=0, seed=0)


def test_sweeps_evaluated_counts_the_work():
    inst = generate_instance(6, seed=3)
    for name in ("baseline", "v1"):
        res = solve(inst, variant(name), budget=120, seed=3)
        assert res.sweeps_evaluated == res.steps
    res = solve(inst, variant("v2"), budget=120, seed=3)
    assert res.generations >= 1
    assert res.steps <= res.sweeps_evaluated <= 8 * 10 * res.generations


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_start_energy_rejected():
    # finite inputs whose energy overflows are refused by every variant
    states = np.zeros((2, 64))
    ref = np.zeros(64)
    ref[0] = 1e200
    cs = ConstraintSet.build(n_nodes=2, anchors={0: ref})
    inst = ProblemInstance(n=2, initial_states=states, constraints=cs)
    for name in PRESETS:
        with pytest.raises(ValueError, match="start energy"):
            solve(inst, variant(name), budget=10, seed=0)


def test_search_stops_when_it_stalls():
    inst = generate_instance(6, seed=0)
    res = solve(inst, variant("v2"), budget=500, seed=0)
    assert res.stopped_by == "stagnation"
    assert res.steps < 500
    # replay the rule from the start energy: the run without a gain reaches
    # STALL_GENERATIONS at the last generation and not before
    start = np.array(inst.initial_states)
    start[:, :3] = physics_aware_init(6, 0, inst.min_sep)
    best = total_energy(start, inst.constraints, DEFAULT_WEIGHTS, MSE)
    run, runs = 0, []
    for e in res.adopted_energies:
        run = 0 if e < best * (1.0 - STALL_REL) else run + 1
        best = min(best, e)
        runs.append(run)
    assert len(runs) == res.generations
    assert runs[-1] == STALL_GENERATIONS
    assert max(runs[:-1]) < STALL_GENERATIONS


def test_stopped_by_names_the_stop():
    v2 = variant("v2")
    assert solve(generate_instance(6, seed=1), v2, seed=1).stopped_by == \
        "tolerance"
    assert solve(generate_instance(6, seed=0), v2, budget=20,
                 seed=0).stopped_by == "budget"
    for name in ("baseline", "v1"):
        stops = {solve(generate_instance(6, seed=s), variant(name), budget=b,
                       seed=s).stopped_by for s in range(4) for b in (30, 500)}
        assert stops == {"budget", "tolerance"}


@pytest.mark.parametrize("name,digest", [
    ("baseline",
     "aceeb7fd748a21a372d628f64dcf1b7f8a64151b2e04d28c1a4d53b6fb48a029"),
    ("v1",
     "bc239d75dad2c9927c2d89ccaab6febeaf0f72a181a434568af213a150213677"),
], ids=["baseline", "v1"])
def test_fixed_variants_unchanged_at_n20(name, digest):
    # sha256 of the final states at the default budget: the fixed-weight
    # path runs no search, so no search rule may move them. v1 scales its
    # steps by curvature, so its digest pins the dense curvature's rounding
    res = solve(generate_instance(20, seed=5), variant(name), seed=5)
    states = np.ascontiguousarray(res.final_states, dtype="<f8")
    assert hashlib.sha256(states.tobytes()).hexdigest() == digest


KEPT = 3  # trace rows a failed projection call leaves


def fail_from_call(monkeypatch, k):
    """Make solver.project_states fail every row from its k-th call on,
    keeping the first KEPT rows of each trace; returns each call's traces."""
    calls = []

    def failing(batch, cs, weights, beta, cfg):
        outs, traces = project_states(batch, cs, weights, beta, cfg)
        calls.append(traces)
        if len(calls) < k:
            return outs, traces
        for tr in traces:
            for f in ROW_FIELDS:
                setattr(tr, f, getattr(tr, f)[:KEPT])
            tr.start_states = tr.start_states[:KEPT]
            tr.iterations_run = KEPT
            tr.failure = "energy became non-finite"
        return np.full_like(outs, np.nan), traces
    monkeypatch.setattr(solver, "project_states", failing)
    return calls


def test_fixed_run_divergence_keeps_its_partial_rows(monkeypatch):
    calls = fail_from_call(monkeypatch, 2)
    res = solve(generate_instance(6, seed=0), variant("baseline"), seed=0)
    assert len(calls) == 2
    first, failed = calls[0][0], calls[1][0]
    assert first.iterations_run == 10
    assert res.diverged
    assert res.stopped_by == "diverged"
    assert not res.success
    assert res.failure == "energy became non-finite"
    # the adopted call's rows, then the rows swept before the failure
    assert res.steps == res.trace.n_steps == 10 + KEPT
    assert np.array_equal(res.trace.step_mean,
                          np.concatenate([first.step_mean, failed.step_mean]))
    assert res.adopted_energies == [float(first.l_total[-1])]
    assert res.final_energy == res.adopted_energies[0]
    assert np.isfinite(res.final_states).all()


def test_search_divergence_keeps_only_adopted_rows(monkeypatch):
    calls = fail_from_call(monkeypatch, 2)
    res = solve(generate_instance(6, seed=0), variant("v2"), seed=0)
    assert len(calls) == 2
    fits = [DEFAULT_WEIGHTS.as_array()
            @ [tr.l_data[-1], tr.l_phys[-1], tr.l_logic[-1]]
            for tr in calls[0]]
    adopted = calls[0][int(np.argmin(fits))]
    assert res.diverged
    assert res.stopped_by == "diverged"
    assert not res.success
    assert res.failure == "all candidates diverged"
    assert res.generations == 2
    # no row of the failed generation is kept
    assert res.steps == res.trace.n_steps == adopted.iterations_run
    assert np.array_equal(res.trace.step_mean, adopted.step_mean)
    assert len(res.adopted_energies) == 1
    assert np.isfinite(res.final_states).all()
