import numpy as np
import pytest

from topocsp.constraints import ConstraintSet
from topocsp.problems import ProblemInstance, generate_instance
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
    states = np.zeros((2, 64))
    states[1, 0] = 0.9
    cs = ConstraintSet.build(n_nodes=2, anchors={0: states[0].copy()},
                             separations=[(0, 1, 0.1)],
                             orderings=[(0, 1, 0, 0.5)])
    inst = ProblemInstance(n=2, initial_states=states, constraints=cs)
    res = solve(inst, variant("baseline"), budget=100, seed=0)
    assert res.success
    assert res.final_energy == 0.0
    assert res.steps <= 10


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
    from topocsp.constraints import DEFAULT_WEIGHTS
    from topocsp.projection import ProjectionConfig
    cfg = ProjectionConfig(use_curvature=False, state_clip=None)
    jac = update_map_jacobian(inst.initial_states, inst.constraints,
                              DEFAULT_WEIGHTS, beta=0.0, cfg=cfg, node=0)
    eig = np.linalg.eigvalsh((jac + jac.T) / 2)
    assert np.max(np.abs(eig - 1.0)) < 1e-6


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
