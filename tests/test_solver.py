import hashlib
import weakref

import numpy as np
import pytest

from topocsp import constraints as C
from topocsp import solver
from topocsp.cmaes import (STALL_GENERATIONS, STALL_REL, ParamEncoding,
                            cma_init, stall_count)
from topocsp.constraints import (DEFAULT_WEIGHTS, MSE, ConstraintSet,
                                 LossWeights, total_energy, weighted_total)
from topocsp.errors import DivergenceError
from topocsp.problems import (ProblemInstance, generate_instance,
                              physics_aware_init)
from topocsp.projection import (ROW_FIELDS, ProjectionConfig,
                                ProjectionTrace, project_states, sweep_once)
from topocsp.solver import (GUARD_PATIENCE, PRESETS, VariantConfig, solve,
                            update_map_jacobian, update_map_spectrum,
                            variant)
from topocsp.studies import ablation_configs, derive_seed


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
        assert res.steps <= 120
        assert isinstance(res.trace, ProjectionTrace)
        assert res.trace.iterations_run == res.steps
        assert len(res.trace.l_total) == res.steps
        assert res.wall_time >= 0.0
        assert np.isfinite(res.final_energy)


@pytest.mark.parametrize("name", ["baseline", "v1", "v2"])
@pytest.mark.parametrize("budget", [1, 5, 25])
def test_budget_is_an_upper_bound(name, budget):
    # the last call is cut to the sweeps the budget has left
    res = solve(generate_instance(6, seed=3), variant(name), budget=budget,
                seed=3)
    assert res.steps == budget
    assert res.stopped_by == "budget"


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
    # the fixed path records one energy per projection call, non-increasing
    assert len(res.adopted_energies) >= 1
    for prev, cur in zip(res.adopted_energies, res.adopted_energies[1:]):
        assert cur <= prev + 1e-9


def test_physics_init_respected():
    inst = generate_instance(6, seed=17)
    res_v2 = solve(inst, variant("v2"), budget=10, seed=17,
                   record_states=True)
    start = res_v2.trace.start_states[0]
    # grid start: every pair separated by at least the instance minimum
    for i in range(6):
        for j in range(i + 1, 6):
            d = np.linalg.norm(start[i, :3] - start[j, :3])
            assert d >= inst.min_sep - 1e-12


@pytest.mark.parametrize("name", ["baseline", "v1"])
def test_fixed_run_trace_ends_each_call_at_its_adopted_energy(
        monkeypatch, name):
    rows = []

    def counting(*args):
        outs, traces = project_states(*args)
        rows.append(traces[0].iterations_run)
        return outs, traces
    monkeypatch.setattr(solver, "project_states", counting)
    res = solve(generate_instance(6, seed=4), variant(name), budget=60,
                seed=4)
    assert len(rows) == len(res.adopted_energies) >= 2
    ends = np.cumsum(rows) - 1
    # bitwise: the trace's re-weighted energy is the score that was adopted
    assert res.trace.l_total[ends].tolist() == res.adopted_energies


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_start_states_recorded_only_on_request(name):
    inst = generate_instance(5, seed=8)
    res = solve(inst, variant(name), budget=30, seed=8)
    assert res.trace.start_states.shape == (0, 5, 64)
    rec = solve(inst, variant(name), budget=30, seed=8, record_states=True)
    assert rec.trace.start_states.shape == (rec.steps, 5, 64)
    # recording changes nothing else, the pair of each row included
    assert len(rec.adopted_params) == len(res.adopted_params) == res.steps
    for (lam, beta), (lam_r, beta_r) in zip(res.adopted_params,
                                            rec.adopted_params):
        assert np.array_equal(lam, lam_r) and beta == beta_r
    assert np.array_equal(rec.trace.l_total, res.trace.l_total)
    assert np.array_equal(rec.final_states, res.final_states)
    if not variant(name).use_physics_init:
        assert np.array_equal(rec.trace.start_states[0], inst.initial_states)


def test_search_starts_from_reference_pair(monkeypatch):
    means = []

    def spying(d, m0, sigma0):
        means.append(np.array(m0))
        return cma_init(d, m0, sigma0)
    monkeypatch.setattr(solver, "cma_init", spying)
    monkeypatch.setattr(solver, "DEFAULT_BETA", 0.5)
    solve(generate_instance(4, seed=3), variant("v2"), budget=20, seed=3)
    (m0,) = means
    lam, beta = ParamEncoding.decode(m0)
    assert np.allclose(lam, DEFAULT_WEIGHTS.as_array(), rtol=1e-12)
    assert beta == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_adopted_params_hold_one_pair_per_row(monkeypatch, name, record):
    calls = []

    def spying(batch, cs, weights, beta, cfg, grad=None):
        outs, traces = project_states(batch, cs, weights, beta, cfg, grad)
        calls.append((weights, beta, traces))
        return outs, traces
    monkeypatch.setattr(solver, "project_states", spying)
    res = solve(generate_instance(5, seed=8), variant(name), budget=30,
                seed=8, record_states=record)
    assert len(res.adopted_params) == res.steps
    # each call's adopted candidate scores lowest under the reference
    # weights, and the solve's trace holds its rows re-weighted by them
    ref = DEFAULT_WEIGHTS.as_array()
    want, rows = [], []
    for weights, beta, traces in calls:
        totals = [weighted_total(ref, tr.l_data, tr.l_phys, tr.l_logic)
                  for tr in traces]
        i = int(np.argmin([tot[-1] for tot in totals]))
        want += [(weights[i], beta[i])] * traces[i].iterations_run
        rows.append(totals[i])
    assert np.array_equal(np.concatenate(rows), res.trace.l_total)
    assert len(want) == res.steps
    for (lam, b), (lam_w, b_w) in zip(res.adopted_params, want):
        assert np.array_equal(lam, lam_w) and b == b_w


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("name", sorted(PRESETS))
def test_each_call_frees_the_previous_batch(monkeypatch, name, record):
    # an adopted trace must not keep its call's start-state buffer alive
    buffers = []
    alive = []

    def spying(*args):
        alive.append(sum(ref() is not None for ref in buffers))
        outs, traces = project_states(*args)
        buffers.append(weakref.ref(traces[0].start_states.base))
        return outs, traces
    monkeypatch.setattr(solver, "project_states", spying)
    solve(generate_instance(6, seed=3), variant(name), budget=40, seed=3,
          record_states=record)
    assert len(alive) >= 2
    assert alive == [0] * len(alive)


def test_update_map_jacobian_beta_zero_identity():
    inst = generate_instance(3, seed=6)
    cfg = ProjectionConfig(use_curvature=False)
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


def test_update_map_spectrum():
    inst = generate_instance(4, seed=4)
    vc = variant("v2")
    res = solve(inst, vc, budget=40, seed=4, record_states=True)
    lam_max, cond = update_map_spectrum(res, inst.constraints, vc)
    assert np.isfinite(lam_max)
    assert cond >= 1.0
    # a solve that recorded nothing has nothing to probe
    res = solve(inst, vc, budget=40, seed=4)
    assert update_map_spectrum(res, inst.constraints, vc) == (0.0, 0.0)


def test_update_map_probes_keep_no_cells():
    # the 128-row probe batches read their own scatter cells: the set keeps
    # the table of the solve's largest batch, not one of 128 rows
    inst = generate_instance(20, 5)
    cs = inst.constraints
    vc = variant("v2")
    res = solve(inst, vc, seed=5, record_states=True)
    kept = [a.shape for a in cs._cell_table]
    assert kept[0][0] < 2 * 64
    update_map_spectrum(res, cs, vc)
    assert [a.shape for a in cs._cell_table] == kept


def test_update_map_spectrum_reads_no_cells_of_the_set():
    # a set that served a recorded solve, its cell table built, gives the
    # spectrum bits of a fresh set of the same instance
    inst = generate_instance(6, 3)
    vc = variant("v2")
    res = solve(inst, vc, seed=3, record_states=True)
    served = inst.constraints
    assert served._cell_table is not None
    fresh = generate_instance(6, 3).constraints
    assert fresh._cell_table is None
    got = np.array(update_map_spectrum(res, served, vc))
    assert got.tobytes() == np.array(
        update_map_spectrum(res, fresh, vc)).tobytes()


def test_solve_rejects_bad_budget():
    inst = generate_instance(3, seed=0)
    with pytest.raises(ValueError):
        solve(inst, variant("v2"), budget=0, seed=0)
    # 2.5 used to raise a TypeError mid-run, and True to run one sweep
    for budget in (2.5, True, float("nan"), "ten"):
        with pytest.raises(ValueError, match="budget must be a whole number"):
            solve(inst, variant("baseline"), budget=budget, seed=0)


def test_solve_takes_a_float_budget_with_a_whole_value():
    inst = generate_instance(3, seed=0)
    for name in ("baseline", "v2"):
        a = solve(inst, variant(name), budget=3.0, seed=0)
        b = solve(inst, variant(name), budget=3, seed=0)
        assert a.steps == b.steps <= 3
        assert a.final_states.tobytes() == b.final_states.tobytes()


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


def count_evaluations(monkeypatch):
    """Count the loss evaluations, whole or of the gradient alone."""
    calls = []

    def counting(real):
        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        return counted
    for name in ("loss_components", "loss_gradient"):
        monkeypatch.setattr(C, name, counting(getattr(C, name)))
    return calls


@pytest.mark.parametrize("name", ["baseline", "v1"])
def test_fixed_run_evaluates_each_state_once(monkeypatch, name):
    # the start check's gradient, then each call's final_grad, starts the
    # next call, so a run of k sweeps evaluates the loss k + 1 times
    calls = count_evaluations(monkeypatch)
    res = solve(generate_instance(20, seed=5), variant(name), budget=60,
                seed=5)
    assert res.steps == res.sweeps_evaluated == 60
    assert len(calls) == 60 + 1


@pytest.mark.parametrize("n,seed,evaluations", [(6, 0, 155), (6, 1, 23)])
def test_search_run_evaluates_each_candidate_start(monkeypatch, n, seed,
                                                   evaluations):
    # the search's candidates carry their own weights, so every call
    # evaluates its start states; the counts were taken before the fixed
    # runs began to carry their gradient
    calls = count_evaluations(monkeypatch)
    solve(generate_instance(n, seed=seed), variant("v2"), seed=seed)
    assert len(calls) == evaluations


def test_fixed_run_stops_at_its_fixed_point():
    # with the rank-one step on and no search, this run reaches states its
    # sweeps no longer move after 34 sweeps; it stops there and counts them
    vc = dict(ablation_configs())["+curvature"]
    inst = generate_instance(6, seed=4)
    res = solve(inst, vc, seed=4)
    assert res.stopped_by == "fixed_point"
    assert res.steps == res.trace.iterations_run == res.sweeps_evaluated == 34
    assert res.adopted_energies[-1] == res.final_energy
    assert not res.diverged and res.success
    # a further call, as the run made before it stopped there, would sweep
    # once and hand back the same states
    cfg = solver._projection_config(vc)
    out, trace = project_states(res.final_states, inst.constraints,
                                DEFAULT_WEIGHTS, solver.DEFAULT_BETA, cfg)
    assert out.tobytes() == res.final_states.tobytes()
    assert trace.sweeps_evaluated == 1
    assert np.all(trace.l_total == res.final_energy)


def test_search_steps_count_only_swept_rows(monkeypatch):
    # this v2 run adopts candidates that reach a fixed point before their
    # call's last sweep; steps and the trace count the sweeps they ran
    calls = []

    def spy(*args):
        outs, traces = project_states(*args)
        calls.append(traces)
        return outs, traces
    monkeypatch.setattr(solver, "project_states", spy)
    seed = derive_seed(42, "v2", 6, 4)
    res = solve(generate_instance(6, seed), variant("v2"), seed=seed)
    assert len(calls) == res.generations
    adopted = [traces[int(np.argmin([
        DEFAULT_WEIGHTS.as_array()
        @ [tr.l_data[-1], tr.l_phys[-1], tr.l_logic[-1]] for tr in traces]))]
        for traces in calls]
    assert all(tr.failure is None for tr in adopted)
    swept = [tr.sweeps_evaluated for tr in adopted]
    assert min(swept) < 10
    assert res.steps == res.trace.iterations_run == sum(swept)
    assert np.array_equal(res.trace.l_data,
                          np.concatenate([tr.l_data for tr in adopted]))


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


def force_stops(monkeypatch, tolerance=None, stall_at=None):
    """Set solver.DEEP_TOLERANCE to tolerance, and make the stall count
    reach STALL_GENERATIONS at generation stall_at (counted from 1)."""
    if tolerance is not None:
        monkeypatch.setattr(solver, "DEEP_TOLERANCE", tolerance)
    if stall_at is not None:
        calls = []

        def stalled(stall, best, value):
            calls.append(1)
            return (STALL_GENERATIONS if len(calls) == stall_at
                    else stall_count(stall, best, value))
        monkeypatch.setattr(solver, "stall_count", stalled)


@pytest.mark.parametrize("vc,seed,budget,alone,tolerance,stall,wins", [
    (dict(ablation_configs())["+curvature"], 4, 500, "fixed_point", True,
     False, "tolerance"),
    (variant("baseline"), 0, 30, "budget", True, False, "tolerance"),
    (variant("v2"), 0, 500, None, True, True, "tolerance"),
    (variant("v2"), 0, 20, "budget", False, True, "budget"),
], ids=["tolerance+fixed_point", "tolerance+budget", "tolerance+stagnation",
        "budget+stagnation"])
def test_first_stop_in_order_wins(monkeypatch, vc, seed, budget, alone,
                                  tolerance, stall, wins):
    # the pairs of stops that can hold at one generation: a call cut short
    # at a fixed point leaves budget unspent, and a fixed-weight run never
    # stalls. The tolerance is made to hold first at the generation that
    # reached the final energy, by setting DEEP_TOLERANCE just above it;
    # otherwise that generation is the last one, where the run stops alone
    inst = generate_instance(6, seed)
    res = solve(inst, vc, budget=budget, seed=seed)
    energies = res.adopted_energies
    at = energies.index(res.final_energy) + 1 if tolerance else len(energies)
    if alone is not None:
        assert res.stopped_by == alone and at == len(energies)
    force_stops(monkeypatch,
                np.nextafter(res.final_energy, np.inf) if tolerance else None,
                at if stall else None)
    both = solve(inst, vc, budget=budget, seed=seed)
    assert len(both.adopted_energies) == at
    assert both.adopted_energies == energies[:at]
    assert both.stopped_by == wins


@pytest.mark.parametrize("vc", [vc for _, vc in ablation_configs()],
                         ids=[label for label, _ in ablation_configs()])
def test_off_position_coordinates_never_move(vc):
    # the generator copies each anchored node's off-position components
    # into its reference, and no other constraint reads them, so no sweep
    # moves coordinates 3-63 of a generated instance
    for n in (6, 20):
        for i in range(2):
            seed = derive_seed(42, vc.canonical_name, n, i)
            inst = generate_instance(n, seed)
            res = solve(inst, vc, seed=seed)
            assert (res.final_states[:, 3:].tobytes()
                    == inst.initial_states[:, 3:].tobytes())


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

    def failing(batch, cs, weights, beta, cfg, grad=None):
        outs, traces = project_states(batch, cs, weights, beta, cfg, grad)
        calls.append(traces)
        if len(calls) < k:
            return outs, traces
        for tr in traces:
            for f in ROW_FIELDS:
                setattr(tr, f, getattr(tr, f)[:KEPT])
            tr.start_states = tr.start_states[:KEPT]
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
    assert res.steps == res.trace.iterations_run == 10 + KEPT
    assert np.array_equal(res.trace.l_data,
                          np.concatenate([first.l_data, failed.l_data]))
    assert res.adopted_energies == [float(first.l_total[-1])]
    assert res.final_energy == res.adopted_energies[0]
    assert np.isfinite(res.final_states).all()


@pytest.mark.parametrize("name", ["baseline", "v1"])
def test_fixed_run_divergence_keeps_a_pair_per_kept_row(monkeypatch, name):
    fail_from_call(monkeypatch, 2)
    res = solve(generate_instance(6, seed=0), variant(name), seed=0)
    assert res.diverged
    assert res.steps == 10 + KEPT
    assert len(res.adopted_params) == res.steps
    for lam, beta in res.adopted_params:
        assert np.array_equal(lam, DEFAULT_WEIGHTS.as_array())
        assert beta == solver.DEFAULT_BETA


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
    assert res.steps == res.trace.iterations_run == adopted.iterations_run
    assert np.array_equal(res.trace.l_data, adopted.l_data)
    assert len(res.adopted_energies) == 1
    assert np.isfinite(res.final_states).all()
