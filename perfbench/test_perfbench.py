"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
import dataclasses

import numpy as np
import pytest

import reference
import run
import workloads as W
from energy import energy
from tracer import Tracer, traced

problems = W.load_program()
from topocsp import constraints as C  # noqa: E402
from topocsp import solver  # noqa: E402


def random_constraints(rng, n):
    anchors = {int(v): rng.uniform(-1, 1, 64)
               for v in rng.choice(n, size=rng.integers(0, n + 1),
                                   replace=False)}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    seps = [(a, b, rng.uniform(0.05, 1.0)) for a, b in pairs
            if rng.random() < 0.6]
    ords = [(a, b, int(rng.integers(0, 3)), rng.uniform(0.0, 0.3))
            for a, b in pairs if rng.random() < 0.3]
    return C.ConstraintSet.build(n, anchors, seps, ords)


@pytest.mark.parametrize("norm", ["mse", "sse"])
def test_energy_matches_program(norm):
    rng = np.random.default_rng(5)
    for trial in range(40):
        n = int(rng.integers(2, 12))
        cs = random_constraints(rng, n)
        states = rng.uniform(-1, 1, (n, 64))
        want = C.total_energy(states, cs, C.DEFAULT_WEIGHTS, norm)
        assert energy(states, cs, norm) == pytest.approx(want, rel=1e-12), trial
    inst = problems.generate_instance(20, 3)
    want = C.total_energy(inst.initial_states, inst.constraints,
                          C.DEFAULT_WEIGHTS, norm)
    assert energy(inst.initial_states, inst.constraints,
                  norm) == pytest.approx(want, rel=1e-12)


def first_jobs(name):
    panel = W.make_panel(problems, name)[:1]
    return run.make_jobs(solver, name, panel, seed=11)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_short_run_passes_checks_and_trace_changes_nothing(name):
    jobs = first_jobs(name)
    plain = run.run_round(solver, jobs)
    tracer = Tracer()
    with traced(tracer), tracer.span("bench.round"):
        spans = run.run_round(solver, jobs, tracer)
    checked = run.RoundCheck(problems, repeats=True)
    checked(jobs, plain)
    checked(jobs, spans)
    assert checked.broken == [] and checked.failed == 0
    assert tracer.calls["solver.solve"] == len(jobs)
    assert tracer.calls["projection.sweep_once"] > 0
    # the wrappers are gone again once the trace ends
    assert solver.solve.__module__ == "topocsp.solver"


def test_each_round_draws_its_own_solve_seeds():
    panel = W.make_panel(problems, "v2-n6")
    first, second = (run.make_jobs(solver, "v2-n6", panel, 11, rnd)
                     for rnd in (0, 1))
    assert [j.inst for j in first] == [j.inst for j in second]
    assert not {j.seed for j in first} & {j.seed for j in second}
    assert [j.seed for j in first] == [
        j.seed for j in run.make_jobs(solver, "v2-n6", panel, 11, 0)]


def test_calibrated_round_scales_each_instance_by_its_kernels():
    jobs = first_jobs("fixed-n20")
    rnd = run.run_round(solver, jobs, calibrate=True)
    assert len(rnd.kernel_s) == len(rnd.solve_s) + 1
    want = rnd.solve_s[0] * reference.REFERENCE_S / (
        (rnd.kernel_s[0] + rnd.kernel_s[1]) / 2)
    assert rnd.scaled_solve_s() == [pytest.approx(want, rel=1e-12)]


def test_self_times_add_up_to_wall_time():
    jobs = first_jobs("fixed-n20")
    tracer = Tracer()
    with traced(tracer), tracer.span("bench.round"):
        run.run_round(solver, jobs, tracer)
    root = tracer.names.index("bench.round")
    i = list(tracer.name).index(root)
    wall = tracer.end[i] - tracer.start[i]
    assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=1e-9)
    assert all(v >= 0 for v in tracer.self_s.values())


def test_check_catches_a_wrong_result():
    job = first_jobs("v2-n6")[0]
    res = solver.solve(job.inst, job.vc, seed=job.seed)
    assert run.check(problems, job, res) == ([], False)
    wrong_energy = dataclasses.replace(res, final_energy=res.final_energy * 1.01)
    assert run.check(problems, job, wrong_energy)[0]
    outside = dataclasses.replace(res, final_states=res.final_states * 3.0)
    assert run.check(problems, job, outside) == (
        [f"instance 0 v2 seed {job.seed}: final states not finite or "
         "outside [-1, 1]"], True)
    unsound = dataclasses.replace(res, success=False)
    assert run.check(problems, job, unsound)[0]
