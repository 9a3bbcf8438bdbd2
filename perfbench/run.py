"""Solver benchmark: one process, one solve at a time, every result checked.

    python3 perfbench/run.py --workload v2-n6 --seed 1 --seconds 35 --trace 0

A round solves every instance of the workload's panel once with each of the
workload's variants. A run repeats whole rounds while the longest round so
far would still end within --seconds, and runs at least one. With --trace 0
each round draws its own solve seeds, times are scaled to a reference
machine speed (reference.py), and the run prints the end-to-end metrics.
With --trace 1 it alternates untraced and traced rounds of round 0's solves
and prints the per-layer metrics. Every solve is checked
against the benchmark's own energy code and the method's properties; a
broken property makes the run print "correct": false and exit 1. The last
line of standard output is the result as one JSON object.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
import workloads as W
from energy import energy
from tracer import Tracer, traced

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 5
WARMUP_KERNELS = 3
SUCCESS_ENERGY = 2.0
GAIN_REL = 1e-6

# Layers timed per call; the names are "<module>.<function>".
TIMED = ("constraints.loss_gradient", "constraints.loss_components",
         "graphs.build_graph", "curvature.node_step_scales",
         "delta.delta_step", "projection.sweep_once",
         "projection.project_states")


@dataclass
class Job:
    index: int
    inst: object
    vc: object
    seed: int


@dataclass
class Round:
    results: list
    solve_s: list  # per instance: the time of its solves, one per variant
    wall_s: float
    kernel_s: list = None  # reference kernel before each instance and at the end

    def scaled_solve_s(self):
        """Each instance's time at the reference speed of its flanking kernels."""
        k = self.kernel_s
        return [reference.scaled(t, k[i], k[i + 1])
                for i, t in enumerate(self.solve_s)]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def make_jobs(solver, name, panel, seed, rnd=0):
    """Round rnd's solves: every instance with each variant, in order."""
    w = W.WORKLOADS[name]
    return [Job(i, inst, solver.variant(v),
                W.derive_seed(seed, rnd, v, w.n, i))
            for i, inst in enumerate(panel) for v in w.variants]


def run_round(solver, jobs, tracer=None, calibrate=False):
    """Solve every job once, timing each instance's solves together.

    With calibrate, the reference kernel runs before each instance's solves
    and once after the last, outside the timed solves.
    """
    results, times, kernel_s = [], {}, []
    t0 = time.perf_counter()
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.solve_id = k
        if calibrate and job.index not in times:
            kernel_s.append(reference.kernel_seconds())
        t = time.perf_counter()
        results.append(solver.solve(job.inst, job.vc, seed=job.seed))
        times[job.index] = times.get(job.index, 0.0) + time.perf_counter() - t
    if calibrate:
        kernel_s.append(reference.kernel_seconds())
    if tracer is not None:
        tracer.solve_id = -1
    return Round(results, list(times.values()), time.perf_counter() - t0,
                 kernel_s if calibrate else None)


def start_states(problems, job):
    """The state the solve starts from."""
    s = np.array(job.inst.initial_states, dtype=float)
    if job.vc.use_physics_init:
        s[:, :3] = problems.physics_aware_init(job.inst.n, job.seed,
                                               job.inst.min_sep)
    return s


def norm_of(vc):
    return "mse" if vc.use_mse else "sse"


def check(problems, job, res):
    """Properties the solve breaks (empty when sound), and whether it failed."""
    cs = job.inst.constraints
    norm = norm_of(job.vc)
    s = res.final_states
    where = f"instance {job.index} {job.vc.name} seed {job.seed}"
    broken = []
    if not (np.isfinite(s).all() and np.abs(s).max() <= 1.0):
        broken.append(f"{where}: final states not finite or outside [-1, 1]")
        return broken, True
    e = energy(s, cs, norm)
    if not math.isclose(e, res.final_energy, rel_tol=1e-9, abs_tol=1e-15):
        broken.append(f"{where}: final_energy {res.final_energy!r} but the "
                      f"final states give {e!r}")
    e0 = energy(start_states(problems, job), cs, norm)
    if not res.final_energy <= e0 * (1.0 + 1e-9):
        broken.append(f"{where}: final_energy {res.final_energy!r} above the "
                      f"start energy {e0!r}")
    if res.success != (res.final_energy < SUCCESS_ENERGY and not res.diverged):
        broken.append(f"{where}: success {res.success} disagrees with "
                      f"energy {res.final_energy!r}, diverged {res.diverged}")
    return broken, bool(res.diverged or not res.success)


class RoundCheck:
    """Checks each round as it ends.

    With repeats, every round solves the same jobs and must repeat the
    first round's final states bitwise. Only the first round's jobs and
    results are kept, so memory does not grow with the number of rounds a
    run fits in.
    """

    def __init__(self, problems, repeats):
        self.problems, self.repeats = problems, repeats
        self.first_jobs, self.first = None, None
        self.rounds = 0
        self.broken, self.failed = [], 0

    def __call__(self, jobs, rnd):
        ref = self.first or rnd
        for job, res, want in zip(jobs, rnd.results, ref.results):
            b, f = check(self.problems, job, res)
            self.broken += b
            self.failed += f
            if self.repeats and not np.array_equal(res.final_states,
                                                   want.final_states):
                self.broken.append(
                    f"round {self.rounds}, instance {job.index} "
                    f"{job.vc.name}: final states differ from round 0")
        if self.first is None:
            self.first_jobs, self.first = jobs, rnd
        else:
            rnd.results = None
        self.rounds += 1
        return rnd


def setup_seconds(name):
    """Median over fresh interpreters of importing topocsp and making the panel.

    Each probe's time is scaled by the reference kernel run on either side
    of it. Returns the scaled median, and the raw median and kernel time.
    """
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            f"import workloads as W; W.make_panel(W.load_program(), {name!r})")
    times, kernel_s = [], [reference.kernel_seconds()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=W.ROOT, check=True)
        times.append(time.perf_counter() - t0)
        kernel_s.append(reference.kernel_seconds())
    scaled = [reference.scaled(t, kernel_s[i], kernel_s[i + 1])
              for i, t in enumerate(times)]
    return (statistics.median(scaled), statistics.median(times),
            statistics.median(kernel_s))


def blas_threads():
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return getattr(dll, sym)()
    return None


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=W.ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "git_sha": sha or None}


def metric(value, unit):
    return {"value": value, "unit": unit}


def repeat(seconds, one_round):
    """Whole rounds, while the longest so far would still end in time."""
    out, longest = [], 0.0
    t0 = time.perf_counter()
    while not out or time.perf_counter() - t0 + longest <= seconds:
        t = time.perf_counter()
        out.append(one_round())
        longest = max(longest, time.perf_counter() - t)
    return out


def untraced_run(problems, solver, jobs_for, args):
    for _ in range(WARMUP_KERNELS):
        reference.kernel()
    setup, setup_raw, setup_kernel = setup_seconds(args.workload)
    checked = RoundCheck(problems, repeats=False)

    def one_round():
        jobs = jobs_for(checked.rounds)
        return checked(jobs, run_round(solver, jobs, calibrate=True))

    rounds = repeat(args.seconds, one_round)
    e_mse = [energy(res.final_states, job.inst.constraints, "mse")
             for job, res in zip(checked.first_jobs, checked.first.results)]
    scaled = [r.scaled_solve_s() for r in rounds]
    metrics = {
        "setup_s": metric(setup, "s"),
        "wall_s": metric(statistics.median(sum(ts) for ts in scaled), "s"),
        "solve_s.p50": metric(statistics.median(
            statistics.fmean(ts) for ts in zip(*scaled)), "s"),
        "energy_mean": metric(statistics.fmean(e_mse), "mse"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {
        "setup_s": setup_raw,
        "wall_s": statistics.median(sum(r.solve_s) for r in rounds),
        "solve_s.p50": statistics.median(
            statistics.fmean(ts) for ts in zip(*(r.solve_s for r in rounds))),
        "kernel_s": statistics.median(k for r in rounds for k in r.kernel_s),
        "setup_kernel_s": setup_kernel,
    }
    print("# unscaled:", json.dumps(raw))
    return (checked.broken, len(checked.first_jobs) * len(rounds),
            checked.failed, metrics)


def generations_after_last_gain(start_energy, res):
    """Generations the search ran after the last one that gained.

    A generation gains when it lowers the best energy so far by more than
    GAIN_REL of it. Smaller decreases go on to the end of most long solves.
    """
    if not res.generations:
        return 0
    best, last = start_energy, 0
    for g, e in enumerate(res.adopted_energies, 1):
        if e < best * (1.0 - GAIN_REL):
            last = g
        best = min(best, e)
    return res.generations - last


def traced_run(problems, solver, jobs_for, args):
    jobs = jobs_for(0)
    tracer = Tracer()
    with traced(tracer), tracer.span("bench.setup"):
        panel = W.make_panel(problems, args.workload)
    setup_self = dict(tracer.self_s)
    tracer.clear_totals()
    untraced_panel = {job.index: job.inst for job in jobs}
    broken = [f"instance {i}: traced generator gave other initial states"
              for i, inst in enumerate(panel)
              if not np.array_equal(inst.initial_states,
                                    untraced_panel[i].initial_states)]

    checked = RoundCheck(problems, repeats=True)

    def pair():
        plain = checked(jobs, run_round(solver, jobs))
        with traced(tracer), tracer.span("bench.round"):
            spans = run_round(solver, jobs, tracer)
        totals = (dict(tracer.calls), dict(tracer.self_s), dict(tracer.counts))
        tracer.clear_totals()
        return plain, checked(jobs, spans), totals

    plain, spans, totals = zip(*repeat(args.seconds, pair))
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")

    broken += checked.broken
    calls, _, counts = totals[0]
    for r, (c, _, k) in enumerate(totals[1:], 1):
        if c != calls or k != counts:
            broken.append(f"traced round {r}: counts differ from round 0")
    results = checked.first.results

    def self_s(layer):
        return statistics.median(t[1].get(layer, 0.0) for t in totals)

    m = {}
    for layer in TIMED:
        m[layer + ".calls"] = metric(calls.get(layer, 0), "count")
        m[layer + ".self_s"] = metric(self_s(layer), "s")
    m["projection.sweep_once.unchanged"] = metric(
        counts.get("projection.sweep_once.unchanged", 0), "count")
    m["projection.project_states.diverged"] = metric(
        counts.get("projection.project_states.diverged", 0), "count")
    m["cmaes.cma_ask.self_s"] = metric(self_s("cmaes.cma_ask"), "s")
    m["cmaes.cma_tell.self_s"] = metric(self_s("cmaes.cma_tell"), "s")
    m["cmaes.generations"] = metric(calls.get("cmaes.cma_tell", 0), "count")
    adopted = sum(res.steps for res in results)
    evaluated = calls.get("projection.sweep_once", 0)
    m["solver.solve.self_s"] = metric(self_s("solver.solve"), "s")
    m["solver.sweeps_adopted"] = metric(adopted, "count")
    m["solver.adopted_per_evaluated"] = metric(
        adopted / evaluated if evaluated else 0.0, "ratio")
    m["solver.generations_after_last_gain"] = metric(sum(
        generations_after_last_gain(
            energy(start_states(problems, job), job.inst.constraints,
                   norm_of(job.vc)), res)
        for job, res in zip(jobs, results)), "count")
    m["problems.generate_instance.self_s"] = metric(
        setup_self.get("problems.generate_instance", 0.0), "s")
    m["problems.physics_aware_init.self_s"] = metric(
        self_s("problems.physics_aware_init"), "s")
    m["trace.overhead_s"] = metric(statistics.median(
        s.wall_s - p.wall_s for p, s in zip(plain, spans)), "s")

    if m["cmaes.generations"]["value"] != sum(r.generations for r in results):
        broken.append("cma_tell calls differ from the solves' generations")
    return broken, len(jobs) * checked.rounds, checked.failed, m


def main(argv=None):
    args = parse_args(argv)
    problems = W.load_program()
    from topocsp import solver
    panel = W.make_panel(problems, args.workload)
    run = traced_run if args.trace else untraced_run
    broken, attempted, failed, metrics = run(
        problems, solver,
        lambda rnd: make_jobs(solver, args.workload, panel, args.seed, rnd),
        args)
    for line in broken:
        print("BROKEN:", line, file=sys.stderr)
    print("# machine:", json.dumps(machine()))
    print(json.dumps({"correct": not broken, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
