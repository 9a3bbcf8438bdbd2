"""Time two checkouts' solvers against each other, solve by solve.

    python3 tools/ab_solve.py BASE CHANGE --workload fixed-n20 \
        [--rounds 3] [--seed 1] [--out BENCH_fixed-n20.json]

Imports topocsp from BASE/src and from CHANGE/src under the module names
topocsp_base and topocsp_change, and the workload table from this
repository's perfbench/workloads.py, which it only reads. Each round solves
every job of the workload's panel with both versions back to back, the
version that goes first alternating from job to job and round to round. A
round's solve seeds are the ones perfbench/run.py draws for that round:
derive_seed(seed, round, variant, n, index). Each pair must report the same
solve: bitwise equal final states, final energy, adopted energies, adopted
(lambdas, beta) pairs and trace columns (every array field of
SolveResult.trace that both checkouts' traces have), and equal violation
statistics and REPORTED fields (generations, sweep count, stop reason,
failure, success, event and guard counts). The script exits 1 at the first
pair that does not, naming the fields that differ. tools/study_digest.py
records each solve from the same columns.

Both versions solve the same panel, built once, in every round, as
perfbench does. Writes BENCH_<workload>.json (or --out): per variant the
median over its pairs of the change/base time ratio and the summed times,
the summed ratio over all pairs, the names compared bitwise, nproc, the
platform, and each checkout's git commit, whether its tree had uncommitted
changes, and the sha256 of its package source. Without --out it exits 1,
before any solve, when BENCH_<workload>.json already exists in the working
directory, so that a run never silently replaces a committed record.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path, package_dir=None):
    """Import the file at path as a module called name."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=package_dir)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def load_topocsp(checkout, name):
    """(solver, problems) of the topocsp package under checkout/src."""
    pkg = Path(checkout).resolve() / "src" / "topocsp"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"ab_solve: no topocsp package at {pkg}")
    _load(name, pkg / "__init__.py", [str(pkg)])
    return (importlib.import_module(f"{name}.solver"),
            importlib.import_module(f"{name}.problems"))


def cpu_model():
    """The CPU's model name on Linux, else what platform reports."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def describe(checkout):
    """Git commit, uncommitted changes and a hash of the package source."""
    root = Path(checkout).resolve()

    def git(*args):
        r = subprocess.run(["git", "-C", str(root), *args],
                           capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None
    h = hashlib.sha256()
    for f in sorted((root / "src" / "topocsp").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "uncommitted_changes": None if status is None else bool(status),
            "src_sha256": h.hexdigest()}


# the SolveResult fields besides its arrays, compared by value
REPORTED = ("generations", "sweeps_evaluated", "stopped_by", "failure",
            "success", "energy_increase_events", "guard_triggers")


def columns(res):
    """What a solve reports: its final states, final energy, adopted
    energies, adopted (lambdas, beta) rows and trace array fields as
    arrays, its violation statistics as a dict, and its REPORTED fields as
    they are."""
    t = res.trace
    cols = {f.name: getattr(t, f.name) for f in dataclasses.fields(t)
            if isinstance(getattr(t, f.name), np.ndarray)}
    cols["final_states"] = res.final_states
    cols["final_energy"] = np.asarray(res.final_energy, dtype=float)
    cols["adopted_energies"] = np.asarray(res.adopted_energies, dtype=float)
    cols["adopted_params"] = np.asarray(
        [np.append(lam, beta) for lam, beta in res.adopted_params],
        dtype=float).reshape(-1, 4)
    cols["violations"] = dataclasses.asdict(res.violations)
    cols.update({k: getattr(res, k) for k in REPORTED})
    return cols


def _same(x, y):
    """Arrays of one shape and the same bits, or equal other values."""
    if isinstance(x, np.ndarray):
        return (x.shape == y.shape and np.ascontiguousarray(x).tobytes()
                == np.ascontiguousarray(y).tobytes())
    return x == y


def differing(a, b):
    """The names both column sets hold whose values differ, and the names
    compared."""
    names = sorted(a.keys() & b.keys())
    return [k for k in names if not _same(a[k], b[k])], names


def run(base, change, workload, rounds, seed):
    W = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    sides = {"base": load_topocsp(base, "topocsp_base"),
             "change": load_topocsp(change, "topocsp_change")}
    panels = {k: W.make_panel(problems, workload)
              for k, (_, problems) in sides.items()}
    w = W.WORKLOADS[workload]
    pairs = []
    compared = None
    for rnd in range(rounds):
        k = 0
        for i in range(w.panel):
            for v in w.variants:
                job_seed = W.derive_seed(seed, rnd, v, w.n, i)
                order = ("base", "change") if (k + rnd) % 2 == 0 \
                    else ("change", "base")
                k += 1
                times, cols = {}, {}
                for side in order:
                    solver = sides[side][0]
                    vc = solver.variant(v)
                    t0 = time.perf_counter()
                    res = solver.solve(panels[side][i], vc, seed=job_seed)
                    times[side] = time.perf_counter() - t0
                    cols[side] = columns(res)
                    del res
                bad, compared = differing(cols["base"], cols["change"])
                if bad:
                    sys.exit(f"ab_solve: round {rnd}, instance {i} {v}: "
                             f"{', '.join(bad)} differ")
                pairs.append({"round": rnd, "instance": i, "variant": v,
                              "seed": job_seed, **times,
                              "ratio": times["change"] / times["base"]})
    return pairs, compared


def summarize(pairs):
    out = {}
    for v in dict.fromkeys(p["variant"] for p in pairs):
        mine = [p for p in pairs if p["variant"] == v]
        base = sum(p["base"] for p in mine)
        change = sum(p["change"] for p in mine)
        out[v] = {"pairs": len(mine),
                  "median_ratio": statistics.median(p["ratio"] for p in mine),
                  "change_lower": sum(p["ratio"] < 1.0 for p in mine),
                  "base_s": base, "change_s": change,
                  "summed_ratio": change / base}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base", help="checkout holding the reference src/topocsp")
    p.add_argument("change", help="checkout holding the changed src/topocsp")
    p.add_argument("--workload", required=True)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="JSON file (default BENCH_<workload>.json)")
    args = p.parse_args(argv)
    out = Path(args.out or f"BENCH_{args.workload}.json")
    if args.out is None and out.exists():
        sys.exit(f"ab_solve: {out} exists; give --out to write elsewhere "
                 f"or to replace it")
    pairs, compared = run(args.base, args.change, args.workload, args.rounds,
                          args.seed)
    variants = summarize(pairs)
    base = sum(p["base"] for p in pairs)
    change = sum(p["change"] for p in pairs)
    result = {
        "workload": args.workload, "rounds": args.rounds, "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.platform(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "base": describe(args.base),
        "change": describe(args.change), "final_states_equal": True,
        "bitwise_equal": compared,
        "summed_ratio": change / base, "variants": variants, "pairs": pairs,
    }
    out.write_text(json.dumps(result, indent=1) + "\n")
    for v, s in variants.items():
        print(f"{v}: median ratio {s['median_ratio']:.3f}, summed "
              f"{s['base_s']:.3f} -> {s['change_s']:.3f} s, lower in "
              f"{s['change_lower']}/{s['pairs']}")
    print(f"summed ratio {result['summed_ratio']:.3f}; written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
