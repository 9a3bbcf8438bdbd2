"""Record and compare bit-level digests of the benchmark studies.

    python3 tools/study_digest.py record CHECKOUT OUT.json [--master-seed 42]
    python3 tools/study_digest.py compare A.json B.json

`record` imports topocsp from CHECKOUT/src and runs the four studies at the
sizes of tests/test_acceptance.py, 20 seeds each: seeds (baseline, v1 and
v2 at n=6), scaling (v2 at 2..20), ablation (ten configurations at n=6) and
stability (n=6). It records every solve with its counts, floats and the
sha256 of its final states, trace and adopted energies, and each study's
rows and summary; the trace digest covers TRACE_COLUMNS, those of them that
the checkout's trace has. For the stability runs, which record their
sweeps, it also records the sha256 of the recorded start states and
(lambdas, beta) per sweep. It also records the fixed-weight solves of
tests/test_solver.py::test_fixed_variants_unchanged_at_n20 and
`loss_components` on 300 random (instance, batch size, norm) cases, as sha256
digests of the family losses, total and gradient.

`compare` reports which records are bitwise equal and the largest relative
difference among the floats that are not, and exits 1 when any record
differs. Wall-clock times are recorded but never compared. A full record
takes about half a minute on 2 CPUs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

TIME_KEYS = {"wall_time", "mean_time", "time_exponent", "seconds"}
# the trace columns hashed, those of them a checkout's trace has, so that
# records of a checkout with fewer columns compare with one that has more
TRACE_COLUMNS = ("l_total", "l_data", "l_phys", "l_logic", "grad_max",
                 "grad_mean")
LOSS_SIZES = (2, 3, 6, 12, 20, 40)
LOSS_CASES = 300


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _solve_record(res):
    t = res.trace
    return {
        "final_energy": res.final_energy, "steps": res.steps,
        "generations": res.generations,
        "sweeps_evaluated": res.sweeps_evaluated,
        "energy_increase_events": res.energy_increase_events,
        "guard_triggers": res.guard_triggers, "stopped_by": res.stopped_by,
        "diverged": res.diverged, "success": res.success,
        "violations": asdict(res.violations),
        "final_states": _sha(res.final_states),
        "trace": _sha(*(getattr(t, f) for f in TRACE_COLUMNS
                        if hasattr(t, f))),
        "adopted_energies": _sha(res.adopted_energies),
        "wall_time": res.wall_time,
    }


def _report(report, header):
    return {"rows": [dict(zip(header, row)) for row in report.rows],
            "summary": report.summary, "failures": report.failures}


def _record_studies(topocsp, master_seed, records):
    studies = topocsp.studies
    real_solve = studies.solve
    study = [None]

    def solve(inst, vc, **kwargs):
        res = real_solve(inst, vc, **kwargs)
        key = f"{study[0]}/{vc.name}/n={inst.n}/seed={kwargs['seed']}"
        records[key] = _solve_record(res)
        if kwargs.get("record_states"):
            records[key]["start_states"] = _sha(res.trace.start_states)
            # the per-row pairs keep their old key, so digests stay comparable
            records[key]["recorded_params"] = _sha(
                *(np.append(lam, beta) for lam, beta in res.adopted_params))
        return res

    runs = (
        ("seeds", studies.SEEDS_HEADER, studies.run_seed_study,
         dict(sizes=(6,), variants=studies.SEED_STUDY_VARIANTS)),
        ("scaling", studies.SCALING_HEADER, studies.run_scaling_study,
         dict(sizes=studies.DEFAULT_SIZES, variants=("v2",))),
        ("ablation", studies.ABLATION_HEADER, studies.run_ablation,
         dict(sizes=(6,))),
    )
    studies.solve = solve
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, header, runner, kw in runs:
                study[0] = name
                t0 = time.perf_counter()
                spec = studies.StudySpec(study=name, n_seeds=20,
                                         out_dir=str(Path(tmp) / name),
                                         master_seed=master_seed, **kw)
                records[f"{name}/report"] = {
                    **_report(runner(spec), header),
                    "seconds": time.perf_counter() - t0}
        study[0] = "stability"
        t0 = time.perf_counter()
        records["stability/report"] = {
            "summary": studies.run_stability_study(
                n=6, n_seeds=20, master_seed=master_seed),
            "seconds": time.perf_counter() - t0}
    finally:
        studies.solve = real_solve


def _record_fixed(topocsp, records):
    for name in ("baseline", "v1"):
        res = topocsp.solver.solve(topocsp.problems.generate_instance(20, 5),
                                   topocsp.solver.variant(name), seed=5)
        records[f"fixed-n20/{name}"] = _solve_record(res)


def _record_loss(topocsp, master_seed, records):
    C = topocsp.constraints
    rng = np.random.default_rng(master_seed)
    for i in range(LOSS_CASES):
        n = int(rng.choice(LOSS_SIZES))
        p = int(rng.integers(1, 9))
        norm = (C.MSE, C.SSE)[i % 2]
        inst = topocsp.problems.generate_instance(n, int(rng.integers(2**31)))
        states = inst.initial_states + rng.normal(0.0, 0.3, (p, n, 64))
        # pull the positions together so that many separations are active
        states[..., :3] *= rng.uniform(0.02, 1.0)
        weights = rng.uniform(0.1, 20.0, (p, 3))
        if p == 1:
            states, weights = states[0], weights[0]
        bd = C.loss_components(states, inst.constraints, norm, weights)
        records[f"loss/{i}/n={n}/P={p}/{norm}"] = {"digest": _sha(
            bd.l_data, bd.l_phys, bd.l_logic, bd.l_total, bd.grad)}


def record(checkout, out, master_seed):
    sys.path.insert(0, str(Path(checkout).resolve() / "src"))
    import topocsp.constraints
    import topocsp.problems
    import topocsp.solver
    import topocsp.studies
    records = {}
    _record_loss(topocsp, master_seed, records)
    _record_fixed(topocsp, records)
    _record_studies(topocsp, master_seed, records)
    Path(out).write_text(json.dumps(
        {"checkout": str(checkout), "master_seed": master_seed,
         "records": records}, indent=1))
    print(f"{len(records)} records written to {out}")


def _leaves(value, path=""):
    """(path, leaf) pairs of a nested record, leaving out time fields."""
    if isinstance(value, dict):
        for k, v in value.items():
            if k not in TIME_KEYS:
                yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, value


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())["records"]
    b = json.loads(Path(path_b).read_text())["records"]
    common = [k for k in a if k in b]
    differ = {}
    worst = (0.0, None)
    for key in common:
        la, lb = dict(_leaves(a[key])), dict(_leaves(b[key]))
        bad = sorted(f for f in la.keys() | lb.keys()
                     if not _same(la.get(f), lb.get(f)))
        if bad:
            differ[key] = bad
        for f in bad:
            x, y = la.get(f), lb.get(f)
            if (isinstance(x, float) and isinstance(y, float)
                    and math.isfinite(x) and math.isfinite(y)):
                rel = abs(x - y) / max(abs(x), abs(y))
                if rel > worst[0]:
                    worst = (rel, f"{key} {f}")
    only_a = [k for k in a if k not in b]
    only_b = [k for k in b if k not in a]
    print(f"{len(common)} records in both: {len(common) - len(differ)} "
          f"bitwise equal, {len(differ)} differ; {len(only_a)} only in A, "
          f"{len(only_b)} only in B")
    by_section = {}
    for key in common:
        sec = key.split("/")[0]
        eq, total = by_section.get(sec, (0, 0))
        by_section[sec] = (eq + (key not in differ), total + 1)
    for sec, (eq, total) in by_section.items():
        print(f"  {sec}: {eq}/{total} bitwise equal")
    if differ:
        print(f"largest relative float difference: {worst[0]:.3g}"
              + (f" ({worst[1]})" if worst[1] else ""))
        for key, fields in differ.items():
            print(f"  {key}: {', '.join(fields)}")
    return 1 if differ or only_a or only_b else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="run the studies of one checkout")
    rec.add_argument("checkout", help="repository root holding src/topocsp")
    rec.add_argument("out", help="JSON file to write")
    rec.add_argument("--master-seed", type=int, default=42)
    cmp = sub.add_parser("compare", help="compare two recorded files")
    cmp.add_argument("a")
    cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.cmd == "record":
        record(args.checkout, args.out, args.master_seed)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
