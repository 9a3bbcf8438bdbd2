"""Command-line front end.

  solve  --n INT --seed INT --variant NAME --budget INT
         [--instance FILE.json] [--trace OUT.csv] [--dump-curvature]
  bench  {seeds,scaling,ablation} --out DIR [--seeds N] [--sizes 2,4,...]
         [--n INT] [--budget INT] [--master-seed INT]

Exit codes: 0 on success, 1 on usage errors, 2 when a run diverged or a
study completed with failed runs.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .curvature import curvature_step_scales
from .graphs import build_graph
from .problems import generate_instance, ProblemInstance
from .solver import DEFAULT_BUDGET, PRESETS, solve, variant
from .studies import (DEFAULT_MASTER_SEED, DEFAULT_SIZES, StudySpec,
                      run_ablation, run_scaling_study, run_seed_study,
                      trace_rows, TRACE_HEADER)

USAGE_EXIT = 1
FAILED_RUNS_EXIT = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _parse_sizes(text):
    try:
        sizes = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("size list is empty")
    return sizes


def build_parser():
    parser = _Parser(prog="topocsp",
                     description="Constraint solver and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    ps = sub.add_parser("solve", help="run one instance")
    ps.add_argument("--n", type=int, default=None, help="problem size")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--variant", choices=sorted(PRESETS), default="v2")
    ps.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    ps.add_argument("--instance", default=None,
                    help="instance JSON file (overrides --n)")
    ps.add_argument("--trace", default=None, help="write per-step CSV here")
    ps.add_argument("--dump-curvature", action="store_true",
                    help="include the final-state curvature report")

    pb = sub.add_parser("bench", help="run a benchmark study")
    pb.add_argument("study", choices=("seeds", "scaling", "ablation"))
    pb.add_argument("--out", required=True, help="output directory")
    pb.add_argument("--seeds", type=int, default=20, dest="n_seeds")
    pb.add_argument("--sizes", type=_parse_sizes,
                    default=DEFAULT_SIZES, help="comma-separated sizes")
    pb.add_argument("--n", type=int, default=6,
                    help="size for seeds/ablation studies")
    pb.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    pb.add_argument("--master-seed", type=int, default=DEFAULT_MASTER_SEED)
    return parser


def _cmd_solve(args):
    if args.instance is not None:
        inst = ProblemInstance.load(args.instance)
    elif args.n is not None:
        inst = generate_instance(args.n, args.seed)
    else:
        raise SystemExit(_usage_error("solve needs --n or --instance"))
    vc = variant(args.variant)
    res = solve(inst, vc, budget=args.budget, seed=args.seed)

    if args.trace is not None:
        import csv

        with open(args.trace, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(TRACE_HEADER)
            w.writerows(trace_rows(res))

    payload = {
        "n": inst.n,
        "seed": args.seed,
        "variant": args.variant,
        "e_final": res.final_energy,
        "steps": res.steps,
        "generations": res.generations,
        "success": res.success,
        "wall_time": res.wall_time,
        "energy_increase_events": res.energy_increase_events,
        "guard_triggers": res.guard_triggers,
        "sweeps_evaluated": res.sweeps_evaluated,
        "diverged": res.diverged,
        "violations": asdict(res.violations),
    }
    if args.dump_curvature:
        graph = build_graph(res.final_states)
        payload["curvature"] = curvature_step_scales(graph).to_json_dict()
    # serialised whole before writing, so a non-finite value prints nothing
    sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return FAILED_RUNS_EXIT if res.diverged else 0


def _usage_error(message):
    print(f"topocsp: error: {message}", file=sys.stderr)
    return USAGE_EXIT


def _cmd_bench(args):
    if args.study == "seeds":
        spec = StudySpec(study="seeds", sizes=(args.n,), n_seeds=args.n_seeds,
                         out_dir=args.out, budget=args.budget,
                         master_seed=args.master_seed)
        report = run_seed_study(spec)
    elif args.study == "scaling":
        spec = StudySpec(study="scaling", sizes=args.sizes, variants=("v2",),
                         n_seeds=args.n_seeds, out_dir=args.out,
                         budget=args.budget, master_seed=args.master_seed)
        report = run_scaling_study(spec)
    else:
        spec = StudySpec(study="ablation", sizes=(args.n,), variants=("v2",),
                         n_seeds=args.n_seeds, out_dir=args.out,
                         budget=args.budget, master_seed=args.master_seed)
        report = run_ablation(spec)
    for path in report.out_files:
        print(path)
    return FAILED_RUNS_EXIT if report.n_failed else 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_bench(args)
    except SystemExit as e:
        return int(e.code or 0)
    except FileNotFoundError as e:
        return _usage_error(str(e))
    except (ValueError, KeyError) as e:
        return _usage_error(str(e))


def run():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
