"""Command-line front end.

  solve  --n INT --seed INT --variant NAME --budget INT
         [--instance FILE.json] [--trace OUT.csv] [--dump-curvature]
  bench  {seeds,scaling,ablation} --out DIR [--seeds N] [--budget INT]
         [--master-seed INT] [--sizes 2,4,... (scaling) | --n INT (others)]

Exit codes: 0 on success, 1 on usage and file errors, 2 when a run
diverged or a study completed with failed runs.
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
from .studies import (DEFAULT_N, DEFAULT_SIZES, STUDIES, StudySpec,
                      TRACE_HEADER, _write_csv, trace_rows)

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
    return sizes


def _seed(text):
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return seed


def build_parser():
    parser = _Parser(prog="topocsp",
                     description="Constraint solver and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    ps = sub.add_parser("solve", help="run one instance")
    ps.add_argument("--n", type=int, default=None, help="problem size")
    ps.add_argument("--seed", type=_seed, default=0)
    ps.add_argument("--variant", choices=sorted(PRESETS), default="v2")
    ps.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    ps.add_argument("--instance", default=None,
                    help="instance JSON file (overrides --n)")
    ps.add_argument("--trace", default=None, help="write per-step CSV here")
    ps.add_argument("--dump-curvature", action="store_true",
                    help="include the final-state curvature report")

    # an option not given is left unset, so StudySpec fills in its default
    pb = sub.add_parser("bench", help="run a benchmark study",
                        argument_default=argparse.SUPPRESS)
    pb.add_argument("study", choices=tuple(STUDIES))
    pb.add_argument("--out", required=True, dest="out_dir", metavar="DIR",
                    help="output directory")
    pb.add_argument("--seeds", type=int, dest="n_seeds")
    pb.add_argument("--sizes", type=_parse_sizes,
                    help="comma-separated sizes of the scaling study "
                         f"(default {','.join(map(str, DEFAULT_SIZES))})")
    pb.add_argument("--n", type=int,
                    help=f"size for seeds/ablation studies (default "
                         f"{DEFAULT_N})")
    pb.add_argument("--budget", type=int)
    pb.add_argument("--master-seed", type=int)
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
        _write_csv(args.trace, TRACE_HEADER, trace_rows(res))

    payload = {
        "n": inst.n,
        "seed": args.seed,
        "variant": args.variant,
        "e_final": res.final_energy,
        "steps": res.steps,
        "generations": res.generations,
        "stopped_by": res.stopped_by,
        "success": res.success,
        "wall_time": res.wall_time,
        "energy_increase_events": res.energy_increase_events,
        "guard_triggers": res.guard_triggers,
        "sweeps_evaluated": res.sweeps_evaluated,
        "diverged": res.diverged,
        "violations": asdict(res.violations),
    }
    if args.dump_curvature:
        payload["curvature"] = curvature_step_scales(
            build_graph(res.final_states))
    # serialised whole before writing, so a non-finite value prints nothing
    sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    return FAILED_RUNS_EXIT if res.diverged else 0


def _usage_error(message):
    print(f"topocsp: error: {message}", file=sys.stderr)
    return USAGE_EXIT


def _cmd_bench(args):
    given = {k: v for k, v in vars(args).items() if k != "command"}
    # a size option the study does not read is an error, not ignored
    unread = "n" if args.study == "scaling" else "sizes"
    if unread in given:
        raise SystemExit(_usage_error(
            f"--{unread} does not apply to the {args.study} study"))
    if "n" in given:
        given["sizes"] = (given.pop("n"),)
    spec = StudySpec(**given)
    report = STUDIES[spec.study](spec)
    for path in report.out_files:
        print(path)
    return FAILED_RUNS_EXIT if report.n_failed else 0


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_bench(args)
    except SystemExit as e:
        return int(e.code or 0)
    except (OSError, ValueError, KeyError) as e:
        return _usage_error(str(e))


if __name__ == "__main__":
    sys.exit(main())
