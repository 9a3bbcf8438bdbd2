"""Time a fixed-weight sweep, and the curvature step scales, per checkout.

    python3 tools/sweep_cost.py BASE [CHANGE]

Imports topocsp from BASE/src, and from CHANGE/src when given, under the
module names topocsp_base and topocsp_change (tools/ab_solve.py's
load_topocsp). For each checkout it prints:

- the per-sweep cost of the `baseline` and `v1` variants at n = 3, 6, 20
  and 40: a ten-sweep `project_states` call on `generate_instance(n, 5)`,
  handed its start gradient as a fixed-weight solve hands it, timed
  CALLS = 40 times; the fastest call, divided by the sweeps it evaluated,
  and the lowest of RUNS = 3 such runs;
- `node_step_scales` in microseconds per call on the complete graph of
  one (20, 64) state array, of a batch (8, 20, 64), of a batch (8, 6, 64)
  and of one (6, 64) array: the fastest of CALLS blocks of 100 calls, and
  the lowest of RUNS such runs.

With two checkouts, the runs alternate which side goes first, and each
side's final states, trace columns and step scales must have the same
bits as the other's; the script exits 1, naming the case, when they do
not. README's "Where the time goes" table comes from this script.
"""
from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_solve import load_topocsp  # noqa: E402

SIZES = (3, 6, 20, 40)
VARIANTS = ("baseline", "v1")
SCALE_SHAPES = ((20, 64), (8, 20, 64), (8, 6, 64), (6, 64))
BLOCK = 100  # node_step_scales calls per timed block
CALLS = 40  # timed calls (blocks, for node_step_scales) per run
RUNS = 3


class Side:
    """One checkout's package, its sweep cases and its graphs."""

    def __init__(self, checkout, name):
        self.solver, problems = load_topocsp(checkout, name)
        C = importlib.import_module(f"{name}.constraints")
        self.project_states = importlib.import_module(
            f"{name}.projection").project_states
        graphs = importlib.import_module(f"{name}.graphs")
        self.node_step_scales = importlib.import_module(
            f"{name}.curvature").node_step_scales
        ref = C.DEFAULT_WEIGHTS
        self.cases = {}
        for v in VARIANTS:
            cfg = self.solver._projection_config(self.solver.variant(v))
            for n in SIZES:
                inst = problems.generate_instance(n, 5)
                states = inst.initial_states
                grad = C.loss_components(states, inst.constraints, cfg.norm,
                                         ref).grad
                # a fixed-weight solve's call: a batch of one row
                self.cases[v, n] = (states[None], inst.constraints,
                                    ref.as_array()[None],
                                    np.array([self.solver.DEFAULT_BETA]),
                                    cfg, grad)
        rng = np.random.default_rng(0)
        self.graphs = {shape: graphs.build_graph(rng.uniform(-1, 1, shape))
                       for shape in SCALE_SHAPES}

    def sweep(self, key):
        """(seconds per sweep, bits) of one call of case key."""
        t0 = time.perf_counter()
        out, traces = self.project_states(*self.cases[key])
        seconds = time.perf_counter() - t0
        tr = traces[0]
        bits = [out] + [getattr(tr, f) for f in self.solver.ROW_FIELDS]
        return seconds / tr.sweeps_evaluated, bits

    def scales(self, shape):
        """(microseconds per call, bits) of one block of calls."""
        g = self.graphs[shape]
        f = self.node_step_scales
        t0 = time.perf_counter()
        for _ in range(BLOCK):
            result = f(g)
        return (time.perf_counter() - t0) / BLOCK * 1e6, list(result)


def _same(a, b):
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a, b))


def measure(sides):
    """{side: {case: lowest over runs of the fastest call}}; exits 1 when
    two sides' bits differ on a case."""
    best = {s: {} for s in sides}
    names = list(sides)
    jobs = ([("sweep", k) for k in sides[names[0]].cases]
            + [("scales", shape) for shape in SCALE_SHAPES])
    for r in range(RUNS):
        for j, (kind, key) in enumerate(jobs):
            order = names if (r + j) % 2 == 0 else names[::-1]
            bits = {}
            for s in order:
                timed = getattr(sides[s], kind)
                fastest = np.inf
                for _ in range(CALLS):
                    t, bits[s] = timed(key)
                    fastest = min(fastest, t)
                best[s][kind, key] = min(best[s].get((kind, key), np.inf),
                                         fastest)
            if len(names) == 2 and not _same(*bits.values()):
                sys.exit(f"sweep_cost: {kind} {key}: the checkouts' results "
                         f"differ")
    return best


def report(checkout, best):
    lines = [f"{checkout}:", "",
             "| variant | " + " | ".join(f"n={n}" for n in SIZES) + " |",
             "|---|" + "---|" * len(SIZES)]
    for v in VARIANTS:
        cells = [f"{best['sweep', (v, n)] * 1e6:.0f} us" for n in SIZES]
        lines.append(f"| `{v}` | " + " | ".join(cells) + " |")
    lines += ["", "node_step_scales per call:"]
    for shape in SCALE_SHAPES:
        lines.append(f"  {shape}: {best['scales', shape]:.1f} us")
    return "\n".join(lines)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base", help="checkout holding src/topocsp")
    p.add_argument("change", nargs="?",
                   help="a second checkout, timed against the first")
    args = p.parse_args(argv)
    checkouts = {"base": args.base}
    if args.change:
        checkouts["change"] = args.change
    sides = {s: Side(path, f"topocsp_{s}") for s, path in checkouts.items()}
    best = measure(sides)
    print("\n\n".join(report(checkouts[s], best[s]) for s in sides))
    if len(sides) == 2:
        print("\nresults bitwise equal on every case")
    return 0


if __name__ == "__main__":
    sys.exit(main())
