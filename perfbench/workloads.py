"""Workload table, seed derivation and loading the program from the checkout.

Kept apart from run.py so that the set-up probe (a fresh interpreter that
imports topocsp and builds one workload's panel) loads nothing else.
"""
from __future__ import annotations

import hashlib
import importlib
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Instance panels are fixed: the constraint content of an instance sets how
# long a solve runs (at n=6 one instance stops after 1 generation, another
# runs all 50), so a panel drawn afresh from every --seed would make the
# per-run metrics spread by 30-40% across seeds. --seed feeds the solve seed
# instead: v2's initial positions and its search stream.
PANEL_SEED = 42


@dataclass(frozen=True)
class Workload:
    n: int
    variants: tuple
    panel: int  # instances per round; a round solves each with each variant


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Panels have an odd size, so the median over instances is one instance's
# time. Of v2-n6's seven, four run all 50 generations and three stop after
# one, so its median solve is a full-budget one.
WORKLOADS = {
    "v2-n6": Workload(6, ("v2",), 7),
    "v2-n20": Workload(20, ("v2",), 3),
    "fixed-n20": Workload(20, ("baseline", "v1"), 7),
}


def derive_seed(*parts):
    """Stable 63-bit seed from the parts, the same in every process."""
    key = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


def load_program():
    """Import topocsp from this checkout's src/; exit 1 when it is not there."""
    if not (SRC / "topocsp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'topocsp'}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("topocsp")
    if Path(pkg.__file__).resolve().parent != SRC / "topocsp":
        sys.exit(f"perfbench: topocsp imported from {pkg.__file__}, not {SRC}")
    return importlib.import_module("topocsp.problems")


def make_panel(problems, name):
    """The workload's instances, in solve order."""
    w = WORKLOADS[name]
    return [problems.generate_instance(w.n, derive_seed(PANEL_SEED, w.n, i))
            for i in range(w.panel)]
