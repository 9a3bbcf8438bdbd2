"""Synthetic instance generation and the jittered-grid initializer.

The generator's choices are fixed. It draws, in this order from one seeded
stream: node positions uniform in the unit cube, the remaining 61 state
components uniform in [-OFF_SCALE, OFF_SCALE], then, for each of the first
ceil(ANCHOR_FRACTION * n) nodes, one fresh cube position for its anchor
reference, which keeps the node's off-position components. Separations
cover all pairs at DEFAULT_MIN_SEP, and orderings form the chain
(i, i + 1) on axis 0 with margin 0, which is always jointly satisfiable.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .constraints import POSITION_DIM, ConstraintSet
from .errors import ConstraintError, InfeasibleInitError
from .graphs import STATE_DIM

DEFAULT_MIN_SEP = 0.1
ANCHOR_FRACTION = 0.5
OFF_SCALE = 0.1


@dataclass
class ProblemInstance:
    n: int
    initial_states: np.ndarray
    constraints: ConstraintSet

    def __post_init__(self):
        n_nodes = self.constraints.n_nodes
        if n_nodes != self.n:
            raise ValueError(f"constraints are over {n_nodes} nodes, the "
                             f"instance has {self.n}")
        states = np.asarray(self.initial_states, dtype=float)
        if states.shape != (self.n, STATE_DIM):
            raise ValueError(f"states must be ({self.n}, {STATE_DIM})")
        if not np.all(np.isfinite(states)):
            raise ValueError("states must be finite")

    def to_json_dict(self):
        cs = self.constraints
        return {
            "n": self.n,
            "states": self.initial_states.tolist(),
            "anchors": {str(int(i)): ref.tolist()
                        for i, ref in zip(cs.anchor_ids, cs.anchor_refs)},
            "separations": [[int(a), int(b), float(d)] for a, b, d in
                            zip(cs.sep_a, cs.sep_b, cs.sep_dist)],
            "orderings": [[int(a), int(b), int(ax), float(m)] for a, b, ax, m in
                          zip(cs.ord_a, cs.ord_b, cs.ord_axis, cs.ord_margin)],
        }

    @classmethod
    def from_json_dict(cls, d):
        """Instance from its JSON object; raises a ValueError when the
        object or one of its parts has the wrong type or shape."""
        if not isinstance(d, dict):
            raise ValueError("an instance must be a JSON object")
        anchors = d.get("anchors", {})
        for key, ok, what in (
                ("n", _is_number(d.get("n")), "a number"),
                ("states", _number_rows(d.get("states"), STATE_DIM),
                 f"an array of {STATE_DIM}-number arrays"),
                ("anchors", isinstance(anchors, dict)
                 and all(str(k).isascii() and str(k).isdecimal()
                         for k in anchors)
                 and _number_rows(list(anchors.values()), STATE_DIM),
                 f"an object from node ids to {STATE_DIM}-number arrays"),
                *((key, _number_rows(d.get(key, [])), "an array of number "
                   "arrays") for key in ("separations", "orderings"))):
            if not ok:
                raise ConstraintError(f"{key} must be {what}")
        cs = ConstraintSet.build(
            d["n"], anchors=anchors,
            separations=d.get("separations", []),
            orderings=d.get("orderings", []),
        )
        return cls(n=cs.n_nodes, constraints=cs,
                   initial_states=np.asarray(d["states"], dtype=float))

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f)

    @classmethod
    def load(cls, path):
        """Instance from a JSON file; a key repeated in any object raises
        ConstraintError, since json would keep only its last value."""
        with open(path) as f:
            return cls.from_json_dict(
                json.load(f, object_pairs_hook=_unique_keys))

    @property
    def min_sep(self):
        if self.constraints.n_separations:
            return float(self.constraints.sep_dist.max())
        return DEFAULT_MIN_SEP


def _unique_keys(pairs):
    """A JSON object's dict; raises ConstraintError on a repeated key."""
    d = {}
    for key, value in pairs:
        if key in d:
            raise ConstraintError(f"key {key!r} appears twice in one object")
        d[key] = value
    return d


def _is_number(x):
    """True for a JSON number; a JSON boolean or string is not one."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number_rows(rows, width=None):
    """True for a list of lists of JSON numbers, each width long if set."""
    return isinstance(rows, list) and all(
        isinstance(r, list) and width in (None, len(r))
        and all(map(_is_number, r)) for r in rows)


def physics_aware_init(n, seed, min_sep=DEFAULT_MIN_SEP):
    """Positions on a ceil(n^(1/3))-per-side grid with bounded jitter.

    The jitter half-width (pitch - min_sep) / 2 keeps every pair at least
    min_sep apart, so the separation loss starts at exactly zero. Raises
    InfeasibleInitError when the pitch is below min_sep.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = int(math.ceil(n ** (1.0 / 3.0)))
    while m ** 3 < n:  # guard against float round-down of the cube root
        m += 1
    pitch = 1.0 / m
    jitter = (pitch - min_sep) / 2.0
    if jitter < 0:
        raise InfeasibleInitError(
            f"grid pitch {pitch:.4g} cannot honor min_sep {min_sep:.4g} for n={n}")
    cells = np.array([(i, j, k) for i in range(m) for j in range(m)
                      for k in range(m)][:n], dtype=float)
    centers = (cells + 0.5) * pitch
    rng = np.random.default_rng(seed)
    return centers + rng.uniform(-jitter, jitter, size=(n, POSITION_DIM))


def generate_instance(n, seed):
    """Deterministic instance: same (n, seed) gives identical output."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)

    states = np.empty((n, STATE_DIM))
    states[:, :POSITION_DIM] = rng.uniform(0.0, 1.0, size=(n, POSITION_DIM))
    states[:, POSITION_DIM:] = rng.uniform(
        -OFF_SCALE, OFF_SCALE, size=(n, STATE_DIM - POSITION_DIM))

    n_anchor = int(math.ceil(ANCHOR_FRACTION * n))
    anchors = {}
    for v in range(n_anchor):
        ref = states[v].copy()
        ref[:POSITION_DIM] = rng.uniform(0.0, 1.0, size=POSITION_DIM)
        anchors[v] = ref

    separations = [(a, b, DEFAULT_MIN_SEP)
                   for a in range(n) for b in range(a + 1, n)]
    orderings = [(i, i + 1, 0, 0.0) for i in range(n - 1)]
    cs = ConstraintSet.build(n, anchors=anchors, separations=separations,
                             orderings=orderings)
    return ProblemInstance(n=n, initial_states=states, constraints=cs)
