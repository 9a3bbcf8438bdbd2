"""Synthetic instance generation and the jittered-grid initializer.

The generator draws, in this fixed order from one seeded stream: node
positions uniform in the unit cube, the remaining 61 state components
uniform in [-off_scale, off_scale], then one fresh cube position per
anchored node (the anchor reference keeps the node's off-position
components). Separations cover all pairs at one minimum distance and
orderings form a chain on axis 0, which is always jointly satisfiable.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .constraints import POSITION_DIM, ConstraintSet
from .errors import InfeasibleInitError
from .graphs import STATE_DIM

DEFAULT_MIN_SEP = 0.1


@dataclass
class GeneratorConfig:
    anchor_fraction: float = 0.5
    min_sep: float = DEFAULT_MIN_SEP
    n_orderings: int | None = None  # None: chain over all n-1 neighbor pairs
    ordering_axis: int = 0
    ordering_margin: float = 0.0
    off_scale: float = 0.1
    init_mode: str = "uniform"  # or "grid"

    def __post_init__(self):
        if not 0.0 <= self.anchor_fraction <= 1.0:
            raise ValueError("anchor_fraction must be in [0, 1]")
        if not self.min_sep > 0:
            raise ValueError("min_sep must be positive")
        if self.init_mode not in ("uniform", "grid"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")


@dataclass
class ProblemInstance:
    n: int
    initial_states: np.ndarray
    constraints: ConstraintSet
    seed: int | None = None
    config: GeneratorConfig | None = None

    def __post_init__(self):
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
        n = int(d["n"])
        states = np.asarray(d["states"], dtype=float)
        cs = ConstraintSet.build(
            n,
            anchors={int(k): np.asarray(v, dtype=float)
                     for k, v in d.get("anchors", {}).items()},
            separations=d.get("separations", []),
            orderings=d.get("orderings", []),
        )
        return cls(n=n, initial_states=states, constraints=cs)

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f)

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls.from_json_dict(json.load(f))

    @property
    def min_sep(self):
        if self.config is not None:
            return self.config.min_sep
        if self.constraints.n_separations:
            return float(self.constraints.sep_dist.max())
        return DEFAULT_MIN_SEP


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


def generate_instance(n, seed, cfg=None):
    """Deterministic instance: same (n, seed, cfg) gives identical output."""
    if n < 2:
        raise ValueError("n must be >= 2")
    cfg = cfg or GeneratorConfig()
    rng = np.random.default_rng(seed)

    states = np.empty((n, STATE_DIM))
    states[:, :POSITION_DIM] = rng.uniform(0.0, 1.0, size=(n, POSITION_DIM))
    states[:, POSITION_DIM:] = rng.uniform(
        -cfg.off_scale, cfg.off_scale, size=(n, STATE_DIM - POSITION_DIM))

    n_anchor = int(math.ceil(cfg.anchor_fraction * n))
    anchors = {}
    for v in range(n_anchor):
        ref = states[v].copy()
        ref[:POSITION_DIM] = rng.uniform(0.0, 1.0, size=POSITION_DIM)
        anchors[v] = ref

    separations = [(a, b, cfg.min_sep)
                   for a in range(n) for b in range(a + 1, n)]
    n_ord = n - 1 if cfg.n_orderings is None else min(cfg.n_orderings, n - 1)
    orderings = [(i, i + 1, cfg.ordering_axis, cfg.ordering_margin)
                 for i in range(n_ord)]

    # grid mode replaces positions after all draws so the constraint content
    # is identical between init modes for the same seed
    if cfg.init_mode == "grid":
        states[:, :POSITION_DIM] = physics_aware_init(n, seed, cfg.min_sep)

    cs = ConstraintSet.build(n, anchors=anchors, separations=separations,
                             orderings=orderings)
    return ProblemInstance(n=n, initial_states=states, constraints=cs,
                           seed=seed, config=cfg)
