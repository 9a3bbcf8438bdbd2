"""Constraint families, the weighted energy, and its analytic gradient.

Three families act on the node states:
  - anchors: full-state quadratic pull toward a reference vector
  - separations: hinge-squared penalty on pairwise position distance
  - orderings: hinge-squared penalty on a coordinate ordering with margin

Positions are the first 3 components of the bound block. Energy is the
weighted sum of the family losses; each family may be normalized by its
constraint count (MSE) or left as a raw sum (SSE).

One evaluator, loss_components, computes the residuals once and returns
the family losses, the weighted total and its analytic gradient;
total_energy and loss_gradient are views of it. It takes one (n, 64) state
array or a batch (P, n, 64) of them, each batch row with its own weights.
A batch row gives the same floats, bit for bit, as the single-state call
on that row.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConstraintError
from .graphs import STATE_DIM

POSITION_DIM = 3
SUCCESS_THRESHOLD = 2.0
_DIST_FLOOR = 1e-12

MSE = "mse"
SSE = "sse"


@dataclass
class LossWeights:
    """Weights for the three constraint families."""

    data: float = 1.0
    phys: float = 10.0
    logic: float = 2.0

    def __post_init__(self):
        vals = (self.data, self.phys, self.logic)
        if not all(np.isfinite(v) and v >= 0 for v in vals):
            raise ConstraintError("loss weights must be finite and non-negative")

    def as_array(self):
        return np.array([self.data, self.phys, self.logic])


def weight_rows(weights, p):
    """(p, 3) family weights from one LossWeights or from rows of weights."""
    w = weights.as_array() if isinstance(weights, LossWeights) else weights
    w = np.asarray(w, dtype=float)
    if w.shape == (p, 3):
        return w
    return w.reshape(1, 3) if p == 1 else np.broadcast_to(w, (p, 3))


DEFAULT_WEIGHTS = LossWeights(1.0, 10.0, 2.0)


@dataclass
class ConstraintSet:
    """Compiled constraint arrays over n_nodes states.

    anchors: {node id: reference state (64,)}
    separations: rows (a, b, min_dist)
    orderings: rows (a, b, axis, margin) meaning pos(a)[axis] + margin <= pos(b)[axis]
    """

    n_nodes: int
    anchor_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    anchor_refs: np.ndarray = field(default_factory=lambda: np.empty((0, STATE_DIM)))
    sep_a: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    sep_b: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    sep_dist: np.ndarray = field(default_factory=lambda: np.empty(0))
    ord_a: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    ord_b: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    ord_axis: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    ord_margin: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        self._validate()

    @classmethod
    def build(cls, n_nodes, anchors=None, separations=None, orderings=None):
        """Build from mapping/sequence forms.

        anchors: {id: 64-vector}; separations: [(a, b, min_dist)];
        orderings: [(a, b, axis, margin)].
        """
        anchors = anchors or {}
        separations = separations or []
        orderings = orderings or []
        ids = sorted(int(k) for k in anchors)
        refs = (np.array([np.asarray(anchors[i], dtype=float) for i in ids])
                if ids else np.empty((0, STATE_DIM)))
        sep = np.array([(int(a), int(b), float(d)) for a, b, d in separations],
                       dtype=float).reshape(-1, 3)
        orde = np.array([(int(a), int(b), int(ax), float(m))
                         for a, b, ax, m in orderings], dtype=float).reshape(-1, 4)
        return cls(
            n_nodes=int(n_nodes),
            anchor_ids=np.array(ids, dtype=int),
            anchor_refs=refs,
            sep_a=sep[:, 0].astype(int), sep_b=sep[:, 1].astype(int),
            sep_dist=sep[:, 2],
            ord_a=orde[:, 0].astype(int), ord_b=orde[:, 1].astype(int),
            ord_axis=orde[:, 2].astype(int), ord_margin=orde[:, 3],
        )

    def _validate(self):
        n = self.n_nodes
        if n < 1:
            raise ConstraintError("n_nodes must be >= 1")
        for ids in (self.anchor_ids, self.sep_a, self.sep_b, self.ord_a, self.ord_b):
            if ids.size and (ids.min() < 0 or ids.max() >= n):
                raise ConstraintError("constraint references a missing node")
        if self.anchor_refs.shape != (self.anchor_ids.size, STATE_DIM):
            raise ConstraintError("anchor reference shape mismatch")
        if np.any(self.sep_a == self.sep_b) or np.any(self.ord_a == self.ord_b):
            raise ConstraintError("constraints must relate two distinct nodes")
        for name, vals in (("anchor references", self.anchor_refs),
                           ("min_dist", self.sep_dist),
                           ("ordering margin", self.ord_margin)):
            if not np.all(np.isfinite(vals)):
                raise ConstraintError(f"{name} must be finite")
        if np.any(self.sep_dist <= 0):
            raise ConstraintError("min_dist must be positive")
        if np.any(self.ord_margin < 0):
            raise ConstraintError("ordering margin must be non-negative")
        if self.ord_axis.size and (np.any(self.ord_axis < 0)
                                   or np.any(self.ord_axis >= POSITION_DIM)):
            raise ConstraintError("ordering axis must be in {0, 1, 2}")

    @cached_property
    def _anchor_cells(self):
        """Flat (node, component) cells of the anchored states, (A * 64,)."""
        return (self.anchor_ids[:, None] * STATE_DIM
                + np.arange(STATE_DIM)).ravel()

    @cached_property
    def _separation_cells(self):
        """Flat cells of the pair positions: (a ends (S, 3), b ends (S, 3))."""
        pos = np.arange(POSITION_DIM)
        return (self.sep_a[:, None] * STATE_DIM + pos,
                self.sep_b[:, None] * STATE_DIM + pos)

    @cached_property
    def _ordering_cells(self):
        """Flat cells of the ordered coordinates: (cells of a, cells of b)."""
        return (self.ord_a * STATE_DIM + self.ord_axis,
                self.ord_b * STATE_DIM + self.ord_axis)

    @property
    def n_separations(self):
        return int(self.sep_a.size)

    @property
    def n_orderings(self):
        return int(self.ord_a.size)

    def divisors(self, norm):
        """Per-family normalization divisors (empty family divides by 1)."""
        if norm == MSE:
            return (float(self.n_nodes),
                    float(max(1, self.n_separations)),
                    float(max(1, self.n_orderings)))
        if norm == SSE:
            return (1.0, 1.0, 1.0)
        raise ConstraintError(f"unknown normalization {norm!r}")


@dataclass
class LossBreakdown:
    """Family losses, their weighted total, and the gradient of the total."""

    l_data: float
    l_phys: float
    l_logic: float
    l_total: float
    norm: str
    grad: np.ndarray

    def families(self):
        return np.array([self.l_data, self.l_phys, self.l_logic])


def _batch(states, cs):
    """(P, n, 64) C-contiguous float view of a state array or batch, and
    whether the input was a single (n, 64) array."""
    s = np.ascontiguousarray(states, dtype=float)
    single = s.ndim == 2
    if single:
        s = s[None]
    if s.ndim != 3 or s.shape[1:] != (cs.n_nodes, STATE_DIM):
        raise ConstraintError(
            f"states must be ({cs.n_nodes}, {STATE_DIM}) or a batch of them, "
            f"got {np.shape(states)}")
    return s, single


def row_sums(x):
    """Sum of each batch row; x must be C-contiguous, so that every row is
    summed pairwise exactly as np.sum sums the single-state array."""
    return x.reshape(x.shape[0], -1).sum(axis=1)


def row_norms(x):
    """Euclidean norms along the last axis, the same floats as
    np.linalg.norm(x, axis=-1) at less call overhead."""
    return np.sqrt((x * x).sum(axis=-1))


def _separation_residuals(flat, cs):
    """Penetration depth phi = max(0, min_dist - |pos(a) - pos(b)|) per pair.

    flat is a (P, n * 64) batch; returns phi (P, S), diff (P, S, 3) and
    dist (P, S).
    """
    cells_a, cells_b = cs._separation_cells
    diff = flat.take(cells_a, axis=1) - flat.take(cells_b, axis=1)
    dist = row_norms(diff)
    phi = np.maximum(0.0, cs.sep_dist - dist)
    return phi, diff, dist


def _ordering_residuals(flat, cs):
    """Violation psi = max(0, pos(a)[axis] - pos(b)[axis] + margin), (P, O)."""
    cells_a, cells_b = cs._ordering_cells
    gap = flat.take(cells_a, axis=1) - flat.take(cells_b, axis=1)
    return np.maximum(0.0, gap + cs.ord_margin)


def loss_components(states, cs, norm=MSE, weights=None):
    """Family losses, weighted total and the gradient of that total, all
    from one pass over the residuals.

    weights=None means unit weights. For a batch the loss fields are (P,)
    arrays, weights may be (P, 3) rows, and grad is (P, n, 64).

    Hinge terms contribute zero exactly at their kink (subgradient choice);
    the separation direction is zeroed when the pair distance is below 1e-12.
    All gradient terms go through one bincount in a fixed order (anchors,
    separation a ends, separation b ends, ordering a ends, ordering b ends),
    so each cell sums its terms in the same order whatever the batch size.
    """
    s, single = _batch(states, cs)
    p_count = s.shape[0]
    flat = s.reshape(p_count, -1)
    size = flat.shape[1]
    w = weight_rows(np.ones(3) if weights is None else weights, p_count)
    d_data, d_phys, d_logic = cs.divisors(norm)
    cells, terms = [], []

    resid = flat.take(cs._anchor_cells, axis=1) - cs.anchor_refs.ravel()
    l_data = row_sums(resid * resid) / d_data
    if cs.anchor_ids.size:
        coef = 2.0 * w[:, 0] / d_data
        cells.append((np.arange(0, p_count * size, size)[:, None]
                      + cs._anchor_cells).ravel())
        terms.append((coef[:, None] * resid).ravel())

    phi, diff, dist = _separation_residuals(flat, cs)
    l_phys = row_sums(phi * phi) / d_phys
    # d(phi^2)/d pos(a) = -2 phi * (pos(a)-pos(b))/dist, active when phi > 0
    rows, pairs = np.nonzero((phi > 0.0) & (dist > _DIST_FLOOR))
    if rows.size:
        coef = ((-2.0 * w[rows, 1] / d_phys) * phi[rows, pairs]
                / dist[rows, pairs])
        g = coef[:, None] * diff[rows, pairs]
        offset = (rows * size)[:, None]
        for ends, sign in zip(cs._separation_cells, (g, -g)):
            cells.append((offset + ends[pairs]).ravel())
            terms.append(sign.ravel())

    psi = _ordering_residuals(flat, cs)
    l_logic = row_sums(psi * psi) / d_logic
    rows, pairs = np.nonzero(psi > 0.0)
    if rows.size:
        coef = (2.0 * w[rows, 2] / d_logic) * psi[rows, pairs]
        offset = rows * size
        for ends, sign in zip(cs._ordering_cells, (coef, -coef)):
            cells.append(offset + ends[pairs])
            terms.append(sign)

    if cells:
        grad = np.bincount(np.concatenate(cells), np.concatenate(terms),
                           minlength=p_count * size).reshape(s.shape)
    else:
        grad = np.zeros(s.shape)
    total = w[:, 0] * l_data + w[:, 1] * l_phys + w[:, 2] * l_logic
    if single:
        return LossBreakdown(float(l_data[0]), float(l_phys[0]),
                             float(l_logic[0]), float(total[0]), norm, grad[0])
    return LossBreakdown(l_data, l_phys, l_logic, total, norm, grad)


def total_energy(states, cs, weights=DEFAULT_WEIGHTS, norm=MSE):
    """Weighted energy E; success means E < 2.0."""
    return loss_components(states, cs, norm, weights).l_total


def loss_gradient(states, cs, weights=DEFAULT_WEIGHTS, norm=MSE):
    """Analytic gradient of total_energy, shaped like states."""
    return loss_components(states, cs, norm, weights).grad


@dataclass
class ViolationStats:
    """Raw residual magnitudes at a state (not squared, not normalized)."""

    phi_mean: float
    psi_mean: float
    combined: float
    phi_max: float
    psi_max: float


def violation_stats(states, cs):
    """Mean and max residuals over the inequality families at one state."""
    s, _ = _batch(states, cs)
    flat = s.reshape(1, -1)
    phi = _separation_residuals(flat, cs)[0][0]
    psi = _ordering_residuals(flat, cs)[0]
    phi_mean = float(phi.mean()) if phi.size else 0.0
    psi_mean = float(psi.mean()) if psi.size else 0.0
    total = phi.size + psi.size
    combined = float((phi.sum() + psi.sum()) / total) if total else 0.0
    return ViolationStats(
        phi_mean=phi_mean,
        psi_mean=psi_mean,
        combined=combined,
        phi_max=float(phi.max()) if phi.size else 0.0,
        psi_max=float(psi.max()) if psi.size else 0.0,
    )
