"""Constraint families, the weighted energy, and its analytic gradient.

Three families act on the node states:
  - anchors: full-state quadratic pull toward a reference vector
  - separations: hinge-squared penalty on pairwise position distance
  - orderings: hinge-squared penalty on a coordinate ordering with margin

Positions are the first 3 components of the bound block. Energy is the
weighted sum of the family losses; each family may be normalized by its
constraint count (MSE) or left as a raw sum (SSE).

One gradient pass computes the residuals once and the analytic gradient of
the weighted total from them; loss_components adds the family losses and
the weighted total from the same residuals, total_energy is a view of it,
and loss_gradient runs the gradient pass alone. One code path takes one
(n, d) state array with (3,) weights, adding no batch axis, or a batch
(P, n, d) of them with (P, 3) weights. A batch row gives the same floats,
bit for bit, as the call on that row alone.

A set's state width d is the width of its anchor references: 64 for a set
from build, fewer for the set a solve restricts to the state columns it
sweeps, positions first (components 0-2 at any width).
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConstraintError
from .graphs import STATE_DIM, row_norms  # noqa: F401 (re-exported)

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


def weighted_total(w, l_data, l_phys, l_logic):
    """Weighted energy of the family losses, summed left to right; w is one
    (3,) array of family weights or (P, 3) rows, one per batch row."""
    return w.T[0] * l_data + w.T[1] * l_phys + w.T[2] * l_logic


def weight_rows(weights, lead):
    """Family weights shaped lead + (3,), from one LossWeights or from rows
    of weights: lead is () for one state array and (P,) for a batch."""
    w = weights.as_array() if isinstance(weights, LossWeights) else weights
    w = np.asarray(w, dtype=float)
    return w if w.shape == lead + (3,) else np.broadcast_to(w, lead + (3,))


DEFAULT_WEIGHTS = LossWeights(1.0, 10.0, 2.0)


@dataclass(eq=False)
class ConstraintSet:
    """Compiled constraint arrays over n_nodes states of width state_dim.

    anchors: {node id: reference state (state_dim,)}
    separations: rows (a, b, min_dist)
    orderings: rows (a, b, axis, margin) meaning pos(a)[axis] + margin <= pos(b)[axis]

    Two sets compare by identity: == on their arrays has no one answer.
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
        self._cell_table = None  # _cells' table of row-offset cells

    @classmethod
    def build(cls, n_nodes, anchors=None, separations=None, orderings=None):
        """Build from mapping/sequence forms.

        anchors: {id: 64-vector}; separations: [(a, b, min_dist)];
        orderings: [(a, b, axis, margin)]. Raises ConstraintError when
        n_nodes, a node id or an axis is not a whole number or is out of
        range, a row does not hold that many numbers, or a reference does
        not hold 64.
        """
        n = whole(n_nodes, "n_nodes", ConstraintError)
        anchors = sorted(((whole(k, "anchor id", ConstraintError), v)
                          for k, v in (anchors or {}).items()),
                         key=lambda kv: kv[0])
        ids = np.array([k for k, _ in anchors], dtype=float)
        refs = [np.asarray(v, dtype=float) for _, v in anchors]
        if any(r.shape != (STATE_DIM,) for r in refs):
            raise ConstraintError("anchor reference shape mismatch")
        refs = np.array(refs).reshape(-1, STATE_DIM)
        sep = _table(separations or [], 3, "separation")
        orde = _table(orderings or [], 4, "ordering")
        # checked as floats: an id too large for an int must not be cast
        _check_ranges(n, (ids, sep[:, :2], orde[:, :2]), orde[:, 2])
        return cls(
            n_nodes=n,
            anchor_ids=ids.astype(int),
            anchor_refs=refs,
            sep_a=sep[:, 0].astype(int), sep_b=sep[:, 1].astype(int),
            sep_dist=sep[:, 2],
            ord_a=orde[:, 0].astype(int), ord_b=orde[:, 1].astype(int),
            ord_axis=orde[:, 2].astype(int), ord_margin=orde[:, 3],
        )

    def _validate(self):
        _check_ranges(self.n_nodes, (self.anchor_ids, self.sep_a, self.sep_b,
                                     self.ord_a, self.ord_b), self.ord_axis)
        counts = np.bincount(self.anchor_ids, minlength=1)
        if counts.max() > 1:
            raise ConstraintError(f"node {counts.argmax()} has two anchors")
        refs = self.anchor_refs
        if refs.ndim != 2 or len(refs) != self.anchor_ids.size \
                or refs.shape[1] < POSITION_DIM:
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

    @property
    def state_dim(self):
        """Components per node state: the width of the anchor references."""
        return self.anchor_refs.shape[1]

    @cached_property
    def _anchor_cells(self):
        """Flat (node, component) cells of the anchored states, (A * d,)."""
        d = self.state_dim
        return (self.anchor_ids[:, None] * d + np.arange(d)).ravel()

    def _cells(self, p):
        """(anchor cells, ordering cells) of a flat batch of p rows, each
        row's offset added. One state array, like a batch of one row, reads
        the set's own cells; p rows are the first p rows of one table,
        built for the largest batch seen and rebuilt when a larger one
        arrives, so a set holds one batch's cells."""
        if p == 1:
            return self._anchor_cells, self._ordering_cells
        if self._cell_table is None or len(self._cell_table[0]) < p:
            size = self.n_nodes * self.state_dim
            offset = np.arange(0, p * size, size)[:, None]
            self._cell_table = (offset + self._anchor_cells,
                                offset + self._ordering_cells)
        anchors, orderings = self._cell_table
        return anchors[:p].ravel(), orderings[:p].ravel()

    @cached_property
    def _separation_cells(self):
        """Flat cells of the pair positions, (2, S, 3): a ends, then b ends."""
        pos = np.arange(POSITION_DIM)
        return (np.stack((self.sep_a, self.sep_b))[..., None]
                * self.state_dim + pos)

    @cached_property
    def _ordering_cells(self):
        """Flat cells of the ordered coordinates: a ends, then b ends."""
        return (np.concatenate((self.ord_a, self.ord_b)) * self.state_dim
                + np.tile(self.ord_axis, 2))

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


def whole(x, what, error=ValueError, least=None):
    """x as an int; raises error (a ValueError type) unless x is a whole
    number, a boolean not being one, and at least `least` when given. An
    integer is taken exactly, not rounded through a float."""
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        v = int(x)
    else:
        try:
            v = float("nan") if isinstance(x, (bool, np.bool_)) else float(x)
        except (TypeError, ValueError):
            v = float("nan")
        if not v.is_integer():
            raise error(f"{what} must be a whole number, got {x!r}")
        v = int(v)
    if least is not None and v < least:
        raise error(f"{what} must be >= {least}")
    return v


def _check_ranges(n, id_arrays, axes):
    """Raises ConstraintError unless n >= 1, every node id lies in [0, n)
    and every axis in {0, 1, 2}."""
    if n < 1:
        raise ConstraintError("n_nodes must be >= 1")
    for ids in id_arrays:
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ConstraintError("constraint references a missing node")
    if axes.size and (axes.min() < 0 or axes.max() >= POSITION_DIM):
        raise ConstraintError("ordering axis must be in {0, 1, 2}")


def _table(rows, width, name):
    """Constraint rows as a float (R, width) array. Every entry but the
    last (node ids, and an ordering's axis) must be a whole number."""
    try:
        table = [[float(x) for x in row] for row in rows]
    except (TypeError, ValueError):
        table = None
    if table is None or any(len(r) != width for r in table):
        raise ConstraintError(f"each {name} must be {width} numbers")
    table = np.array(table, dtype=float).reshape(-1, width)
    ids = table[:, :-1]
    bad = ~(np.isfinite(ids) & (np.floor(ids) == ids)).all(axis=1)
    if bad.any():
        raise ConstraintError(
            f"{name} {table[np.argmax(bad)].tolist()} has a node id or axis "
            f"that is not a whole number")
    return table


@dataclass
class LossBreakdown:
    """Family losses, their weighted total, and the gradient of the total:
    numbers for one state array, (P,) arrays for a batch."""

    l_data: float
    l_phys: float
    l_logic: float
    l_total: float
    grad: np.ndarray


def _states(states, cs):
    """C-contiguous float view of one (n, d) state array or a batch
    (P, n, d) of them, d the set's state width."""
    s = np.ascontiguousarray(states, dtype=float)
    if s.ndim not in (2, 3) or s.shape[-2:] != (cs.n_nodes, cs.state_dim):
        raise ConstraintError(
            f"states must be ({cs.n_nodes}, {cs.state_dim}) or a batch of "
            f"them, got {np.shape(states)}")
    return s


def row_sums(x):
    """Sum over the last two axes of a C-contiguous (n, d) array, or of
    each row of a (P, n, d) batch, summed pairwise as np.sum sums it."""
    return np.add.reduce(x.reshape(x.shape[:-2] + (-1,)), axis=-1)


def _separation_residuals(flat, cs):
    """Penetration depth phi = max(0, min_dist - |pos(a) - pos(b)|) per pair.

    flat is one (n * d,) state or a (P, n * d) batch; returns phi
    (..., S), diff (..., S, 3) and dist (..., S).
    """
    ends = flat.take(cs._separation_cells, axis=-1)
    diff = ends[..., 0, :, :] - ends[..., 1, :, :]
    sq = diff * diff
    # summed left to right, as row_norms sums its axis of three;
    # test_loss_bits_pinned holds these floats
    dist = sq[..., 0] + sq[..., 1]
    dist += sq[..., 2]
    np.sqrt(dist, out=dist)
    phi = np.subtract(cs.sep_dist, dist)
    return np.maximum(0.0, phi, out=phi), diff, dist


def _ordering_residuals(flat, cs):
    """Violation psi = max(0, pos(a)[axis] - pos(b)[axis] + margin) per
    ordering, (..., O)."""
    ends = flat.take(cs._ordering_cells, axis=-1)
    o = cs.n_orderings
    psi = ends[..., :o] - ends[..., o:]
    psi += cs.ord_margin
    return np.maximum(0.0, psi, out=psi)


def _gradient(s, cs, norm, w):
    """Gradient of the weighted total at one (n, d) state under (3,)
    weights, or at a (P, n, d) batch under (P, 3) weights, with the
    residuals it is built from.

    Returns grad, shaped like s, and (resid, phi, psi): the anchor residuals
    (..., A * d), the separation depths (..., S) and the ordering
    violations (..., O), which the family losses square and sum.

    Hinge terms contribute zero exactly at their kink (subgradient choice);
    the separation direction is zeroed when the pair distance is below 1e-12.
    All gradient terms go through one bincount in a fixed order (anchors,
    separation a ends, separation b ends, ordering a ends, ordering b ends),
    so each cell sums its terms in the same order whatever the batch size.
    An inactive ordering adds two exact zeros, which change no sum.
    """
    flat = s.reshape(s.shape[:-2] + (-1,))
    d_data, d_phys, d_logic = cs.divisors(norm)
    anchor_cells, ordering_cells = cs._cells(len(flat) if s.ndim == 3 else 1)

    # each family's weight column, (P, 1) for a batch and a number for one
    # array; separations gather theirs per active pair
    col = w.T[..., None] if s.ndim == 3 else w

    resid = flat.take(cs._anchor_cells, axis=-1)
    resid -= cs.anchor_refs.ravel()
    cells = [anchor_cells]
    terms = [(2.0 * col[0] / d_data * resid).ravel()]

    phi, diff, dist = _separation_residuals(flat, cs)
    # d(phi^2)/d pos(a) = -2 phi * (pos(a)-pos(b))/dist, active when phi > 0;
    # the active pairs in row-major order, as (rows, pairs) of a batch
    act = ((phi > 0.0) & (dist > _DIST_FLOOR)).nonzero()
    pairs = act[-1]
    if pairs.size:
        coef = (-2.0 * w[act[:-1] + (1,)] / d_phys) * phi[act] / dist[act]
        g = coef[:, None] * diff[act]
        # every a end, then every b end
        ends = cs._separation_cells[:, pairs]
        if s.ndim == 3:  # each batch row's offset
            ends += (act[0] * flat.shape[1])[:, None]
        cells.append(ends.ravel())
        terms.append(np.concatenate((g, -g)).ravel())

    psi = _ordering_residuals(flat, cs)
    coef = (2.0 * col[2] / d_logic) * psi
    cells.append(ordering_cells)
    terms.append(np.concatenate((coef, -coef), axis=-1).ravel())

    grad = np.bincount(np.concatenate(cells), np.concatenate(terms),
                       minlength=flat.size).reshape(s.shape)
    return grad, (resid, phi, psi)


def loss_components(states, cs, norm=MSE, weights=None):
    """Family losses, weighted total and the gradient of that total; the
    losses are taken from the residuals the gradient pass built.

    weights=None means unit weights. For one state array the loss fields
    are numbers; for a batch they are (P,) arrays, weights may be (P, 3)
    rows, and grad is (P, n, d).
    """
    s = _states(states, cs)
    w = weight_rows(np.ones(3) if weights is None else weights, s.shape[:-2])
    grad, (resid, phi, psi) = _gradient(s, cs, norm, w)
    d_data, d_phys, d_logic = cs.divisors(norm)
    l_data = np.add.reduce(resid * resid, axis=-1) / d_data
    l_phys = np.add.reduce(phi * phi, axis=-1) / d_phys
    l_logic = np.add.reduce(psi * psi, axis=-1) / d_logic
    total = weighted_total(w, l_data, l_phys, l_logic)
    return LossBreakdown(l_data, l_phys, l_logic, total, grad)


def total_energy(states, cs, weights=DEFAULT_WEIGHTS, norm=MSE):
    """Weighted energy E; success means E < 2.0."""
    return loss_components(states, cs, norm, weights).l_total


def loss_gradient(states, cs, weights=DEFAULT_WEIGHTS, norm=MSE):
    """Analytic gradient of total_energy, shaped like states; the gradient
    pass of loss_components alone, with no family loss computed."""
    s = _states(states, cs)
    return _gradient(s, cs, norm, weight_rows(weights, s.shape[:-2]))[0]


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
    if np.shape(states) != (cs.n_nodes, cs.state_dim):
        raise ConstraintError(f"states must be one ({cs.n_nodes}, "
                              f"{cs.state_dim}) array, got {np.shape(states)}")
    flat = np.asarray(states, dtype=float).reshape(-1)
    phi = _separation_residuals(flat, cs)[0]
    psi = _ordering_residuals(flat, cs)
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
