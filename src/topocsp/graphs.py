"""Node states and the weighted semantic graph.

A node state is a 64-vector split into bound (16), form (32) and intent (16)
blocks. Edges carry affinity weights derived from cosine similarity of the
endpoint states, mapped to (0, 1] with a small positive floor. A graph is
its dense weight matrix, positive exactly on the edges. The solver builds
the complete graph, over one state array or a batch (P, n, d) of them:
one (P, n, n) weight matrix, and knows that every node's degree is
n - 1. The states may hold only d of each node's columns, with the Gram
matrix of the others given as a constant: the cosines are those of the
whole states. SemanticGraph also holds any other weight matrix built by
hand, whose degrees are counted from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STATE_DIM = 64

WEIGHT_FLOOR = 1e-6
_NORM_FLOOR = 1e-12


def edge_weight(s_u, s_v):
    """Affinity weight max(floor, (1 + cos(s_u, s_v)) / 2).

    States with norm below 1e-12 are degenerate and get the floor weight.
    """
    s_u = np.asarray(s_u, dtype=float)
    s_v = np.asarray(s_v, dtype=float)
    nu = np.linalg.norm(s_u)
    nv = np.linalg.norm(s_v)
    if nu < _NORM_FLOOR or nv < _NORM_FLOOR:
        return WEIGHT_FLOOR
    cos = float(np.dot(s_u, s_v) / (nu * nv))
    return max(WEIGHT_FLOOR, (1.0 + cos) / 2.0)


def row_norms(x):
    """Euclidean norms along the last axis, the same floats as
    np.linalg.norm(x, axis=-1) at less call overhead."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def pairwise_weights(states, frozen_gram=0.0):
    """(..., n, n) matrix of edge weights for all node pairs, zero diagonal.

    The states (..., n, d) hold d columns of each node's state, and
    frozen_gram, (n, n), is the Gram matrix of the columns they leave out,
    0.0 when they hold them all. Their sum is the Gram matrix of the whole
    states, whose diagonal holds the squared norms the cosines divide by.
    """
    states = np.asarray(states, dtype=float)
    gram = states @ states.swapaxes(-1, -2)
    gram += frozen_gram
    n = gram.shape[-1]
    norms = np.sqrt(gram.reshape(gram.shape[:-2] + (n * n,))[..., ::n + 1])
    inv = 1.0 / np.maximum(norms, _NORM_FLOOR)
    # one product per pair, so the weights stay as symmetric as the Gram
    w = np.multiply(gram, inv[..., :, None] * inv[..., None, :], out=gram)
    w += 1.0
    w /= 2.0
    np.maximum(w, WEIGHT_FLOOR, out=w)
    # degenerate states get the floor against every partner
    if np.minimum.reduce(norms, axis=None) < _NORM_FLOOR:
        bad = norms < _NORM_FLOOR
        w[bad] = WEIGHT_FLOOR
        w.swapaxes(-1, -2)[bad] = WEIGHT_FLOOR
    w.reshape(w.shape[:-2] + (n * n,))[..., ::n + 1] = 0.0  # the diagonal
    return w


@dataclass(frozen=True)
class SemanticGraph:
    """Immutable graph: weights (n, n), symmetric, zero on the diagonal and
    positive exactly on the edges.

    A batched graph has weights (P, n, n), one matrix per batch row. The
    weights cannot be reassigned, and must not be edited in place: the
    graph of build_graph keeps its degrees as the number n - 1.
    """

    weights: np.ndarray
    # every node's degree, as a float, when build_graph knows the graph is
    # complete; None for a graph built by hand. Not a field: no caller sets it
    _degree = None

    @property
    def n_nodes(self):
        return self.weights.shape[-1]

    @property
    def edges(self):
        """(E, 2) rows (u, v) with u < v, sorted lexicographically; a batched
        graph lists the edges of any of its rows."""
        adj = self.weights > 0
        return np.argwhere(np.triu(adj.any(axis=tuple(range(adj.ndim - 2)))))

    @property
    def n_edges(self):
        return self.edges.shape[0]

    def degrees(self):
        """Unweighted incident-edge count per node, (..., n)."""
        return np.add.reduce(self.weights > 0, axis=-1)


def check_finite(states):
    """Raises ValueError unless every entry of the states is finite."""
    if not np.logical_and.reduce(np.isfinite(states), axis=None):
        raise ValueError("states must be finite")


def build_graph(states, frozen_gram=0.0):
    """The complete SemanticGraph over one (n, d) state array, or over a
    batch (P, n, d) of them, with frozen_gram the Gram matrix of the
    columns they leave out (pairwise_weights). Its degrees are fixed at
    n - 1, so its weights must not be edited."""
    states = np.asarray(states, dtype=float)
    if states.ndim not in (2, 3):
        raise ValueError("states must be (n, d) or a batch of them")
    n = states.shape[-2]
    if n < 1:
        raise ValueError("need at least one state")
    check_finite(states)
    graph = SemanticGraph(weights=pairwise_weights(states, frozen_gram))
    if n > 1:
        # every off-diagonal weight is at least WEIGHT_FLOOR > 0
        object.__setattr__(graph, "_degree", float(n - 1))
    return graph
