"""Node states and the weighted semantic graph.

A node state is a 64-vector split into bound (16), form (32) and intent (16)
blocks. Edges carry affinity weights derived from cosine similarity of the
endpoint states, mapped to (0, 1] with a small positive floor. A graph is
its dense weight matrix, positive exactly on the edges. The solver builds
the complete graph, over one state array or a batch (P, n, 64) of them:
one (P, n, n) weight matrix. SemanticGraph also holds any other weight
matrix built by hand.
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


def pairwise_weights(states):
    """(..., n, n) matrix of edge weights for all node pairs, zero diagonal."""
    states = np.asarray(states, dtype=float)
    norms = row_norms(states)
    unit = states / np.maximum(norms, _NORM_FLOOR)[..., None]
    w = unit @ np.swapaxes(unit, -1, -2)
    w += 1.0
    w /= 2.0
    np.maximum(w, WEIGHT_FLOOR, out=w)
    # degenerate states get the floor against every partner
    bad = norms < _NORM_FLOOR
    if bad.any():
        w[bad] = WEIGHT_FLOOR
        np.swapaxes(w, -1, -2)[bad] = WEIGHT_FLOOR
    n = w.shape[-1]
    w.reshape(w.shape[:-2] + (n * n,))[..., ::n + 1] = 0.0  # the diagonal
    return w


@dataclass
class SemanticGraph:
    """Immutable-by-convention graph: weights (n, n), symmetric, zero on the
    diagonal and positive exactly on the edges.

    A batched graph has weights (P, n, n), one matrix per batch row.
    """

    weights: np.ndarray

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


def build_graph(states):
    """The complete SemanticGraph over one (n, 64) state array, or over a
    batch (P, n, 64) of them."""
    states = np.asarray(states, dtype=float)
    if states.ndim not in (2, 3) or states.shape[-1] != STATE_DIM:
        raise ValueError(f"states must be (n, {STATE_DIM}) or a batch of them")
    n = states.shape[-2]
    if n < 1:
        raise ValueError("need at least one state")
    if not np.isfinite(states).all():
        raise ValueError("states must be finite")
    return SemanticGraph(weights=pairwise_weights(states))
