"""Node states and the weighted semantic graph.

A node state is a 64-vector split into bound (16), form (32) and intent (16)
blocks. Edges carry affinity weights derived from cosine similarity of the
endpoint states, mapped to (0, 1] with a small positive floor. The solver
builds the complete graph, over one state array or a batch (P, n, 64) of
them: one edge list, and one weight row per batch row. SemanticGraph also
holds any other edge list built by hand.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TopologyError

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


def pairwise_weights(states):
    """(..., n, n) matrix of edge weights for all node pairs, zero diagonal."""
    states = np.asarray(states, dtype=float)
    norms = np.linalg.norm(states, axis=-1)
    safe = np.maximum(norms, _NORM_FLOOR)
    unit = states / safe[..., None]
    w = (1.0 + unit @ np.swapaxes(unit, -1, -2)) / 2.0
    w = np.maximum(w, WEIGHT_FLOOR)
    # degenerate states get the floor against every partner
    bad = norms < _NORM_FLOOR
    if bad.any():
        w[bad] = WEIGHT_FLOOR
        np.swapaxes(w, -1, -2)[bad] = WEIGHT_FLOOR
    diag = np.arange(w.shape[-1])
    w[..., diag, diag] = 0.0
    return w


@dataclass
class SemanticGraph:
    """Immutable-by-convention graph: states (n, 64), edges (E, 2), weights (E,).

    Edge rows are (u, v) with u < v, sorted lexicographically. A batched
    graph has states (P, n, 64) and weights (P, E) over the one edge list.
    """

    states: np.ndarray
    edges: np.ndarray
    weights: np.ndarray

    @property
    def n_nodes(self):
        return self.states.shape[-2]

    @property
    def n_edges(self):
        return self.edges.shape[0]

    def degrees(self):
        """Unweighted incident-edge count per node."""
        return np.bincount(self.edges.ravel(), minlength=self.n_nodes)

    def edge_index(self, u, v):
        """Row index of edge (u, v) in either orientation."""
        a, b = (u, v) if u < v else (v, u)
        hit = np.nonzero((self.edges[:, 0] == a) & (self.edges[:, 1] == b))[0]
        if hit.size == 0:
            raise TopologyError(f"edge ({u}, {v}) not in graph")
        return int(hit[0])


@lru_cache(maxsize=None)
def _complete_edges(n):
    """Edge list of the complete graph on n nodes, shared read-only."""
    u, v = np.triu_indices(n, k=1)
    edges = np.column_stack([u, v]).astype(int)
    edges.flags.writeable = False
    return edges


def build_graph(states):
    """The complete SemanticGraph over one (n, 64) state array, or over a
    batch (P, n, 64) of them."""
    states = np.asarray(states, dtype=float)
    if states.ndim not in (2, 3) or states.shape[-1] != STATE_DIM:
        raise ValueError(f"states must be (n, {STATE_DIM}) or a batch of them")
    n = states.shape[-2]
    if n < 1:
        raise ValueError("need at least one state")
    if not np.all(np.isfinite(states)):
        raise ValueError("states must be finite")
    edges = _complete_edges(n)
    w = pairwise_weights(states)
    return SemanticGraph(states=states, edges=edges,
                         weights=w[..., edges[:, 0], edges[:, 1]])
