"""Node states and the weighted semantic graph.

A node state is a 64-vector split into bound (16), form (32) and intent (16)
blocks. Edges carry affinity weights derived from cosine similarity of the
endpoint states, mapped to (0, 1] with a small positive floor. The complete
and explicit topologies also take a batch (P, n, 64) of state arrays: one
edge list, and one weight row per batch row.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TopologyError, UnknownNodeError

STATE_DIM = 64
BOUND_DIM = 16
FORM_DIM = 32
INTENT_DIM = 16

WEIGHT_FLOOR = 1e-6
_NORM_FLOOR = 1e-12


def decompose_state(s):
    """Split a 64-vector into its (bound, form, intent) blocks."""
    s = np.asarray(s, dtype=float)
    if s.shape != (STATE_DIM,):
        raise ValueError(f"state must have shape ({STATE_DIM},), got {s.shape}")
    return s[:BOUND_DIM], s[BOUND_DIM:BOUND_DIM + FORM_DIM], s[BOUND_DIM + FORM_DIM:]


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

    def weight_of(self, u, v):
        return float(self.weights[self.edge_index(u, v)])

    def with_states(self, states):
        """Same topology, new states, weights recomputed."""
        states = np.asarray(states, dtype=float)
        if states.shape != self.states.shape:
            raise ValueError("state array shape changed")
        return SemanticGraph(states=states, edges=self.edges,
                             weights=_edge_weights(states, self.edges))


def _edge_weights(states, edges):
    w = pairwise_weights(states)
    return w[..., edges[:, 0], edges[:, 1]]


@lru_cache(maxsize=None)
def _complete_edges(n):
    """Edge list of the complete graph on n nodes, shared read-only."""
    u, v = np.triu_indices(n, k=1)
    edges = np.column_stack([u, v]).astype(int)
    edges.flags.writeable = False
    return edges


def _knn_edges(w, k):
    n = w.shape[0]
    pairs = set()
    for u in range(n):
        # highest affinity first; ties broken by node id for determinism
        order = np.lexsort((np.arange(n), -w[u]))
        picked = [int(v) for v in order if v != u][:k]
        for v in picked:
            pairs.add((min(u, v), max(u, v)))
    if not pairs:
        return np.empty((0, 2), dtype=int)
    return np.array(sorted(pairs), dtype=int)


def build_graph(states, topology="complete", k=None, edges=None):
    """Build a SemanticGraph over the given states.

    topology is one of "complete" (default), "knn" (requires k), or
    "explicit" (requires edges, a sequence of (u, v) pairs). states is one
    (n, 64) array, or for the complete and explicit topologies a batch
    (P, n, 64).
    """
    states = np.asarray(states, dtype=float)
    if states.ndim not in (2, 3) or states.shape[-1] != STATE_DIM:
        raise ValueError(f"states must be (n, {STATE_DIM}) or a batch of them")
    n = states.shape[-2]
    if n < 1:
        raise ValueError("need at least one state")
    if not np.all(np.isfinite(states)):
        raise ValueError("states must be finite")

    if topology == "complete":
        edge_arr = _complete_edges(n)
    elif topology == "knn":
        if k is None or k < 1:
            raise TopologyError("knn topology requires k >= 1")
        if states.ndim != 2:
            raise TopologyError("knn topology takes one state array")
        edge_arr = _knn_edges(pairwise_weights(states), int(k))
    elif topology == "explicit":
        if edges is None:
            raise TopologyError("explicit topology requires an edge list")
        seen = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise TopologyError(f"self-loop ({u}, {u})")
            if not (0 <= u < n and 0 <= v < n):
                raise TopologyError(f"edge ({u}, {v}) references unknown node")
            seen.add((min(u, v), max(u, v)))
        edge_arr = (np.array(sorted(seen), dtype=int)
                    if seen else np.empty((0, 2), dtype=int))
    else:
        raise TopologyError(f"unknown topology {topology!r}")

    return SemanticGraph(states=states, edges=edge_arr,
                         weights=_edge_weights(states, edge_arr))


def degree(graph, node):
    """Unweighted degree of one node."""
    node = int(node)
    if not (0 <= node < graph.n_nodes):
        raise UnknownNodeError(f"node {node} not in graph of {graph.n_nodes}")
    return int(graph.degrees()[node])
