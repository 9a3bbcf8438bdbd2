"""Forman-Ricci curvature on the semantic graph and step-size modulation.

For an edge e = (u, v) with weight w(e):

    kappa(e) = w(e) * (1/deg(u) + 1/deg(v) - sum_{e'~e} w(e') / sqrt(deg(u) deg(v)))

where e' ~ e ranges over edges sharing exactly one endpoint with e. Positive
curvature marks dense neighborhoods, negative curvature marks bottlenecks.
Per-node step scales shrink steps in positive-curvature regions and enlarge
them in negative ones, by the fixed law clamp(exp(-GAMMA * mean kappa),
ETA_MIN, ETA_MAX). A batched graph gets one curvature row and one
step-scale row per batch row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TopologyError

GAMMA = 0.5
ETA_MIN = 0.25
ETA_MAX = 2.0


def _node_sums(edges, values, n):
    """Per-node sums of per-edge values (..., E) over incident edges, (..., n).

    Each node adds its terms in edge order, first as the u end and then as
    the v end, in one bincount over all batch rows.
    """
    lead = values.shape[:-1]
    if edges.shape[0] == 0:
        return np.zeros(lead + (n,))
    rows = int(np.prod(lead))
    nodes = np.arange(rows)[:, None] * n + edges.T.ravel()
    both = np.concatenate([values, values], axis=-1)
    return np.bincount(nodes.ravel(), both.ravel(),
                       minlength=rows * n).reshape(lead + (n,))


def all_edge_curvatures(graph):
    """Curvature of every edge, (..., E), aligned with graph.edges."""
    edges = graph.edges
    w = graph.weights
    if edges.shape[0] == 0:
        return np.empty(w.shape)
    deg = graph.degrees().astype(float)
    # sum of incident weights per node; edges adjacent to e=(u,v) are the
    # incident edges of u and v minus e itself at each endpoint
    wsum = _node_sums(edges, w, graph.n_nodes)
    du = deg[edges[:, 0]]
    dv = deg[edges[:, 1]]
    adj = (wsum[..., edges[:, 0]] - w) + (wsum[..., edges[:, 1]] - w)
    return w * (1.0 / du + 1.0 / dv - adj / np.sqrt(du * dv))


def forman_ricci(graph, edge):
    """Curvature of a single edge (u, v)."""
    u, v = edge
    idx = graph.edge_index(u, v)  # raises TopologyError if absent
    return float(all_edge_curvatures(graph)[idx])


def node_step_scales(graph):
    """Per-node step multipliers eta_v = clamp(exp(-GAMMA * mean kappa),
    ETA_MIN, ETA_MAX).

    The mean runs over edges incident to v; isolated nodes get mean 0 and a
    neutral scale of 1. Both results are (..., n), one row per batch row.
    """
    kappa = all_edge_curvatures(graph)
    n = graph.n_nodes
    cnt = graph.degrees().astype(float)
    acc = _node_sums(graph.edges, kappa, n)
    mean = np.divide(acc, cnt, out=np.zeros(acc.shape), where=cnt > 0)
    return np.clip(np.exp(-GAMMA * mean), ETA_MIN, ETA_MAX), mean


@dataclass
class CurvatureReport:
    """Per-edge curvature plus per-node step scales, JSON-serializable."""

    edges: np.ndarray
    curvature: np.ndarray
    node_mean_curvature: np.ndarray
    node_scale: np.ndarray

    def per_edge(self):
        return {(int(u), int(v)): float(k)
                for (u, v), k in zip(self.edges, self.curvature)}

    def per_node_scale(self):
        return {i: float(s) for i, s in enumerate(self.node_scale)}

    def to_json_dict(self):
        return {
            "edges": [
                {"u": int(u), "v": int(v), "curvature": float(k)}
                for (u, v), k in zip(self.edges, self.curvature)
            ],
            "nodes": [
                {"id": i, "mean_curvature": float(m), "scale": float(s)}
                for i, (m, s) in enumerate(
                    zip(self.node_mean_curvature, self.node_scale))
            ],
            "gamma": GAMMA,
            "eta_min": ETA_MIN,
            "eta_max": ETA_MAX,
        }


def curvature_step_scales(graph):
    """Full curvature report for a graph."""
    if graph.n_nodes < 1:
        raise TopologyError("graph has no nodes")
    scale, mean = node_step_scales(graph)
    return CurvatureReport(
        edges=graph.edges,
        curvature=all_edge_curvatures(graph),
        node_mean_curvature=mean,
        node_scale=scale,
    )
