"""Forman-Ricci curvature on the semantic graph and step-size modulation.

For an edge e = (u, v) with weight w(e):

    kappa(e) = w(e) * (1/deg(u) + 1/deg(v) - sum_{e'~e} w(e') / sqrt(deg(u) deg(v)))

where e' ~ e ranges over edges sharing exactly one endpoint with e. Positive
curvature marks dense neighborhoods, negative curvature marks bottlenecks.
Per-node step scales shrink steps in positive-curvature regions and enlarge
them in negative ones, by the fixed law clamp(exp(-GAMMA * mean kappa),
ETA_MIN, ETA_MAX). One operator evaluates kappa over the dense weight
matrix, for all node pairs at once, and every entry point reads it. A
batched graph gets one curvature matrix and one step-scale row per batch
row.
"""
from __future__ import annotations

import numpy as np

from .errors import TopologyError

GAMMA = 0.5
ETA_MIN = 0.25
ETA_MAX = 2.0


def _curvature(graph):
    """Curvature matrix kappa (..., n, n), zero off the edges, and the
    degrees (..., n) as floats."""
    w = graph.weights
    deg = graph.degrees().astype(float)
    # an isolated node lies on no edge, so its degree only needs to be
    # nonzero here: w is zero on every entry of its row and column
    d = np.maximum(deg, 1.0)
    # the edges adjacent to e=(u, v) are the incident edges of u and of v
    # minus e itself at each end; dividing by sqrt(du dv) once, and not by
    # each sqrt, keeps the unit triangle at exactly 0
    wsum = np.add.reduce(w, axis=-1)
    adj = np.subtract(wsum[..., :, None], w, dtype=float)
    adj += wsum[..., None, :] - w
    adj /= np.sqrt(d[..., :, None] * d[..., None, :])
    inv = 1.0 / d
    kappa = inv[..., :, None] + inv[..., None, :]
    kappa -= adj
    kappa *= w
    return kappa, deg


def _scales(kappa, deg):
    """(step scales, mean incident curvature) per node, (..., n) each."""
    acc = np.add.reduce(kappa, axis=-1)
    mean = np.divide(acc, deg, out=np.zeros(acc.shape), where=deg > 0)
    scale = np.exp(-GAMMA * mean)
    return scale.clip(ETA_MIN, ETA_MAX, out=scale), mean


def all_edge_curvatures(graph):
    """Curvature of every edge, (..., E), aligned with graph.edges."""
    u, v = graph.edges.T
    return _curvature(graph)[0][..., u, v]


def forman_ricci(graph, edge):
    """Curvature of a single edge (u, v) of an unbatched graph."""
    if graph.weights.ndim != 2:
        raise TopologyError(f"expected one (n, n) graph, got weights of "
                            f"shape {graph.weights.shape}")
    u, v = edge
    n = graph.n_nodes
    if not (0 <= u < n and 0 <= v < n) or graph.weights[u, v] <= 0:
        raise TopologyError(f"edge ({u}, {v}) not in graph")
    return float(_curvature(graph)[0][u, v])


def node_step_scales(graph):
    """Per-node step multipliers eta_v = clamp(exp(-GAMMA * mean kappa),
    ETA_MIN, ETA_MAX).

    The mean runs over edges incident to v; isolated nodes get mean 0 and a
    neutral scale of 1. Both results are (..., n), one row per batch row.
    """
    return _scales(*_curvature(graph))


def curvature_step_scales(graph):
    """Per-edge curvature and per-node mean curvature and step scale of an
    unbatched graph, with the law's constants, as a JSON object."""
    if graph.weights.ndim != 2 or graph.n_nodes < 1:
        raise TopologyError(f"expected one (n, n) graph with n >= 1, got "
                            f"weights of shape {graph.weights.shape}")
    kappa, deg = _curvature(graph)
    scale, mean = _scales(kappa, deg)
    return {
        "edges": [{"u": int(u), "v": int(v), "curvature": float(kappa[u, v])}
                  for u, v in graph.edges],
        "nodes": [{"id": i, "mean_curvature": float(m), "scale": float(s)}
                  for i, (m, s) in enumerate(zip(mean, scale))],
        "gamma": GAMMA,
        "eta_min": ETA_MIN,
        "eta_max": ETA_MAX,
    }
