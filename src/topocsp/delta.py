"""Rank-one state update: x' = x + beta * (k^T (v - x)) * k with k = g/|g|.

beta interpolates between identity (0), projection onto the hyperplane
reached by the target along k (1), and reflection (2). The update direction
always lies in span{k}, so the orthogonal complement of k is untouched and
the linear part of the map is I - beta k k^T.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_EPSILON = 1e-8
DEFAULT_CLIP = (-1.0, 1.0)


@dataclass
class DeltaParams:
    """Gating scalar, gradient floor, and optional componentwise bounds."""

    beta: float = 1.0
    epsilon: float = DEFAULT_EPSILON
    clip: tuple | None = DEFAULT_CLIP

    def __post_init__(self):
        if not 0.0 <= self.beta <= 2.0:
            raise ValueError(f"beta must be in [0, 2], got {self.beta}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.clip is not None:
            lo, hi = self.clip
            if not lo < hi:
                raise ValueError("clip bounds must satisfy lo < hi")


def delta_step(x, g, v, params):
    """Rank-one update of x toward target v along the direction of g.

    x, g and v are one (d,) vector each, or (n, d) arrays updated row by
    row, each row bitwise equal to the single-row call on it. A row with
    |g| < epsilon comes back unchanged, and the result is always a copy.
    Raises ValueError on non-finite input rather than propagating NaN.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(g).all()
            and np.isfinite(v).all()):
        raise ValueError("delta_step requires finite x, g, v")
    rows = x.reshape(-1, x.shape[-1])
    g = g.reshape(rows.shape)
    gn = np.sqrt(_row_dot(g, g))
    move = gn >= params.epsilon
    k = g / np.maximum(gn, params.epsilon)[:, None]
    scale = params.beta * _row_dot(k, v.reshape(rows.shape) - rows)
    scale[~move] = 0.0
    out = rows + scale[:, None] * k
    if params.clip is not None:
        np.clip(out, params.clip[0], params.clip[1], out=out,
                where=move[:, None])
    return out.reshape(x.shape)


def _row_dot(a, b):
    # through matmul, so each row gets the same dot product as a (d,) vector
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]
