"""The benchmark's own energy, computed apart from topocsp.constraints.

It reads only the constraint arrays of an instance and restates the
definition: the reference-weighted sum (data 1, phys 10, logic 2) of three
family losses, each a sum of squares, divided under "mse" by the node count,
the separation count and the ordering count (an empty family by 1), and left
undivided under "sse".
"""
from __future__ import annotations

import numpy as np

REF_WEIGHTS = (1.0, 10.0, 2.0)
NORM_OF_VARIANT = {"baseline": "sse", "v1": "sse", "v2": "mse"}


def energy(states, cs, norm):
    """Reference-weighted energy of an (n, 64) state array."""
    s = np.asarray(states, dtype=float)
    pos = s[:, :3]

    data = sum(float(np.dot(r, r)) for r in s[cs.anchor_ids] - cs.anchor_refs)

    phys = 0.0
    for a, b, d in zip(cs.sep_a, cs.sep_b, cs.sep_dist):
        gap = pos[a] - pos[b]
        depth = d - np.sqrt(np.dot(gap, gap))
        if depth > 0:
            phys += depth * depth

    logic = 0.0
    for a, b, axis, margin in zip(cs.ord_a, cs.ord_b, cs.ord_axis,
                                  cs.ord_margin):
        over = pos[a, axis] - pos[b, axis] + margin
        if over > 0:
            logic += over * over

    if norm == "mse":
        data /= s.shape[0]
        phys /= max(1, len(cs.sep_a))
        logic /= max(1, len(cs.ord_a))
    elif norm != "sse":
        raise ValueError(f"unknown normalization {norm!r}")
    wd, wp, wl = REF_WEIGHTS
    return wd * data + wp * phys + wl * logic
