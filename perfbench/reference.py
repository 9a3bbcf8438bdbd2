"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same solve can take twice as long in one minute as in
the next, and the process's CPU time rises with its wall time, so the
slowdown is slower execution, not time off the CPU. The kernel does the
kind of work the solver does (small numpy arrays, one Python call per step),
never touches topocsp, and runs between solves. Scaling a solve's time by
REFERENCE_S over the kernel's time beside it gives the solve's time on a
machine where the kernel takes REFERENCE_S.
"""
from __future__ import annotations

import time

import numpy as np

STEPS = 400
# The kernel's typical time on the machine recorded in README.md.
REFERENCE_S = 0.045


def kernel():
    x = np.linspace(-1.0, 1.0, 20 * 64).reshape(20, 64)
    acc = 0.0
    for _ in range(STEPS):
        d = x[:, None, :] - x[None, :, :]
        dist = np.sqrt((d * d).sum(axis=-1))
        x = np.clip(x - 1e-4 * np.tanh(x) * (dist.mean() + 1.0), -1.0, 1.0)
        acc += float(dist[0, 1])
    return acc


def kernel_seconds():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scaled(seconds, kernel_before, kernel_after):
    """seconds, at the speed the two flanking kernel runs show."""
    return seconds * REFERENCE_S * 2.0 / (kernel_before + kernel_after)
