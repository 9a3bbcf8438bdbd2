"""Shared fixtures and independent oracle helpers for the test suite."""
import numpy as np
import pytest

from topocsp.constraints import ConstraintSet, loss_gradient
from topocsp.curvature import node_step_scales
from topocsp.graphs import STATE_DIM, build_graph


def random_states(rng, n):
    return rng.uniform(-1.0, 1.0, size=(n, STATE_DIM))


def random_constraint_set(rng, n, with_anchors=True, n_seps=None, n_ords=None):
    """A generic random constraint set (not the benchmark generator)."""
    anchors = {}
    if with_anchors:
        ids = rng.choice(n, size=max(1, n // 2), replace=False)
        for v in ids:
            anchors[int(v)] = rng.uniform(-1.0, 1.0, size=STATE_DIM)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if n_seps is None:
        n_seps = min(len(pairs), max(1, n))
    sep_idx = rng.choice(len(pairs), size=n_seps, replace=False)
    separations = [(pairs[i][0], pairs[i][1], float(rng.uniform(0.05, 0.5)))
                   for i in sep_idx]
    if n_ords is None:
        n_ords = max(1, n - 1)
    orderings = []
    for _ in range(n_ords):
        a, b = rng.choice(n, size=2, replace=False)
        orderings.append((int(a), int(b), int(rng.integers(0, 3)),
                          float(rng.uniform(0.0, 0.2))))
    return ConstraintSet.build(n, anchors=anchors, separations=separations,
                               orderings=orderings)


def brute_force_energy(states, cs, weights, norm):
    """Loop-based reference evaluation of the energy, kept independent of
    the vectorized implementation."""
    states = np.asarray(states, dtype=float)
    l_data = 0.0
    for i, v in enumerate(cs.anchor_ids):
        diff = states[v] - cs.anchor_refs[i]
        l_data += float(np.dot(diff, diff))
    l_phys = 0.0
    for a, b, d in zip(cs.sep_a, cs.sep_b, cs.sep_dist):
        dist = float(np.linalg.norm(states[a, :3] - states[b, :3]))
        phi = max(0.0, d - dist)
        l_phys += phi * phi
    l_logic = 0.0
    for a, b, ax, m in zip(cs.ord_a, cs.ord_b, cs.ord_axis, cs.ord_margin):
        psi = max(0.0, states[a, ax] - states[b, ax] + m)
        l_logic += psi * psi
    if norm == "mse":
        l_data /= cs.n_nodes
        l_phys /= max(1, cs.n_separations)
        l_logic /= max(1, cs.n_orderings)
    return (weights.data * l_data + weights.phys * l_phys
            + weights.logic * l_logic)


def duplicate_constraints(states, cs, k):
    """k disjoint copies of (states, constraints), ids shifted per copy."""
    n = cs.n_nodes
    big_states = np.tile(states, (k, 1))
    anchors = {}
    separations = []
    orderings = []
    for c in range(k):
        off = c * n
        for i, v in enumerate(cs.anchor_ids):
            anchors[int(v) + off] = cs.anchor_refs[i]
        for a, b, d in zip(cs.sep_a, cs.sep_b, cs.sep_dist):
            separations.append((int(a) + off, int(b) + off, float(d)))
        for a, b, ax, m in zip(cs.ord_a, cs.ord_b, cs.ord_axis, cs.ord_margin):
            orderings.append((int(a) + off, int(b) + off, int(ax), float(m)))
    big_cs = ConstraintSet.build(k * n, anchors=anchors,
                                 separations=separations, orderings=orderings)
    return big_states, big_cs


def fd_gradient(states, cs, weights, norm, h=1e-5):
    """Central finite differences of the total energy."""
    from topocsp.constraints import total_energy

    states = np.asarray(states, dtype=float)
    grad = np.zeros_like(states)
    for i in range(states.shape[0]):
        for j in range(states.shape[1]):
            up = states.copy()
            up[i, j] += h
            dn = states.copy()
            dn[i, j] -= h
            grad[i, j] = (total_energy(up, cs, weights, norm)
                          - total_energy(dn, cs, weights, norm)) / (2.0 * h)
    return grad


def gradient_step_target(states, cs, weights, cfg):
    """(clipped gradient, plain gradient-step target s - alpha*eta*g) of one
    sweep under a ProjectionConfig, built without the projection module."""
    g = loss_gradient(states, cs, weights, cfg.norm)
    if cfg.grad_clip is not None:
        norms = np.maximum(np.linalg.norm(g, axis=1), 1e-300)
        g = g * np.minimum(1.0, cfg.grad_clip / norms)[:, None]
    eta = np.ones(states.shape[0])
    if cfg.use_curvature:
        eta, _ = node_step_scales(build_graph(states))
    return g, states - cfg.alpha * eta[:, None] * g


def kink_mask(states, cs, pad=1e-4, dist_floor=0.05):
    """Boolean (n, 64) mask of coordinates too close to a hinge kink for
    finite differences to be trusted."""
    states = np.asarray(states, dtype=float)
    mask = np.zeros(states.shape, dtype=bool)
    for a, b, d in zip(cs.sep_a, cs.sep_b, cs.sep_dist):
        dist = float(np.linalg.norm(states[a, :3] - states[b, :3]))
        if abs(d - dist) < pad or dist < dist_floor:
            mask[a, :3] = True
            mask[b, :3] = True
    for a, b, ax, m in zip(cs.ord_a, cs.ord_b, cs.ord_axis, cs.ord_margin):
        gap = states[a, ax] - states[b, ax] + m
        if abs(gap) < pad:
            mask[a, ax] = True
            mask[b, ax] = True
    return mask


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
