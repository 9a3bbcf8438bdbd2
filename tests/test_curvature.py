import math

import numpy as np
import pytest

from topocsp.curvature import (all_edge_curvatures, curvature_step_scales,
                               forman_ricci, node_step_scales)
from topocsp.errors import TopologyError
from topocsp.graphs import SemanticGraph, build_graph

from conftest import random_states


def graph_with_weights(n, edges, weights, rng=None):
    """Construct a graph with explicit weights on the given edges."""
    if rng is not None:
        # the graph has no states, but criterion 3's 100 random graphs are
        # drawn from the stream that follows these
        random_states(rng, n)
    w = np.zeros((n, n))
    for (u, v), x in zip(edges, weights):
        w[u, v] = w[v, u] = x
    return SemanticGraph(weights=w)


def brute_force_curvature(graph, u, v):
    """Independent loop evaluation: kappa = w(e) * (1/deg u + 1/deg v
    - sum over edges sharing exactly one endpoint of w(e') / sqrt(du dv))."""
    w = graph.weights
    n = graph.n_nodes
    edges = [(a, b) for a in range(n) for b in range(a + 1, n) if w[a, b] > 0]
    deg = {i: 0 for i in range(n)}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    e = (min(u, v), max(u, v))
    adj = 0.0
    for other in edges:
        if other == e:
            continue
        shared = len(set(other) & set(e))
        if shared == 1:
            adj += w[other]
    du, dv = deg[e[0]], deg[e[1]]
    return w[e] * (1.0 / du + 1.0 / dv - adj / math.sqrt(du * dv))


def test_single_edge_unit_weight():
    g = graph_with_weights(2, [(0, 1)], [1.0])
    assert forman_ricci(g, (0, 1)) == 2.0


def test_path_edge_value():
    g = graph_with_weights(3, [(0, 1), (1, 2)], [1.0, 1.0])
    expect = 1.0 + 0.5 - 1.0 / math.sqrt(2.0)
    assert forman_ricci(g, (0, 1)) == pytest.approx(expect, abs=1e-15)
    assert forman_ricci(g, (0, 1)) == pytest.approx(0.79289, abs=5e-6)


def test_triangle_unit_weight():
    g = graph_with_weights(3, [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 1.0])
    for e in ((0, 1), (1, 2), (0, 2)):
        assert forman_ricci(g, e) == pytest.approx(0.0, abs=1e-15)


def test_missing_edge_errors():
    g = graph_with_weights(3, [(0, 1)], [1.0])
    # (-2, 0) and (-3, 1) would wrap around to the edge (0, 1)
    for edge in ((1, 2), (1, 1), (0, 3), (3, 4), (-2, 0), (-3, 1)):
        with pytest.raises(TopologyError):
            forman_ricci(g, edge)


def test_batched_graph_rejected_where_one_graph_is_expected(rng):
    g = build_graph(rng.uniform(-1.0, 1.0, size=(2, 4, 64)))
    with pytest.raises(TopologyError, match=r"expected one \(n, n\) graph"):
        forman_ricci(g, (0, 1))
    with pytest.raises(TopologyError, match=r"expected one \(n, n\) graph"):
        curvature_step_scales(g)


def test_oracle_equivalence_random_graphs(rng):
    # 100 random graphs, n <= 8, random weights, vs the brute-force oracle
    for _ in range(100):
        n = int(rng.integers(2, 9))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        keep = rng.random(len(pairs)) < 0.6
        edges = [p for p, k in zip(pairs, keep) if k] or [pairs[0]]
        weights = rng.uniform(1e-6, 1.0, size=len(edges))
        g = graph_with_weights(n, edges, weights, rng)
        kappa = all_edge_curvatures(g)
        for idx, (u, v) in enumerate(g.edges):
            ref = brute_force_curvature(g, u, v)
            assert kappa[idx] == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_oracle_equivalence_affinity_weights(rng):
    # weights coming from the actual states, complete topology
    for _ in range(20):
        n = int(rng.integers(2, 9))
        g = build_graph(random_states(rng, n))
        kappa = all_edge_curvatures(g)
        for idx, (u, v) in enumerate(g.edges):
            assert kappa[idx] == pytest.approx(brute_force_curvature(g, u, v),
                                               rel=1e-12, abs=1e-15)


def test_node_means_match_oracle(rng):
    # random sparse graphs with at least one isolated node: each node's mean
    # curvature is the mean of the brute-force oracle over its incident edges
    for _ in range(50):
        n = int(rng.integers(3, 10))
        lone = int(rng.integers(n))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if lone not in (a, b)]
        keep = rng.random(len(pairs)) < 0.4
        edges = [p for p, k in zip(pairs, keep) if k] or [pairs[0]]
        g = graph_with_weights(n, edges,
                               rng.uniform(1e-6, 1.0, size=len(edges)))
        scale, mean = node_step_scales(g)
        for v in range(n):
            kappas = [brute_force_curvature(g, a, b) for a, b in edges
                      if v in (a, b)]
            ref = sum(kappas) / len(kappas) if kappas else 0.0
            assert mean[v] == pytest.approx(ref, rel=1e-12, abs=1e-15)
        assert mean[lone] == 0.0 and scale[lone] == 1.0


def test_permutation_invariance(rng):
    n = 6
    states = random_states(rng, n)
    g = build_graph(states)
    perm = rng.permutation(n)
    g2 = build_graph(states[perm])
    inv = np.argsort(perm)
    k1 = {(min(inv[u], inv[v]), max(inv[u], inv[v])): w
          for (u, v), w in zip(g.edges, all_edge_curvatures(g))}
    k2 = {(u, v): w for (u, v), w in zip(g2.edges, all_edge_curvatures(g2))}
    assert set(k1) == set(k2)
    for e in k1:
        # summation order differs under relabeling, so allow the last ulp
        assert k1[e] == pytest.approx(k2[e], rel=1e-13, abs=1e-15)


def test_weight_scaling_no_adjacent_edges(rng):
    # kappa is linear in the weight only when the adjacency sum is empty
    for c in (0.5, 2.0, 7.0):
        g1 = graph_with_weights(4, [(0, 1), (2, 3)], [0.3, 0.6])
        g2 = graph_with_weights(4, [(0, 1), (2, 3)], [0.3 * c, 0.6 * c])
        k1 = all_edge_curvatures(g1)
        k2 = all_edge_curvatures(g2)
        assert np.allclose(k2, c * k1, rtol=1e-12)


def test_isolated_node_neutral_scale():
    g = graph_with_weights(3, [(0, 1)], [1.0])
    scale, mean = node_step_scales(g)
    assert mean[2] == 0.0
    assert scale[2] == 1.0


def test_scale_clamps():
    # direct evaluation of the clamp formula at the stated extremes
    assert np.clip(np.exp(-0.5 * 4.0), 0.25, 2.0) == 0.25
    assert np.clip(np.exp(-0.5 * -2.0), 0.25, 2.0) == 2.0
    # a graph engineered to push mean curvature up: strong triangle
    g = graph_with_weights(3, [(0, 1), (1, 2), (0, 2)], [1e-6, 1e-6, 1e-6])
    scale, _ = node_step_scales(g)
    assert np.all(scale >= 0.25) and np.all(scale <= 2.0)


def test_scale_monotone_in_curvature():
    etas = [float(np.clip(np.exp(-0.5 * k), 0.25, 2.0))
            for k in np.linspace(-5, 5, 41)]
    assert all(a >= b for a, b in zip(etas, etas[1:]))


def test_report_structure(rng):
    g = build_graph(random_states(rng, 5))
    d = curvature_step_scales(g)
    assert len(d["edges"]) == g.n_edges
    assert len(d["nodes"]) == 5
    assert all(0.25 <= node["scale"] <= 2.0 for node in d["nodes"])


def test_batched_graph_matches_single(rng):
    # each weight matrix, curvature and step-scale row of a (P, n, 64) batch
    # equals the single-state result bit for bit
    for n in (1, 2, 5, 20):
        batch = rng.uniform(-1.0, 1.0, size=(4, n, 64))
        batch[1, 0] = 0.0  # a degenerate state gets the floor weight
        g = build_graph(batch)
        kappa = all_edge_curvatures(g)
        scale, mean = node_step_scales(g)
        assert g.n_nodes == n and scale.shape == (4, n)
        for p in range(4):
            one = build_graph(batch[p])
            assert np.array_equal(one.edges, g.edges)
            assert one.weights.tobytes() == g.weights[p].tobytes()
            assert all_edge_curvatures(one).tobytes() == kappa[p].tobytes()
            s1, m1 = node_step_scales(one)
            assert s1.tobytes() == scale[p].tobytes()
            assert m1.tobytes() == mean[p].tobytes()
