from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from topocsp.graphs import (STATE_DIM, WEIGHT_FLOOR, SemanticGraph,
                            build_graph, edge_weight, pairwise_weights)

from conftest import random_states


def test_edge_weight_identical_states(rng):
    s = rng.normal(size=STATE_DIM)
    assert edge_weight(s, s) == pytest.approx(1.0, abs=1e-12)


def test_edge_weight_opposite_states(rng):
    s = rng.normal(size=STATE_DIM)
    assert edge_weight(s, -s) == WEIGHT_FLOOR


def test_edge_weight_orthogonal():
    a = np.zeros(STATE_DIM)
    b = np.zeros(STATE_DIM)
    a[0] = 1.0
    b[1] = 1.0
    assert edge_weight(a, b) == pytest.approx(0.5, abs=1e-15)


def test_edge_weight_degenerate_norm():
    a = np.zeros(STATE_DIM)
    b = np.ones(STATE_DIM)
    assert edge_weight(a, b) == WEIGHT_FLOOR
    assert edge_weight(b, a) == WEIGHT_FLOOR


def test_edge_weight_symmetric(rng):
    for _ in range(50):
        a = rng.normal(size=STATE_DIM)
        b = rng.normal(size=STATE_DIM)
        assert edge_weight(a, b) == edge_weight(b, a)


def test_edge_weight_range_bulk(rng):
    # large random sample stays inside (0, 1]
    n = 100_000
    a = rng.normal(size=(n, STATE_DIM))
    b = rng.normal(size=(n, STATE_DIM))
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    cos = np.einsum("ij,ij->i", a, b) / (na * nb)
    w = np.maximum(WEIGHT_FLOOR, (1 + cos) / 2)
    assert w.min() > 0.0 and w.max() <= 1.0
    # spot-check the vectorized form against the scalar op
    for i in range(0, n, 20_000):
        assert edge_weight(a[i], b[i]) == pytest.approx(w[i], rel=1e-12)


def test_pairwise_weights_matches_scalar(rng):
    states = random_states(rng, 7)
    w = pairwise_weights(states)
    for u in range(7):
        for v in range(7):
            if u == v:
                assert w[u, v] == 0.0
            else:
                assert w[u, v] == pytest.approx(edge_weight(states[u], states[v]),
                                                rel=1e-12)


def test_build_complete_two_identical():
    s = np.ones((2, STATE_DIM))
    g = build_graph(s)
    assert g.n_edges == 1
    assert g.weights[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_build_complete_single_node():
    g = build_graph(np.ones((1, STATE_DIM)))
    assert g.n_edges == 0


def test_build_complete_orthogonal_triple():
    s = np.zeros((3, STATE_DIM))
    s[0, 0] = s[1, 1] = s[2, 2] = 1.0
    g = build_graph(s)
    assert g.n_edges == 3
    for u, v in ((0, 1), (0, 2), (1, 2)):
        assert g.weights[u, v] == pytest.approx(0.5, abs=1e-15)


def test_build_complete_edge_count(rng):
    for n in (2, 5, 9):
        g = build_graph(random_states(rng, n))
        assert g.n_edges == n * (n - 1) // 2


def test_degree(rng):
    states = random_states(rng, 4)
    # path 0-1-2, node 3 isolated
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = w[1, 2] = w[2, 1] = 1.0
    path = SemanticGraph(w)
    assert path.degrees().tolist() == [1, 2, 1, 0]
    assert path.edges.tolist() == [[0, 1], [1, 2]]
    assert build_graph(states).degrees().tolist() == [3, 3, 3, 3]


def test_graph_weights_cannot_be_reassigned(rng):
    # build_graph's graph keeps its degrees as a number, so its weights stay
    g = build_graph(random_states(rng, 4))
    with pytest.raises(FrozenInstanceError):
        g.weights = np.zeros((4, 4))
