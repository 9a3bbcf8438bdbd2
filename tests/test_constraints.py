import numpy as np
import pytest

from topocsp.constraints import (DEFAULT_WEIGHTS, MSE, SSE, ConstraintSet,
                                 LossWeights, loss_components, loss_gradient,
                                 total_energy, violation_stats)
from topocsp.errors import ConstraintError

from conftest import (brute_force_energy, duplicate_constraints, fd_gradient,
                      kink_mask, random_constraint_set, random_states)


def anchored_pair(offset):
    """Two nodes, one anchored at a fixed offset from its current state."""
    states = np.zeros((2, 64))
    ref = np.zeros(64)
    ref[0] = offset
    cs = ConstraintSet.build(n_nodes=2, anchors={0: ref},
                             separations=[], orderings=[])
    return states, cs


def test_anchor_residual_normalization():
    # one coordinate off by 0.05, n=2 nodes: the data family sums the
    # squared residual and divides by the node count under the mean norm
    states, cs = anchored_pair(0.05)
    lb = loss_components(states, cs, norm=MSE)
    assert lb.l_data == pytest.approx(0.05 ** 2 / 2, abs=1e-18)
    assert lb.l_phys == 0.0
    assert lb.l_logic == 0.0
    lb_s = loss_components(states, cs, norm=SSE)
    assert lb_s.l_data == pytest.approx(0.05 ** 2, abs=1e-18)


def test_anchor_gradient_closed_form():
    # single anchor, mean norm, unit data weight: gradient on the anchored
    # node is 2 (s - ref) / n and zero elsewhere
    states, cs = anchored_pair(0.05)
    g = loss_gradient(states, cs, weights=LossWeights(1.0, 1.0, 1.0),
                      norm=MSE)
    expect = 2.0 * (states[0] - cs.anchor_refs[0]) / 2.0
    assert np.allclose(g[0], expect, atol=1e-15)
    assert np.all(g[1] == 0.0)


def test_separation_hinge_value():
    # nodes at distance 0.05 with min separation 0.1: phi = 0.05,
    # penalty phi^2 = 0.0025
    states = np.zeros((2, 64))
    states[1, 0] = 0.05
    cs = ConstraintSet.build(n_nodes=2, anchors={},
                             separations=[(0, 1, 0.1)], orderings=[])
    lb = loss_components(states, cs, norm=SSE)
    assert lb.l_phys == pytest.approx(0.0025, abs=1e-15)


def test_ordering_hinge_value():
    # a behind b is required with margin 0.1 but a sits 0.1 ahead:
    # psi = 0.2, penalty psi^2 = 0.04
    states = np.zeros((2, 64))
    states[0, 0] = 0.1
    states[1, 0] = 0.0
    cs = ConstraintSet.build(n_nodes=2, anchors={}, separations=[],
                             orderings=[(0, 1, 0, 0.1)])
    lb = loss_components(states, cs, norm=SSE)
    assert lb.l_logic == pytest.approx(0.04, abs=1e-15)


def test_weighted_totals():
    states = np.zeros((2, 64))
    states[1, 0] = 0.05
    cs = ConstraintSet.build(n_nodes=2, anchors={},
                             separations=[(0, 1, 0.1)], orderings=[])
    w = LossWeights(1.0, 10.0, 2.0)
    assert total_energy(states, cs, weights=w, norm=SSE) == \
        pytest.approx(10.0 * 0.0025, abs=1e-15)

    states2 = np.zeros((2, 64))
    states2[0, 0] = 0.1
    cs2 = ConstraintSet.build(n_nodes=2, anchors={}, separations=[],
                              orderings=[(0, 1, 0, 0.1)])
    assert total_energy(states2, cs2, weights=w, norm=SSE) == \
        pytest.approx(2.0 * 0.04, abs=1e-15)


def test_satisfied_constraints_zero_loss(rng):
    # well separated, correctly ordered, anchored exactly on the reference
    states = np.zeros((3, 64))
    states[0, 0] = 0.0
    states[1, 0] = 0.5
    states[2, 0] = 1.0
    cs = ConstraintSet.build(
        n_nodes=3,
        anchors={0: states[0].copy()},
        separations=[(0, 1, 0.1), (1, 2, 0.1)],
        orderings=[(0, 1, 0, 0.1), (1, 2, 0, 0.1)],
    )
    lb = loss_components(states, cs, norm=MSE)
    assert lb.l_total == 0.0
    vs = violation_stats(states, cs)
    assert vs.combined == 0.0
    assert vs.phi_max == 0.0 and vs.psi_max == 0.0


def test_brute_force_energy_agreement(rng):
    for _ in range(50):
        n = int(rng.integers(2, 7))
        states = random_states(rng, n)
        cs = random_constraint_set(rng, n)
        for norm in (MSE, SSE):
            fast = loss_components(states, cs, norm=norm,
                                   weights=DEFAULT_WEIGHTS)
            slow = brute_force_energy(states, cs, DEFAULT_WEIGHTS, norm)
            assert fast.l_total == pytest.approx(slow, rel=1e-12, abs=1e-15)


def test_mse_duplicate_invariance(rng):
    # replicating every constraint k times leaves each family mean unchanged
    for k in (2, 3, 5):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            states = random_states(rng, n)
            cs = random_constraint_set(rng, n)
            big_states, big_cs = duplicate_constraints(states, cs, k)
            a = loss_components(states, cs, norm=MSE)
            b = loss_components(big_states, big_cs, norm=MSE)
            assert b.l_data == pytest.approx(a.l_data, abs=1e-12)
            assert b.l_phys == pytest.approx(a.l_phys, abs=1e-12)
            assert b.l_logic == pytest.approx(a.l_logic, abs=1e-12)
            # and the sum-normalized energy scales by exactly k
            a_s = loss_components(states, cs, norm=SSE)
            b_s = loss_components(big_states, big_cs, norm=SSE)
            assert b_s.l_phys == pytest.approx(k * a_s.l_phys, rel=1e-12,
                                               abs=1e-12)


def test_gradient_matches_finite_differences(rng):
    checked = 0
    for _ in range(30):
        n = int(rng.integers(2, 6))
        states = random_states(rng, n)
        cs = random_constraint_set(rng, n)
        for norm in (MSE, SSE):
            g = loss_gradient(states, cs, weights=DEFAULT_WEIGHTS, norm=norm)
            fd = fd_gradient(states, cs, DEFAULT_WEIGHTS, norm)
            ok = ~kink_mask(states, cs)
            diff = np.abs(g - fd)[ok]
            scale = np.maximum(np.abs(fd[ok]), 1.0)
            assert np.all(diff / scale < 1e-5)
            checked += int(ok.sum())
    assert checked > 1000  # the mask must not trivialize the comparison


def test_gradient_zero_when_satisfied():
    states = np.zeros((2, 64))
    states[1, 0] = 1.0
    cs = ConstraintSet.build(n_nodes=2, anchors={0: states[0].copy()},
                             separations=[(0, 1, 0.1)],
                             orderings=[(0, 1, 0, 0.1)])
    g = loss_gradient(states, cs, weights=DEFAULT_WEIGHTS, norm=MSE)
    assert np.all(g == 0.0)


def test_gradient_subgradient_zero_at_kink():
    # exactly at the hinge boundary the subgradient convention picks zero
    states = np.zeros((2, 64))
    states[1, 0] = 0.1
    cs = ConstraintSet.build(n_nodes=2, anchors={},
                             separations=[(0, 1, 0.1)], orderings=[])
    g = loss_gradient(states, cs, weights=DEFAULT_WEIGHTS, norm=MSE)
    assert np.all(g == 0.0)


def test_coincident_points_no_nan():
    states = np.zeros((2, 64))
    cs = ConstraintSet.build(n_nodes=2, anchors={},
                             separations=[(0, 1, 0.1)], orderings=[])
    g = loss_gradient(states, cs, weights=DEFAULT_WEIGHTS, norm=MSE)
    assert np.all(np.isfinite(g))
    lb = loss_components(states, cs, norm=MSE)
    assert lb.l_phys == pytest.approx(0.1 ** 2, abs=1e-15)


def test_empty_families_zero_not_nan():
    cs = ConstraintSet.build(n_nodes=3, anchors={}, separations=[],
                             orderings=[])
    states = np.zeros((3, 64))
    for norm in (MSE, SSE):
        lb = loss_components(states, cs, norm=norm)
        assert lb.l_data == 0.0
        assert lb.l_phys == 0.0
        assert lb.l_logic == 0.0
        assert lb.l_total == 0.0
    g = loss_gradient(states, cs, weights=DEFAULT_WEIGHTS)
    assert np.all(g == 0.0)


def test_loss_weights_validation():
    with pytest.raises(ConstraintError):
        LossWeights(-1.0, 1.0, 1.0)
    with pytest.raises(ConstraintError):
        LossWeights(1.0, float("nan"), 1.0)
    w = LossWeights(1.0, 10.0, 2.0)
    assert np.array_equal(w.as_array(), [1.0, 10.0, 2.0])


def test_constraint_set_validation():
    with pytest.raises(ConstraintError):
        ConstraintSet.build(n_nodes=2, anchors={5: np.zeros(64)},
                            separations=[], orderings=[])
    with pytest.raises(ConstraintError):
        ConstraintSet.build(n_nodes=2, anchors={0: np.zeros(10)},
                            separations=[], orderings=[])
    with pytest.raises(ConstraintError):
        ConstraintSet.build(n_nodes=2, anchors={},
                            separations=[(0, 0, 0.1)], orderings=[])
    with pytest.raises(ConstraintError):
        ConstraintSet.build(n_nodes=2, anchors={},
                            separations=[(0, 1, -0.5)], orderings=[])
    with pytest.raises(ConstraintError):
        ConstraintSet.build(n_nodes=2, anchors={}, separations=[],
                            orderings=[(0, 1, 4, 0.1)])


def test_violation_stats_values():
    states = np.zeros((2, 64))
    states[1, 0] = 0.05
    cs = ConstraintSet.build(n_nodes=2, anchors={},
                             separations=[(0, 1, 0.1)],
                             orderings=[(1, 0, 0, 0.1)])
    vs = violation_stats(states, cs)
    assert vs.phi_mean == pytest.approx(0.05, abs=1e-15)
    # ordering wants node1 ahead of node0 by 0.1; violation is
    # pos1 - pos0 + margin ... here 0.05 - 0 + 0.1 = 0.15
    assert vs.psi_mean == pytest.approx(0.15, abs=1e-15)
    assert vs.combined == pytest.approx((0.05 + 0.15) / 2, abs=1e-15)


def test_non_finite_constraints_rejected():
    # an infinite distance is caught here as non-finite, before anything
    # downstream (the grid initializer) could misreport it
    for build in (
        dict(anchors={0: np.full(64, np.nan)}),
        dict(separations=[(0, 1, np.inf)]),
        dict(separations=[(0, 1, np.nan)]),
        dict(orderings=[(0, 1, 0, np.inf)]),
    ):
        with pytest.raises(ConstraintError, match="must be finite"):
            ConstraintSet.build(n_nodes=2, **build)


def test_batch_rows_match_single_calls(rng):
    # each row of a batched call, under its own weights, gives the single
    # call's floats bit for bit
    for _ in range(20):
        n = int(rng.integers(2, 12))
        cs = random_constraint_set(rng, n)
        batch = rng.uniform(-1.0, 1.0, size=(5, n, 64))
        rows = rng.uniform(0.1, 20.0, size=(5, 3))
        for norm in (MSE, SSE):
            g = loss_gradient(batch, cs, rows, norm)
            lb = loss_components(batch, cs, norm, rows)
            assert g.shape == batch.shape
            assert lb.grad.tobytes() == g.tobytes()
            for p in range(5):
                w = LossWeights(*rows[p])
                one = loss_components(batch[p], cs, norm, w)
                assert g[p].tobytes() == loss_gradient(
                    batch[p], cs, w, norm).tobytes()
                assert one.grad.tobytes() == g[p].tobytes()
                for f in ("l_data", "l_phys", "l_logic", "l_total"):
                    assert getattr(lb, f)[p] == getattr(one, f)


def test_no_weights_means_unit_weights(rng):
    # weights=None gives the bits of weights (1, 1, 1), gradient and total
    for _ in range(10):
        n = int(rng.integers(2, 12))
        cs = random_constraint_set(rng, n)
        for states in (random_states(rng, n),
                       rng.uniform(-1.0, 1.0, size=(3, n, 64))):
            for norm in (MSE, SSE):
                plain = loss_components(states, cs, norm)
                unit = loss_components(states, cs, norm,
                                       LossWeights(1.0, 1.0, 1.0))
                assert plain.grad.tobytes() == unit.grad.tobytes()
                assert (np.asarray(plain.l_total).tobytes()
                        == np.asarray(unit.l_total).tobytes())
