import dataclasses
import hashlib
import warnings
import weakref

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


@pytest.mark.parametrize("key", [1.5, True, np.True_, "1.5", float("inf")],
                         ids=["float", "bool", "numpy bool", "string", "inf"])
def test_anchor_id_must_be_a_whole_number(key):
    # 1.5 and True would both anchor node 1
    with pytest.raises(ConstraintError, match="anchor id must be a whole"):
        ConstraintSet.build(4, anchors={key: np.zeros(64)})


@pytest.mark.parametrize("field,rows", [
    ("anchors", {10**20: np.zeros(64)}),
    ("separations", [(0, 1e20, 0.1)]),
    ("orderings", [(0, 1, 1e20, 0.0)]),
    ("orderings", [(-1e20, 1, 0, 0.0)])])
def test_out_of_range_ids_rejected_before_cast(field, rows):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstraintError, match="missing node|axis"):
            ConstraintSet.build(4, **{field: rows})


def test_repeated_anchor_ids_rejected():
    with pytest.raises(ConstraintError, match="node 2 has two anchors"):
        ConstraintSet(n_nodes=3, anchor_ids=np.array([2, 0, 2]),
                      anchor_refs=np.zeros((3, 64)))


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
    # a batch is rejected, not reported by its first row's figures
    with pytest.raises(ConstraintError, match=r"one \(2, 64\) array"):
        violation_stats(np.stack([states, 0 * states]), cs)


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


def loss_bytes(bd):
    return b"".join(np.asarray(getattr(bd, f)).tobytes()
                    for f in ("l_data", "l_phys", "l_logic", "l_total",
                              "grad"))


@pytest.mark.parametrize("p", [1, 8, 128])
def test_cell_cache_gives_the_same_bits(rng, p):
    # the first call at a batch size fills the set's cell cache and later
    # calls read it; both give the same bits, and the same as the rows
    # evaluated alone
    n = 7
    cs = random_constraint_set(rng, n)
    states = rng.uniform(-0.4, 0.4, size=(p, n, 64))
    states[..., :3] *= 0.2  # bring the pairs close, so separations act
    rows = rng.uniform(0.1, 20.0, size=(p, 3))
    for norm in (MSE, SSE):
        fresh = dataclasses.replace(cs)  # the same set, no cells cached
        first = loss_components(states, fresh, norm, rows)
        assert np.any(first.grad[..., :3] != 0.0)
        again = loss_components(states, fresh, norm, rows)
        assert loss_bytes(again) == loss_bytes(first)
        for q in (0, p - 1):
            one = loss_components(states[q], fresh, norm,
                                  LossWeights(*rows[q]))
            assert one.grad.tobytes() == first.grad[q].tobytes()
            assert one.l_total == first.l_total[q]


def test_cell_caches_are_per_constraint_set(rng):
    # two sets over the same six nodes, used in turn at the same batch
    # sizes, keep their own cells: every gradient row matches finite
    # differences of its own set's energy
    n = 6
    sets = [
        ConstraintSet.build(n, anchors={0: rng.uniform(-1, 1, 64),
                                        1: rng.uniform(-1, 1, 64)},
                            separations=[(0, 1, 0.4), (2, 3, 0.4)],
                            orderings=[(0, 1, 0, 0.1), (2, 3, 1, 0.0)]),
        ConstraintSet.build(n, anchors={5: rng.uniform(-1, 1, 64)},
                            separations=[(4, 5, 0.4)],
                            orderings=[(5, 4, 2, 0.2)]),
    ]
    states = rng.uniform(-0.5, 0.5, size=(3, n, 64))
    states[..., :3] *= 0.3
    rows = rng.uniform(0.5, 5.0, size=(3, 3))
    grads = {}
    for p in (1, 3):
        for i, cs in enumerate(sets):
            grads[i, p] = loss_components(states[:p], cs, SSE, rows[:p]).grad
    for i, cs in enumerate(sets):
        assert grads[i, 1].tobytes() == grads[i, 3][:1].tobytes()
        for q in range(3):
            w = LossWeights(*rows[q])
            fd = fd_gradient(states[q], cs, w, SSE)
            ok = ~kink_mask(states[q], cs)
            assert np.all(np.abs(grads[i, 3][q] - fd)[ok]
                          < 1e-5 * np.maximum(np.abs(fd[ok]), 1.0))


def test_smaller_batch_after_larger_reads_the_same_bits(rng):
    # the search evaluates one set at 8 rows, then fewer as rows leave, then
    # grad_stats' k <= 10: each batch gives every row the bits it has alone,
    # and a larger batch frees the smaller table's cells
    n = 7
    cs = random_constraint_set(rng, n)
    states = rng.uniform(-0.4, 0.4, size=(10, n, 64))
    states[..., :3] *= 0.2
    rows = rng.uniform(0.1, 20.0, size=(10, 3))
    alone = [loss_components(states[q], cs, SSE, LossWeights(*rows[q]))
             for q in range(10)]
    assert any(np.any(a.grad[:, :3] != 0.0) for a in alone)
    for p in (8, 3, 10, 5):
        if p == 10:
            tables = [weakref.ref(c.base) for c in cs._cells(8)]
        batch = loss_components(states[:p], cs, SSE, rows[:p])
        if p == 10:  # the 10-row table replaced the 8-row one
            assert all(ref() is None for ref in tables)
        for q in range(p):
            assert batch.grad[q].tobytes() == alone[q].grad.tobytes()
            assert batch.l_total[q] == alone[q].l_total


def pinned_loss_sets():
    """Six nodes under every family, and the same sets with one family left
    out, at states holding the loss's edge cases: ordering (0, 1) exactly at
    its kink, nodes 3 and 4 at zero distance, and -0.0 entries in an
    anchored state and in a position."""
    rng = np.random.default_rng(1212)
    states = rng.uniform(-0.5, 0.5, size=(6, 64))
    states[0, 0], states[1, 0] = 0.25, 0.5  # 0.25 - 0.5 + 0.25 == 0
    states[4, :3] = states[3, :3]
    states[2, 7] = -0.0
    states[5, 1] = -0.0
    refs = rng.uniform(-1.0, 1.0, size=(3, 64))
    families = {
        "anchors": {0: refs[0], 2: refs[1], 5: refs[2]},
        "separations": [(0, 1, 0.3), (1, 2, 0.5), (2, 3, 0.4), (3, 4, 0.2),
                        (0, 4, 0.6), (4, 5, 0.3)],
        # a chain on axis 0, so that most nodes are the a end of one
        # ordering and the b end of the next
        "orderings": [(i, i + 1, 0, 0.25) for i in range(5)]
                     + [(5, 0, 1, 0.1), (1, 3, 2, 0.05)],
    }
    sets = {"all": ConstraintSet.build(6, **families)}
    for name in families:
        sets[f"no {name}"] = ConstraintSet.build(
            6, **{k: v for k, v in families.items() if k != name})
    batch = states + rng.normal(0.0, 0.05, size=(5, 6, 64))
    batch[0] = states
    weights = rng.uniform(0.1, 20.0, size=(5, 3))
    return sets, states, batch, weights


def loss_digest(cs, states, batch, weights):
    """sha256 over the family losses, total and gradient of one single
    call and one batch call of five rows, under each norm."""
    h = hashlib.sha256()
    for norm in (MSE, SSE):
        for s, w in ((states, DEFAULT_WEIGHTS), (batch, weights)):
            lb = loss_components(s, cs, norm, w)
            for x in (lb.l_data, lb.l_phys, lb.l_logic, lb.l_total, lb.grad):
                h.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
    return h.hexdigest()


# any change to the order in which a cell sums its terms moves these
PINNED_LOSS_DIGESTS = {
    "all": "094d45ecad89750a3b12331551a45e893723fd6df13fef9fa61a197daf568576",
    "no anchors":
        "a44a7a1c1b0644feee9ca1e6ffe06d27629bb327cc013c4f377571ba368102b1",
    "no orderings":
        "a69870f9ebd0f31a47b9c04e1e4e1713e65ff68498cc2387ce8741dc8aa72629",
    "no separations":
        "0e758e76521cabf4fb7cec598a0ceb44c87c83b6ee222a4e768531061bd6d379",
}


@pytest.mark.parametrize("name", sorted(PINNED_LOSS_DIGESTS))
def test_loss_bits_pinned(name):
    # every term of a cell is summed in one fixed order (see
    # loss_components), so the floats are pinned bit for bit
    sets, states, batch, weights = pinned_loss_sets()
    assert loss_digest(sets[name], states, batch, weights) == \
        PINNED_LOSS_DIGESTS[name]
