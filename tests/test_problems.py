import hashlib
import json

import numpy as np
import pytest

from topocsp.constraints import ConstraintSet
from topocsp.errors import InfeasibleInitError
from topocsp.problems import (ProblemInstance, generate_instance,
                              physics_aware_init)


def test_constraint_counts_n2():
    inst = generate_instance(2, seed=0)
    cs = inst.constraints
    assert cs.n_separations == 1
    assert len(cs.anchor_ids) == 1
    assert cs.n_orderings == 1


def test_constraint_counts_n6():
    inst = generate_instance(6, seed=0)
    cs = inst.constraints
    assert cs.n_separations == 15
    assert len(cs.anchor_ids) == 3
    assert cs.n_orderings == 5


def test_counts_formula_general():
    for n in (3, 5, 9, 12):
        cs = generate_instance(n, seed=1).constraints
        assert cs.n_separations == n * (n - 1) // 2
        assert len(cs.anchor_ids) == -(-n // 2)
        assert cs.n_orderings == n - 1


def test_determinism_bitwise():
    a = generate_instance(6, seed=123)
    b = generate_instance(6, seed=123)
    assert np.array_equal(a.initial_states, b.initial_states)
    assert np.array_equal(a.constraints.anchor_refs, b.constraints.anchor_refs)
    c = generate_instance(6, seed=124)
    assert not np.array_equal(a.initial_states, c.initial_states)


def test_value_ranges():
    inst = generate_instance(8, seed=5)
    s = inst.initial_states
    assert s.shape == (8, 64)
    # positions land in the unit cube, the rest in [-0.1, 0.1]
    assert np.all(s[:, :3] >= 0.0) and np.all(s[:, :3] <= 1.0)
    assert np.all(np.abs(s[:, 3:]) <= 0.1)
    cs = inst.constraints
    assert np.all(cs.anchor_refs[:, :3] >= 0.0)
    assert np.all(cs.anchor_refs[:, :3] <= 1.0)
    assert np.all(np.abs(cs.anchor_refs[:, 3:]) <= 0.1)


def test_anchor_refs_share_off_position_block():
    # references re-draw the position but keep the node's remaining
    # components, modeling partially observed targets
    inst = generate_instance(6, seed=9)
    cs = inst.constraints
    for i, v in enumerate(cs.anchor_ids):
        assert np.array_equal(cs.anchor_refs[i, 3:],
                              inst.initial_states[v, 3:])
        assert not np.array_equal(cs.anchor_refs[i, :3],
                                  inst.initial_states[v, :3])


def test_separations_all_pairs_min_dist():
    inst = generate_instance(5, seed=2)
    cs = inst.constraints
    pairs = {(int(a), int(b)) for a, b in zip(cs.sep_a, cs.sep_b)}
    assert pairs == {(a, b) for a in range(5) for b in range(a + 1, 5)}
    assert np.all(cs.sep_dist == 0.1)
    assert inst.min_sep == 0.1


def test_orderings_chain():
    inst = generate_instance(5, seed=2)
    cs = inst.constraints
    chain = list(zip(cs.ord_a, cs.ord_b))
    assert chain == [(i, i + 1) for i in range(4)]
    assert np.all(cs.ord_axis == 0)
    assert np.all(cs.ord_margin == 0.0)


def test_json_round_trip_exact(tmp_path):
    inst = generate_instance(6, seed=77)
    path = tmp_path / "inst.json"
    inst.save(path)
    loaded = ProblemInstance.load(path)
    assert loaded.n == inst.n
    assert np.array_equal(loaded.initial_states, inst.initial_states)
    cs0, cs1 = inst.constraints, loaded.constraints
    assert np.array_equal(cs0.anchor_ids, cs1.anchor_ids)
    assert np.array_equal(cs0.anchor_refs, cs1.anchor_refs)
    assert np.array_equal(cs0.sep_a, cs1.sep_a)
    assert np.array_equal(cs0.sep_dist, cs1.sep_dist)
    assert np.array_equal(cs0.ord_margin, cs1.ord_margin)
    # the wire format is the documented five-key object
    raw = json.loads(path.read_text())
    assert set(raw) == {"n", "states", "anchors", "separations", "orderings"}


def test_physics_init_pair_distances():
    for n in (2, 5, 20):
        pos = physics_aware_init(n, seed=3, min_sep=0.1)
        assert pos.shape == (n, 3)
        assert np.all(pos >= 0.0) and np.all(pos <= 1.0)
        # brute-force pair scan: lattice plus jitter keeps everyone apart
        for i in range(n):
            for j in range(i + 1, n):
                assert np.linalg.norm(pos[i] - pos[j]) >= 0.1 - 1e-12


def test_physics_init_deterministic():
    a = physics_aware_init(12, seed=4, min_sep=0.1)
    b = physics_aware_init(12, seed=4, min_sep=0.1)
    assert np.array_equal(a, b)


def test_physics_init_infeasible():
    with pytest.raises(InfeasibleInitError):
        physics_aware_init(2, seed=0, min_sep=2.0)


def test_generator_fixed_constraints():
    # every separation is 0.1 and the orderings chain (i, i+1) on axis 0
    # with margin 0, at every size
    for n in (2, 5, 9):
        cs = generate_instance(n, seed=n).constraints
        assert np.all(cs.sep_dist == 0.1)
        assert np.array_equal(cs.ord_a, np.arange(n - 1))
        assert np.array_equal(cs.ord_b, np.arange(1, n))
        assert np.all(cs.ord_axis == 0)
        assert np.all(cs.ord_margin == 0.0)


def test_generator_output_pinned():
    # sha256 of the instance's start states and anchor references, recorded
    # when the generator's choices were made fixed constants
    inst = generate_instance(6, 0)
    digest = hashlib.sha256(inst.initial_states.tobytes()
                            + inst.constraints.anchor_refs.tobytes())
    assert digest.hexdigest() == (
        "e56faf87df5a5de3dceef64a855c4dbd2bdb5acde8a7ec277522adc0b58e1640")


def test_generator_config_validation():
    with pytest.raises(ValueError):
        generate_instance(0, seed=0)


def test_instance_min_sep_fallback():
    inst = generate_instance(4, seed=0)
    assert inst.min_sep == 0.1


def test_instance_rejects_non_finite_states():
    inst = generate_instance(4, 0)
    bad = inst.initial_states.copy()
    bad[2, 5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ProblemInstance(n=4, initial_states=bad, constraints=inst.constraints)
    d = inst.to_json_dict()
    d["states"][1][0] = float("inf")
    with pytest.raises(ValueError, match="finite"):
        ProblemInstance.from_json_dict(d)


def test_instance_rejects_constraints_over_other_nodes():
    # such an instance used to be accepted, and its solve failed inside
    # the loss on the shape of its states
    with pytest.raises(ValueError, match="over 5 nodes, the instance has 3"):
        ProblemInstance(n=3, initial_states=np.zeros((3, 64)),
                        constraints=ConstraintSet.build(5))
