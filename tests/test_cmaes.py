import numpy as np
import pytest

from topocsp.cmaes import (DEFAULT_SIGMA0, CmaState, OptimizeResult,
                           ParamEncoding, cma_ask, cma_init, cma_optimize,
                           cma_tell, default_population, selection_weights)


def sphere(x):
    return float(np.dot(x, x))


def test_population_size_formula():
    assert default_population(1) == 4
    assert default_population(4) == 8
    assert default_population(64) == 16


def test_frozen_weights_d4():
    # lambda=8, mu=4: log-rank weights w_i = (ln(mu+1/2) - ln i) / sum,
    # frozen from an independent hand evaluation of that formula
    w = selection_weights(4)
    expect = np.array([0.5299301845, 0.2857142857, 0.1428571429,
                       0.0414983869])
    assert np.allclose(w, expect, atol=1e-10)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_weight_properties_all_dims():
    for d in range(1, 65):
        lam = default_population(d)
        mu = lam // 2
        w = selection_weights(mu)
        assert len(w) == mu
        assert np.all(w > 0)
        assert np.all(np.diff(w) < 0) or mu == 1
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_init_state_shape():
    st = cma_init(4, np.zeros(4), 0.3)
    assert st.dim == 4
    assert st.lambda_pop == 8
    assert st.mu == 4
    assert st.sigma == 0.3
    assert np.array_equal(st.cov, np.eye(4))
    assert st.generation == 0
    assert st.mu_eff > 1.0


def test_sphere_convergence():
    # the canonical check: minimize ||x||^2 from (1,1,1,1), sigma 0.3
    st = cma_init(4, np.ones(4), 0.3)
    rng = np.random.default_rng(12345)
    res = cma_optimize(sphere, st, budget=200, rng=rng)
    assert res.best_fitness < 1e-10
    assert st.generation <= 200


def test_sphere_convergence_other_seeds():
    for seed in (0, 1, 2, 99):
        st = cma_init(4, np.ones(4), 0.3)
        rng = np.random.default_rng(seed)
        res = cma_optimize(sphere, st, budget=200, rng=rng)
        assert res.best_fitness < 1e-10, f"seed {seed}"


def test_determinism_bitwise():
    def run():
        st = cma_init(4, np.ones(4), 0.3)
        rng = np.random.default_rng(777)
        return cma_optimize(sphere, st, budget=50, rng=rng)

    a, b = run(), run()
    assert np.array_equal(a.best_theta, b.best_theta)
    assert a.best_fitness == b.best_fitness
    assert len(a.history) == len(b.history)
    for ra, rb in zip(a.history, b.history):
        assert ra == rb


def test_ask_shape_and_spread():
    st = cma_init(3, np.zeros(3), 1.0)
    rng = np.random.default_rng(5)
    cands = cma_ask(st, rng)
    assert cands.shape == (st.lambda_pop, 3)
    assert np.std(cands) > 0.1


def test_tell_moves_mean_toward_better():
    st = cma_init(2, np.zeros(2), 0.5)
    rng = np.random.default_rng(11)
    cands = cma_ask(st, rng)
    target = np.array([3.0, 0.0])
    fits = [float(np.sum((c - target) ** 2)) for c in cands]
    m_before = st.mean.copy()
    cma_tell(st, cands, fits)
    assert st.generation == 1
    # the new mean is the weighted recombination of the best half, which
    # must sit closer to the target than the old mean
    assert np.linalg.norm(st.mean - target) < np.linalg.norm(m_before - target)


def test_rank_mu_covariance_oracle():
    # after one tell at the default population the covariance is the rank-mu
    # estimate sum_i w_i z_i z_i^T over the mu best candidates, with
    # z_i = (theta_i - m_old) / sigma taken around the old mean
    m0 = np.array([0.5, -1.0, 2.0])
    st = cma_init(3, m0, 0.5)
    assert st.lambda_pop == default_population(3) == 7
    assert st.mu == 3
    rng = np.random.default_rng(3)
    cands = cma_ask(st, rng)
    fits = [sphere(c) for c in cands]
    cma_tell(st, cands, fits)
    z = (cands[np.argsort(fits)[:st.mu]] - m0) / 0.5
    expect = sum(w * np.outer(zi, zi) for w, zi in zip(st.weights, z))
    assert np.max(np.abs(st.cov - expect)) < 1e-12


def test_sampling_covariance_statistics():
    # empirical covariance of many samples approximates sigma^2 C
    d = 3
    cov = np.array([[2.0, 0.5, 0.0],
                    [0.5, 1.0, 0.2],
                    [0.0, 0.2, 0.5]])
    st = cma_init(d, np.zeros(d), 1.0)
    st.cov = cov.copy()
    rng = np.random.default_rng(42)
    samples = np.concatenate([cma_ask(st, rng) for _ in range(2000)])
    emp = np.cov(samples.T)
    assert np.linalg.norm(emp - cov, 2) < 0.1 * np.linalg.norm(cov, 2)


def test_non_finite_fitness_treated_as_worst():
    st = cma_init(2, np.zeros(2), 0.5)
    rng = np.random.default_rng(8)
    cands = cma_ask(st, rng)
    fits = [sphere(c) for c in cands]
    fits[0] = float("nan")
    fits[1] = float("inf")
    cma_tell(st, cands, fits)
    assert np.all(np.isfinite(st.mean))
    assert np.all(np.isfinite(st.cov))


def test_exception_in_fitness_counts_as_worst():
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise RuntimeError("boom")
        return sphere(x)

    st = cma_init(2, np.ones(2), 0.3)
    rng = np.random.default_rng(6)
    res = cma_optimize(flaky, st, budget=30, rng=rng)
    assert np.isfinite(res.best_fitness)
    assert res.best_fitness < sphere(np.ones(2))


def test_degenerate_covariance_repaired():
    st = cma_init(2, np.zeros(2), 0.5)
    st.cov = np.array([[1.0, 0.0], [0.0, 0.0]])  # rank deficient
    rng = np.random.default_rng(4)
    cands = cma_ask(st, rng)
    assert np.all(np.isfinite(cands))
    assert st.repaired


def test_stagnation_stop():
    st = cma_init(2, np.zeros(2), 0.5)
    rng = np.random.default_rng(9)
    res = cma_optimize(lambda x: 1.0, st, budget=500, rng=rng)
    assert res.stopped_by == "stagnation"
    assert st.generation < 500


def test_budget_stop():
    st = cma_init(2, np.ones(2), 0.3)
    rng = np.random.default_rng(10)
    res = cma_optimize(sphere, st, budget=5, rng=rng)
    assert st.generation == 5
    assert res.stopped_by == "budget"


def test_history_rows():
    st = cma_init(2, np.ones(2), 0.3)
    rng = np.random.default_rng(2)
    res = cma_optimize(sphere, st, budget=10, rng=rng)
    assert len(res.history) == st.generation
    gens = [row[0] for row in res.history]
    assert gens == list(range(1, st.generation + 1))
    best = [row[1] for row in res.history]
    assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))


def test_param_encoding_round_trip(rng):
    enc = ParamEncoding()
    for _ in range(100):
        lam = rng.uniform(0.01, 50.0, size=3)
        beta = float(rng.uniform(0.01, 1.99))
        theta = enc.encode(lam, beta)
        lam2, beta2 = enc.decode(theta)
        assert np.allclose(lam2, lam, rtol=1e-10)
        assert beta2 == pytest.approx(beta, rel=1e-10)


def test_default_sigma0():
    assert DEFAULT_SIGMA0 == 0.3


def test_decode_is_safe_on_extremes():
    enc = ParamEncoding()
    lam, beta = enc.decode(np.array([1e6, -1e6, 0.0, 1e6]))
    assert np.all(np.isfinite(lam))
    assert np.all(lam > 0)
    assert 0.0 < beta < 2.0 or beta == pytest.approx(2.0)
    lam2, beta2 = enc.decode(np.array([0.0, 0.0, 0.0, -1e6]))
    assert beta2 >= 0.0
    assert np.isfinite(beta2)
