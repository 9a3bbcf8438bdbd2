import numpy as np
import pytest

from topocsp.delta import DEFAULT_EPSILON, DeltaParams, delta_step


def rand_triplet(rng, d=64):
    x = rng.uniform(-1.0, 1.0, size=d)
    g = rng.standard_normal(d)
    v = rng.uniform(-1.0, 1.0, size=d)
    return x, g, v


def unclipped(beta=1.0):
    return DeltaParams(beta=beta, clip=None)


def test_orthogonal_complement_preserved(rng):
    # components orthogonal to the gradient direction never move
    for _ in range(10_000):
        x, g, v = rand_triplet(rng, d=8)
        out = delta_step(x, g, v, unclipped(beta=float(rng.uniform(0, 2))))
        k = g / np.linalg.norm(g)
        moved = out - x
        # movement is along k only
        residual = moved - (k @ moved) * k
        assert np.max(np.abs(residual)) < 1e-12


def test_along_direction_affine_law(rng):
    # the k-component of the output obeys  k.x' = (1-beta) k.x + beta k.v
    for _ in range(10_000):
        x, g, v = rand_triplet(rng, d=8)
        beta = float(rng.uniform(0, 2))
        out = delta_step(x, g, v, unclipped(beta=beta))
        k = g / np.linalg.norm(g)
        lhs = k @ out
        rhs = (1 - beta) * (k @ x) + beta * (k @ v)
        assert abs(lhs - rhs) < 1e-12


def test_beta_zero_identity(rng):
    for _ in range(1000):
        x, g, v = rand_triplet(rng)
        out = delta_step(x, g, v, unclipped(beta=0.0))
        assert np.array_equal(out, x)


def test_beta_one_reaches_target_component(rng):
    for _ in range(1000):
        x, g, v = rand_triplet(rng)
        out = delta_step(x, g, v, unclipped(beta=1.0))
        k = g / np.linalg.norm(g)
        assert abs(k @ out - k @ v) < 1e-12


def test_small_gradient_bitwise_identity(rng):
    x = rng.uniform(-1, 1, size=64)
    v = rng.uniform(-1, 1, size=64)
    g = np.full(64, 1e-10)
    out = delta_step(x, g, v, DeltaParams())
    assert np.array_equal(out, x)
    assert out is not x  # a copy, not an alias
    # unchanged means unclipped too
    far = 3.0 * x
    assert np.array_equal(delta_step(far, g, v, DeltaParams()), far)
    # just above the threshold the step engages
    g2 = np.zeros(64)
    g2[0] = 10 * DEFAULT_EPSILON
    out2 = delta_step(x, g2, v, unclipped())
    assert not np.array_equal(out2, x)


def test_clip_applies():
    x = np.zeros(4)
    g = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([5.0, 0.0, 0.0, 0.0])
    out = delta_step(x, g, v, DeltaParams(beta=1.0, clip=(-1.0, 1.0)))
    assert out[0] == 1.0
    out_raw = delta_step(x, g, v, DeltaParams(beta=1.0, clip=None))
    assert out_raw[0] == 5.0


def test_linearization_spectrum(rng):
    # the update is affine in x; its linear part has eigenvalues
    # {1 (63 times), 1 - beta}. Estimate via finite differences on x.
    d = 64
    h = 1e-6
    for _ in range(100):
        g = rng.standard_normal(d)
        v = rng.uniform(-1, 1, size=d)
        x = rng.uniform(-1, 1, size=d)
        beta = float(rng.uniform(0.05, 2.0))
        params = unclipped(beta=beta)
        jac = np.empty((d, d))
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            f_plus = delta_step(x + e, g, v, params)
            f_minus = delta_step(x - e, g, v, params)
            jac[:, j] = (f_plus - f_minus) / (2 * h)
        eig = np.sort(np.linalg.eigvalsh((jac + jac.T) / 2))
        assert abs(eig[0] - (1.0 - beta)) < 1e-6
        assert np.max(np.abs(eig[1:] - 1.0)) < 1e-6


def test_rows_match_single_row_calls(rng):
    # an (n, d) call is the single-vector update applied to each row alone,
    # bitwise; a row below the gradient floor stays put
    n = 12
    x = rng.uniform(-1.0, 1.0, size=(n, 64))
    g = rng.standard_normal((n, 64))
    v = rng.uniform(-2.0, 2.0, size=(n, 64))
    g[3] = 1e-10
    for params in (DeltaParams(beta=0.7), unclipped(beta=1.6)):
        out = delta_step(x, g, v, params)
        assert out.shape == (n, 64)
        for i in range(n):
            assert np.array_equal(out[i], delta_step(x[i], g[i], v[i], params))
        assert np.array_equal(out[3], x[3])


def test_non_finite_rejected(rng):
    x, g, v = rand_triplet(rng)
    bad = x.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError):
        delta_step(bad, g, v, DeltaParams())
    bad_g = g.copy()
    bad_g[0] = np.inf
    with pytest.raises(ValueError):
        delta_step(x, bad_g, v, DeltaParams())


def test_params_validation():
    with pytest.raises(ValueError):
        DeltaParams(beta=-0.1)
    with pytest.raises(ValueError):
        DeltaParams(beta=2.5)
    with pytest.raises(ValueError):
        DeltaParams(epsilon=-1.0)
