"""Covariance matrix adaptation evolution strategy, ask/tell style.

Minimal CMA-ES for low-dimensional hyperparameter search:

  - population lambda = 4 + floor(3 ln d), always by this rule, parents
    mu = floor(lambda / 2)
  - selection weights w_i proportional to ln(mu + 1/2) - ln i, summing to 1
  - sampling via eigendecomposition of C (eigenvalues floored at 1e-10,
    flagged when the repair fires)
  - covariance replaced each generation by the rank-mu estimate built from
    the selected steps around the old mean, in sigma-normalized coordinates:
    C <- sum_i w_i z_i z_i^T with z_i = (theta_i - m_old) / sigma
  - step size adapted by cumulative step-size adaptation (CSA) with
    c_sigma = (mu_eff + 2) / (d + mu_eff + 5) and d_sigma = 1 + sqrt(mu_eff / d)

No rank-one path update, no restarts. Lower fitness is better; ties are
broken by candidate index; non-finite fitness ranks last.

Two stagnation stops (TolHistFun and TolFun in Hansen's tutorial,
arXiv:1604.00772): `cma_optimize` stops when the per-generation best fitness
spans less than STAGNATION_EPS over STAGNATION_WINDOW generations, and the
solver's search stops after STALL_GENERATIONS generations in a row without
a gain of STALL_REL (see `stall_count`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EIGENVALUE_FLOOR = 1e-10
STAGNATION_WINDOW = 20
STAGNATION_EPS = 1e-12
STALL_GENERATIONS = 5
STALL_REL = 1e-3


def default_population(d):
    """lambda_pop = 4 + floor(3 ln d)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return 4 + int(math.floor(3.0 * math.log(d)))


def selection_weights(mu):
    """Positive, strictly decreasing weights summing to 1."""
    i = np.arange(1, mu + 1)
    w = np.log(mu + 0.5) - np.log(i)
    return w / w.sum()


@dataclass
class CmaState:
    """Search distribution state plus selection constants."""

    dim: int
    mean: np.ndarray
    sigma: float
    cov: np.ndarray
    generation: int
    lambda_pop: int
    mu: int
    weights: np.ndarray
    mu_eff: float
    c_sigma: float
    d_sigma: float
    chi_n: float
    p_sigma: np.ndarray
    repaired: bool = False


def cma_init(d, m0, sigma0):
    """Fresh state: C = I, zero evolution path, population by the rule."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not sigma0 > 0:
        raise ValueError("sigma0 must be positive")
    m0 = np.asarray(m0, dtype=float)
    if m0.shape != (d,):
        raise ValueError(f"m0 must have shape ({d},)")
    lam = default_population(d)
    mu = lam // 2
    w = selection_weights(mu)
    mu_eff = 1.0 / float(np.sum(w * w))
    return CmaState(
        dim=d,
        mean=m0.copy(),
        sigma=float(sigma0),
        cov=np.eye(d),
        generation=0,
        lambda_pop=lam,
        mu=mu,
        weights=w,
        mu_eff=mu_eff,
        c_sigma=(mu_eff + 2.0) / (d + mu_eff + 5.0),
        d_sigma=1.0 + math.sqrt(mu_eff / d),
        chi_n=math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d)),
        p_sigma=np.zeros(d),
    )


def _factor(state):
    """(A, inv_sqrt) with A A^T = C, repairing non-PD eigenvalues."""
    cov = 0.5 * (state.cov + state.cov.T)
    evals, evecs = np.linalg.eigh(cov)
    if np.any(evals < EIGENVALUE_FLOOR):
        state.repaired = True
        evals = np.maximum(evals, EIGENVALUE_FLOOR)
    a = evecs * np.sqrt(evals)
    inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.T
    return a, inv_sqrt


def cma_ask(state, rng):
    """Sample lambda_pop candidates theta_i = m + sigma * z_i, z_i ~ N(0, C)."""
    a, _ = _factor(state)
    z = rng.standard_normal((state.lambda_pop, state.dim)) @ a.T
    return state.mean + state.sigma * z


def cma_tell(state, candidates, fitnesses):
    """Rank, update mean/covariance/step size, bump the generation."""
    theta = np.asarray(candidates, dtype=float)
    fits = np.asarray(fitnesses, dtype=float).copy()
    if theta.shape != (state.lambda_pop, state.dim) or fits.shape != (state.lambda_pop,):
        raise ValueError("candidate/fitness shapes do not match the population")
    fits[~np.isfinite(fits)] = np.inf

    order = np.argsort(fits, kind="stable")
    sel = theta[order[: state.mu]]
    w = state.weights

    m_old = state.mean
    m_new = np.sum(w[:, None] * sel, axis=0)
    z_sel = (sel - m_old) / state.sigma
    # symmetric bit for bit: (j, k) and (k, j) sum the same products in order
    cov_new = (w[:, None, None] * (z_sel[:, :, None] * z_sel[:, None, :])).sum(axis=0)

    _, inv_sqrt = _factor(state)
    cs, ds = state.c_sigma, state.d_sigma
    state.p_sigma = ((1.0 - cs) * state.p_sigma
                     + math.sqrt(cs * (2.0 - cs) * state.mu_eff)
                     * (inv_sqrt @ (m_new - m_old)) / state.sigma)
    state.sigma *= math.exp(
        (cs / ds) * (np.linalg.norm(state.p_sigma) / state.chi_n - 1.0))

    state.mean = m_new
    state.cov = cov_new
    state.generation += 1
    return state


def stall_count(stall, best, value):
    """Generations in a row without a gain, after one that reached value.

    The generation gains when value lowers best, the best value before it,
    by more than STALL_REL of best; a search stops once the count reaches
    STALL_GENERATIONS.
    """
    return 0 if value < best * (1.0 - STALL_REL) else stall + 1


@dataclass
class OptimizeResult:
    best_theta: np.ndarray
    best_fitness: float
    history: list = field(default_factory=list)
    stopped_by: str = "budget"


def cma_optimize(fitness, state, budget, rng):
    """Ask/evaluate/tell loop with best-ever tracking.

    Stops at the generation budget or when the per-generation best fitness
    stays within a 1e-12 range across 20 consecutive generations. A candidate
    whose fitness call raises scores +inf and the run continues.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    best_theta = None
    best_fit = np.inf
    gen_best_track = []
    history = []
    stopped_by = "budget"
    for _ in range(budget):
        theta = cma_ask(state, rng)
        fits = np.empty(state.lambda_pop)
        for i, cand in enumerate(theta):
            try:
                val = float(fitness(cand))
            except Exception:
                val = np.inf
            fits[i] = val if np.isfinite(val) else np.inf
        for i in range(state.lambda_pop):
            if fits[i] < best_fit:
                best_fit = fits[i]
                best_theta = theta[i].copy()
        cma_tell(state, theta, fits)
        gen_best_track.append(float(np.min(fits)))
        history.append((state.generation, best_fit, float(np.mean(fits)),
                        state.sigma))
        # stagnation: the per-generation best has not moved by eps across
        # the whole window (plain best-ever deltas would abort healthy runs
        # whose early lucky sample takes a while to beat)
        if len(gen_best_track) > STAGNATION_WINDOW:
            window = gen_best_track[-STAGNATION_WINDOW:]
            if max(window) - min(window) < STAGNATION_EPS:
                stopped_by = "stagnation"
                break
    if best_theta is None:
        best_theta = state.mean.copy()
    return OptimizeResult(best_theta=best_theta, best_fitness=float(best_fit),
                          history=history, stopped_by=stopped_by)


class ParamEncoding:
    """Map raw search coordinates to (loss weights, gating scalar).

    The three weights go through exp so they stay positive; the gating
    scalar goes through a scaled logistic so it stays in (0, 2).
    """

    DIM = 4

    @staticmethod
    def decode(raw):
        raw = np.asarray(raw, dtype=float)
        lambdas = np.exp(np.clip(raw[:3], -500.0, 500.0))
        beta = 2.0 / (1.0 + math.exp(-float(np.clip(raw[3], -500.0, 500.0))))
        return lambdas, beta

    @staticmethod
    def encode(lambdas, beta):
        lam = np.asarray(lambdas, dtype=float)
        if lam.shape != (3,) or np.any(lam <= 0):
            raise ValueError("need three positive weights")
        if not 0.0 < beta < 2.0:
            raise ValueError("beta must be in (0, 2)")
        half = beta / 2.0
        return np.concatenate([np.log(lam), [math.log(half / (1.0 - half))]])


DEFAULT_SIGMA0 = 0.3
