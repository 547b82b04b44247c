"""Batched distribution kernels.

The scalar :class:`~repro.dists.base.Distribution` interface draws and
scores one value at a time. The vectorized engines instead need *array*
operations: draw ``n`` values in one call, score ``n`` values in one
call. Two layers are provided:

* :func:`sample_n` / :func:`log_prob` — batched operations on an
  existing scalar distribution object (shared parameters, ``n``
  independent draws). Dispatch is by distribution type through the
  ``BATCH_KERNELS`` registry; :func:`supports_batch` reports coverage.
* array-parameter kernels (:func:`gaussian_sample`,
  :func:`gaussian_log_prob`, :func:`bernoulli_log_prob`, …) — the
  per-particle-parameter case the vectorized models use directly: the
  ``i``-th draw uses the ``i``-th row of the parameter arrays.

Both layers are pure NumPy; the fallback path for uncovered
distribution types is a Python loop over the scalar interface, so
``sample_n`` / ``log_prob`` are total even for exotic distributions.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Tuple, Type

import numpy as np

from repro.dists import (
    Bernoulli,
    Beta,
    Categorical,
    Distribution,
    Gaussian,
    MvGaussian,
)

__all__ = [
    "BATCH_KERNELS",
    "supports_batch",
    "sample_n",
    "log_prob",
    "gaussian_sample",
    "gaussian_log_prob",
    "bernoulli_sample",
    "bernoulli_log_prob",
    "beta_sample",
    "beta_log_prob",
    "categorical_sample",
    "categorical_row_log_prob",
    "gamma_sample",
    "gamma_log_prob",
    "poisson_log_prob",
    "neg_binomial_sample",
    "neg_binomial_log_prob",
    "dirichlet_sample",
    "dirichlet_log_prob",
    "beta_bernoulli_predictive",
    "beta_bernoulli_log_prob",
    "beta_bernoulli_update",
    "mv_gaussian_svd_factor",
    "mv_gaussian_sample",
]

_LOG_2PI = math.log(2.0 * math.pi)


# ----------------------------------------------------------------------
# array-parameter kernels (one parameter row per particle)
# ----------------------------------------------------------------------
def gaussian_sample(mu, var, rng: np.random.Generator) -> np.ndarray:
    """Draw ``x_i ~ N(mu_i, var_i)``; parameters broadcast elementwise.

    ``Generator.normal(loc, scale)`` computes ``loc + scale * z`` from
    the same standard-normal stream, so scaling and shifting ``z`` in
    place gives its draws bit for bit without its broadcasting loop.
    """
    mu = np.asarray(mu, dtype=float)
    sd = np.sqrt(var)
    z = rng.standard_normal(np.broadcast_shapes(mu.shape, np.shape(sd)))
    z *= sd
    z += mu
    return z


def gaussian_log_prob(value, mu, var) -> np.ndarray:
    """Elementwise ``log N(value_i; mu_i, var_i)``."""
    value = np.asarray(value, dtype=float)
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    diff = value - mu
    return -0.5 * (_LOG_2PI + np.log(var) + diff * diff / var)


def bernoulli_sample(p, rng: np.random.Generator) -> np.ndarray:
    """Draw ``b_i ~ Bernoulli(p_i)`` as a boolean array."""
    p = np.asarray(p, dtype=float)
    return rng.random(p.shape) < p


def bernoulli_log_prob(value, p) -> np.ndarray:
    """Elementwise Bernoulli log mass; ``-inf`` where the mass is zero."""
    success = np.asarray(value, dtype=bool)
    p = np.asarray(p, dtype=float)
    prob = np.where(success, p, 1.0 - p)
    with np.errstate(divide="ignore"):
        return np.where(prob > 0.0, np.log(np.maximum(prob, 1e-300)), -np.inf)


def beta_sample(alpha, beta, rng: np.random.Generator) -> np.ndarray:
    """Draw ``x_i ~ Beta(alpha_i, beta_i)``; parameters broadcast."""
    return rng.beta(np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float))


_lgamma = np.vectorize(math.lgamma, otypes=[float])


def beta_log_prob(value, alpha, beta) -> np.ndarray:
    """Elementwise Beta log-density with per-particle parameters.

    The array-parameter counterpart of ``Beta.log_pdf`` used by the
    generic batched delayed-sampling graph when a Beta slot is observed
    or scored: the ``i``-th value is scored under
    ``Beta(alpha_i, beta_i)``; values outside ``(0, 1)`` score ``-inf``.
    (NumPy has no ``lgamma`` ufunc, so the normalizer is a vectorized
    Python loop — paid only on observe-a-Beta paths, never per chain
    step.)
    """
    value = np.asarray(value, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    log_norm = _lgamma(alpha + beta) - _lgamma(alpha) - _lgamma(beta)
    inside = (value > 0.0) & (value < 1.0)
    safe = np.where(inside, value, 0.5)
    logp = (
        log_norm
        + (alpha - 1.0) * np.log(safe)
        + (beta - 1.0) * np.log1p(-safe)
    )
    return np.where(inside, logp, -np.inf)


def categorical_sample(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw one category per row of an ``(n, k)`` probability matrix.

    Implemented as an inverse-CDF lookup so the whole batch is one
    cumulative sum plus one comparison — no per-row ``rng.choice``.
    """
    probs = np.asarray(probs, dtype=float)
    cumulative = np.cumsum(probs, axis=-1)
    cumulative[..., -1] = 1.0  # guard against round-off
    u = rng.random(probs.shape[:-1] + (1,))
    return np.sum(u > cumulative, axis=-1).astype(int)


def categorical_row_log_prob(value, probs) -> np.ndarray:
    """Score one category per row of an ``(n, k)`` probability matrix.

    ``value`` is a scalar category (one observation conditioning every
    particle) or an ``(n,)`` integer array of realized categories.
    Out-of-range categories score ``-inf``.
    """
    probs = np.asarray(probs, dtype=float)
    k = np.broadcast_to(np.asarray(value, dtype=int), probs.shape[:-1])
    inside = (k >= 0) & (k < probs.shape[-1])
    safe = np.where(inside, k, 0)
    p = np.take_along_axis(probs, safe[..., None], axis=-1)[..., 0]
    with np.errstate(divide="ignore"):
        logp = np.where(p > 0.0, np.log(np.maximum(p, 1e-300)), -np.inf)
    return np.where(inside, logp, -np.inf)


def gamma_sample(shape, rate, rng: np.random.Generator) -> np.ndarray:
    """Draw ``x_i ~ Gamma(shape_i, rate_i)`` (rate parameterization)."""
    shape = np.asarray(shape, dtype=float)
    rate = np.asarray(rate, dtype=float)
    return rng.gamma(shape, 1.0 / rate)


def gamma_log_prob(value, shape, rate) -> np.ndarray:
    """Elementwise Gamma log-density; values ``<= 0`` score ``-inf``."""
    value = np.asarray(value, dtype=float)
    shape = np.asarray(shape, dtype=float)
    rate = np.asarray(rate, dtype=float)
    inside = value > 0.0
    safe = np.where(inside, value, 1.0)
    logp = (
        shape * np.log(rate)
        - _lgamma(shape)
        + (shape - 1.0) * np.log(safe)
        - rate * safe
    )
    return np.where(inside, logp, -np.inf)


def poisson_log_prob(value, lam) -> np.ndarray:
    """Elementwise Poisson log-mass; negative counts score ``-inf``."""
    k = np.asarray(value, dtype=float)
    lam = np.asarray(lam, dtype=float)
    inside = (k >= 0.0) & (k == np.floor(k))
    safe = np.where(inside, k, 0.0)
    logp = safe * np.log(lam) - lam - _lgamma(safe + 1.0)
    return np.where(inside, logp, -np.inf)


def neg_binomial_sample(shape, rate, rng: np.random.Generator) -> np.ndarray:
    """Draw from ``NB(r=shape_i, p=rate_i/(rate_i+1))`` via its
    Gamma-Poisson compound form, which is distributionally exact:
    ``lam_i ~ Gamma(shape_i, rate_i)``, ``k_i ~ Poisson(lam_i)``."""
    return rng.poisson(gamma_sample(shape, rate, rng))


def neg_binomial_log_prob(value, shape, rate) -> np.ndarray:
    """Log mass of the Gamma-Poisson marginal (negative binomial).

    This is the Rao-Blackwellized ``observe`` weight of delayed
    sampling on count data: the Gamma rate stays symbolic and the
    count is scored under ``NB(r=shape, p=rate/(rate+1))`` — the same
    parameterization as the scalar
    :class:`repro.delayed.conjugacy._NegativeBinomialMarginal`.
    """
    k = np.asarray(value, dtype=float)
    r = np.asarray(shape, dtype=float)
    rate = np.asarray(rate, dtype=float)
    inside = (k >= 0.0) & (k == np.floor(k))
    safe = np.where(inside, k, 0.0)
    log_p = np.log(rate) - np.log1p(rate)
    log_1mp = -np.log1p(rate)
    logp = (
        _lgamma(safe + r)
        - _lgamma(r)
        - _lgamma(safe + 1.0)
        + r * log_p
        + safe * log_1mp
    )
    return np.where(inside, logp, -np.inf)


def dirichlet_sample(alpha, rng: np.random.Generator) -> np.ndarray:
    """Draw one Dirichlet vector per row of an ``(n, k)`` alpha matrix.

    ``Generator.dirichlet`` only accepts a single parameter vector, so
    the batch is drawn through the standard Gamma representation:
    ``g_ij ~ Gamma(alpha_ij, 1)`` normalized per row.
    """
    g = rng.standard_gamma(np.asarray(alpha, dtype=float))
    return g / g.sum(axis=-1, keepdims=True)


def dirichlet_log_prob(value, alpha) -> np.ndarray:
    """Per-row Dirichlet log-density for ``(n, k)`` values and alphas."""
    value = np.asarray(value, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    inside = np.all(value > 0.0, axis=-1) & np.all(value < 1.0, axis=-1)
    safe = np.where(value > 0.0, value, 0.5)
    log_norm = _lgamma(alpha.sum(axis=-1)) - _lgamma(alpha).sum(axis=-1)
    logp = log_norm + ((alpha - 1.0) * np.log(safe)).sum(axis=-1)
    return np.where(inside, logp, -np.inf)


def mv_gaussian_svd_factor(cov) -> np.ndarray:
    """The ``sqrt(s)[:, None] * vh`` factor of NumPy's svd sampling path.

    :meth:`numpy.random.Generator.multivariate_normal` (``method="svd"``)
    transforms standard normals as ``z @ (sqrt(s)[:, None] * vh)``;
    computing the factor once per shared covariance lets a batched draw
    consume the generator stream exactly as ``n`` sequential scalar
    calls would.
    """
    _, s, vh = np.linalg.svd(np.asarray(cov, dtype=float))
    return np.sqrt(s)[:, None] * vh


def mv_gaussian_sample(
    means: np.ndarray, cov, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``x_i ~ N(mean_i, cov)`` with per-particle means, shared cov.

    One ``standard_normal((n, d))`` call consumes the stream in the same
    particle-major order as ``n`` sequential
    ``rng.multivariate_normal(mean_i, cov, method="svd")`` calls, so a
    batched chain engine replays the scalar engines' randomness. The
    transform is applied with the row-stable kernel of
    :func:`repro.dists.mv_gaussian.batched_matvec`, so sharded execution
    reproduces the unsharded draw bit for bit.
    """
    from repro.dists.mv_gaussian import batched_matvec

    means = np.asarray(means, dtype=float)
    factor = mv_gaussian_svd_factor(cov)
    z = rng.standard_normal(means.shape)
    return means + batched_matvec(factor.T, z)


# ----------------------------------------------------------------------
# conjugate Beta-Bernoulli kernels (the delayed-sampling arithmetic of
# the Coin/Outlier models, batched: one (alpha_i, beta_i) per particle)
# ----------------------------------------------------------------------
def beta_bernoulli_predictive(alpha, beta) -> np.ndarray:
    """Posterior-predictive success probability ``alpha_i/(alpha_i+beta_i)``."""
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return alpha / (alpha + beta)


def beta_bernoulli_log_prob(value, alpha, beta) -> np.ndarray:
    """Log marginal mass of a Bernoulli draw under a Beta prior.

    This is the Rao-Blackwellized ``observe`` weight of delayed
    sampling: the Beta stays symbolic and the observation is scored
    under the predictive ``Bernoulli(alpha/(alpha+beta))``.
    """
    return bernoulli_log_prob(value, beta_bernoulli_predictive(alpha, beta))


def beta_bernoulli_update(value, alpha, beta) -> Tuple[np.ndarray, np.ndarray]:
    """Conjugate posterior parameters after seeing a Bernoulli draw.

    ``value`` may be a scalar (one observation conditioning every
    particle) or a per-particle boolean array (realized indicator
    variables): successes increment ``alpha``, failures ``beta``.
    """
    hit = np.asarray(value, dtype=bool)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return alpha + hit, beta + ~hit


# ----------------------------------------------------------------------
# shared-parameter kernels for scalar distribution objects
# ----------------------------------------------------------------------
def _gaussian_sample_n(d: Gaussian, n: int, rng) -> np.ndarray:
    return rng.normal(d.mu, math.sqrt(d.var), size=n)


def _gaussian_log_prob(d: Gaussian, values) -> np.ndarray:
    return gaussian_log_prob(values, d.mu, d.var)


def _bernoulli_sample_n(d: Bernoulli, n: int, rng) -> np.ndarray:
    return rng.random(n) < d.p


def _bernoulli_log_prob(d: Bernoulli, values) -> np.ndarray:
    return bernoulli_log_prob(values, d.p)


def _beta_sample_n(d: Beta, n: int, rng) -> np.ndarray:
    return rng.beta(d.alpha, d.beta, size=n)


def _beta_log_prob(d: Beta, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    log_norm = (
        math.lgamma(d.alpha + d.beta) - math.lgamma(d.alpha) - math.lgamma(d.beta)
    )
    inside = (values > 0.0) & (values < 1.0)
    safe = np.where(inside, values, 0.5)
    logp = (
        log_norm
        + (d.alpha - 1.0) * np.log(safe)
        + (d.beta - 1.0) * np.log1p(-safe)
    )
    return np.where(inside, logp, -np.inf)


def _categorical_sample_n(d: Categorical, n: int, rng) -> np.ndarray:
    return categorical_sample(np.broadcast_to(d.probs, (n, d.probs.size)), rng)


def _categorical_log_prob(d: Categorical, values) -> np.ndarray:
    k = np.asarray(values, dtype=int)
    inside = (k >= 0) & (k < d.probs.size)
    p = np.where(inside, d.probs[np.where(inside, k, 0)], 0.0)
    with np.errstate(divide="ignore"):
        return np.where(p > 0.0, np.log(np.maximum(p, 1e-300)), -np.inf)


def _mv_gaussian_sample_n(d: MvGaussian, n: int, rng) -> np.ndarray:
    return rng.multivariate_normal(d.mu, d.cov, size=n, method="svd")


def _mv_gaussian_log_prob(d: MvGaussian, values) -> np.ndarray:
    values = np.asarray(values, dtype=float).reshape(-1, d.dim)
    diff = values - d.mu
    sign, logdet = np.linalg.slogdet(d.cov)
    if sign <= 0:
        eigvals = np.linalg.eigvalsh(d.cov)
        pos = eigvals[eigvals > 1e-12]
        logdet = float(np.sum(np.log(pos)))
    maha = np.einsum("ni,ij,nj->n", diff, np.linalg.pinv(d.cov), diff)
    return -0.5 * (d.dim * _LOG_2PI + logdet + maha)


#: type -> (sample_n kernel, log_prob kernel)
BATCH_KERNELS: Dict[Type[Distribution], Tuple[Callable, Callable]] = {
    Gaussian: (_gaussian_sample_n, _gaussian_log_prob),
    Bernoulli: (_bernoulli_sample_n, _bernoulli_log_prob),
    Beta: (_beta_sample_n, _beta_log_prob),
    Categorical: (_categorical_sample_n, _categorical_log_prob),
    MvGaussian: (_mv_gaussian_sample_n, _mv_gaussian_log_prob),
}


def supports_batch(dist: Distribution) -> bool:
    """True when ``dist`` has dedicated array kernels (no loop fallback)."""
    return type(dist) in BATCH_KERNELS


def sample_n(dist: Distribution, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` independent values from ``dist`` as one stacked array."""
    kernels = BATCH_KERNELS.get(type(dist))
    if kernels is not None:
        return kernels[0](dist, int(n), rng)
    return np.asarray([dist.sample(rng) for _ in range(int(n))])


def log_prob(dist: Distribution, values: Any) -> np.ndarray:
    """Score a stacked array of values under ``dist``, elementwise."""
    kernels = BATCH_KERNELS.get(type(dist))
    if kernels is not None:
        return kernels[1](dist, values)
    return np.asarray([dist.log_pdf(v) for v in values], dtype=float)
