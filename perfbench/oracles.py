"""Exact posteriors, computed with NumPy alone, and the checks built on them.

Every stream of the benchmark is checked against one of these:

* ``exact`` streams (delayed sampling on a conjugate model) must match the
  closed-form posterior mean to ``EXACT_TOL`` at every instant;
* ``pf`` streams (particle filters on the 1-D Kalman model) must keep the
  z-score of their posterior mean under ``Z_BOUND`` at every instant and
  the mean of its square under ``Z2_MEAN_BOUND``, with the standard error
  derived below from the exact Kalman variance;
* ``finite`` streams (no exact posterior exists) must produce a finite mean.

Nothing here imports the program under test except the robot's dynamics
matrices, which are part of the model definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

#: |mean - exact| allowed for a delayed-sampling stream, relative to
#: max(1, |exact|). Exact engines do the same conjugate arithmetic in a
#: different order, so they agree to round-off (~1e-14), far inside this.
EXACT_TOL = 1e-9

#: largest |z| a particle-filter mean may reach at any instant. The
#: z-scores of ``pf_zscores`` are asymptotically N(0, 1); a 6-sigma bound
#: has a two-sided false-alarm rate of 2e-9 per instant, so a run of a few
#: thousand instants fails by chance about once in 10^5 runs, while a wrong
#: weight or resampling step moves z by tens to hundreds.
Z_BOUND = 6.0

#: largest mean of z^2 a particle-filter stream may reach. For a correct
#: filter E[z^2] = 1; particle-filter errors are correlated over a few
#: instants, so a run of >= 100 instants holds >= 50 independent ones and
#: the mean has a standard deviation below sqrt(2/50) = 0.2, putting 2 five
#: of them above 1. A filter biased by one standard error per instant, too
#: little for Z_BOUND to see at 500 particles, reaches 2.
Z2_MEAN_BOUND = 2.0


@dataclass(frozen=True)
class Posterior:
    """Exact posterior means (``(n, d)``) and, for the 1-D Kalman model,
    the variances and model constants the particle-filter check needs."""

    means: np.ndarray
    variances: Optional[np.ndarray] = None
    prior_mean: float = 0.0
    prior_var: float = 0.0
    motion_var: float = 0.0


def kalman_1d(
    observations: Sequence[float],
    prior_mean: float,
    prior_var: float,
    motion_var: float,
    obs_var: float,
) -> Posterior:
    """Kalman filter for x_0 ~ N(m0, p0), x_t ~ N(x_{t-1}, q), y_t ~ N(x_t, r)."""
    n = len(observations)
    means, variances = np.empty(n), np.empty(n)
    m, p = prior_mean, prior_var
    for t, y in enumerate(observations):
        if t > 0:
            p = p + motion_var
        k = p / (p + obs_var)
        m = m + k * (y - m)
        p = (1.0 - k) * p
        means[t], variances[t] = m, p
    return Posterior(means[:, None], variances, prior_mean, prior_var, motion_var)


def kalman_robot(observations, config, f, b, q) -> Posterior:
    """Kalman filter of the Fig. 5 robot: state (position, velocity,
    acceleration), accelerometer on the acceleration every instant, GPS on
    the position when present. The posterior of the position is reported,
    as the model outputs ``z[0]``."""
    n = len(observations)
    means = np.empty(n)
    m = np.zeros(3)
    p = np.diag([config.prior_var, 1.0, config.accel_var])
    for t, (a_obs, gps, cmd) in enumerate(observations):
        if t > 0:
            m = f @ m + b * float(cmd)
            p = f @ p @ f.T + q
        for row, noise, y in ((2, config.accel_noise, a_obs), (0, config.gps_noise, gps)):
            if y is None:
                continue
            gain = p[:, row] / (p[row, row] + noise)
            m = m + gain * (y - m[row])
            p = p - np.outer(gain, p[row, :])
        means[t] = m[0]
    return Posterior(means[:, None])


def beta_bernoulli(observations: Sequence[bool], alpha: float, beta: float) -> Posterior:
    heads = np.cumsum(np.asarray(observations, dtype=float))
    count = np.arange(1, len(observations) + 1)
    return Posterior(((alpha + heads) / (alpha + beta + count))[:, None])


def gamma_poisson(observations: Sequence[int], shape: float, rate: float) -> Posterior:
    total = np.cumsum(np.asarray(observations, dtype=float))
    count = np.arange(1, len(observations) + 1)
    return Posterior(((shape + total) / (rate + count))[:, None])


def dirichlet_categorical(observations: Sequence[int], alpha: Sequence[float]) -> Posterior:
    alpha = np.asarray(alpha, dtype=float)
    onehot = np.eye(alpha.size)[np.asarray(observations, dtype=int)]
    counts = alpha + np.cumsum(onehot, axis=0)
    return Posterior(counts / counts.sum(axis=1, keepdims=True))


def pf_zscores(
    pf_means: np.ndarray, exact: Posterior, n_particles: int, window: int = 50
) -> np.ndarray:
    """z-scores of a bootstrap particle filter's means on the 1-D Kalman model.

    The standard error is the filter's asymptotic variance V_t / N from the
    central limit theorem for particle filters that resample every instant
    (Chopin 2004, Thm. 1): particles drawn at instant s from the predictive
    eta_s contribute

        E_eta_s[(p(x_s | y_0:t) / eta_s(x_s))^2 h_s(x_s)^2],
        h_s(x) = E[x_t | x_s = x, y_0:t] - m_t,

    and V_t sums these over s <= t. For the linear-Gaussian model every
    factor is Gaussian and comes from the exact Kalman quantities: eta_s =
    N(m_{s-1}, P_{s-1} + q), the smoothed marginal N(mu, S) of x_s given
    y_0:t by the Rauch-Tung-Striebel recursion, and h_s(x) = d (x - mu) with
    d = Cov(x_s, x_t | y_0:t) / S. The integral is closed-form. Terms older
    than ``window`` instants are dropped: d shrinks by P/(P+q) per instant.
    Multinomial resampling is the case the theorem covers; the systematic
    scheme the engines use has no larger variance in practice.
    """
    m, p = exact.means[:, 0].tolist(), exact.variances.tolist()
    q = exact.motion_var
    n = len(pf_means)
    pred_mean = [exact.prior_mean] + m[:-1]
    pred_var = [exact.prior_var] + [v + q for v in p[:-1]]
    smoother_gain = [v / (v + q) for v in p]
    z = np.empty(n)
    for t in range(n):
        mu, var, cov, total = m[t], p[t], p[t], 0.0
        for s in range(t, max(-1, t - window), -1):
            if s < t:
                mu = m[s] + smoother_gain[s] * (mu - m[s])
                var = p[s] + smoother_gain[s] ** 2 * (var - pred_var[s + 1])
                cov = smoother_gain[s] * cov
            slope = cov / var
            precision = 2.0 / var - 1.0 / pred_var[s]
            center = (2.0 * mu / var - pred_mean[s] / pred_var[s]) / precision
            log_scale = 2.0 * mu * mu / var - pred_mean[s] ** 2 / pred_var[s] - precision * center**2
            total += (
                slope**2
                * math.sqrt(pred_var[s] / precision)
                / var
                * math.exp(-0.5 * log_scale)
                * (1.0 / precision + (center - mu) ** 2)
            )
        z[t] = (pf_means[t] - m[t]) / math.sqrt(total / n_particles)
    return z
