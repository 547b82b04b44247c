"""Lifted distribution constructors for model code.

Model programs build distributions with these helpers instead of the raw
classes in :mod:`repro.dists`. When every parameter is concrete the
helper returns the concrete distribution directly; when a parameter is a
symbolic expression (a delayed-sampling random variable, or arithmetic
over one) the helper returns a :class:`SymDist` — an *unevaluated*
distribution term that the delayed-sampling ``assume`` inspects for
conjugacy (Section 5.2).

This mirrors ProbZelus, where ``gaussian (pre x, speed_x)`` is a symbolic
term under delayed sampling and a plain distribution under the particle
filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

import numpy as np

from repro.dists import (
    Bernoulli,
    Beta,
    Binomial,
    Categorical,
    Delta,
    Dirichlet,
    Distribution,
    Exponential,
    Gamma,
    Gaussian,
    InverseGamma,
    MvGaussian,
    Poisson,
    Uniform,
)
from repro.symbolic import is_symbolic

__all__ = [
    "SymDist",
    "gaussian",
    "mv_gaussian",
    "beta",
    "bernoulli",
    "binomial",
    "gamma",
    "inverse_gamma",
    "poisson",
    "exponential",
    "uniform",
    "categorical",
    "dirichlet",
    "delta",
]


@dataclass(frozen=True)
class SymDist:
    """An unevaluated distribution whose parameters are symbolic.

    ``kind`` names the family ("gaussian", "bernoulli", ...); ``params``
    holds the (possibly symbolic) parameter expressions in family order.
    """

    kind: str
    params: Tuple[Any, ...]

    def __repr__(self) -> str:
        return f"SymDist({self.kind}, {self.params!r})"


#: Parameter types that can never hold a symbolic expression. Exact
#: types only: a subclass (``np.float64``, a user type) still goes
#: through :func:`is_symbolic`.
_CONCRETE_SCALARS = frozenset((float, int, bool))


def _lift(kind: str, concrete, *params: Any):
    for p in params:
        if type(p) not in _CONCRETE_SCALARS and is_symbolic(p):
            return SymDist(kind, params)
    return concrete(*params)


def gaussian(mu: Any, var: Any) -> Any:
    """``N(mu, var)`` — variance parameterization, as in the paper."""
    return _lift("gaussian", Gaussian, mu, var)


def mv_gaussian(mu: Any, cov: Any) -> Any:
    """Multivariate normal ``N(mu, cov)``."""
    return _lift("mv_gaussian", MvGaussian, mu, cov)


def beta(alpha: Any, b: Any) -> Any:
    """Beta distribution ``Beta(alpha, b)``."""
    return _lift("beta", Beta, alpha, b)


def bernoulli(p: Any) -> Any:
    """Bernoulli distribution with success probability ``p``."""
    return _lift("bernoulli", Bernoulli, p)


def binomial(n: Any, p: Any) -> Any:
    """Binomial distribution over ``n`` trials."""
    return _lift("binomial", Binomial, n, p)


def gamma(shape: Any, rate: Any) -> Any:
    """Gamma distribution with ``shape`` and ``rate``."""
    return _lift("gamma", Gamma, shape, rate)


def inverse_gamma(shape: Any, scale: Any) -> Any:
    """Inverse-Gamma distribution (conjugate prior of a Gaussian variance)."""
    return _lift("inverse_gamma", InverseGamma, shape, scale)


def poisson(lam: Any) -> Any:
    """Poisson distribution with rate ``lam``."""
    return _lift("poisson", Poisson, lam)


def exponential(rate: Any) -> Any:
    """Exponential distribution with rate ``rate``."""
    return _lift("exponential", Exponential, rate)


def uniform(lo: Any, hi: Any) -> Any:
    """Uniform distribution on ``[lo, hi]``."""
    return _lift("uniform", Uniform, lo, hi)


def categorical(probs: Any) -> Any:
    """Categorical distribution over ``len(probs)`` classes."""
    if is_symbolic(probs):
        return SymDist("categorical", (probs,))
    return Categorical(np.asarray(probs, dtype=float))


def dirichlet(alpha: Any) -> Any:
    """Dirichlet distribution with concentration ``alpha``."""
    if is_symbolic(alpha):
        return SymDist("dirichlet", (alpha,))
    return Dirichlet(np.asarray(alpha, dtype=float))


def delta(value: Any) -> Any:
    """Dirac distribution on ``value`` (symbolic values stay symbolic)."""
    if is_symbolic(value):
        return SymDist("delta", (value,))
    return Delta(value)
