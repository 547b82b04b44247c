"""Bernoulli and Binomial distributions.

The Bernoulli drives the Coin benchmark observations and the Outlier
benchmark's outlier indicator. Binomial is included for the Beta-Binomial
conjugacy extension.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dists.base import Distribution, count_value, require_prob
from repro.errors import DistributionError

__all__ = ["Bernoulli", "Binomial"]


class Bernoulli(Distribution):
    """Bernoulli distribution over ``{False, True}`` with success probability ``p``."""

    __slots__ = ("p",)

    def __init__(self, p: float):
        self.p = require_prob("p", p)

    def sample(self, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.p)

    def log_pdf(self, value) -> float:
        success = bool(value)
        prob = self.p if success else 1.0 - self.p
        if prob == 0.0:
            return -math.inf
        return math.log(prob)

    def mean(self) -> float:
        return self.p

    def variance(self) -> float:
        return self.p * (1.0 - self.p)

    def __repr__(self) -> str:
        return f"Bernoulli(p={self.p:.6g})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bernoulli) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("Bernoulli", self.p))


class Binomial(Distribution):
    """Binomial distribution: number of successes in ``n`` trials of prob ``p``."""

    __slots__ = ("n", "p")

    def __init__(self, n: int, p: float):
        if int(n) != n or n < 0:
            raise DistributionError(f"n must be a non-negative integer, got {n!r}")
        self.n = int(n)
        self.p = require_prob("p", p)

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.binomial(self.n, self.p))

    def log_pdf(self, value) -> float:
        k = count_value(value)
        if k is None or k < 0 or k > self.n:
            return -math.inf
        log_comb = (
            math.lgamma(self.n + 1) - math.lgamma(k + 1) - math.lgamma(self.n - k + 1)
        )
        if self.p == 0.0:
            return 0.0 if k == 0 else -math.inf
        if self.p == 1.0:
            return 0.0 if k == self.n else -math.inf
        return log_comb + k * math.log(self.p) + (self.n - k) * math.log1p(-self.p)

    def mean(self) -> float:
        return self.n * self.p

    def variance(self) -> float:
        return self.n * self.p * (1.0 - self.p)

    def __repr__(self) -> str:
        return f"Binomial(n={self.n}, p={self.p:.6g})"
