"""Uniform, Delta, Gamma, Poisson, and Exponential distributions.

Delta is the lift of a concrete value into distribution space (the paper's
``distribution`` function lifts concrete values to Dirac distributions);
the others round out the conjugate families supported by delayed sampling.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.dists.base import (
    Distribution,
    ScalarDistribution,
    count_value,
    require_positive,
)
from repro.errors import DistributionError

__all__ = ["Uniform", "Delta", "Gamma", "Poisson", "Exponential"]


class Uniform(ScalarDistribution):
    """Continuous uniform distribution on ``[lo, hi]``."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo = float(lo)
        self.hi = float(hi)
        if not self.hi > self.lo:
            raise DistributionError(f"need lo < hi, got [{lo!r}, {hi!r}]")

    def sample(self, rng: np.random.Generator) -> float:
        return rng.uniform(self.lo, self.hi)

    def log_pdf(self, value: float) -> float:
        if self.lo <= float(value) <= self.hi:
            return -math.log(self.hi - self.lo)
        return -math.inf

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def variance(self) -> float:
        width = self.hi - self.lo
        return width * width / 12.0

    def __repr__(self) -> str:
        return f"Uniform(lo={self.lo:.6g}, hi={self.hi:.6g})"


class Delta(Distribution):
    """Dirac delta: all mass on one value.

    Scoring uses an indicator convention: ``log_pdf(v)`` is 0 if ``v``
    equals the point (up to float equality / array equality) and ``-inf``
    otherwise.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def sample(self, rng: np.random.Generator) -> Any:
        return self.value

    def log_pdf(self, value: Any) -> float:
        if isinstance(self.value, np.ndarray) or isinstance(value, np.ndarray):
            equal = np.array_equal(np.asarray(self.value), np.asarray(value))
        else:
            equal = value == self.value
        return 0.0 if equal else -math.inf

    def mean(self) -> Any:
        return self.value

    def variance(self) -> Any:
        if isinstance(self.value, np.ndarray):
            return np.zeros((self.value.size, self.value.size))
        return 0.0

    def memory_words(self) -> int:
        return 2

    def __repr__(self) -> str:
        return f"Delta({self.value!r})"


class Gamma(ScalarDistribution):
    """Gamma distribution with ``shape`` and ``rate`` (not scale)."""

    __slots__ = ("shape", "rate")

    def __init__(self, shape: float, rate: float):
        self.shape = require_positive("shape", shape)
        self.rate = require_positive("rate", rate)

    def sample(self, rng: np.random.Generator) -> float:
        return rng.gamma(self.shape, 1.0 / self.rate)

    def log_pdf(self, value: float) -> float:
        value = float(value)
        if value <= 0.0:
            return -math.inf
        return (
            self.shape * math.log(self.rate)
            - math.lgamma(self.shape)
            + (self.shape - 1.0) * math.log(value)
            - self.rate * value
        )

    def mean(self) -> float:
        return self.shape / self.rate

    def variance(self) -> float:
        return self.shape / (self.rate * self.rate)

    def __repr__(self) -> str:
        return f"Gamma(shape={self.shape:.6g}, rate={self.rate:.6g})"


class Poisson(Distribution):
    """Poisson distribution with rate ``lam``."""

    __slots__ = ("lam",)

    def __init__(self, lam: float):
        self.lam = require_positive("lam", lam)

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.poisson(self.lam))

    def log_pdf(self, value) -> float:
        k = count_value(value)
        if k is None or k < 0:
            return -math.inf
        return k * math.log(self.lam) - self.lam - math.lgamma(k + 1)

    def mean(self) -> float:
        return self.lam

    def variance(self) -> float:
        return self.lam

    def __repr__(self) -> str:
        return f"Poisson(lam={self.lam:.6g})"


class Exponential(ScalarDistribution):
    """Exponential distribution with rate ``rate``."""

    __slots__ = ("rate",)

    def __init__(self, rate: float):
        self.rate = require_positive("rate", rate)

    def sample(self, rng: np.random.Generator) -> float:
        return rng.exponential(1.0 / self.rate)

    def log_pdf(self, value: float) -> float:
        value = float(value)
        if value < 0.0:
            return -math.inf
        return math.log(self.rate) - self.rate * value

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / (self.rate * self.rate)

    def __repr__(self) -> str:
        return f"Exponential(rate={self.rate:.6g})"
