"""Count distributions give non-integral values zero mass instead of truncating them."""

import math

import numpy as np
import pytest

from repro.delayed.conjugacy import _BetaBinomialMarginal, _NegativeBinomialMarginal
from repro.dists import Binomial, Categorical, Poisson
from repro.vectorized.kernels import (
    categorical_row_log_prob,
    neg_binomial_log_prob,
    poisson_log_prob,
)

COUNT_DISTS = [
    Poisson(2.0),
    Binomial(5, 0.3),
    Categorical([0.2, 0.5, 0.3]),
    _BetaBinomialMarginal(5, 2.0, 3.0),
    _NegativeBinomialMarginal(2.0, 3.0),
]


@pytest.mark.parametrize("dist", COUNT_DISTS, ids=lambda d: type(d).__name__)
@pytest.mark.parametrize("value", [2.5, 0.5, 1.0000001, -0.5])
def test_non_integral_value_scores_minus_inf(dist, value):
    assert dist.log_pdf(value) == -math.inf


@pytest.mark.parametrize("dist", COUNT_DISTS, ids=lambda d: type(d).__name__)
def test_integral_values_score_as_ints(dist):
    for k in (0, 1, 2):
        want = dist.log_pdf(k)
        assert math.isfinite(want)
        assert dist.log_pdf(float(k)) == want
        assert dist.log_pdf(np.int64(k)) == want
        assert dist.log_pdf(np.float64(k)) == want
    assert dist.log_pdf(True) == dist.log_pdf(1)
    assert dist.log_pdf(False) == dist.log_pdf(0)


@pytest.mark.parametrize(
    "kernel",
    [
        lambda v: poisson_log_prob(v, 2.0),
        lambda v: neg_binomial_log_prob(v, 2.0, 3.0),
        lambda v: categorical_row_log_prob(v, [[0.2, 0.5, 0.3]])[0],
    ],
    ids=["poisson", "neg_binomial", "categorical_row"],
)
def test_batched_count_kernels_agree(kernel):
    assert kernel(2.5) == -np.inf
    assert kernel(0.5) == -np.inf
    assert kernel(2.0) == kernel(2)
    assert np.isfinite(kernel(2))
