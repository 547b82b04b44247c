"""Batched distribution kernels against the scalar interface."""

import math

import numpy as np
import pytest

import repro.vectorized.dists as vdists
import repro.vectorized.kernels as kernels
from repro.bench import CoinModel, PoissonCountModel, coin_data, count_data
from repro.delayed.conjugacy import _NegativeBinomialMarginal
from repro.dists import (
    Bernoulli,
    Beta,
    Categorical,
    Dirichlet,
    Gamma,
    Gaussian,
    MvGaussian,
    Poisson,
)
from repro.inference import infer
from repro.vectorized import log_prob, sample_n, supports_batch
from repro.vectorized.kernels import (
    bernoulli_log_prob,
    bernoulli_sample,
    beta_log_prob,
    categorical_row_log_prob,
    categorical_sample,
    dirichlet_log_prob,
    gamma_log_prob,
    gaussian_log_prob,
    gaussian_sample,
    lgamma,
    neg_binomial_log_prob,
    poisson_log_prob,
)

BATCHED_DISTS = [
    Gaussian(1.5, 2.0),
    Bernoulli(0.3),
    Beta(2.0, 5.0),
    Categorical([0.2, 0.5, 0.3]),
    MvGaussian([0.0, 1.0], [[2.0, 0.3], [0.3, 1.0]]),
]


class TestSampleN:
    @pytest.mark.parametrize("dist", BATCHED_DISTS, ids=lambda d: type(d).__name__)
    def test_registered(self, dist):
        assert supports_batch(dist)

    @pytest.mark.parametrize("dist", BATCHED_DISTS, ids=lambda d: type(d).__name__)
    def test_moments_match(self, dist, rng):
        draws = np.asarray(sample_n(dist, 20000, rng), dtype=float)
        assert draws.shape[0] == 20000
        mean = draws.mean(axis=0)
        std = np.sqrt(np.atleast_2d(np.asarray(dist.variance())).diagonal())
        assert np.allclose(mean, dist.mean(), atol=4 * np.max(std) / np.sqrt(20000) + 1e-3)

    def test_same_stream_as_scalar_gaussian(self, rng_factory):
        """Batched draws consume the generator stream like sequential draws."""
        d = Gaussian(0.0, 1.0)
        batched = sample_n(d, 5, rng_factory(7))
        rng = rng_factory(7)
        sequential = [d.sample(rng) for _ in range(5)]
        assert np.allclose(batched, sequential)

    def test_fallback_loops_scalar_interface(self, rng):
        draws = sample_n(Poisson(3.0), 64, rng)
        assert not supports_batch(Poisson(3.0))
        assert draws.shape == (64,)
        assert np.all(draws >= 0)


class TestLogProb:
    @pytest.mark.parametrize("dist", BATCHED_DISTS, ids=lambda d: type(d).__name__)
    def test_matches_scalar_log_pdf(self, dist, rng):
        values = sample_n(dist, 50, rng)
        batched = log_prob(dist, values)
        scalar = np.array([dist.log_pdf(v) for v in values])
        assert np.allclose(batched, scalar)

    def test_bernoulli_impossible_value(self):
        assert log_prob(Bernoulli(1.0), np.array([False]))[0] == -np.inf

    def test_beta_out_of_support(self):
        out = log_prob(Beta(2.0, 3.0), np.array([-0.5, 0.5, 1.0]))
        assert out[0] == -np.inf and out[2] == -np.inf
        assert np.isfinite(out[1])

    def test_categorical_out_of_range(self):
        out = log_prob(Categorical([0.5, 0.5]), np.array([-1, 0, 5]))
        assert out[0] == -np.inf and out[2] == -np.inf

    def test_categorical_non_integral_matches_scalar(self):
        d = Categorical([0.2, 0.5, 0.3])
        values = np.array([0.5, 1.0, 2.0, 1.5, -0.5])
        out = log_prob(d, values)
        assert list(out) == [d.log_pdf(v) for v in values]
        assert out[0] == out[3] == out[4] == -np.inf

    def test_fallback_matches_scalar(self, rng):
        d = Poisson(2.5)
        values = np.array([0, 1, 2, 3])
        assert np.allclose(log_prob(d, values), [d.log_pdf(v) for v in values])


class TestArrayParameterKernels:
    @pytest.mark.parametrize(
        "mu, var",
        [
            (np.linspace(-2.0, 2.0, 7), 0.3),  # scalar var
            (np.linspace(-2.0, 2.0, 7), np.linspace(0.1, 3.0, 7)),  # per-element var
            (0.5, np.linspace(0.1, 3.0, 7)),  # scalar mu, array var: broadcast
            (np.arange(6.0).reshape(2, 3), np.array([0.5, 1.0, 2.0])),  # 2-D mu
        ],
    )
    def test_gaussian_sample_is_generator_normal_bit_for_bit(self, mu, var):
        ours, numpys = np.random.default_rng(21), np.random.default_rng(21)
        got = gaussian_sample(mu, var, ours)
        want = numpys.normal(np.asarray(mu, dtype=float), np.sqrt(var))
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        assert ours.bit_generator.state == numpys.bit_generator.state

    def test_gaussian_per_particle_params(self, rng):
        mus = np.array([-10.0, 0.0, 10.0])
        draws = gaussian_sample(mus, 0.01, rng)
        assert np.allclose(draws, mus, atol=1.0)

    def test_gaussian_log_prob_matches_objects(self):
        mus = np.array([0.0, 1.0])
        variances = np.array([1.0, 4.0])
        got = gaussian_log_prob(0.5, mus, variances)
        expected = [Gaussian(m, v).log_pdf(0.5) for m, v in zip(mus, variances)]
        assert np.allclose(got, expected)

    def test_bernoulli_sample_rate(self, rng):
        p = np.full(20000, 0.25)
        draws = bernoulli_sample(p, rng)
        assert draws.dtype == bool
        assert draws.mean() == pytest.approx(0.25, abs=0.02)

    def test_bernoulli_log_prob_edge_probs(self):
        got = bernoulli_log_prob(np.array([True, False]), np.array([0.0, 1.0]))
        assert np.all(got == -np.inf)

    def test_categorical_sample_frequencies(self, rng):
        probs = np.broadcast_to(np.array([0.1, 0.6, 0.3]), (30000, 3))
        draws = categorical_sample(probs, rng)
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.allclose(freqs, [0.1, 0.6, 0.3], atol=0.02)

    def test_categorical_sample_row_parameters(self, rng):
        # each row puts all mass on a different category
        probs = np.eye(3)
        draws = categorical_sample(probs, rng)
        assert np.array_equal(draws, [0, 1, 2])


_old_lgamma = np.vectorize(math.lgamma, otypes=[float])


class TestLgamma:
    """``lgamma`` is ``math.lgamma`` elementwise, bit for bit, on every input."""

    @pytest.mark.parametrize(
        "x",
        [
            np.full(1000, 3.5),
            np.r_[7.25, np.full(999, 3.5)],  # only the first entry differs
            np.r_[np.full(999, 3.5), 7.25],  # only the last entry differs
            np.linspace(0.1, 50.0, 257),
            np.full(8, np.nan),
            np.r_[2.0, np.nan, 2.0],
            np.full(5, np.inf),
            np.array([np.inf, -np.inf, 0.5]),
            np.array(4.5),
            np.array([1e-300]),
            np.array([]),
            np.full((6, 3), [1.5, 2.5, 40.0]),  # (n, k) with equal rows
            np.arange(1.0, 19.0).reshape(6, 3),  # (n, k) with unequal rows
            np.full((4, 3), 2.0),
            np.full((1, 3), [1.5, 2.5, 3.5]),
            -np.full(4, 2.5),  # negative, non-integral
        ],
        ids=lambda x: f"shape{x.shape}",
    )
    def test_bit_identical_to_vectorized_math_lgamma(self, x):
        got = lgamma(x)
        want = _old_lgamma(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("x", [3.5, np.float64(3.5), [3.5, 3.5], [[1.5, 2.0]]])
    def test_accepts_scalars_and_sequences(self, x):
        assert lgamma(x).tobytes() == _old_lgamma(x).tobytes()

    @pytest.mark.parametrize(
        "x", [np.full(5, 2.0), np.array(2.0), np.array([2.0]), np.full((3, 2), 2.0)]
    )
    def test_output_is_fresh_and_writeable(self, x):
        first = lgamma(x)
        assert first.flags.writeable
        first[...] = -1.0
        assert lgamma(x).tobytes() == _old_lgamma(x).tobytes()
        assert np.all(x == 2.0)

    @pytest.mark.parametrize(
        "x",
        [
            np.zeros(5),
            np.full(5, -3.0),
            np.array(0.0),
            np.array([-1.0]),
            np.r_[np.full(4, 2.5), -1.0],
            np.full((3, 2), [2.5, 0.0]),
        ],
        ids=lambda x: f"shape{x.shape}",
    )
    def test_non_positive_integer_raises(self, x):
        with pytest.raises(ValueError):
            _old_lgamma(x)
        with pytest.raises(ValueError):
            lgamma(x)

    def test_shared_rows_skip_the_loop(self, monkeypatch):
        monkeypatch.setattr(kernels, "_lgamma_loop", _forbidden_loop)
        x = np.full(1000, 3.5)
        assert lgamma(x).tobytes() == _old_lgamma(x).tobytes()
        with pytest.raises(AssertionError):
            lgamma(np.linspace(1.0, 2.0, 1000))


def _forbidden_loop(x):
    raise AssertionError(f"per-element lgamma loop entered on shape {np.shape(x)}")


@pytest.mark.parametrize(
    "model, data",
    [
        (CoinModel, coin_data(8, seed=3)),
        (PoissonCountModel, count_data(8, seed=3)),
    ],
    ids=["coin", "count"],
)
def test_exact_sds_step_never_enters_the_lgamma_loop(monkeypatch, model, data):
    """Exact SDS keeps one conjugate posterior shared by every particle, so
    each lgamma of a 1k-particle step is one scalar evaluation."""
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return lgamma(x)

    monkeypatch.setattr(kernels, "_lgamma_loop", _forbidden_loop)
    monkeypatch.setattr(kernels, "lgamma", counted)
    monkeypatch.setattr(vdists, "lgamma", counted)
    engine = infer(model(), 1000, method="sds", backend="vectorized", seed=5)
    state = engine.init()
    for obs in data.observations:
        dist, state = engine.step(state, obs)
    assert len(dist) == 1000
    assert (1000,) in calls


# Differential cases for the five lgamma-using kernels: (kernel call,
# scalar log_pdf) over interior, boundary and off-support values. The
# non-integral and off-simplex cases are the count and simplex bugfixes.
_LGAMMA_KERNEL_CASES = [
    *[
        (
            f"beta-{v}",
            lambda v=v: beta_log_prob(v, 2.5, 1.5),
            lambda v=v: Beta(2.5, 1.5).log_pdf(v),
        )
        for v in (0.3, 0.0, 1.0, -0.2, 1.5, 1e-9)
    ],
    *[
        (
            f"gamma-{v}",
            lambda v=v: gamma_log_prob(v, 3.0, 0.7),
            lambda v=v: Gamma(3.0, 0.7).log_pdf(v),
        )
        for v in (2.5, 0.0, 1.0, -1.0, 1e-9, 40.0)
    ],
    *[
        (
            f"poisson-{v}",
            lambda v=v: poisson_log_prob(v, 2.0),
            lambda v=v: Poisson(2.0).log_pdf(v),
        )
        for v in (3, 0, 1, -1, 2.5, 3.0, -0.5, 40)
    ],
    *[
        (
            f"neg_binomial-{v}",
            lambda v=v: neg_binomial_log_prob(v, 2.0, 3.0),
            lambda v=v: _NegativeBinomialMarginal(2.0, 3.0).log_pdf(v),
        )
        for v in (4, 0, 1, -1, 2.5, 4.0, -0.5, 30)
    ],
    *[
        (
            f"dirichlet-{i}",
            lambda v=v: dirichlet_log_prob([v], [[2.0, 3.0, 4.0]])[0],
            lambda v=v: Dirichlet([2.0, 3.0, 4.0]).log_pdf(v),
        )
        for i, v in enumerate(
            [
                [0.2, 0.3, 0.5],  # interior
                [0.0, 0.5, 0.5],  # boundary
                [1.0, 0.0, 0.0],  # vertex
                [-0.1, 0.6, 0.5],  # negative entry, sums to one
                [0.2, 0.2, 0.2],  # off the simplex
                [0.4, 0.4, 0.4],  # off the simplex
            ]
        )
    ],
    *[
        (
            f"categorical-{v}",
            lambda v=v: categorical_row_log_prob(v, [[0.2, 0.5, 0.3]])[0],
            lambda v=v: Categorical([0.2, 0.5, 0.3]).log_pdf(v),
        )
        for v in (0, 2, 1.0, True, -1, 3, 1.5, 0.5, -0.5)
    ],
]


@pytest.mark.parametrize(
    "batched, scalar",
    [case[1:] for case in _LGAMMA_KERNEL_CASES],
    ids=[case[0] for case in _LGAMMA_KERNEL_CASES],
)
def test_log_prob_kernel_matches_scalar_log_pdf(batched, scalar):
    got = float(np.asarray(batched()))
    assert got == pytest.approx(scalar(), rel=1e-12, abs=0.0)


def test_dirichlet_off_simplex_rows_score_minus_inf():
    values = np.array([[0.2, 0.3, 0.5], [0.2, 0.2, 0.2], [0.25, 0.25, 0.5]])
    alphas = np.full((3, 3), [2.0, 3.0, 4.0])
    got = dirichlet_log_prob(values, alphas)
    assert np.isfinite(got[0]) and np.isfinite(got[2])
    assert got[1] == -np.inf
