"""Batched distribution kernels against the scalar interface."""

import numpy as np
import pytest

from repro.dists import (
    Bernoulli,
    Beta,
    Categorical,
    Gaussian,
    MvGaussian,
    Poisson,
)
from repro.vectorized import log_prob, sample_n, supports_batch
from repro.vectorized.kernels import (
    bernoulli_log_prob,
    bernoulli_sample,
    categorical_sample,
    gaussian_log_prob,
    gaussian_sample,
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
