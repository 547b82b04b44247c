"""Closed-form vectorized SDS beyond the Gaussian chain.

The Beta-Bernoulli kernels and the engines built on them:
``VectorizedBetaBernoulliSDS`` (Coin) must reproduce the scalar SDS
posterior exactly — the conjugate update is deterministic — and the
Outlier model's batched SDS (the generic DS graph) must agree with the
scalar SDS engine in law.
"""

import math

import numpy as np
import pytest

from repro.bench.data import outlier_data
from repro.bench.models import CoinModel, OutlierModel
from repro.dists import Beta
from repro.errors import DistributionError
from repro.inference import infer
from repro.vectorized import (
    BetaMixtureArray,
    beta_bernoulli_log_prob,
    beta_bernoulli_predictive,
    beta_bernoulli_update,
)


class TestKernels:
    def test_predictive_probability(self):
        p = beta_bernoulli_predictive([2.0, 1.0], [2.0, 3.0])
        assert p == pytest.approx([0.5, 0.25])

    def test_log_prob_matches_predictive_mass(self):
        logp = beta_bernoulli_log_prob(True, np.array([3.0]), np.array([1.0]))
        assert logp == pytest.approx([math.log(0.75)])
        logp = beta_bernoulli_log_prob(False, np.array([3.0]), np.array([1.0]))
        assert logp == pytest.approx([math.log(0.25)])

    def test_update_scalar_observation(self):
        alpha, beta = beta_bernoulli_update(True, np.ones(3), np.ones(3))
        assert np.all(alpha == 2.0) and np.all(beta == 1.0)

    def test_update_per_particle_indicators(self):
        alpha, beta = beta_bernoulli_update(
            np.array([True, False]), np.array([1.0, 1.0]), np.array([5.0, 5.0])
        )
        assert alpha.tolist() == [2.0, 1.0]
        assert beta.tolist() == [5.0, 6.0]


class TestBetaMixtureArray:
    def test_uniform_components_match_scalar_beta(self):
        mixture = BetaMixtureArray([3.0, 3.0], [2.0, 2.0])
        scalar = Beta(3.0, 2.0)
        assert mixture.mean() == pytest.approx(scalar.mean())
        assert mixture.variance() == pytest.approx(scalar.variance())
        assert mixture.log_pdf(0.6) == pytest.approx(scalar.log_pdf(0.6))

    def test_log_pdf_outside_support(self):
        mixture = BetaMixtureArray([2.0], [2.0])
        assert mixture.log_pdf(0.0) == -math.inf
        assert mixture.log_pdf(1.5) == -math.inf

    def test_component_access(self):
        mixture = BetaMixtureArray([2.0, 4.0], [3.0, 5.0])
        assert isinstance(mixture.component(1), Beta)
        assert mixture.component(1).alpha == 4.0
        assert len(mixture) == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DistributionError):
            BetaMixtureArray([1.0, -1.0], [1.0, 1.0])
        with pytest.raises(DistributionError):
            BetaMixtureArray([1.0], [1.0, 2.0])

    def test_sample_in_support(self):
        mixture = BetaMixtureArray([5.0], [2.0])
        rng = np.random.default_rng(0)
        draws = [mixture.sample(rng) for _ in range(20)]
        assert all(0.0 < x < 1.0 for x in draws)


class TestCoinSDS:
    def test_matches_exact_conjugate_posterior(self):
        observations = [True, True, False, True, True, False, True]
        engine = infer(
            CoinModel(), n_particles=6, method="sds", backend="vectorized", seed=0
        )
        state = engine.init()
        for y in observations:
            dist, state = engine.step(state, y)
        heads = sum(observations)
        tails = len(observations) - heads
        exact = Beta(1.0 + heads, 1.0 + tails)
        assert dist.mean() == pytest.approx(exact.mean())
        assert dist.variance() == pytest.approx(exact.variance())

    def test_matches_scalar_sds_engine(self):
        observations = [True, False, True, True]

        def run(backend):
            engine = infer(
                CoinModel(alpha=2.0, beta_param=3.0), n_particles=4,
                method="sds", backend=backend, seed=0,
            )
            state = engine.init()
            means = []
            for y in observations:
                dist, state = engine.step(state, y)
                means.append(dist.mean())
            return means

        assert run("vectorized") == pytest.approx(run("scalar"))

    def test_single_particle_is_exact(self):
        """Like scalar SDS: one particle already computes the posterior."""
        engine = infer(
            CoinModel(), n_particles=1, method="sds", backend="vectorized", seed=0
        )
        state = engine.init()
        dist, state = engine.step(state, True)
        assert dist.mean() == pytest.approx(Beta(2.0, 1.0).mean())

    def test_evidence_matches_scalar_sds(self):
        """The Rao-Blackwellized log-evidence is exact on both paths."""
        observations = [True, True, False]

        def total_evidence(backend):
            engine = infer(
                CoinModel(), n_particles=3, method="sds", backend=backend, seed=0
            )
            state = engine.init()
            total = 0.0
            for y in observations:
                _, state = engine.step(state, y)
                total += engine.last_stats.log_evidence
            return total

        assert total_evidence("vectorized") == pytest.approx(
            total_evidence("scalar")
        )


class TestOutlierSDS:
    def test_agrees_with_scalar_sds_in_law(self):
        """Same model, same data: posterior means agree statistically."""
        data = outlier_data(25, seed=4)

        def final_means(backend, seeds):
            means = []
            for seed in seeds:
                engine = infer(
                    OutlierModel(), n_particles=300, method="sds",
                    backend=backend, seed=seed,
                )
                state = engine.init()
                for y in data.observations:
                    dist, state = engine.step(state, y)
                means.append(dist.mean())
            return np.asarray(means)

        vectorized = final_means("vectorized", range(5))
        scalar = final_means("scalar", range(5, 10))
        assert np.mean(vectorized) == pytest.approx(np.mean(scalar), abs=0.35)

    def test_posterior_variance_positive_and_finite(self):
        engine = infer(
            OutlierModel(), n_particles=50, method="sds", backend="vectorized",
            seed=0,
        )
        state = engine.init()
        for y in (0.5, 0.9, 25.0, 1.1):  # includes one wild outlier
            dist, state = engine.step(state, y)
            assert np.isfinite(dist.mean())
            assert dist.variance() > 0.0

    def test_outlier_indicator_conditions_beta(self):
        """After steps, the (alpha, beta) counts grew by one per step.

        The Outlier model now runs on the generic batched DS graph, so
        the conjugate counts live in the graph's Beta slot (folding any
        still-deferred indicator when queried).
        """
        engine = infer(
            OutlierModel(), n_particles=8, method="sds", backend="vectorized",
            seed=0,
        )
        state = engine.init()
        for t, y in enumerate((0.5, 0.7, 0.6), start=1):
            _, state = engine.step(state, y)
        graph = state.state.graph
        beta_slots = [s for s in graph.live_slots() if graph.family[s] == "beta"]
        assert len(beta_slots) == 1
        alpha, beta = graph.posterior_marginal(beta_slots[0])
        assert np.all(alpha + beta == pytest.approx(100.0 + 1000.0 + 3))
