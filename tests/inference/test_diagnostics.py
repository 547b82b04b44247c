"""Engine diagnostics: ESS and log-evidence.

The strongest check: SDS with a single particle on a conjugate model
computes the *exact* log marginal likelihood of the observations,
verifiable against the Kalman filter's predictive decomposition
``log p(y_1..y_T) = sum_t log p(y_t | y_1..y_(t-1))``.
"""

import math
from collections import Counter

import numpy as np
import pytest

import repro.inference.engine as engine_module
from repro.bench.data import coin_data, kalman_data
from repro.bench.models import CoinModel, KalmanModel
from repro.dists import Gaussian
from repro.inference import infer
from repro.inference.diagnostics import DiagnosticsLog, StepStats
from repro.inference.resampling import normalize_log_weights


def weigh(step_log_weights):
    """StepStats of one step from uniform previous weights."""
    step = np.asarray(step_log_weights, dtype=float)
    engine = infer(KalmanModel(), n_particles=step.size, method="pf", seed=0)
    engine._weigh(np.zeros(step.size), step)
    return engine.last_stats


class TestStepStats:
    def test_uniform_weights(self):
        stats = weigh([math.log(0.5)] * 4)
        assert stats.log_evidence == pytest.approx(math.log(0.5))
        assert stats.ess == pytest.approx(4.0)
        assert stats.ess_fraction == pytest.approx(1.0)

    def test_degenerate_weights(self):
        stats = weigh([0.0, -math.inf, -math.inf])
        assert stats.ess == pytest.approx(1.0)
        assert stats.log_evidence == pytest.approx(math.log(1.0 / 3.0))

    def test_all_zero_likelihood(self):
        stats = weigh([-math.inf, -math.inf])
        assert stats.log_evidence == -math.inf


class TestDiagnosticsLog:
    def test_accumulates(self):
        log = DiagnosticsLog()
        log.record(StepStats(-1.0, 2.0, 4))
        log.record(StepStats(-2.0, 4.0, 4))
        assert len(log) == 2
        assert log.total_log_evidence == pytest.approx(-3.0)
        assert log.min_ess_fraction == pytest.approx(0.5)

    def test_none_ignored(self):
        log = DiagnosticsLog()
        log.record(None)
        assert len(log) == 0
        assert log.min_ess_fraction == 1.0


def kalman_log_marginal(observations, prior_mean=0.0, prior_var=100.0,
                        motion_var=1.0, obs_var=1.0):
    """Exact log p(y_1..y_T) by the predictive decomposition."""
    total = 0.0
    mu, var = prior_mean, prior_var
    for t, obs in enumerate(observations):
        if t > 0:
            var += motion_var
        total += Gaussian(mu, var + obs_var).log_pdf(obs)
        gain = var / (var + obs_var)
        mu = mu + gain * (obs - mu)
        var = (1.0 - gain) * var
    return total


class TestExactEvidence:
    def test_sds_kalman_log_evidence_exact(self):
        data = kalman_data(25, seed=3)
        engine = infer(KalmanModel(), n_particles=1, method="sds", seed=0)
        state = engine.init()
        log = DiagnosticsLog()
        for obs in data.observations:
            _, state = engine.step(state, obs)
            log.record(engine.last_stats)
        exact = kalman_log_marginal(data.observations)
        assert log.total_log_evidence == pytest.approx(exact, rel=1e-9)

    def test_sds_coin_log_evidence_exact(self):
        data = coin_data(30, seed=4)
        engine = infer(CoinModel(), n_particles=1, method="sds", seed=0)
        state = engine.init()
        log = DiagnosticsLog()
        alpha, beta = 1.0, 1.0
        exact = 0.0
        for obs in data.observations:
            predictive = alpha / (alpha + beta)
            exact += math.log(predictive if obs else 1.0 - predictive)
            alpha, beta = (alpha + 1, beta) if obs else (alpha, beta + 1)
            _, state = engine.step(state, obs)
            log.record(engine.last_stats)
        assert log.total_log_evidence == pytest.approx(exact, rel=1e-9)

    def test_pf_evidence_consistent_with_exact(self):
        """PF's evidence estimate is unbiased: many particles get close."""
        data = kalman_data(15, seed=6)
        exact = kalman_log_marginal(data.observations)
        estimates = []
        for seed in range(5):
            engine = infer(KalmanModel(), n_particles=500, method="pf", seed=seed)
            state = engine.init()
            log = DiagnosticsLog()
            for obs in data.observations:
                _, state = engine.step(state, obs)
                log.record(engine.last_stats)
            estimates.append(log.total_log_evidence)
        assert np.median(estimates) == pytest.approx(exact, abs=1.0)


class TestLivePopulationSize:
    def test_stats_stamp_live_weight_count(self):
        """StepStats carries the live weight-vector length, not the
        engine's configured particle count, so ESS fractions stay
        correct for engines whose population size varies."""
        engine = infer(KalmanModel(), n_particles=10, method="pf", seed=0)
        engine._weigh(np.zeros(4), np.zeros(4))
        assert engine.last_stats.n_particles == 4
        assert engine.last_stats.ess_fraction == pytest.approx(1.0)

    def test_engine_step_stamps_population_size(self):
        engine = infer(KalmanModel(), n_particles=7, method="pf", seed=0)
        _, _ = engine.step(engine.init(), 0.5)
        assert engine.last_stats.n_particles == 7


class TestEssTracking:
    def test_sds_single_particle_full_ess(self):
        data = kalman_data(5, seed=1)
        engine = infer(KalmanModel(), n_particles=1, method="sds", seed=0)
        state = engine.init()
        for obs in data.observations:
            _, state = engine.step(state, obs)
            assert engine.last_stats.ess == pytest.approx(1.0)

    def test_pf_ess_between_one_and_n(self):
        data = kalman_data(10, seed=2)
        engine = infer(KalmanModel(), n_particles=20, method="pf", seed=0)
        state = engine.init()
        for obs in data.observations:
            _, state = engine.step(state, obs)
            assert 1.0 <= engine.last_stats.ess <= 20.0


def two_pass_evidence(prev_log_weights, step_log_weights):
    """The step evidence as computed before the weight pipeline was fused:
    normalize the previous log-weights on their own, then take
    ``log sum_i prev_w_i * exp(step_logw_i)``."""
    prev_w = normalize_log_weights(prev_log_weights)
    with np.errstate(divide="ignore"):
        combined = np.log(prev_w) + np.asarray(step_log_weights, dtype=float)
    top = combined.max()
    if np.isneginf(top) or np.isnan(top):
        return -math.inf
    return float(top + np.log(np.sum(np.exp(combined - top))))


def previous_log_weights(kind, data, n):
    if kind == "zero":  # the population after a resample
        return np.zeros(n)
    prev = data.normal(scale=2.0, size=n)
    if kind == "partly -inf":
        prev[data.random(n) < 0.4] = -np.inf
        prev[0] = 0.0
    return prev


class TestWeightPipeline:
    """One normalization per step: its log normalizer gives the evidence,
    its weights the ESS, and the ESS is computed once."""

    @pytest.mark.parametrize("kind", ["zero", "non-uniform", "partly -inf"])
    @pytest.mark.parametrize("seed", range(10))
    def test_fused_evidence_matches_two_pass(self, kind, seed):
        data = np.random.default_rng(seed)
        n = int(data.integers(1, 500))
        prev = previous_log_weights(kind, data, n)
        # Gaussian log-likelihoods: the evidence stays well away from 0.
        step = -0.5 * data.normal(scale=3.0, size=n) ** 2 - 1.0
        engine = infer(KalmanModel(), n_particles=n, method="pf", seed=0)
        log_weights, weights = engine._weigh(prev, step)
        assert engine.last_stats.log_evidence == pytest.approx(
            two_pass_evidence(prev, step), rel=1e-12
        )
        np.testing.assert_array_equal(log_weights, prev + step)
        np.testing.assert_array_equal(weights, normalize_log_weights(prev + step))

    def test_all_neg_inf_previous_gives_neg_inf(self):
        """No particle keeps any weight: the normalized weights are the
        uniform fallback and carry no evidence (the two-pass formula
        normalized the previous weights to uniform and reported the
        step's mean likelihood instead)."""
        engine = infer(KalmanModel(), n_particles=5, method="pf", seed=0)
        _, weights = engine._weigh(np.full(5, -np.inf), np.zeros(5))
        assert engine.last_stats.log_evidence == -math.inf
        np.testing.assert_array_equal(weights, np.full(5, 0.2))

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_one_normalization_and_one_ess_per_step(self, backend, monkeypatch):
        calls = Counter()
        for name in ("normalize_log_weights", "ess"):
            original = getattr(engine_module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(engine_module, name, counted)
        engine = infer(
            KalmanModel(), n_particles=50, method="pf", backend=backend,
            seed=0, resample_threshold=0.5,
        )
        state = engine.init()
        for obs in kalman_data(8, seed=3).observations:
            _, state = engine.step(state, obs)
        assert calls == {"normalize_log_weights": 8, "ess": 8}


class TestNanLogWeight:
    def test_nan_particle_costs_its_weight_not_the_evidence(self):
        """Regression: a NaN step log-weight zeroed that particle's weight
        but made the step evidence -inf, pinning the run's total there."""
        engine = infer(
            KalmanModel(), n_particles=4, method="pf", seed=0, diagnostics=True
        )
        step = np.array([-1.0, np.nan, -2.0, -1.5])
        with pytest.warns(RuntimeWarning, match="NaN log-weight"):
            _, weights = engine._weigh(np.zeros(4), step)
        np.testing.assert_allclose(weights, [0.506, 0.0, 0.186, 0.307], atol=1e-3)
        assert engine.last_stats.ess == pytest.approx(2.59, abs=0.01)
        expected = math.log((math.exp(-1.0) + math.exp(-2.0) + math.exp(-1.5)) / 4)
        assert engine.last_stats.log_evidence == pytest.approx(expected)
        assert expected == pytest.approx(-1.706, abs=1e-3)
        assert engine.diagnostics.total_log_evidence == pytest.approx(expected)
