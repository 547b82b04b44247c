"""Engine construction, configuration, and streaming-node behaviour."""

import numpy as np
import pytest

from repro.bench.models import KalmanModel
from repro.dists import Empirical, Mixture
from repro.errors import InferenceError
from repro.inference import (
    ImportanceSampler,
    ParticleFilter,
    StreamingDelayedSampler,
    infer,
)
from repro.inference.infer import ENGINES
from repro.runtime.node import ProbNode


class TestInferFactory:
    def test_default_is_particle_filter(self):
        engine = infer(KalmanModel())
        assert isinstance(engine, ParticleFilter)

    def test_all_methods_constructible(self):
        for method in ("importance", "pf", "bds", "sds", "ds"):
            engine = infer(KalmanModel(), n_particles=2, method=method)
            assert engine.n_particles == 2

    def test_unknown_method_rejected(self):
        with pytest.raises(InferenceError):
            infer(KalmanModel(), method="gibbs")

    def test_method_aliases(self):
        assert ENGINES["particle_filter"] is ParticleFilter
        assert ENGINES["is"] is ImportanceSampler

    def test_zero_particles_rejected(self):
        with pytest.raises(InferenceError):
            infer(KalmanModel(), n_particles=0)

    def test_unknown_resampler_rejected(self):
        with pytest.raises(InferenceError):
            infer(KalmanModel(), resampler="bogus")


class TestEngineAsStreamNode:
    def test_step_returns_distribution_and_state(self):
        engine = infer(KalmanModel(), n_particles=4, method="pf", seed=0)
        state = engine.init()
        dist, state2 = engine.step(state, 1.0)
        assert isinstance(dist, Empirical)
        assert len(state2) == 4

    def test_sds_outputs_mixture(self):
        engine = infer(KalmanModel(), n_particles=4, method="sds", seed=0)
        state = engine.init()
        dist, _ = engine.step(state, 1.0)
        assert isinstance(dist, Mixture)

    def test_state_is_externalized(self):
        """Two interleaved executions from a shared prefix stay coherent."""
        engine = infer(KalmanModel(), n_particles=1, method="sds", seed=0)
        state = engine.init()
        dist_a, state_a = engine.step(state, 1.0)
        # branch: feed different observations to the same engine object
        dist_b1, _ = engine.step(state_a, 5.0)
        dist_b2, _ = engine.step(state_a, -5.0)
        assert dist_b1.mean() > dist_b2.mean()

    def test_seed_reproducibility(self):
        def run(seed):
            engine = infer(KalmanModel(), n_particles=10, method="pf", seed=seed)
            state = engine.init()
            means = []
            for obs in (0.5, 1.0, 1.5):
                dist, state = engine.step(state, obs)
                means.append(dist.mean())
            return means

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestResamplingConfig:
    def test_threshold_skips_resampling(self):
        # threshold 0: never resample (ESS is always > 0)
        engine = infer(
            KalmanModel(), n_particles=10, method="pf", seed=0,
            resample_threshold=0.0,
        )
        state = engine.init()
        for obs in (1.0, 2.0, 3.0):
            _, state = engine.step(state, obs)
        # without resampling, accumulated log-weights differ across particles
        weights = {round(p.log_weight, 6) for p in state}
        assert len(weights) > 1

    def test_always_resample_resets_weights(self):
        engine = infer(KalmanModel(), n_particles=10, method="pf", seed=0)
        state = engine.init()
        _, state = engine.step(state, 1.0)
        assert all(p.log_weight == 0.0 for p in state)

    @pytest.mark.parametrize("scheme", ["systematic", "stratified", "multinomial"])
    def test_all_resamplers_work(self, scheme):
        engine = infer(
            KalmanModel(), n_particles=8, method="pf", seed=0, resampler=scheme
        )
        state = engine.init()
        dist, _ = engine.step(state, 1.0)
        assert np.isfinite(dist.mean())


class TestSharedRng:
    def test_external_rng_accepted(self):
        rng = np.random.default_rng(0)
        engine = infer(KalmanModel(), n_particles=2, method="pf", rng=rng)
        assert engine.rng is rng


class TestWeightDegeneracy:
    def test_all_neg_inf_weights_fall_back_to_uniform(self):
        """Every particle scoring zero likelihood must not kill the stream."""
        from repro import FunProbNode, gaussian

        def doomed_step(state, inp, ctx):
            x = ctx.sample(gaussian(0.0, 1.0))
            ctx.factor(float("-inf"))
            return x, x

        engine = infer(FunProbNode(None, doomed_step), n_particles=5, method="pf", seed=0)
        dist, state = engine.step(engine.init(), None)
        assert np.allclose(dist.weights, 0.2)
        assert np.isfinite(dist.mean())
        assert engine.last_stats.log_evidence == -np.inf
        # and the run continues on the next step
        dist2, _ = engine.step(state, None)
        assert np.isfinite(dist2.mean())

    def test_high_ess_skips_resampling(self):
        """Equal weights give ESS = n, above any fractional threshold."""
        from repro import FunProbNode, gaussian

        def flat_step(state, inp, ctx):
            x = ctx.sample(gaussian(0.0, 1.0))
            ctx.factor(-1.0)  # identical weight for every particle
            return x, x

        engine = infer(
            FunProbNode(None, flat_step), n_particles=8, method="pf", seed=0,
            resample_threshold=0.5,
        )
        state = engine.init()
        for _ in range(3):
            _, state = engine.step(state, None)
        # never resampled: the per-step factors accumulated in the weights
        assert all(p.log_weight == pytest.approx(-3.0) for p in state)
        assert engine.last_stats.ess == pytest.approx(8.0)


class TestCloneOnResample:
    def test_invalid_value_rejected(self):
        with pytest.raises(InferenceError):
            infer(KalmanModel(), clone_on_resample="sometimes")

    @staticmethod
    def resample_onto_particle_1(clone_on_resample):
        """One unsharded step in which only particle 1 keeps any weight.

        The model passes its state through unchanged, so a survivor that
        was not cloned still holds particle 1's state object.
        """
        from repro.inference import Particle

        engine = infer(
            KeepStateScoreOne(), n_particles=4, method="pf", seed=0,
            clone_on_resample=clone_on_resample,
        )
        particles = [Particle(state=[float(i)], graph=None, log_weight=-1.0) for i in range(4)]
        _, resampled = engine.step(particles, None)
        return particles, resampled

    def test_duplicates_shares_first_occurrence(self):
        """The first pick of a particle reuses it; later picks are clones."""
        particles, resampled = self.resample_onto_particle_1("duplicates")
        assert sum(1 for p in resampled if p.state is particles[1].state) == 1
        clones = [p for p in resampled if p.state is not particles[1].state]
        assert len(clones) == 3
        for clone in clones:
            assert clone.state == [1.0]
            assert clone.state is not particles[1].state
        assert all(p.log_weight == 0.0 for p in resampled)

    def test_all_clones_every_selection(self):
        particles, resampled = self.resample_onto_particle_1("all")
        assert all(p.state is not particles[1].state for p in resampled)
        assert all(p.state == [1.0] for p in resampled)
        assert all(p.log_weight == 0.0 for p in resampled)


class KeepStateScoreOne(ProbNode):
    """Returns its state object as is; only the state ``[1.0]`` has weight."""

    def init(self):
        return [0.0]

    def step(self, state, inp, ctx):
        ctx.factor(0.0 if state == [1.0] else -np.inf)
        return state[0], state
