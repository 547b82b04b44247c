"""The PR-8 conjugacy families and the per-slot degradation ladder.

Three layers of checks:

* scalar-vs-vectorized posterior equivalence for the Gamma-Poisson and
  Dirichlet-Categorical families at a fixed seed (the sds conjugate
  updates are deterministic, so the match is tight);
* executor bit-identity for the count model: serial / threads /
  processes / processes-persistent reproduce the same posterior stream
  bit for bit;
* the realize-and-continue regression: a model that goes non-conjugate
  on ONE slot at step k realizes only that slot (node-state array
  inspection + ``repro_slot_realizations_total``), keeps the other
  slots symbolic, never migrates to ``ScalarFallbackState``, and stays
  accurate (MSE harness).
"""

import warnings

import numpy as np
import pytest

from repro.bench.data import categorical_data, count_data
from repro.bench.models import DirichletCategoricalModel, PoissonCountModel
from repro.inference import infer
from repro.lang import gamma, poisson
from repro.obs.registry import default_registry
from repro.runtime.node import ProbCtx, ProbNode
from repro.vectorized import (
    CountMixtureArray,
    DirichletMixtureArray,
    GammaMixtureArray,
    ScalarFallbackState,
    VectorizedGaussianChainSDS,
)
from repro.vectorized.sds_graph import MARGINALIZED, REALIZED

CDATA = count_data(25, seed=11)
DDATA = categorical_data(25, seed=11, alpha=(2.0, 1.0, 3.0))


def run_stream(engine, observations):
    state = engine.init()
    means = []
    for obs in observations:
        dist, state = engine.step(state, obs)
        mean = dist.mean() if callable(dist.mean) else dist.mean
        means.append(np.asarray(mean, dtype=float))
    if hasattr(state, "release"):
        state.release()
    return np.asarray(means), dist, state


def counter_value(name, labels=None):
    counter = default_registry().get(name, labels)
    return 0.0 if counter is None else counter.value


class TestGammaPoissonEquivalence:
    def test_sds_posterior_matches_scalar(self):
        scalar = infer(
            PoissonCountModel(), n_particles=32, method="sds", seed=4
        )
        batched = infer(
            PoissonCountModel(), n_particles=32, method="sds",
            backend="vectorized", seed=4,
        )
        assert isinstance(batched, VectorizedGaussianChainSDS)
        s_means, _, _ = run_stream(scalar, CDATA.observations)
        v_means, v_dist, _ = run_stream(batched, CDATA.observations)
        assert isinstance(v_dist, GammaMixtureArray)
        assert v_means == pytest.approx(s_means, rel=1e-10)

    def test_sds_posterior_is_exact_conjugate_update(self):
        """Every particle carries the same closed-form Gamma posterior:
        shape + sum(counts), rate + #observations."""
        model = PoissonCountModel(shape=2.0, rate=1.0)
        batched = infer(
            model, n_particles=8, method="sds", backend="vectorized", seed=0
        )
        _, dist, _ = run_stream(batched, CDATA.observations)
        total = sum(CDATA.observations)
        k = len(CDATA.observations)
        expected = (2.0 + total) / (1.0 + k)
        assert dist.mean() == pytest.approx(expected, rel=1e-12)

    def test_bds_particle_values_bitwise_identical(self):
        scalar = infer(PoissonCountModel(), n_particles=16, method="bds", seed=0)
        batched = infer(
            PoissonCountModel(), n_particles=16, method="bds",
            backend="vectorized", seed=0,
        )
        s_state, v_state = scalar.init(), batched.init()
        for y in CDATA.observations:
            s_dist, s_state = scalar.step(s_state, y)
            v_dist, v_state = batched.step(v_state, y)
            assert np.array_equal(
                np.asarray(s_dist.values, dtype=float), v_dist.values
            )


class TestDirichletCategoricalEquivalence:
    def test_sds_posterior_matches_scalar(self):
        model = DirichletCategoricalModel(alpha=(2.0, 1.0, 3.0))
        scalar = infer(model, n_particles=32, method="sds", seed=4)
        batched = infer(
            model, n_particles=32, method="sds", backend="vectorized", seed=4
        )
        assert isinstance(batched, VectorizedGaussianChainSDS)
        s_means, _, _ = run_stream(scalar, DDATA.observations)
        v_means, v_dist, _ = run_stream(batched, DDATA.observations)
        assert isinstance(v_dist, DirichletMixtureArray)
        assert v_means == pytest.approx(s_means, rel=1e-10)

    def test_sds_posterior_is_exact_conjugate_update(self):
        """The posterior concentration adds one pseudo-count per
        observed category."""
        alpha = np.array([2.0, 1.0, 3.0])
        model = DirichletCategoricalModel(alpha=tuple(alpha))
        batched = infer(
            model, n_particles=8, method="sds", backend="vectorized", seed=0
        )
        _, dist, _ = run_stream(batched, DDATA.observations)
        counts = np.bincount(DDATA.observations, minlength=3)
        post = alpha + counts
        assert dist.mean() == pytest.approx(post / post.sum(), rel=1e-12)


class TestCountExecutorBitIdentity:
    @pytest.mark.parametrize(
        "executor", ["serial", "threads:2", "processes-persistent:2"]
    )
    def test_count_sds_matches_serial_reference(self, executor):
        def run(executor_spec):
            engine = infer(
                PoissonCountModel(), n_particles=64, method="sds",
                backend="vectorized", seed=0, executor=executor_spec,
            )
            means, _, _ = run_stream(engine, CDATA.observations[:12])
            return means

        reference = run("serial")
        assert np.array_equal(reference, run(executor))


class OneBadSlotAtK(ProbNode):
    """Three persistent Gamma rate slots; slot 0 turns non-conjugate at
    step k (``poisson(2 * lam)`` has no conjugate edge), forcing the
    batched graph to realize that slot only."""

    def __init__(self, k: int = 3):
        self.k = k

    def init(self):
        return (0, None)

    def step(self, state, yobs, ctx: ProbCtx):
        t, lams = state
        if lams is None:
            lams = tuple(ctx.sample(gamma(2.0, 1.0)) for _ in range(3))
        for i, lam in enumerate(lams):
            if i == 0 and t >= self.k:
                ctx.observe(poisson(2.0 * lam), yobs[i])  # non-conjugate
            else:
                ctx.observe(poisson(lam), yobs[i])
        return lams[1], (t + 1, lams)


class TestRealizeAndContinueRegression:
    def _dataset(self, steps=8, seed=3):
        rng = np.random.default_rng(seed)
        lams = rng.gamma(2.0, 1.0, size=3)
        obs = [tuple(int(c) for c in rng.poisson(lams)) for _ in range(steps)]
        return lams, obs

    def test_one_bad_slot_keeps_others_symbolic(self):
        truths, obs = self._dataset()
        before = counter_value(
            "repro_slot_realizations_total", {"family": "gamma"}
        )
        engine = VectorizedGaussianChainSDS(
            OneBadSlotAtK(3), mode="sds", n_particles=64, seed=0
        )
        state = engine.init()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for y in obs:
                dist, state = engine.step(state, y)
        # never migrated: the stream stayed on the batched graph
        assert not isinstance(state, ScalarFallbackState)
        assert engine._scalar_engine is None
        # exactly one realization: slot 0 at step k; once realized, the
        # later non-conjugate steps reuse the concrete rows
        after = counter_value(
            "repro_slot_realizations_total", {"family": "gamma"}
        )
        assert after - before == 1.0
        # node-state array inspection: slot 0 realized, slots 1-2 still
        # symbolic (marginalized) with their exact conjugate posteriors
        chain = state.state
        _, lams = chain.model_state
        states = [chain.graph.node_state[lam.node.slot] for lam in lams]
        assert states[0] == REALIZED
        assert states[1] == MARGINALIZED and states[2] == MARGINALIZED
        # the output (slot 1) posterior is still the exact closed form
        total = sum(y[1] for y in obs)
        expected = (2.0 + total) / (1.0 + len(obs))
        assert dist.mean() == pytest.approx(expected, rel=1e-12)
        # accuracy: posterior mean near the generating rate (MSE harness)
        assert (dist.mean() - truths[1]) ** 2 < 1.0

    def test_scalar_fallback_counter_untouched(self):
        _, obs = self._dataset()
        engine = VectorizedGaussianChainSDS(
            OneBadSlotAtK(2), mode="sds", n_particles=16, seed=1
        )
        state = engine.init()
        for y in obs:
            _, state = engine.step(state, y)
        snapshot = default_registry().snapshot()
        assert not any(
            name.startswith("repro_scalar_fallback_total")
            and "OneBadSlotAtK" in name
            for name in snapshot["counters"]
        )


class TestMixtureArrays:
    def test_gamma_mixture_moments_and_log_pdf(self):
        import math

        shapes = np.array([2.0, 3.0])
        rates = np.array([1.0, 2.0])
        mix = GammaMixtureArray(shapes, rates)
        assert mix.mean() == pytest.approx(0.5 * 2.0 + 0.5 * 1.5)
        x = 1.7

        def gamma_pdf(x, a, b):
            return math.exp(
                a * math.log(b)
                - math.lgamma(a)
                + (a - 1.0) * math.log(x)
                - b * x
            )

        expected = 0.5 * gamma_pdf(x, 2.0, 1.0) + 0.5 * gamma_pdf(x, 3.0, 2.0)
        assert mix.log_pdf(x) == pytest.approx(math.log(expected), rel=1e-12)

    def test_count_mixture_poisson_vs_nb(self):
        pois = CountMixtureArray(np.array([2.0, 4.0]))
        assert pois.mean() == pytest.approx(3.0)
        nb = CountMixtureArray(np.array([2.0, 4.0]), np.array([1.0, 2.0]))
        assert nb.mean() == pytest.approx(0.5 * 2.0 + 0.5 * 2.0)

    def test_dirichlet_mixture_mean_on_simplex(self):
        alphas = np.array([[1.0, 2.0, 3.0], [2.0, 2.0, 2.0]])
        mix = DirichletMixtureArray(alphas)
        mean = np.asarray(mix.mean(), dtype=float)
        assert mean.shape == (3,)
        assert mean.sum() == pytest.approx(1.0)

    def test_nan_weights_zeroed(self):
        shapes = np.array([2.0, 3.0])
        rates = np.array([1.0, 1.0])
        with pytest.warns(RuntimeWarning, match="NaN"):
            mix = GammaMixtureArray(
                shapes, rates, weights=np.array([1.0, np.nan])
            )
        assert mix.mean() == pytest.approx(2.0)
