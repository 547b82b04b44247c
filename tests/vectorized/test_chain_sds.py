"""The array-native delayed-sampling runtime (BatchedDSGraph).

Three layers of checks:

* graph-level unit tests of the SoA slot machinery (assume / graft /
  marginalize / deferred conditioning / realize / sweep),
* posterior equivalence of ``bds@vectorized`` / ``sds@vectorized``
  against the scalar delayed samplers at a fixed seed on the Kalman,
  HMM, and robot models — means, variances, per-particle values, and
  resampling ancestry,
* structure rejection: non-chain models raise ``ChainStructureError``
  instead of computing something silently different.
"""

import numpy as np
import pytest

from repro.bench import (
    HmmModel,
    KalmanModel,
    RobotModel,
    kalman_data,
    robot_data,
)
from repro.dists import Gaussian, MvGaussian
from repro.errors import GraphError
from repro.inference import infer
from repro.inference.engine import BoundedDelayedSampler, StreamingDelayedSampler
from repro.lang import bernoulli, beta, gaussian
from repro.runtime.node import ProbCtx, ProbNode
from repro.vectorized import (
    BatchedDelayedCtx,
    BatchedDSGraph,
    ChainStructureError,
    GaussianMixtureArray,
    MvGaussianMixtureArray,
    VectorizedGaussianChainSDS,
)
from repro.vectorized.sds_graph import (
    FREE,
    MARGINALIZED,
    REALIZED,
    ScalarAffineEdge,
)

KDATA = kalman_data(18, seed=42, prior_var=1.0, motion_var=1.0, obs_var=1.0)
RDATA = robot_data(14, seed=3)


def run_stream(model, data, method, backend, n=10, seed=0, **kwargs):
    engine = infer(
        model, n_particles=n, method=method, backend=backend, seed=seed, **kwargs
    )
    state = engine.init()
    means, variances = [], []
    for obs in data.observations:
        dist, state = engine.step(state, obs)
        means.append(dist.mean())
        variances.append(dist.variance())
    return engine, np.asarray(means), np.asarray(variances), dist, state


# ----------------------------------------------------------------------
# graph-level unit tests
# ----------------------------------------------------------------------
class TestBatchedGraph:
    def test_root_broadcasts_shared_marginal(self):
        graph = BatchedDSGraph(4)
        node = graph.assume_root_dist(Gaussian(2.0, 3.0))
        mean, var = graph.posterior_marginal(node.slot)
        assert mean.tolist() == [2.0] * 4
        assert var == 3.0
        assert graph.node_state[node.slot] == MARGINALIZED

    def test_observe_conditions_all_particles(self):
        graph = BatchedDSGraph(3)
        parent = graph.assume_root_dist(Gaussian(0.0, 1.0))
        child = graph.assume_conditional(
            ScalarAffineEdge(1.0, 0.0, 1.0), parent
        )
        logw = graph.observe(child, 1.0)
        assert logw.shape == (3,)
        # deferred conditioning: the parent folds when next queried
        mean, var = graph.posterior_marginal(parent.slot)
        exact = Gaussian(0.0, 1.0).posterior_given_obs(1.0, 1.0)
        assert mean == pytest.approx([exact.mu] * 3)
        assert var == pytest.approx(exact.var)

    def test_observe_weight_matches_predictive_density(self):
        graph = BatchedDSGraph(2)
        parent = graph.assume_root_dist(Gaussian(0.0, 1.0))
        child = graph.assume_conditional(
            ScalarAffineEdge(1.0, 0.0, 0.5), parent
        )
        logw = graph.observe(child, 0.7)
        assert logw == pytest.approx([Gaussian(0.0, 1.5).log_pdf(0.7)] * 2)

    def test_value_samples_posterior_batched(self):
        graph = BatchedDSGraph(1000)
        graph.rng = np.random.default_rng(0)
        node = graph.assume_root_dist(Gaussian(5.0, 0.01))
        drawn = graph.value(node)
        assert drawn.shape == (1000,)
        assert graph.node_state[node.slot] == REALIZED
        assert abs(float(drawn.mean()) - 5.0) < 0.05
        # idempotent: a second value() returns the same realization
        assert np.array_equal(graph.value(node), drawn)

    def test_sweep_frees_unreachable_slots(self):
        graph = BatchedDSGraph(2)
        old = graph.assume_root_dist(Gaussian(0.0, 1.0))
        new = graph.assume_conditional(ScalarAffineEdge(1.0, 0.0, 1.0), old)
        graph.graft(new.slot)
        # only the new node is referenced by the program now
        freed = graph.sweep([new.slot])
        assert freed == 1
        assert graph.node_state[old.slot] == FREE
        assert graph.node_state[new.slot] == MARGINALIZED

    def test_freed_slots_are_recycled(self):
        graph = BatchedDSGraph(2)
        node = graph.assume_root_dist(Gaussian(0.0, 1.0))
        slot = node.slot
        graph.sweep([])
        again = graph.assume_root_dist(Gaussian(1.0, 1.0))
        assert again.slot == slot  # free list reuses the slot

    def test_realize_with_marginal_child_rejected(self):
        graph = BatchedDSGraph(2)
        parent = graph.assume_root_dist(Gaussian(0.0, 1.0))
        child = graph.assume_conditional(ScalarAffineEdge(1.0, 0.0, 1.0), parent)
        graph.graft(child.slot)  # parent now has a live marginal child
        with pytest.raises(GraphError):
            graph.realize(parent.slot, np.zeros(2))

    def test_mv_chain_shared_covariance(self):
        graph = BatchedDSGraph(5)
        node = graph.assume_root_dist(MvGaussian([0.0, 1.0], np.eye(2)))
        mean, cov = graph.posterior_marginal(node.slot)
        assert mean.shape == (5, 2)
        assert cov.shape == (2, 2)  # one covariance for the population


class TestStructureRejection:
    def test_unregistered_root_rejected(self):
        """Families without SoA kernels still raise (Gamma/Poisson/
        Dirichlet/Categorical no longer do — they are first-class
        slots), and the error carries a bounded ``reason`` tag."""
        from repro.lang import gamma, inverse_gamma

        graph = BatchedDSGraph(2)
        ctx = BatchedDelayedCtx(graph)
        with pytest.raises(ChainStructureError) as excinfo:
            ctx.sample(inverse_gamma(2.0, 1.0))
        assert excinfo.value.reason == "unsupported-family"
        # Gamma roots are part of the fragment now.
        node = ctx.sample(gamma(1.0, 1.0))
        assert node.node.family == "gamma"

    def test_bernoulli_of_gaussian_realizes_and_continues(self):
        """Bernoulli is conjugate to Beta parents only: a Gaussian
        success probability realizes the parent and continues as a
        batched root instead of leaving the graph."""
        graph = BatchedDSGraph(2)
        graph.rng = np.random.default_rng(0)
        ctx = BatchedDelayedCtx(graph)
        x = ctx.sample(gaussian(0.5, 0.01))
        node = ctx.sample(bernoulli(x))
        assert node.node.family == "bernoulli"
        from repro.vectorized.sds_graph import REALIZED

        assert graph.node_state[x.node.slot] == REALIZED

    def test_nonaffine_mean_realizes_and_continues(self):
        """A quadratic mean breaks the dependency by realizing the
        parent (the scalar layer's dependency-breaking rule, batched)."""
        graph = BatchedDSGraph(2)
        graph.rng = np.random.default_rng(0)
        ctx = BatchedDelayedCtx(graph)
        x = ctx.sample(gaussian(0.0, 1.0))
        node = ctx.sample(gaussian(x * x, 1.0))
        from repro.vectorized.sds_graph import MARGINALIZED, REALIZED

        assert graph.node_state[x.node.slot] == REALIZED
        assert graph.node_state[node.node.slot] == MARGINALIZED
        mean, _ = graph.posterior_marginal(node.node.slot)
        assert np.allclose(mean, graph.value(x.node) ** 2)

    def test_engine_rejects_bad_mode(self):
        from repro.errors import InferenceError

        with pytest.raises(InferenceError):
            VectorizedGaussianChainSDS(KalmanModel(), mode="smc")


# ----------------------------------------------------------------------
# posterior equivalence vs the scalar engines, fixed seed
# ----------------------------------------------------------------------
class TestKalmanEquivalence:
    def test_bds_particle_values_bitwise_identical(self):
        """Same seed => the batched bds replays the scalar draws exactly."""
        scalar = infer(KalmanModel(), n_particles=8, method="bds", seed=0)
        batched = infer(
            KalmanModel(), n_particles=8, method="bds", backend="vectorized", seed=0
        )
        assert isinstance(scalar, BoundedDelayedSampler)
        assert isinstance(batched, VectorizedGaussianChainSDS)
        s_state, v_state = scalar.init(), batched.init()
        for y in KDATA.observations:
            s_dist, s_state = scalar.step(s_state, y)
            v_dist, v_state = batched.step(v_state, y)
            assert np.array_equal(
                np.asarray(s_dist.values, dtype=float), v_dist.values
            )
            assert np.array_equal(
                np.asarray(s_dist.weights, dtype=float), v_dist.weights
            )

    def test_bds_posterior_moments(self):
        _, sm, sv, _, _ = run_stream(KalmanModel(), KDATA, "bds", "scalar")
        _, vm, vv, _, _ = run_stream(KalmanModel(), KDATA, "bds", "vectorized")
        assert vm == pytest.approx(sm, rel=1e-12, abs=1e-12)
        assert vv == pytest.approx(sv, rel=1e-12, abs=1e-12)

    def test_sds_graph_engine_matches_scalar(self):
        """The graph engine run directly (bypassing the closed form)."""
        _, sm, sv, s_dist, _ = run_stream(KalmanModel(), KDATA, "sds", "scalar")
        engine = VectorizedGaussianChainSDS(
            KalmanModel(), mode="sds", n_particles=10, seed=0
        )
        state = engine.init()
        for y in KDATA.observations:
            dist, state = engine.step(state, y)
        assert isinstance(dist, GaussianMixtureArray)
        assert dist.mean() == pytest.approx(sm[-1], rel=1e-12)
        assert dist.variance() == pytest.approx(sv[-1], rel=1e-12)

    def test_resampling_ancestry_matches(self):
        """Forcing resampling every step keeps ancestry identical too:
        after many steps the surviving particle values coincide."""
        scalar = infer(
            KalmanModel(), n_particles=6, method="bds", seed=1,
            resample_threshold=1.1,  # ess is always below 1.1 * n
        )
        batched = infer(
            KalmanModel(), n_particles=6, method="bds", backend="vectorized",
            seed=1, resample_threshold=1.1,
        )
        s_state, v_state = scalar.init(), batched.init()
        for y in KDATA.observations:
            _, s_state = scalar.step(s_state, y)
            _, v_state = batched.step(v_state, y)
        scalar_values = np.asarray([p.state for p in s_state], dtype=float)
        assert np.array_equal(scalar_values, v_state.state.model_state)

    def test_evidence_matches_scalar(self):
        scalar, *_ = run_stream(KalmanModel(), KDATA, "bds", "scalar", n=7, seed=2)
        batched, *_ = run_stream(KalmanModel(), KDATA, "bds", "vectorized", n=7, seed=2)
        assert batched.last_stats.log_evidence == pytest.approx(
            scalar.last_stats.log_evidence, rel=1e-12
        )
        assert batched.last_stats.ess == pytest.approx(scalar.last_stats.ess)


class TestHmmEquivalence:
    def test_bds_moments(self):
        _, sm, sv, _, _ = run_stream(HmmModel(), KDATA, "bds", "scalar", seed=5)
        _, vm, vv, _, _ = run_stream(HmmModel(), KDATA, "bds", "vectorized", seed=5)
        assert vm == pytest.approx(sm, rel=1e-12, abs=1e-12)
        assert vv == pytest.approx(sv, rel=1e-12, abs=1e-12)

    def test_sds_moments(self):
        _, sm, sv, _, _ = run_stream(HmmModel(), KDATA, "sds", "scalar", seed=5)
        _, vm, vv, _, _ = run_stream(HmmModel(), KDATA, "sds", "vectorized", seed=5)
        assert vm == pytest.approx(sm, rel=1e-9)
        assert vv == pytest.approx(sv, rel=1e-9)


class TestRobotEquivalence:
    def test_sds_exact_match(self):
        """No randomness under SDS: the mv chain must agree to the ulp."""
        _, sm, sv, s_dist, _ = run_stream(RobotModel(), RDATA, "sds", "scalar", n=4)
        engine, vm, vv, v_dist, state = run_stream(
            RobotModel(), RDATA, "sds", "vectorized", n=4
        )
        assert isinstance(engine, VectorizedGaussianChainSDS)
        assert isinstance(v_dist, GaussianMixtureArray)
        assert vm == pytest.approx(sm, rel=1e-12, abs=1e-14)
        assert vv == pytest.approx(sv, rel=1e-12, abs=1e-14)

    def test_bds_moments(self):
        _, sm, sv, _, _ = run_stream(RobotModel(), RDATA, "bds", "scalar", n=6, seed=4)
        _, vm, vv, _, _ = run_stream(
            RobotModel(), RDATA, "bds", "vectorized", n=6, seed=4
        )
        assert vm == pytest.approx(sm, rel=1e-9, abs=1e-9)
        assert vv == pytest.approx(sv, rel=1e-9, abs=1e-9)

    def test_sds_memory_constant_over_time(self):
        engine = infer(
            RobotModel(), n_particles=8, method="sds", backend="vectorized", seed=0
        )
        data = robot_data(40, seed=9)
        state = engine.init()
        words = []
        for obs in data.observations:
            _, state = engine.step(state, obs)
            words.append(engine.memory_words(state))
        assert words[-1] == words[5]  # constant live words, no history
        assert len(state.state.graph.live_slots()) <= 3

    def test_full_state_output(self):
        """A model returning the whole vector yields an mv mixture."""

        class FullStateRobot(RobotModel):
            def step(self, state, inp, ctx):
                _, z = super().step(state, inp, ctx)
                return z, z

        engine = VectorizedGaussianChainSDS(
            FullStateRobot(), mode="sds", n_particles=3, seed=0
        )
        state = engine.init()
        dist, state = engine.step(state, (0.0, 0.0, 0.0))
        assert isinstance(dist, MvGaussianMixtureArray)
        assert dist.mean().shape == (3,)
        assert dist.variance().shape == (3, 3)


# ----------------------------------------------------------------------
# models beyond the benchmarks: a custom chain through the detector
# ----------------------------------------------------------------------
class ScaledChainModel(ProbNode):
    """x_t ~ N(0.9 * x_{t-1} + 0.5, 0.3), observed through N(2*x_t, 0.4)."""

    def init(self):
        return None

    def step(self, state, yobs, ctx: ProbCtx):
        if state is None:
            xt = ctx.sample(gaussian(0.0, 4.0))
        else:
            xt = ctx.sample(gaussian(0.9 * state + 0.5, 0.3))
        ctx.observe(gaussian(2.0 * xt, 0.4), yobs)
        return xt, xt


class TestCustomChain:
    def test_detected_and_equivalent(self):
        from repro.delayed.detect import probe_ds_structure
        from repro.vectorized import register_ds_graph_model
        from repro.vectorized.models import MODEL_REGISTRY

        report = probe_ds_structure(ScaledChainModel(), [0.1, 0.2])
        assert report.is_chain
        register_ds_graph_model(ScaledChainModel)
        try:
            data = [0.3, -0.1, 0.8, 0.2, 0.5]

            def run(backend, method):
                engine = infer(
                    ScaledChainModel(), n_particles=9, method=method,
                    backend=backend, seed=11,
                )
                state = engine.init()
                for y in data:
                    dist, state = engine.step(state, y)
                return dist.mean(), dist.variance()

            for method in ("bds", "sds"):
                sm, sv = run("scalar", method)
                vm, vv = run("vectorized", method)
                assert vm == pytest.approx(sm, rel=1e-10)
                assert vv == pytest.approx(sv, rel=1e-10)
        finally:
            MODEL_REGISTRY.pop(ScaledChainModel, None)

    def test_sds_fallback_for_unregistered(self):
        engine = infer(
            ScaledChainModel(), n_particles=4, method="sds", backend="vectorized"
        )
        assert isinstance(engine, StreamingDelayedSampler)


class TestChainStateRowOps:
    def test_shared_array_leaves_survive_slice_concat(self):
        """A fixed parameter vector in the state pytree must pass through
        the shard split/merge untouched — only per-particle leaves (the
        ones whose leading axis is the particle count) concatenate."""
        from repro.vectorized import ChainState

        per_particle = np.arange(4, dtype=float)
        shared = np.array([1.0, 2.0, 3.0])
        state = ChainState(None, (per_particle, shared), 4)
        left = state.batch_slice(0, 2)
        right = state.batch_slice(2, 4)
        merged = left.batch_concat([right])
        assert merged.n == 4
        assert np.array_equal(merged.model_state[0], per_particle)
        assert np.array_equal(merged.model_state[1], shared)

    def test_shared_array_leaves_survive_gather(self):
        from repro.vectorized import ChainState

        state = ChainState(None, (np.arange(4.0), np.array([9.0, 8.0, 7.0])), 4)
        gathered = state.batch_gather(np.array([3, 3, 0, 1]))
        assert np.array_equal(gathered.model_state[0], [3.0, 3.0, 0.0, 1.0])
        assert np.array_equal(gathered.model_state[1], [9.0, 8.0, 7.0])
