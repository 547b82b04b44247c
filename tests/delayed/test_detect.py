"""The DS structure detector, including its linear-Gaussian chain view."""

import pytest

from repro.bench.models import (
    CoinModel,
    HmmModel,
    KalmanModel,
    OutlierModel,
    WalkModel,
)
from repro.bench.robot import RobotModel
from repro.delayed.detect import (
    BATCHABLE_FAMILIES,
    GAUSSIAN_FAMILIES,
    probe_ds_structure,
)


class TestChainModels:
    def test_kalman_is_a_chain(self):
        report = probe_ds_structure(KalmanModel(), [0.5, -0.2, 1.1])
        assert report.is_chain
        assert report.families == frozenset({"gaussian"})
        assert report.forced == 0
        assert report.steps == 3

    def test_hmm_is_a_chain(self):
        assert probe_ds_structure(HmmModel(), [0.1, 0.2]).is_chain

    def test_robot_is_a_chain_with_and_without_gps(self):
        report = probe_ds_structure(
            RobotModel(), [(0.0, 0.0, 0.0), (0.1, None, 0.0)]
        )
        assert report.is_chain
        assert report.families == frozenset({"gaussian", "mv_gaussian"})


class TestNonChainModels:
    def test_coin_rejected_by_family(self):
        report = probe_ds_structure(CoinModel(), [True, False])
        assert not report.is_chain
        assert {"beta", "bernoulli"} & report.families

    def test_outlier_rejected(self):
        """Beta/Bernoulli families *and* a forced indicator realization."""
        report = probe_ds_structure(OutlierModel(), [0.5, 0.7])
        assert not report.is_chain
        assert not report.families <= GAUSSIAN_FAMILIES
        assert report.forced > 0

    def test_walk_is_gaussian_but_forced_forcing_matters(self):
        """The unobserved walk stays Gaussian and unforced: it IS a chain.

        (It is still not *registered* for vectorization — registration is
        a separate, explicit step — but the detector's verdict is about
        structure, and the walk's structure is a chain.)
        """
        report = probe_ds_structure(WalkModel(), [None, None])
        assert report.is_chain

    def test_empty_probe_rejected(self):
        report = probe_ds_structure(KalmanModel(), [])
        assert not report.is_chain
        assert "no probe inputs" in report.reason


class TestDSStructureProbe:
    """The generic detector behind the batched DS graph (PR 5)."""

    def test_kalman_is_batchable_chain(self):
        report = probe_ds_structure(KalmanModel(), [0.5, -0.2, 1.1])
        assert report.is_batchable
        assert report.is_chain  # linear-Gaussian chain view
        assert report.shape == "chain"
        assert report.families == frozenset({"gaussian"})

    def test_robot_is_batchable(self):
        report = probe_ds_structure(
            RobotModel(), [(0.0, 0.0, 0.0), (0.1, None, 0.0)]
        )
        assert report.is_batchable and report.shape == "chain"

    def test_coin_is_batchable_beyond_gaussian(self):
        """Beta/Bernoulli families are inside the batched fragment now."""
        report = probe_ds_structure(CoinModel(), [True, False])
        assert report.is_batchable
        assert not report.is_chain  # not a *Gaussian* chain
        assert report.families <= BATCHABLE_FAMILIES
        assert "beta" in report.families

    def test_raw_outlier_rejected_by_batched_smoke(self):
        """The raw Outlier model branches Python control flow on the
        forced per-particle indicator — the batched smoke run is what
        catches it (families and conjugacies alone look fine)."""
        report = probe_ds_structure(OutlierModel(), [0.5, 0.7])
        assert not report.is_batchable
        assert report.shape == "tree"
        assert report.forced > 0
        assert "batched probe" in report.reason

    def test_outlier_adapter_is_batchable_tree(self):
        from repro.vectorized import GraphOutlierModel

        adapter = GraphOutlierModel(OutlierModel())
        report = probe_ds_structure(adapter, [0.5, 0.7])
        assert report.is_batchable
        assert report.shape == "tree"
        assert report.forced > 0
        assert {"gaussian", "beta", "bernoulli"} <= report.families

    def test_gamma_poisson_family_batchable(self):
        """Gamma-Poisson count models are first-class batched slots now."""
        from repro.lang import gamma, poisson
        from repro.runtime.node import ProbNode

        class GammaPoissonModel(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx):
                lam = ctx.sample(gamma(2.0, 1.0)) if state is None else state
                ctx.observe(poisson(lam), yobs)
                return lam, lam

        report = probe_ds_structure(GammaPoissonModel(), [1, 2])
        assert report.is_batchable
        assert {"gamma", "poisson"} <= report.families

    def test_unsupported_family_rejected(self):
        """Families without SoA kernels (opaque roots) are still rejected."""
        from repro.lang import exponential, gaussian
        from repro.runtime.node import ProbNode

        class ExponentialModel(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx):
                rate = ctx.sample(exponential(1.0)) if state is None else state
                ctx.observe(gaussian(ctx.value(rate), 1.0), yobs)
                return rate, rate

        report = probe_ds_structure(ExponentialModel(), [0.5, 0.7])
        assert not report.is_batchable

    def test_empty_probe_rejected(self):
        assert not probe_ds_structure(KalmanModel(), []).is_batchable


class TestRobustness:
    def test_model_raising_is_rejected_not_propagated(self):
        class Broken(KalmanModel):
            def step(self, state, yobs, ctx):
                raise ValueError("boom")

        report = probe_ds_structure(Broken(), [0.5])
        assert not report.is_batchable
        assert "ValueError" in report.reason

    def test_registration_wiring(self):
        """The bench layer registered its models with the backend."""
        from repro.vectorized.engine import (
            VectorizedBetaBernoulliSDS,
            VectorizedKalmanSDS,
        )
        from repro.vectorized.models import MODEL_REGISTRY

        for cls in (KalmanModel, HmmModel, RobotModel, OutlierModel, CoinModel):
            assert MODEL_REGISTRY[cls].graph is not None
        # The graph engine claims robot and Outlier sds; the closed forms
        # keep Kalman/HMM and Coin sds.
        assert MODEL_REGISTRY[RobotModel].sds is None
        assert MODEL_REGISTRY[OutlierModel].sds is None
        assert MODEL_REGISTRY[KalmanModel].sds is VectorizedKalmanSDS
        assert MODEL_REGISTRY[HmmModel].sds is VectorizedKalmanSDS
        assert MODEL_REGISTRY[CoinModel].sds is VectorizedBetaBernoulliSDS
