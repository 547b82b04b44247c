"""Analysis-first backend routing and registration verification."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.routing import (
    analysis_for,
    clear_analysis_cache,
    consult_for_backend,
)
from repro.bench.models import (
    KalmanModel,
    OutlierModel,
    WalkModel,
)
from repro.inference import infer
from repro.inference.engine import StreamingDelayedSampler
from repro.lang import gaussian
from repro.obs import metrics_snapshot
from repro.runtime.node import ProbCtx, ProbNode
from repro.vectorized import VectorizedGaussianChainSDS
from repro.vectorized.models import (
    MODEL_REGISTRY,
    GraphOutlierModel,
    register_ds_graph_model,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _lockstep_model_cls():
    spec = importlib.util.spec_from_file_location(
        "lockstep_model_fixture_routing", FIXTURES / "lockstep_model.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LockstepBranchModel


class FreshChainModel(ProbNode):
    """Conclusively batchable and bounded, never registered."""

    def init(self):
        return None

    def step(self, state, yobs, ctx: ProbCtx):
        if state is None:
            xt = ctx.sample(gaussian(0.0, 100.0))
        else:
            xt = ctx.sample(gaussian(0.8 * state, 1.0))
        ctx.observe(gaussian(xt, 1.0), yobs)
        return xt, xt


def _selections():
    return {
        k: v
        for k, v in metrics_snapshot()["counters"].items()
        if k.startswith("repro_engine_selected_total")
    }


class TestConsultForBackend:
    def test_chain_model_approved(self):
        analysis, decision = consult_for_backend(KalmanModel(), "sds")
        assert decision is True
        assert analysis.verdict == "batchable"

    def test_adapted_registration_judged_through_adapter(self):
        """The raw Outlier model is conclusively unbatchable, but its
        registration carries the GraphOutlierModel rewrite — routing
        must judge what the engine actually runs."""
        _, raw = consult_for_backend(OutlierModel(), "bds")
        assert raw is False
        analysis, decision = consult_for_backend(
            GraphOutlierModel(OutlierModel()), "bds"
        )
        assert decision is True
        assert analysis.batchable
        engine = infer(OutlierModel(), n_particles=4, method="bds", backend="auto")
        assert isinstance(engine, VectorizedGaussianChainSDS)
        assert isinstance(engine.model, GraphOutlierModel)

    def test_unbounded_model_gets_no_volunteer(self):
        analysis, decision = consult_for_backend(WalkModel(), "sds")
        assert decision is None
        assert analysis.verdict == "batchable_unbounded"

    def test_lockstep_violation_rejected(self):
        analysis, decision = consult_for_backend(_lockstep_model_cls()(), "sds")
        assert decision is False
        assert analysis.verdict == "unbatchable"

    def test_pf_is_a_registry_question(self):
        _, decision = consult_for_backend(KalmanModel(), "pf")
        assert decision is None

    def test_verdict_metric_recorded(self):
        def count():
            return sum(
                v
                for k, v in metrics_snapshot()["counters"].items()
                if k.startswith("repro_analysis_verdicts_total")
            )

        before = count()
        consult_for_backend(KalmanModel(), "sds")
        assert count() == before + 1


class TestAutoBackend:
    def test_unbatchable_model_goes_straight_to_scalar(self):
        engine = infer(
            _lockstep_model_cls()(), n_particles=4, method="sds", backend="auto"
        )
        assert isinstance(engine, StreamingDelayedSampler)

    def test_batchable_unregistered_model_gets_graph_engine(self):
        """Conclusively batchable + bounded but never registered: auto
        constructs the generic graph engine."""
        assert FreshChainModel not in MODEL_REGISTRY
        engine = infer(
            FreshChainModel(), n_particles=4, method="sds", backend="auto", seed=0
        )
        assert isinstance(engine, VectorizedGaussianChainSDS)
        dist, _ = engine.step(engine.init(), 0.5)
        assert np.isfinite(dist.mean())

    def test_vectorized_backend_unchanged_by_analysis(self):
        """backend="vectorized" keeps its registry-only contract: an
        unregistered model falls back to scalar, no auto-construction."""

        class UnregisteredChain(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx: ProbCtx):
                xt = ctx.sample(gaussian(0.0, 1.0))
                ctx.observe(gaussian(xt, 1.0), yobs)
                return xt, xt

        engine = infer(
            UnregisteredChain(), n_particles=4, method="sds", backend="vectorized"
        )
        assert isinstance(engine, StreamingDelayedSampler)


class TestEngineSelection:
    """One ``repro_engine_selected_total{engine,reason}`` per infer()."""

    @pytest.mark.parametrize(
        "make_model,method,backend,engine,reason",
        [
            (KalmanModel, "pf", "vectorized", "VectorizedParticleFilter", "registry"),
            (KalmanModel, "sds", "auto", "VectorizedKalmanSDS", "registry"),
            (FreshChainModel, "bds", "auto", "VectorizedGaussianChainSDS", "analysis"),
            (_lockstep_model_cls(), "sds", "auto", "StreamingDelayedSampler", "unbatchable"),
            (WalkModel, "pf", "auto", "ParticleFilter", "unregistered"),
            (KalmanModel, "ds", "vectorized", "OriginalDelayedSampler", "unregistered"),
        ],
    )
    def test_one_labelled_count_per_infer(self, make_model, method, backend, engine, reason):
        before = _selections()
        built = infer(make_model(), n_particles=4, method=method, backend=backend)
        after = _selections()
        assert type(built).__name__ == engine
        key = f'repro_engine_selected_total{{engine="{engine}",reason="{reason}"}}'
        assert after[key] == before.get(key, 0) + 1
        assert sum(after.values()) == sum(before.values()) + 1

    def test_scalar_backend_selects_nothing(self):
        before = _selections()
        infer(KalmanModel(), n_particles=4, method="pf", backend="scalar")
        assert _selections() == before

    def test_graph_construction_error_raises(self, monkeypatch):
        """A batchable but unregistered model whose graph engine cannot
        be built surfaces the error instead of silently running on the
        scalar engine."""
        import repro.vectorized.engine as vengine

        def broken_init(self, model, mode="sds", **kwargs):
            raise RuntimeError("graph engine construction failed")

        monkeypatch.setattr(vengine.VectorizedGaussianChainSDS, "__init__", broken_init)
        with pytest.raises(RuntimeError, match="construction failed"):
            infer(FreshChainModel(), n_particles=4, method="sds", backend="auto")


class TestAnalysisCache:
    def test_same_configuration_shares_analysis(self):
        clear_analysis_cache()
        a1 = analysis_for(KalmanModel())
        a2 = analysis_for(KalmanModel())
        assert a1 is a2

    def test_different_configuration_recomputed(self):
        clear_analysis_cache()
        a1 = analysis_for(KalmanModel())
        a2 = analysis_for(KalmanModel(prior_mean=5.0))
        assert a1 is not a2


class TestRegistrationVerification:
    def test_unbatchable_registration_warns_but_registers(self):
        cls = _lockstep_model_cls()
        try:
            with pytest.warns(RuntimeWarning, match="conclusively unbatchable"):
                register_ds_graph_model(cls)
            assert MODEL_REGISTRY[cls].graph is not None
        finally:
            MODEL_REGISTRY.pop(cls, None)

    def test_clean_registration_does_not_warn(self, recwarn):
        class CleanChain(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx: ProbCtx):
                xt = ctx.sample(gaussian(0.0, 1.0))
                ctx.observe(gaussian(xt, 1.0), yobs)
                return xt, xt

        try:
            register_ds_graph_model(CleanChain)
            assert not [w for w in recwarn if w.category is RuntimeWarning]
        finally:
            MODEL_REGISTRY.pop(CleanChain, None)

    def test_registration_is_atomic(self, monkeypatch):
        """A failure during registration leaves no registry entry."""
        import repro.vectorized.models as models_mod

        class DoomedModel(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx: ProbCtx):
                xt = ctx.sample(gaussian(0.0, 1.0))
                ctx.observe(gaussian(xt, 1.0), yobs)
                return xt, xt

        def boom(model_cls, wrap):
            raise RuntimeError("verification exploded")

        monkeypatch.setattr(models_mod, "_warn_if_unbatchable", boom)
        with pytest.raises(RuntimeError, match="verification exploded"):
            register_ds_graph_model(DoomedModel)
        assert DoomedModel not in MODEL_REGISTRY

    def test_adapter_recorded_for_routing(self):
        assert MODEL_REGISTRY[OutlierModel].graph is GraphOutlierModel


class TestProbeFailureAtomicity:
    """Satellite bugfix: probes report, they never raise — so a
    probe-then-register block cannot be aborted halfway."""

    def test_batched_probe_failure_is_structured(self):
        from repro.delayed.detect import probe_ds_structure

        class SecondInitRaises(ProbNode):
            """Scalar probe succeeds; the batched smoke run (which calls
            ``init`` a second time) dies with an exception outside the
            old catch list."""

            def __init__(self):
                self.inits = 0

            def init(self):
                self.inits += 1
                if self.inits > 1:
                    raise RuntimeError("persistent handle already consumed")
                return None

            def step(self, state, yobs, ctx: ProbCtx):
                # beta/bernoulli families force the batched smoke run
                from repro.lang import bernoulli, beta

                p = ctx.sample(beta(1.0, 1.0))
                ctx.observe(bernoulli(p), yobs)
                return p, None

        report = probe_ds_structure(SecondInitRaises(), [True, False])
        assert not report.is_batchable
        assert "stage=init" in report.reason
        assert "RuntimeError" in report.reason

    def test_batched_probe_step_failure_tags_the_step(self):
        from repro.delayed.detect import _run_batched_probe

        class StepRaises(ProbNode):
            def init(self):
                return None

            def step(self, state, yobs, ctx: ProbCtx):
                raise AttributeError("no such kernel")

        reason = _run_batched_probe(StepRaises(), [0.1, 0.2], seed=0, n=3)
        assert "stage=step index=0" in reason
        assert "AttributeError" in reason

    def test_scalar_probe_never_raises(self):
        from repro.delayed.detect import probe_ds_structure

        class InitRaises(ProbNode):
            def init(self):
                raise AttributeError("bad handle")

            def step(self, state, yobs, ctx: ProbCtx):
                return 0.0, None

        report = probe_ds_structure(InitRaises(), [0.1])
        assert not report.is_batchable
        assert "stage=init" in report.reason
