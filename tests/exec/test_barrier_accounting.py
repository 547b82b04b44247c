"""What the resample barrier must still count once its reductions run in workers.

Shards reduce their own log-weights, possibly in another process whose
metrics registry nobody reads, so NaN log-weights are counted and warned
about by the coordinator from the counts the shards report. And a failed
checkpoint pull after a committed step is counted, not swallowed.
"""

import warnings

import numpy as np
import pytest

from repro.bench import KalmanModel
from repro.errors import InferenceError
from repro.exec import PersistentProcessExecutor, shutdown_executors
from repro.faults import FaultPlan, fault_plan
from repro.inference import infer
from repro.lang import gaussian
from repro.obs.registry import MetricsRegistry, set_default_registry
from repro.runtime.node import ProbCtx, ProbNode
from repro.vectorized.engine import VectorizedParticleFilter
from repro.vectorized.models import VectorizedModel

#: 13 particles in 4 shards: sizes 4, 3, 3, 3 — shard 0 is the only one
#: of four particles.
N_PARTICLES = 13
OBS = (0.4, -0.2, 1.1, 0.7)


class NanScalarModel(ProbNode):
    """A Gaussian walk whose particles 0 and 2 (both in shard 0) score
    NaN at the first step. Particles take their id from the order the
    engine initializes them in."""

    def __init__(self):
        self.next_id = 0

    def init(self):
        pid, self.next_id = self.next_id, self.next_id + 1
        return (pid, 0.0, 0)

    def step(self, state, y, ctx: ProbCtx):
        pid, x, t = state
        x = ctx.sample(gaussian(x, 1.0))
        ctx.observe(gaussian(x, 1.0), y)
        if t == 0 and pid in (0, 2):
            ctx.factor(float("nan"))
        return x, (pid, x, t + 1)


class NanBatchModel(VectorizedModel):
    """The batched counterpart: rows 0 and 2 of the only four-particle
    shard score NaN at the first step."""

    def init_batch(self, n, rng):
        flagged = np.zeros(n)
        if n == 4:
            flagged[[0, 2]] = 1.0
        return (flagged, np.zeros(n), np.zeros(n))

    def step_batch(self, state, y, n, rng):
        flagged, x, t = state
        x = x + rng.normal(size=n)
        logw = -0.5 * (float(y) - x) ** 2
        logw[(flagged == 1.0) & (t == 0)] = np.nan
        return x, (flagged, x, t + 1), logw


def _run(substrate, executor):
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        if substrate == "scalar":
            engine = infer(
                NanScalarModel(), n_particles=N_PARTICLES, method="pf",
                backend="scalar", seed=5, executor=executor, n_shards=4,
            )
        else:
            engine = VectorizedParticleFilter(
                NanBatchModel(), n_particles=N_PARTICLES, seed=5,
                executor=executor, n_shards=4,
            )
        state = engine.init()
        means = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for y in OBS:
                dist, state = engine.step(state, y)
                means.append(float(dist.mean()))
        if hasattr(state, "release"):
            state.release()
        nan_warnings = [w for w in caught if "NaN log-weight" in str(w.message)]
        counter = registry.snapshot()["counters"].get(
            "repro_nan_log_weights_total", 0.0
        )
        return means, counter, len(nan_warnings)
    finally:
        set_default_registry(previous)


@pytest.mark.parametrize("substrate", ["scalar", "vectorized"])
def test_nan_accounting_is_the_same_on_every_executor(substrate):
    serial = _run(substrate, "serial")
    try:
        threads = _run(substrate, "threads:2")
        resident = _run(substrate, "processes-persistent:2")
    finally:
        shutdown_executors()
    means, counter, n_warnings = serial
    assert counter == 2.0
    assert n_warnings == 1
    assert np.all(np.isfinite(means))
    assert threads == serial
    assert resident == serial


def test_failed_checkpoint_pull_is_counted_and_the_stream_continues(monkeypatch):
    def run(executor):
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            engine = infer(
                KalmanModel(), n_particles=12, method="pf",
                backend="vectorized", seed=3, executor=executor,
            )
            state = engine.init()
            means, oplog_lengths = [], []
            for y in OBS:
                dist, state = engine.step(state, y)
                means.append(float(dist.mean()))
                if executor != "serial":
                    oplogs = executor._populations[state.key].oplogs
                    oplog_lengths.append(len(oplogs[0]))
            counter = registry.snapshot()["counters"].get(
                "repro_checkpoint_failures_total", 0.0
            )
            if hasattr(state, "release"):
                state.release()
            return means, counter, oplog_lengths
        finally:
            set_default_registry(previous)

    original = PersistentProcessExecutor.pull_population
    failures = []

    def pull_once_failing(self, key):
        if not failures:
            failures.append(key)
            raise InferenceError("injected checkpoint pull failure")
        return original(self, key)

    serial, _, _ = run("serial")
    # Crash recovery would add its own oplog replays: run without faults.
    with fault_plan(FaultPlan()):
        executor = PersistentProcessExecutor(workers=2, checkpoint_every=2)
        monkeypatch.setattr(
            PersistentProcessExecutor, "pull_population", pull_once_failing
        )
        try:
            means, counter, oplog_lengths = run(executor)
        finally:
            executor.close()
    assert counter == 1.0
    assert means == serial
    # Step 2's refresh failed: its oplog (two steps, two barriers) is
    # kept; step 4's refresh succeeded and cleared it.
    assert oplog_lengths == [2, 4, 6, 0]
