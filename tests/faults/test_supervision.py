"""Supervised persistent execution: deadlines, budgets, the ladder.

The acceptance contract of ISSUE 9: every injected failure mode —
crash, hang past the deadline, corrupted ring reply, crash loop — is
survived with a bit-identical posterior, and when the restart budget is
exhausted the engine degrades ``processes-persistent`` → ``serial``
while the stream keeps running.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.bench.models import HmmModel
from repro.errors import InferenceError
from repro.exec import (
    PersistentProcessExecutor,
    SerialExecutor,
    shutdown_executors,
)
from repro.exec.executor import _INSTANCES
from repro.exec.supervision import (
    RestartBudgetExhausted,
    env_checkpoint_every,
    env_restart_budget,
    env_step_timeout_s,
)
from repro.faults import FaultPlan, clear_fault_plan, fault_plan
from repro.inference import infer
from repro.vectorized.engine import VectorizedEngine

OBSERVATIONS = (0.5, 1.0, -0.3, 2.0, 0.8, -1.1)


def run_stream(executor, *, seed=3, n_particles=12, obs=OBSERVATIONS, **kwargs):
    engine = infer(
        HmmModel(), n_particles=n_particles, seed=seed, executor=executor,
        **kwargs,
    )
    state = engine.init()
    means = []
    for y in obs:
        dist, state = engine.step(state, y)
        means.append(dist.mean())
    return means, engine


def serial_baseline(**kwargs):
    # The "serial" spec (not executor=None) selects the sharded
    # population with the executor-independent substreams — the stream
    # every other executor must reproduce bit-for-bit.
    clear_fault_plan()
    means, _ = run_stream("serial", **kwargs)
    return means


class TestEnvKnobs:
    def test_step_timeout(self, monkeypatch):
        monkeypatch.delenv("REPRO_STEP_TIMEOUT_S", raising=False)
        assert env_step_timeout_s() is None
        monkeypatch.setenv("REPRO_STEP_TIMEOUT_S", "0")
        assert env_step_timeout_s() is None  # 0 means disabled
        monkeypatch.setenv("REPRO_STEP_TIMEOUT_S", "2.5")
        assert env_step_timeout_s() == 2.5
        monkeypatch.setenv("REPRO_STEP_TIMEOUT_S", "soon")
        with pytest.raises(InferenceError, match="REPRO_STEP_TIMEOUT_S"):
            env_step_timeout_s()
        monkeypatch.setenv("REPRO_STEP_TIMEOUT_S", "-1")
        with pytest.raises(InferenceError, match="REPRO_STEP_TIMEOUT_S"):
            env_step_timeout_s()

    def test_restart_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESTART_BUDGET", raising=False)
        assert env_restart_budget() == 3
        monkeypatch.setenv("REPRO_RESTART_BUDGET", "0")
        assert env_restart_budget() == 0
        monkeypatch.setenv("REPRO_RESTART_BUDGET", "-2")
        with pytest.raises(InferenceError, match="REPRO_RESTART_BUDGET"):
            env_restart_budget()

    def test_checkpoint_every(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT_EVERY", raising=False)
        assert env_checkpoint_every() == 8
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "4")
        assert env_checkpoint_every() == 4
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "0")
        with pytest.raises(InferenceError, match="REPRO_CHECKPOINT_EVERY"):
            env_checkpoint_every()

    def test_executor_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STEP_TIMEOUT_S", "1.5")
        monkeypatch.setenv("REPRO_RESTART_BUDGET", "5")
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "2")
        executor = PersistentProcessExecutor(workers=1)
        assert executor.step_timeout_s == 1.5
        assert executor.restart_budget == 5
        assert executor.checkpoint_every == 2

    def test_constructor_validation(self):
        with pytest.raises(InferenceError, match="step_timeout_s"):
            PersistentProcessExecutor(workers=1, step_timeout_s=0)
        with pytest.raises(InferenceError, match="restart_budget"):
            PersistentProcessExecutor(workers=1, restart_budget=-1)


class TestFaultRecovery:
    """Injected failures recover bit-identically under supervision."""

    def test_crash_fault_recovers_bit_identical(self, counters):
        serial = serial_baseline()
        before = counters("repro_worker_restarts_total", {"reason": "crash"})
        executor = PersistentProcessExecutor(workers=2, checkpoint_every=2)
        try:
            with fault_plan(FaultPlan().crash(0, 3)):
                means, _ = run_stream(executor)
        finally:
            executor.close()
        assert means == serial
        after = counters("repro_worker_restarts_total", {"reason": "crash"})
        assert after > before
        assert executor.restart_stats()["consecutive_failures"] == [0, 0]
        assert executor.restart_stats()["restarts_total"] >= 1

    def test_hang_fault_times_out_and_recovers(self, counters):
        """A hung worker is SIGKILLed at the deadline, then revived."""
        serial = serial_baseline()
        before = counters("repro_worker_timeouts_total")
        executor = PersistentProcessExecutor(
            workers=2, checkpoint_every=2, step_timeout_s=1.0
        )
        try:
            started = time.perf_counter()
            with fault_plan(FaultPlan().hang(1, 2, seconds=60.0)):
                means, _ = run_stream(executor)
            elapsed = time.perf_counter() - started
        finally:
            executor.close()
        assert means == serial
        assert elapsed < 30.0  # nowhere near the 60 s hang
        assert counters("repro_worker_timeouts_total") > before
        assert counters(
            "repro_worker_restarts_total", {"reason": "timeout"}
        ) >= 1

    def test_delay_below_deadline_does_not_restart(self):
        serial = serial_baseline()
        executor = PersistentProcessExecutor(
            workers=2, checkpoint_every=2, step_timeout_s=10.0
        )
        try:
            with fault_plan(FaultPlan().delay(0, 2, seconds=0.2)):
                means, _ = run_stream(executor)
            assert means == serial
            assert executor.restart_stats()["restarts_total"] == 0
        finally:
            executor.close()

    def test_ring_corruption_revives_and_recovers(self, counters):
        serial = serial_baseline()
        before = counters("repro_worker_restarts_total", {"reason": "ring"})
        executor = PersistentProcessExecutor(workers=2, checkpoint_every=2)
        try:
            with fault_plan(FaultPlan().corrupt_ring(0, 2)):
                means, _ = run_stream(executor)
        finally:
            executor.close()
        assert means == serial
        assert counters(
            "repro_worker_restarts_total", {"reason": "ring"}
        ) > before

    def test_crash_during_revival_replay_is_survived(self):
        """A gen-1 crash fires while the respawn replays the oplog."""
        serial = serial_baseline()
        executor = PersistentProcessExecutor(workers=2, checkpoint_every=100)
        try:
            with fault_plan(FaultPlan().crash(0, 3).crash(0, 1, gen=1)):
                means, _ = run_stream(executor)
        finally:
            executor.close()
        assert means == serial


class TestDegradationLadder:
    """Budget exhaustion walks persistent -> serial."""

    def test_crash_loop_degrades_to_serial(self, counters):
        serial = serial_baseline()
        labels = {"from": "processes-persistent", "to": "serial"}
        before = counters("repro_executor_degradations_total", labels)
        executor = PersistentProcessExecutor(
            workers=2, checkpoint_every=2, restart_budget=2,
            backoff_base_s=0.01,
        )
        try:
            plan = FaultPlan().crash(0, 3).fail_respawn(0, count=10)
            with fault_plan(plan):
                with pytest.warns(RuntimeWarning, match="restart budget") as record:
                    means, engine = run_stream(executor)
        finally:
            executor.close()
        assert means == serial
        assert isinstance(engine.executor, SerialExecutor)
        runtime_warnings = [
            w for w in record if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime_warnings) == 1
        assert counters("repro_executor_degradations_total", labels) == before + 1

    def test_vectorized_crash_loop_degrades_to_serial(self, counters):
        """The vectorized engine family takes the same single rung."""
        serial = serial_baseline(backend="vectorized")
        labels = {"from": "processes-persistent", "to": "serial"}
        before = counters("repro_executor_degradations_total", labels)
        executor = PersistentProcessExecutor(
            workers=2, checkpoint_every=2, restart_budget=1,
            backoff_base_s=0.01,
        )
        try:
            plan = FaultPlan().crash(1, 2).fail_respawn(1, count=10)
            with fault_plan(plan):
                with pytest.warns(RuntimeWarning, match="restart budget"):
                    means, engine = run_stream(executor, backend="vectorized")
        finally:
            executor.close()
        assert isinstance(engine, VectorizedEngine)
        assert means == serial
        assert isinstance(engine.executor, SerialExecutor)
        assert counters("repro_executor_degradations_total", labels) == before + 1

    def test_exhausted_budget_raises_for_direct_executor_users(self):
        """Callers driving the executor without an engine see the
        exception itself (no ladder above them to catch it)."""
        executor = PersistentProcessExecutor(
            workers=1, restart_budget=0, backoff_base_s=0.01
        )
        try:
            with fault_plan(FaultPlan().crash(0, 1)):
                engine = infer(
                    HmmModel(), n_particles=8, seed=0, executor=executor
                )
                state = engine.init()
                with pytest.raises(RestartBudgetExhausted):
                    executor.step_population(state.key, 0.5)
        finally:
            executor.close()

    def test_zero_budget_engine_degrades_on_first_failure(self):
        serial = serial_baseline()
        executor = PersistentProcessExecutor(
            workers=2, checkpoint_every=2, restart_budget=0,
            backoff_base_s=0.01,
        )
        try:
            with fault_plan(FaultPlan().crash(0, 3)):
                with pytest.warns(RuntimeWarning, match="restart budget"):
                    means, engine = run_stream(executor)
        finally:
            executor.close()
        assert means == serial
        engine.executor.close()


class TestShutdownHardening:
    def test_close_is_idempotent_and_reentrant(self):
        executor = PersistentProcessExecutor(workers=2)
        executor.worker_pids()  # start the workers
        executor.close()
        executor.close()  # second close is a no-op
        assert executor._slots is None

    def test_close_survives_half_dead_workers(self):
        executor = PersistentProcessExecutor(workers=2)
        pids = executor.worker_pids()
        os.kill(pids[0], signal.SIGKILL)
        time.sleep(0.1)
        executor.close()  # must not raise or hang
        executor.close()

    def test_shutdown_executors_survives_a_failing_close(self):
        class ExplodingExecutor:
            def close(self):
                raise OSError("pipe gone")

        shutdown_executors()
        _INSTANCES["exploding"] = ExplodingExecutor()
        try:
            shutdown_executors()  # must not raise, must drain the cache
            assert not _INSTANCES
        finally:
            _INSTANCES.pop("exploding", None)
