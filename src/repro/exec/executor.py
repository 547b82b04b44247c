"""Executors: where the shards of one inference step actually run.

An :class:`Executor` decides *where* the shard operations of a sharded
inference step run (inline, a thread pool, long-lived worker processes)
but never *what* is computed: shard payloads are disjoint, each shard
advances its own :class:`numpy.random.Generator` substream, and every
executor runs the same shard operations
(:class:`~repro.exec.population.ShardHome`). Results are therefore
bit-for-bit identical across executors and worker counts — the
deterministic partitioning idea of Bobpp-style parallel search, applied
to a particle population.

The *materialized* executors (:class:`SerialExecutor`,
:class:`ThreadShardExecutor`) hold no shards: ``map_shards(fn, tasks)``
applies one task to every shard and returns the results in shard order.

:class:`PersistentProcessExecutor` (``"processes-persistent:N"``) is
the worker-resident variant: its workers hold their shard — payload
plus RNG substream — in-process across steps, so per-step traffic is
command messages (step input out, per-shard outputs and weights back)
instead of full-population pickles, and the resample barrier ships a
few numbers per shard plus the few particles that actually migrate
between shards. The array payloads themselves travel through one
shared-memory ring per worker *per direction* (:mod:`repro.exec.shm`)
when the platform offers it — replies as zero-copy read-only views,
commands (inputs, migrant rows, replayed checkpoints) as descriptors —
so a steady-state no-resample step moves zero pickled payload bytes
over the pipe. The pickle path is kept as an automatic, metered
fallback — pass ``shm_bytes=0`` (or set the ``REPRO_SHM_BYTES``
environment variable) to disable both rings.

Executors are selected by spec string (``"serial"``, ``"threads:4"``,
``"processes-persistent:4"``) through :func:`parse_executor`, which
caches one instance per spec so every engine built from the same spec
shares one pool (a sweep over ``"pf@scalar@processes-persistent:4"``
spins up four workers once, not once per run).
:func:`shutdown_executors` (also registered via :mod:`atexit`) closes
every cached executor and clears the cache, so sweeps and test runs do
not accumulate worker processes.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from multiprocessing.connection import wait as _connection_wait
from time import monotonic, perf_counter, sleep
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import InferenceError
from repro.exec.population import ShardHome, route_exports, shard_len
from repro.exec.shm import ShmRing, TransportStats, materialize, measure_payload
from repro.exec.supervision import (
    RestartBudgetExhausted,
    RingFault,
    WorkerTimeout,
    env_checkpoint_every,
    env_restart_budget,
    env_step_timeout_s,
)
from repro.faults.plan import (
    FAULTS,
    CoordinatorFaultState,
    RingCorruption,
    WorkerFaultState,
)
from repro.obs.registry import count_event
from repro.obs.spans import TELEMETRY

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadShardExecutor",
    "PersistentProcessExecutor",
    "EXECUTORS",
    "parse_executor",
    "shutdown_executors",
    "default_workers",
]


def default_workers() -> int:
    """Worker count when a spec names no number: one per visible core."""
    return max(1, os.cpu_count() or 1)


class Executor:
    """Schedules shard operations; never changes what is computed.

    A materialized executor (``resident`` False) offers
    ``map_shards(fn, tasks)``: apply ``fn`` to every task and return the
    results *in task order* — the ordering contract the barrier relies
    on for determinism. A resident one keeps the shards in its workers
    and is driven through a
    :class:`~repro.exec.population.ResidentPopulation` handle instead.
    """

    #: number of workers the executor schedules onto (1 for serial).
    workers: int = 1
    #: True when the executor keeps shard payloads resident in its
    #: workers across steps; engines then drive it through a
    #: handle-based :class:`~repro.exec.population.ResidentPopulation`
    #: instead of ``map_shards``.
    resident: bool = False

    def close(self) -> None:
        """Release any pooled workers (no-op for the serial executor)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run every shard inline, one after the other (the reference)."""

    workers = 1

    def map_shards(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        return [fn(task) for task in tasks]

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ThreadShardExecutor(Executor):
    """Map shards over a thread pool.

    Shards share the interpreter but not their generators or payloads,
    so thread scheduling cannot change results. Best when the per-shard
    work releases the GIL (NumPy kernels on large shards). The pool is
    created on first use.
    """

    def __init__(self, workers: Optional[int] = None):
        workers = default_workers() if workers is None else int(workers)
        if workers < 1:
            raise InferenceError("executor needs at least one worker")
        self.workers = workers
        self._pool = None

    def map_shards(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-shard"
            )
        return list(self._pool.map(fn, tasks))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # Engines hold their executor, and a persistent process worker
    # unpickles the engine: the live pool must never cross a process
    # boundary. The worker-side copy degrades to a pool-less shell.
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_pool"] = None
        return state

    def __repr__(self) -> str:
        return f"ThreadShardExecutor(workers={self.workers})"


# ----------------------------------------------------------------------
# persistent worker-resident execution
# ----------------------------------------------------------------------

#: connection failures that mean "the worker process died" (as opposed
#: to a Python exception inside the worker, which comes back as an
#: ``("err", traceback)`` reply).
_PIPE_ERRORS = (BrokenPipeError, EOFError, ConnectionResetError, OSError)


def _persistent_worker_main(
    conn,
    ring_name: Optional[str] = None,
    cmd_ring_name: Optional[str] = None,
    generation: int = 0,
    faults: Optional[list] = None,
) -> None:
    """Main loop of one persistent worker: resident shards + commands.

    ``homes`` maps ``(population key, shard index)`` to the resident
    :class:`~repro.exec.population.ShardHome`: the shard, the stepper
    that advances it, and what the barrier needs from the most recent
    step (so a weight commit needs no data from the coordinator at all,
    and a resample only the shard's barrier numbers).

    When the coordinator allocated shared-memory rings for this worker,
    payloads are routed through them in both directions: reply arrays
    park in the *reply* ring (``ring_name``), command arrays —
    observation inputs, migrant rows, replayed checkpoint shards —
    arrive as descriptors into the *command* ring (``cmd_ring_name``)
    and are copied out before use. Reply-ring attachment failure
    silently degrades to the pickle path; command-ring attachment is
    reported back in the ``hello`` handshake so the coordinator never
    sends descriptors this worker cannot resolve. Either way the rings
    are a latency optimization, never a correctness dependency.
    """
    fault_state = None
    if faults:
        # Fault injection active (repro.faults): filter the shipped
        # fault list to this process's spawn generation. A matching
        # spawn_fail dies here, before the hello handshake.
        fault_state = WorkerFaultState(faults, generation)
        fault_state.check_spawn()
    homes: Dict[Tuple[int, int], Dict[str, Any]] = {}
    ring = ShmRing.attach(ring_name)
    cmd_ring = ShmRing.attach(cmd_ring_name)
    try:
        conn.send(("hello", cmd_ring is not None))
    except Exception:
        return
    try:
        _persistent_worker_loop(conn, homes, ring, cmd_ring, fault_state)
    finally:
        if ring is not None:
            ring.close()
        if cmd_ring is not None:
            cmd_ring.close()


def _persistent_worker_loop(conn, homes, ring, cmd_ring, fault_state=None) -> None:
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if cmd_ring is not None:
            # Copy-mode unpack: command payloads (inputs, plans, shard
            # reloads) may outlive the message window inside resident
            # state, so worker-side references are always private.
            msg = cmd_ring.unpack(msg)
        op = msg[0]
        if op == "stop":
            return
        try:
            if op == "load":
                _, key, index, shard, stepper = msg
                homes[(key, index)] = ShardHome(shard, stepper)
                reply: Any = None
            elif op == "step":
                if fault_state is not None:
                    # Crash / hang / error / ring-exhaust faults fire on
                    # this process's Nth step op (replayed steps count,
                    # which is what lets gen>=1 faults target revival).
                    fault_state.on_step(ring)
                # Oplog replay uses the 4-tuple form without the trace
                # flag; replayed steps never trace.
                _, key, index, inp, *rest = msg
                trace = bool(rest[0]) if rest else False
                started = perf_counter() if trace else 0.0
                outs, weights = homes[(key, index)].step(inp)
                reply = (outs, tuple(weights))
                if trace:
                    # Spans ride back as a plain list appended to the
                    # summary tuple; ShardSummary's ``spans`` field has
                    # a default, so 2-tuple replies stay valid.
                    spans = [("worker_step", (perf_counter() - started) * 1e3)]
                    reply = reply + (spans,)
            elif op == "resample":
                _, key, index, barrier = msg
                reply = homes[(key, index)].resample(barrier)
            elif op == "assemble":
                _, key, index, barrier, imports = msg
                homes[(key, index)].assemble(barrier, imports)
                reply = None
            elif op == "weights":
                _, key, index = msg
                homes[(key, index)].commit_weights()
                reply = None
            elif op == "pull":
                _, key, index = msg
                reply = homes[(key, index)].shard
            elif op == "unload":
                _, key = msg
                for home_key in [k for k in homes if k[0] == key]:
                    del homes[home_key]
                reply = None
            else:
                raise InferenceError(f"unknown persistent-worker op {op!r}")
        except BaseException:
            try:
                conn.send(("err", traceback.format_exc()))
            except Exception:
                return
        else:
            try:
                if ring is not None:
                    reply = ring.pack(reply)
                conn.send(("ok", reply))
            except Exception:
                return


class _WorkerSlot:
    """One persistent worker process, the coordinator's pipe, and its rings."""

    __slots__ = ("process", "conn", "ring", "cmd_ring", "faults")

    def __init__(self, process, conn, ring=None, cmd_ring=None, faults=None):
        self.process = process
        self.conn = conn
        self.ring = ring
        self.cmd_ring = cmd_ring
        #: coordinator-side fault state (:mod:`repro.faults`), or None —
        #: the common case, costing one attribute check per message.
        self.faults = faults

    def send_command(self, msg: tuple) -> None:
        """Send one command, parking its array payloads in the cmd ring.

        Packing happens at send time — never earlier — so a command
        retried after a worker revival is re-packed into the *new*
        worker's ring, and the per-message rewind stays valid (the
        previous command has been copied out by the worker before its
        reply, which the coordinator has already received).
        """
        if self.faults is not None:
            self.faults.note_op(msg[0])
        if self.cmd_ring is not None:
            stats = TransportStats()
            self.conn.send(self.cmd_ring.pack(msg, stats))
            stats.flush("cmd")
        else:
            if TELEMETRY.enabled:
                stats = TransportStats()
                measure_payload(msg, stats)
                stats.flush("cmd")
            self.conn.send(msg)

    def recv_reply(
        self, views: bool = False, timeout: Optional[float] = None
    ) -> Tuple[str, Any]:
        """Receive one reply, resolving ring-parked arrays.

        With ``views=True`` the ring descriptors become read-only
        zero-copy views — only valid until the next command to this
        worker, so callers materialize anything that escapes the
        current message window (see :func:`repro.exec.shm.materialize`).

        With a ``timeout`` (seconds), a reply that does not arrive in
        time raises :class:`~repro.exec.supervision.WorkerTimeout`
        (a dead worker's pipe signals EOF immediately, so the poll never
        waits on a corpse). A reply whose ring payload cannot be
        resolved raises :class:`~repro.exec.supervision.RingFault`.
        """
        if timeout is not None:
            deadline = monotonic() + timeout
            while not self.conn.poll(min(0.05, timeout)):
                remaining = deadline - monotonic()
                if remaining <= 0:
                    raise WorkerTimeout(
                        f"persistent worker missed its {timeout:.3g}s "
                        "reply deadline"
                    )
                timeout = remaining
        tag, value = self.conn.recv()
        if tag == "ok":
            try:
                if self.faults is not None:
                    value = self.faults.corrupt(value)
                if self.ring is not None:
                    stats = TransportStats()
                    mode = "view" if views else "copy"
                    if TELEMETRY.enabled:
                        started = perf_counter()
                        value = self.ring.unpack(value, mode, stats)
                        TELEMETRY.recorder.record(
                            "shm_unpack", (perf_counter() - started) * 1e3
                        )
                    else:
                        value = self.ring.unpack(value, mode, stats)
                    stats.flush("reply")
            except (RingCorruption, ValueError, TypeError, IndexError) as exc:
                # Corrupted descriptors (injected or real): the worker's
                # transport state is untrusted — the caller kills and
                # revives it from checkpoint like a crash.
                raise RingFault(f"reply ring unresolvable: {exc}") from exc
            if self.ring is None and TELEMETRY.enabled:
                stats = TransportStats()
                measure_payload(value, stats)
                stats.flush("reply")
        return tag, value

    def discard(self) -> None:
        """Release the coordinator-side resources of a dead/replaced worker."""
        try:
            self.conn.close()
        except Exception:
            pass
        if self.ring is not None:
            self.ring.close()
            self.ring = None
        if self.cmd_ring is not None:
            self.cmd_ring.close()
            self.cmd_ring = None


class _ResidentState:
    """Coordinator-side record of one worker-resident population.

    ``checkpoints`` holds one recovery copy of every shard (refreshed
    every ``checkpoint_every`` committed steps), ``oplogs`` the
    per-shard commands applied since that checkpoint. Together they let
    the coordinator rebuild any shard deterministically — after a
    worker crash, or after :meth:`PersistentProcessExecutor.close` —
    by reloading the checkpoint and replaying the log.
    """

    __slots__ = (
        "key", "stepper", "sizes", "checkpoints", "oplogs", "steps", "poisoned",
    )

    def __init__(self, key: int, stepper: Any, sizes: List[int], checkpoints):
        self.key = key
        self.stepper = stepper
        self.sizes = list(sizes)
        self.checkpoints = list(checkpoints)
        self.oplogs: List[List[tuple]] = [[] for _ in sizes]
        self.steps = 0
        #: set when a mutating command failed part-way: some shards
        #: advanced, others did not, and the oplog no longer describes
        #: the worker state — the population must not be used again.
        self.poisoned = False

    @property
    def n_shards(self) -> int:
        return len(self.sizes)


class PersistentProcessExecutor(Executor):
    """Process execution with worker-resident shards.

    Loads each shard — payload plus RNG substream — into a long-lived
    worker once and then drives it with small command messages:

    * ``step``: the step input goes out; the per-shard outputs and the
      shard's reduced weights
      (:class:`~repro.inference.resampling.ShardWeights`) come back.
      The advanced payload, generator and log-weights stay in the
      worker.
    * resample barrier: each shard receives its
      :class:`~repro.exec.population.ShardBarrier` (a few numbers for
      systematic resampling), resamples itself, and returns only the
      rows whose picks land in another shard (``resample``); then every
      shard installs its own survivors plus its imports (``assemble``).
    * no-resample barrier: a bare ``weights`` command; each worker
      folds its own step log-weights into its resident payload.

    The schedule still never changes what is computed: the shard
    partition and RNG substreams are identical to every other executor,
    so the posterior matches ``"serial"`` bit-for-bit at a fixed seed.

    Fault tolerance: the coordinator checkpoints every shard on load
    and every ``checkpoint_every`` committed steps, and logs the
    commands in between. A worker that dies mid-stream is respawned and
    its shards are rebuilt by replaying the log against the checkpoint
    — deterministically, because the checkpoint includes the shard's
    generator state. ``close()`` uses the same mechanism: it terminates
    the workers but keeps the checkpoints, so resident populations
    survive an executor shutdown and resume on the next command.

    Multiple populations (one per engine — e.g. every session of a
    :class:`~repro.exec.server.StreamServer`) share the same worker
    pool; shard ``i`` of every population lives on worker
    ``i % workers``.
    """

    resident = True

    #: default shared-memory ring size per worker per direction (bytes);
    #: holds the per-step outs/weights vectors of ~100k-particle shards.
    DEFAULT_SHM_BYTES = 4 * 1024 * 1024

    #: how long ``close()`` waits for a worker to join after each of
    #: stop / terminate / kill (seconds); a class attribute so tests can
    #: tighten it.
    CLOSE_JOIN_TIMEOUT_S = 2.0

    #: upper bound on the exponential revival backoff (seconds).
    BACKOFF_CAP_S = 1.0

    def __init__(
        self,
        workers: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
        shm_bytes: Optional[int] = None,
        step_timeout_s: Optional[float] = None,
        restart_budget: Optional[int] = None,
        backoff_base_s: float = 0.05,
    ):
        workers = default_workers() if workers is None else int(workers)
        if workers < 1:
            raise InferenceError("executor needs at least one worker")
        #: committed steps between checkpoint refreshes. ``None`` reads
        #: ``REPRO_CHECKPOINT_EVERY`` before falling back to 8.
        if checkpoint_every is None:
            checkpoint_every = env_checkpoint_every()
        if int(checkpoint_every) < 1:
            raise InferenceError("checkpoint_every must be at least 1")
        self.workers = workers
        self.checkpoint_every = int(checkpoint_every)
        #: per-command reply deadline in seconds; None disables
        #: supervision timeouts (the default — the blocking wait path is
        #: byte-for-byte the unsupervised one). ``None`` reads
        #: ``REPRO_STEP_TIMEOUT_S`` (0 there also means disabled).
        if step_timeout_s is None:
            step_timeout_s = env_step_timeout_s()
        elif float(step_timeout_s) <= 0:
            raise InferenceError(
                f"step_timeout_s must be positive, got {step_timeout_s} "
                "(pass None to disable deadlines)"
            )
        self.step_timeout_s = (
            None if step_timeout_s is None else float(step_timeout_s)
        )
        #: consecutive failed revivals one slot may accumulate before
        #: the circuit breaker trips with RestartBudgetExhausted; reset
        #: whenever a command on that slot completes. ``None`` reads
        #: ``REPRO_RESTART_BUDGET`` before falling back to 3.
        if restart_budget is None:
            restart_budget = env_restart_budget()
        if int(restart_budget) < 0:
            raise InferenceError("restart_budget must be non-negative")
        self.restart_budget = int(restart_budget)
        #: first-revival backoff; revival n sleeps
        #: ``backoff_base_s * 2**(n-1)`` capped at BACKOFF_CAP_S
        #: (the first revival is immediate).
        self.backoff_base_s = float(backoff_base_s)
        #: per-worker, per-direction shared-memory ring size. ``0``
        #: disables **both** rings (command and reply) and every message
        #: ships fully pickled — the fallback path. ``None`` reads the
        #: ``REPRO_SHM_BYTES`` environment variable (same semantics)
        #: before falling back to :data:`DEFAULT_SHM_BYTES`.
        if shm_bytes is None:
            env = os.environ.get("REPRO_SHM_BYTES", "").strip()
            shm_bytes = int(env) if env else self.DEFAULT_SHM_BYTES
        shm_bytes = int(shm_bytes)
        if shm_bytes < 0:
            raise ValueError(
                f"shm_bytes must be non-negative, got {shm_bytes} "
                "(0 disables both the command and reply rings)"
            )
        self.shm_bytes = shm_bytes
        self._slots: Optional[List[_WorkerSlot]] = None
        self._populations: Dict[int, _ResidentState] = {}
        self._next_key = 0
        #: per-slot spawn generation (0 = first spawn); fault plans key
        #: on it so a crash fault does not re-fire during oplog replay.
        self._generations: List[int] = [-1] * workers
        #: per-slot consecutive failed-revival count (circuit breaker).
        self._failures: List[int] = [0] * workers
        #: lifetime revival count (diagnostics / stream-server stats).
        self._restarts_total = 0

    # -- lifecycle ------------------------------------------------------
    def _spawn_slot(self, slot_index: int) -> _WorkerSlot:
        self._generations[slot_index] += 1
        generation = self._generations[slot_index]
        worker_faults = None
        slot_faults = None
        if FAULTS.enabled and FAULTS.plan is not None:
            # Fault injection: the worker-side sub-plan rides the spawn
            # args (picklable under any start method); coordinator-side
            # faults attach to the slot. Disabled runs pass None — the
            # hooks then cost one attribute check.
            worker_faults = FAULTS.plan.for_worker(slot_index) or None
            coordinator_faults = FAULTS.plan.coordinator_for(slot_index)
            if any(f.kind == "ring_corrupt" for f in coordinator_faults):
                slot_faults = CoordinatorFaultState(
                    coordinator_faults, generation
                )
        parent_conn, child_conn = multiprocessing.Pipe()
        ring = ShmRing.create(self.shm_bytes)
        cmd_ring = ShmRing.create(self.shm_bytes)
        if FAULTS.enabled and FAULTS.plan is not None and cmd_ring is not None:
            # Coordinator-side ring exhaustion: a matching-generation
            # ring_exhaust fault disables parking on this slot's command
            # ring from the start — with gen=1, that is exactly the
            # revival-replay window (checkpoints ship pickled).
            if any(
                f.kind == "ring_exhaust" and f.gen == generation
                for f in FAULTS.plan.coordinator_for(slot_index)
            ):
                cmd_ring.fault_exhausted = True
        process = multiprocessing.Process(
            target=_persistent_worker_main,
            args=(
                child_conn,
                ring.name if ring is not None else None,
                cmd_ring.name if cmd_ring is not None else None,
                generation,
                worker_faults,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        # Handshake: the worker reports whether it attached the command
        # ring. The coordinator must never send descriptors a worker
        # cannot resolve, so a failed attach drops the ring here (the
        # reply direction needs no handshake — an unattached worker
        # simply never produces descriptors).
        cmd_ok = False
        try:
            tag, cmd_ok = parent_conn.recv()
            cmd_ok = tag == "hello" and bool(cmd_ok)
        except _PIPE_ERRORS:
            pass  # dead at birth: the first command will trigger revival
        if not cmd_ok and cmd_ring is not None:
            cmd_ring.close()
            cmd_ring = None
        return _WorkerSlot(process, parent_conn, ring, cmd_ring, slot_faults)

    def _ensure_started(self) -> None:
        if self._slots is not None:
            return
        self._slots = [self._spawn_slot(i) for i in range(self.workers)]
        # Resuming after close(): restore every registered population
        # from its checkpoint + oplog.
        for slot_index in range(self.workers):
            self._reload_slot(slot_index)

    def _slot_of(self, shard_index: int) -> int:
        return shard_index % self.workers

    def worker_pids(self) -> List[int]:
        """PIDs of the live worker processes (diagnostics / tests)."""
        self._ensure_started()
        return [slot.process.pid for slot in self._slots]

    def close(self) -> None:
        """Terminate the workers; resident populations stay recoverable.

        Idempotent and safe against half-dead workers: the slot list is
        detached first (a second ``close()`` is a no-op), every stop
        send is best-effort, and a worker that ignores stop *and*
        terminate is SIGKILLed — a worker that died holding the pipe
        can delay shutdown by at most the join timeouts, never hang it.
        """
        slots, self._slots = self._slots, None
        if slots is None:
            return
        for slot in slots:
            try:
                slot.conn.send(("stop",))
            except Exception:
                pass
        for slot in slots:
            try:
                slot.process.join(timeout=self.CLOSE_JOIN_TIMEOUT_S)
                if slot.process.is_alive():
                    slot.process.terminate()
                    slot.process.join(timeout=self.CLOSE_JOIN_TIMEOUT_S)
                if slot.process.is_alive():
                    slot.process.kill()
                    slot.process.join(timeout=self.CLOSE_JOIN_TIMEOUT_S)
            except Exception:
                pass
            slot.discard()

    # The executor rides along when an engine is pickled into a worker
    # (the stepper references it); the worker-side copy is a shell with
    # no processes, pipes, or resident bookkeeping.
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_slots"] = None
        state["_populations"] = {}
        state["_next_key"] = 0
        state["_generations"] = [-1] * self.workers
        state["_failures"] = [0] * self.workers
        state["_restarts_total"] = 0
        return state

    def restart_stats(self) -> Dict[str, Any]:
        """Supervision counters: lifetime revivals, per-slot breaker state."""
        return {
            "restarts_total": self._restarts_total,
            "consecutive_failures": list(self._failures),
            "restart_budget": self.restart_budget,
        }

    def __repr__(self) -> str:
        return (
            f"PersistentProcessExecutor(workers={self.workers}, "
            f"checkpoint_every={self.checkpoint_every})"
        )

    # -- messaging ------------------------------------------------------
    def _reload_slot(self, slot_index: int) -> None:
        """Rebuild every resident shard assigned to one (fresh) worker."""
        slot = self._slots[slot_index]
        for state in self._populations.values():
            if state.poisoned:  # unusable anyway; nothing to rebuild
                continue
            for index in range(state.n_shards):
                if self._slot_of(index) != slot_index:
                    continue
                slot.send_command(
                    ("load", state.key, index, state.checkpoints[index],
                     state.stepper)
                )
                self._expect_ok(slot, timeout=self.step_timeout_s)
                # Replayed commands are re-packed at send time into the
                # fresh worker's ring: the oplog stores real arrays, so
                # descriptor-encoded and pickled replays are
                # bit-identical (pack/unpack is an exact byte roundtrip).
                for entry in state.oplogs[index]:
                    slot.send_command(self._replay_msg(state.key, index, entry))
                    self._expect_ok(slot, timeout=self.step_timeout_s)

    @staticmethod
    def _replay_msg(key: int, index: int, entry: tuple) -> tuple:
        if entry[0] not in ("step", "assemble", "weights"):
            raise InferenceError(f"unknown oplog entry {entry[0]!r}")
        return (entry[0], key, index) + tuple(entry[1:])

    @staticmethod
    def _expect_ok(slot: _WorkerSlot, timeout: Optional[float] = None) -> Any:
        tag, value = slot.recv_reply(timeout=timeout)
        if tag == "err":
            raise InferenceError(f"persistent worker failed:\n{value}")
        return value

    def _kill_slot(self, slot_index: int) -> None:
        """SIGKILL a worker that can no longer be trusted (hang, ring)."""
        try:
            self._slots[slot_index].process.kill()
        except Exception:
            pass

    def _revive_slot(self, slot_index: int) -> None:
        """Replace a dead worker and rebuild its resident shards."""
        old = self._slots[slot_index]
        if old.process.is_alive():
            old.process.terminate()
        old.process.join(timeout=2)
        old.discard()
        self._slots[slot_index] = self._spawn_slot(slot_index)
        self._reload_slot(slot_index)

    def _supervised_revive(self, slot_index: int, reason: str) -> None:
        """One budgeted revival: backoff, count, spawn, reload.

        Increments the slot's consecutive-failure count *before* the
        attempt (the caller resets it when a command later completes),
        so a revived worker that immediately fails again — a crash
        loop, e.g. a ``spawn_fail`` fault — burns through the budget
        and trips :class:`RestartBudgetExhausted` instead of respawning
        forever. A respawn that dies during checkpoint replay retries
        here under the same budget.
        """
        while True:
            failures = self._failures[slot_index]
            if failures >= self.restart_budget:
                raise RestartBudgetExhausted(
                    f"worker {slot_index} failed {failures} consecutive "
                    f"revivals (budget {self.restart_budget}, last reason "
                    f"{reason!r}); degrade off the persistent pool"
                )
            self._failures[slot_index] = failures + 1
            if failures > 0:
                sleep(
                    min(
                        self.BACKOFF_CAP_S,
                        self.backoff_base_s * (2 ** (failures - 1)),
                    )
                )
            count_event("repro_worker_restarts_total", {"reason": reason})
            self._restarts_total += 1
            try:
                self._revive_slot(slot_index)
            except WorkerTimeout:
                self._kill_slot(slot_index)
                count_event("repro_worker_timeouts_total")
                reason = "timeout"
                continue
            except RingFault:
                self._kill_slot(slot_index)
                reason = "ring"
                continue
            except _PIPE_ERRORS:
                reason = "crash"
                continue
            return

    def _retry_burst(
        self,
        slot_index: int,
        items: Sequence[Tuple[int, tuple]],
        reason: str,
        results: List[Any],
        errors: List[str],
    ) -> None:
        """Revive a failed slot and re-run its whole command burst.

        Each pass rebuilds the worker to the pre-burst state (checkpoint
        + oplog replay), so the burst is always replayed from the top;
        a pass that fails again loops back through the budgeted revival.
        Success resets the slot's circuit breaker.
        """
        while True:
            self._supervised_revive(slot_index, reason)
            slot = self._slots[slot_index]
            try:
                for position, msg in items:
                    slot.send_command(msg)
                    tag, value = slot.recv_reply(timeout=self.step_timeout_s)
                    if tag == "err":
                        errors.append(value)
                    else:
                        results[position] = value
            except WorkerTimeout:
                self._kill_slot(slot_index)
                count_event("repro_worker_timeouts_total")
                reason = "timeout"
                continue
            except RingFault:
                self._kill_slot(slot_index)
                reason = "ring"
                continue
            except _PIPE_ERRORS:
                reason = "crash"
                continue
            self._failures[slot_index] = 0
            return

    def _scatter_gather(self, msgs: Sequence[Tuple[int, tuple]]) -> List[Any]:
        """Send addressed commands, collect replies in command order.

        ``msgs`` is a list of ``(slot_index, message)``. Slots run
        concurrently, but each slot has at most **one** command in
        flight: the next command is sent only after the previous reply
        is fully received, so whenever the coordinator blocks in
        ``send`` the worker is guaranteed to be draining its request
        pipe — no message size can deadlock the pair (a worker
        serializes its commands anyway, so nothing is lost). A slot
        that fails mid-burst — pipe broken (crash), per-command
        deadline missed (hang; the worker is SIGKILLed first), or an
        unresolvable reply ring — is revived under the restart budget
        (fresh process, checkpoint + oplog replay) and its whole burst
        is retried; a Python exception *inside* a worker comes back as
        an ``("err", ...)`` reply and is raised only after every
        pending reply has been drained, so the pipes stay in sync.
        """
        self._ensure_started()
        queues: Dict[int, deque] = {}
        for position, (slot_index, msg) in enumerate(msgs):
            queues.setdefault(slot_index, deque()).append((position, msg))
        all_items = {slot_index: list(queue) for slot_index, queue in queues.items()}
        results: List[Any] = [None] * len(msgs)
        errors: List[str] = []
        failed: Dict[int, Tuple[str, List[Tuple[int, tuple]]]] = {}
        in_flight: Dict[Any, Tuple[int, int, bool]] = {}  # conn -> (slot, pos, step?)
        deadlines: Dict[Any, float] = {}  # conn -> monotonic deadline

        def fail(slot_index: int, reason: str) -> None:
            failed[slot_index] = (reason, all_items[slot_index])
            queues[slot_index].clear()

        def send_next(slot_index: int) -> None:
            queue = queues[slot_index]
            if not queue:
                return
            position, msg = queue.popleft()
            slot = self._slots[slot_index]
            try:
                # Packed at send time into this worker's command ring —
                # the previous reply has been received, so the worker
                # has consumed the previous command and the ring is free.
                slot.send_command(msg)
            except _PIPE_ERRORS:
                fail(slot_index, "crash")
                return
            in_flight[slot.conn] = (slot_index, position, msg[0] == "step")
            if self.step_timeout_s is not None:
                deadlines[slot.conn] = monotonic() + self.step_timeout_s

        for slot_index in list(queues):
            send_next(slot_index)
        while in_flight:
            if self.step_timeout_s is None:
                ready = _connection_wait(list(in_flight))
            else:
                wait = min(deadlines.values()) - monotonic()
                ready = (
                    _connection_wait(list(in_flight), timeout=wait)
                    if wait > 0
                    else []
                )
                if not ready:
                    # Every conn past its deadline belongs to a hung
                    # worker: kill it (its state is untrusted) and queue
                    # the burst for a supervised retry.
                    now = monotonic()
                    for conn in [
                        c for c, d in deadlines.items() if d <= now
                    ]:
                        slot_index, _, _ = in_flight.pop(conn)
                        deadlines.pop(conn, None)
                        self._kill_slot(slot_index)
                        count_event("repro_worker_timeouts_total")
                        fail(slot_index, "timeout")
                    continue
            for conn in ready:
                slot_index, position, is_step = in_flight.pop(conn)
                deadlines.pop(conn, None)
                try:
                    # Step replies are unpacked as zero-copy views into
                    # the worker's reply ring; everything else (exports
                    # that enter the oplog, checkpoint pulls, acks) is
                    # copied out before the next command is sent, which
                    # is what lets the worker rewind its ring per message.
                    tag, value = self._slots[slot_index].recv_reply(
                        views=is_step
                    )
                except RingFault:
                    self._kill_slot(slot_index)
                    fail(slot_index, "ring")
                    continue
                except _PIPE_ERRORS:
                    fail(slot_index, "crash")
                    continue
                if tag == "err":
                    errors.append(value)
                else:
                    if is_step and queues[slot_index]:
                        # Another command for this worker follows in the
                        # burst: its reply will overwrite the ring, so
                        # this reply's views escape the message window —
                        # copy them out now (the only case views degrade
                        # to copies; with one shard per worker the views
                        # survive untouched until the step consumes them).
                        value = materialize(value)
                    results[position] = value
                send_next(slot_index)
        for slot_index, (reason, items) in failed.items():
            # The worker failed mid-burst: its resident state is rebuilt
            # to the pre-burst point, so every command of the burst is
            # re-run (including any that had already been answered).
            self._retry_burst(slot_index, items, reason, results, errors)
        if errors:
            raise InferenceError(f"persistent worker failed:\n{errors[0]}")
        return results

    # -- resident-population protocol ----------------------------------
    def new_key(self) -> int:
        """A fresh population key, unique within this executor."""
        key = self._next_key
        self._next_key += 1
        return key

    def load_population(self, key: int, stepper: Any, shards: Sequence[Any]) -> None:
        """Make ``shards`` resident, keyed by ``key``; checkpoint them.

        ``stepper`` is the engine: it is pickled to each worker once and
        supplies ``step_shard`` plus the shard operations the worker's
        :class:`~repro.exec.population.ShardHome` calls (``shard_export``
        / ``shard_keep`` / ``shard_assemble`` / ``shard_commit_weights``).
        """
        if key in self._populations:
            raise InferenceError(f"population key {key!r} already resident")
        self._ensure_started()
        self._populations[key] = _ResidentState(
            key, stepper, [shard_len(shard) for shard in shards], shards
        )
        self._scatter_gather(
            [
                (self._slot_of(i), ("load", key, i, shard, stepper))
                for i, shard in enumerate(shards)
            ]
        )

    def _mutate(self, state: "_ResidentState", msgs) -> List[Any]:
        """Run mutating commands; a failure part-way poisons the key.

        When one shard's command errors, the other shards have already
        advanced in their workers, so the resident state no longer
        matches the oplog (or anything the serial path could produce).
        Nothing can repair that consistently — the population is marked
        unusable and every later command on it raises, instead of
        silently stepping desynchronized shards.
        """
        try:
            return self._scatter_gather(msgs)
        except Exception:
            state.poisoned = True
            raise

    def step_population(
        self, key: int, inp: Any, trace: bool = False
    ) -> List[tuple]:
        """Advance every shard; returns per-shard ``(outs, weights)``.

        ``weights`` is the shard's reduced weights as a plain tuple
        (:class:`~repro.inference.resampling.ShardWeights` fields). With
        ``trace=True`` each worker times its shard step and appends the
        span list as a third summary element. The oplog records the step
        without the flag — replayed steps never trace.
        """
        state = self._state(key)
        summaries = self._mutate(
            state,
            [
                (self._slot_of(i), ("step", key, i, inp, trace))
                for i in range(state.n_shards)
            ],
        )
        for oplog in state.oplogs:
            oplog.append(("step", inp))
        return summaries

    def commit_population_weights(self, key: int) -> None:
        """No-resample barrier: workers fold step weights in-place."""
        state = self._state(key)
        self._mutate(
            state,
            [(self._slot_of(i), ("weights", key, i)) for i in range(state.n_shards)],
        )
        for oplog in state.oplogs:
            oplog.append(("weights",))
        self._after_commit(state)

    def exchange_population(self, key: int, barriers: Sequence[Any]) -> None:
        """Resample barrier: shards resample themselves, migrants move.

        ``barriers[s]`` is shard ``s``'s
        :class:`~repro.exec.population.ShardBarrier`. Every shard first
        resamples itself, setting its survivors aside and returning the
        rows whose picks fill another shard's slots. Then every shard
        installs its survivors plus its imports. Nothing is
        installed before every shard has exported, so a crash anywhere
        in the barrier stays recoverable. The oplog keeps each barrier
        and the imports: a few numbers plus the migrant rows per shard.
        """
        state = self._state(key)
        packages = self._scatter_gather(
            [
                (self._slot_of(s), ("resample", key, s, barriers[s]))
                for s in range(state.n_shards)
            ]
        )
        imports = route_exports(packages)
        self._mutate(
            state,
            [
                (self._slot_of(d), ("assemble", key, d, barriers[d], imports[d]))
                for d in range(state.n_shards)
            ],
        )
        for d in range(state.n_shards):
            state.oplogs[d].append(("assemble", barriers[d], imports[d]))
        self._after_commit(state)

    def pull_population(self, key: int) -> List[Any]:
        """Fresh copies of every resident shard, in shard order."""
        state = self._state(key)
        return self._scatter_gather(
            [(self._slot_of(i), ("pull", key, i)) for i in range(state.n_shards)]
        )

    def release_population(self, key: int) -> None:
        """Drop a resident population (worker memory and checkpoints)."""
        state = self._populations.pop(key, None)
        if state is None or self._slots is None:
            return
        for slot in self._slots:
            try:
                slot.conn.send(("unload", key))
                slot.conn.recv()
            except Exception:
                continue

    def _state(self, key: int) -> _ResidentState:
        try:
            state = self._populations[key]
        except KeyError:
            raise InferenceError(f"no resident population with key {key!r}")
        if state.poisoned:
            raise InferenceError(
                "this resident population is inconsistent after a prior "
                "worker error; rebuild the engine state with init()"
            )
        return state

    def _after_commit(self, state: _ResidentState) -> None:
        """Count a committed step; refresh checkpoints on the interval.

        The step itself is already committed when this runs, so a
        failing checkpoint pull must not poison the stream: the old
        checkpoint + oplog still reconstruct the current state exactly,
        and whatever broke the pull will resurface on the next real
        command where supervision handles it. The failure is counted in
        ``repro_checkpoint_failures_total``: until a pull succeeds, the
        oplog keeps growing.
        """
        state.steps += 1
        if state.steps % self.checkpoint_every == 0:
            try:
                checkpoints = self.pull_population(state.key)
            except Exception:
                count_event("repro_checkpoint_failures_total")
                return
            state.checkpoints = checkpoints
            state.oplogs = [[] for _ in state.sizes]

    def recover_population(self, key: int) -> List[Any]:
        """Rebuild every shard coordinator-side, without any worker.

        The degradation path: when the restart budget is exhausted the
        engines call this to reassemble the population from the
        coordinator's own checkpoints + oplogs, then continue on the
        serial executor. Replay runs the worker's own
        :class:`~repro.exec.population.ShardHome` operations on the same
        checkpointed payload and RNG substream, so the recovered shards
        are bit-identical to the lost residents.

        A trailing unpaired ``step`` entry — one whose commit barrier
        never ran because that is where the pool died — is dropped:
        the engine re-runs that step in full on the new executor.
        Deliberately ignores the ``poisoned`` flag (recovery is the one
        consumer that can still make sense of the checkpoints) and
        leaves the resident record untouched so a later
        ``release_population`` behaves normally.
        """
        state = self._populations.get(key)
        if state is None:
            raise InferenceError(f"no resident population with key {key!r}")
        shards: List[Any] = []
        for index in range(state.n_shards):
            # Replay mutates the payload in place for some steppers —
            # roundtrip the checkpoint so it stays a pristine copy.
            home = ShardHome(
                pickle.loads(pickle.dumps(state.checkpoints[index])),
                state.stepper,
            )
            oplog = list(state.oplogs[index])
            if oplog and oplog[-1][0] == "step":
                oplog.pop()
            for entry in oplog:
                home.replay(entry)
            shards.append(home.shard)
        return shards


#: spec name -> executor class, for ``"name"`` / ``"name:N"`` specs.
EXECUTORS: Dict[str, Callable[..., Executor]] = {
    "serial": SerialExecutor,
    "threads": ThreadShardExecutor,
    "processes-persistent": PersistentProcessExecutor,
}

#: one shared instance per spec string, so engines built from the same
#: spec (benchmark sweeps, stream-server sessions) share one pool.
_INSTANCES: Dict[str, Executor] = {}


def parse_executor(spec: Union[None, str, Executor]) -> Executor:
    """Resolve an executor spec to an :class:`Executor` instance.

    ``None`` means serial; an :class:`Executor` instance passes through;
    a string is ``"serial"``, ``"threads"`` or
    ``"processes-persistent"``, optionally with a worker count
    (``"threads:4"``). String specs are cached process-wide: the same
    spec always returns the same instance (release the cache with
    :func:`shutdown_executors`).
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, Executor):
        return spec
    if not isinstance(spec, str):
        raise InferenceError(
            f"executor must be a spec string or Executor, got {type(spec).__name__}"
        )
    if spec in _INSTANCES:
        return _INSTANCES[spec]
    name, sep, count = spec.partition(":")
    if name not in EXECUTORS:
        raise InferenceError(
            f"unknown executor {name!r}; choose from {sorted(EXECUTORS)}"
        )
    if sep:
        if name == "serial":
            raise InferenceError("the serial executor takes no worker count")
        try:
            workers = int(count)
        except ValueError:
            raise InferenceError(f"bad worker count in executor spec {spec!r}")
        executor = EXECUTORS[name](workers)
    else:
        executor = EXECUTORS[name]()
    _INSTANCES[spec] = executor
    return executor


def shutdown_executors() -> None:
    """Close every spec-cached executor and clear the cache.

    The per-spec cache otherwise keeps thread pools and worker
    processes alive for the lifetime of the interpreter. Call this in
    test teardown or at the end of a sweep; it is also registered via
    :mod:`atexit`. Closing is non-destructive — the thread executor
    lazily re-creates its pool on next use, and
    :class:`PersistentProcessExecutor` restores resident populations
    from its checkpoints — so an engine holding a cached executor keeps
    working after a shutdown.
    """
    while _INSTANCES:
        _, executor = _INSTANCES.popitem()
        try:
            executor.close()
        except Exception:
            # One half-dead pool must not strand the rest of the cache.
            continue


atexit.register(shutdown_executors)
