"""Pluggable execution layer: one sharded runtime under every engine.

The inference engines of :mod:`repro.inference` and
:mod:`repro.vectorized` both express one synchronous step as the same
plan — map the step over population shards, combine the per-shard
weight partials, resample at a barrier — and this package owns that
plan:

* :class:`Executor` and its implementations (:class:`SerialExecutor`,
  :class:`ThreadShardExecutor`, :class:`PersistentProcessExecutor` —
  the process executor, where shards stay loaded in long-lived workers
  and only commands cross the process boundary) decide where shard
  tasks run,
* :class:`ShardedPopulation` fixes the deterministic partition: shard
  count and per-shard ``SeedSequence`` substreams are independent of
  the executor, and :class:`ShardHome` runs the same shard operations
  (step, weight reduction, self-resampling at the barrier) under every
  executor, so any worker count reproduces the serial posterior
  bit-for-bit at a fixed seed,
* :class:`StreamServer` multiplexes many concurrent engine streams
  (sessions) over one shared executor.

Select it through the public API::

    from repro import infer
    engine = infer(model, n_particles=10_000, executor="processes-persistent:4")
"""

from repro.exec.executor import (
    EXECUTORS,
    Executor,
    PersistentProcessExecutor,
    SerialExecutor,
    ThreadShardExecutor,
    default_workers,
    parse_executor,
    shutdown_executors,
)
from repro.exec.population import (
    DEFAULT_SHARDS,
    LocalPopulation,
    ResidentPopulation,
    Shard,
    ShardBarrier,
    ShardHome,
    ShardResult,
    ShardSummary,
    ShardedPopulation,
    shard_bounds,
    shard_sizes,
    spawn_shard_rngs,
    split_sequence,
)
from repro.exec.server import StreamServer, StreamSession
from repro.exec.supervision import (
    RestartBudgetExhausted,
    RingFault,
    WorkerTimeout,
)

__all__ = [
    "WorkerTimeout",
    "RingFault",
    "RestartBudgetExhausted",
    "Executor",
    "SerialExecutor",
    "ThreadShardExecutor",
    "PersistentProcessExecutor",
    "EXECUTORS",
    "parse_executor",
    "shutdown_executors",
    "default_workers",
    "DEFAULT_SHARDS",
    "Shard",
    "ShardBarrier",
    "ShardHome",
    "ShardResult",
    "ShardSummary",
    "ShardedPopulation",
    "ResidentPopulation",
    "LocalPopulation",
    "shard_sizes",
    "shard_bounds",
    "split_sequence",
    "spawn_shard_rngs",
    "StreamServer",
    "StreamSession",
]
