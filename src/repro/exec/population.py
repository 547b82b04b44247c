"""Sharded particle populations and the executor-driven step cycle.

One inference step over a sharded population is a fixed plan::

    map-step          every shard advances its particles with its own
                      RNG substream (scheduled by an Executor) and
                      reduces its own log-weights to a few partials
                      (:class:`~repro.inference.resampling.ShardWeights`),
    combine           the coordinator combines the S partials into shard
                      mass fractions, the evidence and the ESS,
    resample-barrier  the coordinator draws the one systematic offset and
                      sends each shard a :class:`ShardBarrier`: that
                      offset plus the shard's cumulative-mass and pick
                      bounds. Each shard derives its own offspring
                      counts, keeps its own survivors and exports only
                      the rows whose picks land in another shard.

The barrier costs the coordinator O(shards): systematic resampling's
ancestor map is monotone, so a shard's picks and a shard's slots are
both contiguous ranges, and only the particles near a shard boundary
can migrate. The other resamplers draw global indices in the
coordinator; one ``bincount`` reduces them to the same per-shard
offspring counts, which then ride the barrier instead of the offset.
Counts keep no order, so a sharded population takes its ancestors in
sorted order whichever resampler drew them (multinomial and residual
draws come unsorted; the unsharded step keeps their order). So does a
step whose total mass is not finite, which resamples from uniform
weights.

Determinism comes from fixing the *partition*, not the schedule: the
shard count and the per-shard :class:`numpy.random.SeedSequence`
substreams are properties of the population, chosen independently of
the executor, and every executor runs the same shard operations
(:class:`ShardHome`, which :class:`LocalPopulation` schedules over
materialized shards), so any worker count — serial, 4 threads, 4
processes — produces the same posterior bit-for-bit. Summation order
depends on the shard count, so a different partition is a different,
equally valid, stream.

Shard payloads are opaque to this module: the scalar engines put a
``list`` of :class:`~repro.inference.particles.Particle` objects in each
shard, the vectorized engines a
:class:`~repro.vectorized.batch.ParticleBatch` slice. The engine is the
per-shard stepper, through the payload hooks of
:class:`~repro.inference.engine.InferenceEngine`: ``_init_payload``
builds each shard, ``step_shard`` advances it, ``shard_export`` /
``shard_keep`` / ``shard_assemble`` / ``shard_commit_weights`` apply
the barrier, ``_merge_shard_outs`` joins the per-shard outputs and
``_payload_words`` measures a shard. The unsharded step applies its
barrier through the same hooks, as one shard with no imports.

:class:`ResidentPopulation` is the worker-resident variant of the same
plan for :class:`~repro.exec.executor.PersistentProcessExecutor`: the
shards stay loaded in long-lived workers, the engine sees only a
handle, and each phase of the cycle becomes a command — ``map_step``
returns light :class:`ShardSummary` records, the resample barrier
ships the per-shard barriers plus the few migrating rows, and a
barrier without resampling ships nothing at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import InferenceError
from repro.exec.shm import register_shm_leaf

if TYPE_CHECKING:
    # Imported lazily at run time: the executor module imports this one,
    # and repro.inference imports the exec package.
    from repro.exec.executor import Executor
    from repro.inference.resampling import ShardWeights

__all__ = [
    "DEFAULT_SHARDS",
    "Shard",
    "ShardResult",
    "ShardSummary",
    "ShardedPopulation",
    "ResidentPopulation",
    "ShardBarrier",
    "ShardHome",
    "LocalPopulation",
    "route_exports",
    "shard_len",
    "shard_sizes",
    "shard_bounds",
    "split_sequence",
    "spawn_shard_rngs",
]

#: shard count used when an executor is requested without an explicit
#: ``n_shards``. A fixed constant — deliberately *not* derived from the
#: worker count — so the posterior is identical for every executor.
DEFAULT_SHARDS = 4


def shard_sizes(n_items: int, n_shards: int) -> List[int]:
    """Balanced contiguous partition sizes (first shards get the rest)."""
    if n_shards < 1:
        raise InferenceError("need at least one shard")
    if n_items < n_shards:
        raise InferenceError(
            f"cannot split {n_items} particles into {n_shards} shards"
        )
    base, extra = divmod(n_items, n_shards)
    return [base + (1 if i < extra else 0) for i in range(n_shards)]


def shard_bounds(n_items: int, n_shards: int) -> List[Tuple[int, int]]:
    """The ``(start, stop)`` slice of each shard in the merged order."""
    bounds = []
    start = 0
    for size in shard_sizes(n_items, n_shards):
        bounds.append((start, start + size))
        start += size
    return bounds


def split_sequence(items: Sequence[Any], n_shards: int) -> List[List[Any]]:
    """Split a sequence into the contiguous per-shard chunks."""
    return [list(items[start:stop]) for start, stop in shard_bounds(len(items), n_shards)]


def spawn_shard_rngs(
    n_shards: int,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[np.random.Generator]:
    """One independent generator per shard via ``SeedSequence.spawn``.

    With a ``seed``, the substreams are a pure function of
    ``(seed, n_shards)``. Without one, entropy is drawn from ``rng`` (or
    the OS), so the substreams are still reproducible for a seeded
    engine-level generator.
    """
    if seed is not None:
        entropy: Union[int, None] = int(seed)
    elif rng is not None:
        entropy = int(rng.integers(0, 2**63))
    else:
        entropy = None
    root = np.random.SeedSequence(entropy)
    return [np.random.default_rng(child) for child in root.spawn(n_shards)]


@dataclass
class Shard:
    """One partition of the population: payload plus its RNG substream."""

    index: int
    rng: np.random.Generator
    payload: Any


@dataclass
class ShardResult:
    """What one shard reports back from the map phase of a step."""

    #: stacked per-particle outputs (list for scalar shards, array
    #: pytree for batch shards)
    outs: Any
    #: the advanced shard payload
    payload: Any
    #: this step's observe/factor log-weight contributions
    step_log_weights: np.ndarray
    #: accumulated log-weights carried into the step
    prev_log_weights: np.ndarray
    #: the shard generator after the step
    rng: np.random.Generator


class ShardedPopulation:
    """A particle population partitioned into deterministic shards.

    This is the engine state in sharded mode — the counterpart of the
    scalar engines' particle list and the vectorized engines'
    :class:`~repro.vectorized.batch.ParticleBatch`, holding the same
    information split into contiguous chunks that carry their own RNG
    substreams.
    """

    def __init__(self, shards: Sequence[Shard]):
        if not shards:
            raise InferenceError("a sharded population needs at least one shard")
        self.shards = list(shards)

    @classmethod
    def build(
        cls,
        chunks: Sequence[Any],
        rngs: Sequence[np.random.Generator],
    ) -> "ShardedPopulation":
        """A population from per-shard payload chunks and generators."""
        if len(chunks) != len(rngs):
            raise InferenceError("need exactly one generator per shard")
        return cls(
            [Shard(i, rng, chunk) for i, (chunk, rng) in enumerate(zip(chunks, rngs))]
        )

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def payloads(self) -> List[Any]:
        return [shard.payload for shard in self.shards]

    def __len__(self) -> int:
        return self.n_shards

    def __repr__(self) -> str:
        return f"ShardedPopulation(n_shards={self.n_shards})"


@dataclass
class ShardSummary:
    """What a *resident* shard reports back from the map phase.

    The light-weight counterpart of :class:`ShardResult`: the advanced
    payload, generator and log-weights stay in the worker; only the
    per-particle outputs and the shard's reduced weights cross the
    process boundary.
    """

    #: stacked per-particle outputs (list for scalar shards, array
    #: pytree for batch shards)
    outs: Any
    #: the shard's log-weights reduced in the worker
    weights: "ShardWeights"
    #: worker-side telemetry spans ``[(phase, duration_ms), ...]`` when
    #: the step command requested tracing; None otherwise.
    spans: Any = None


@dataclass(frozen=True)
class ShardBarrier:
    """What one shard needs to resample itself at the barrier.

    Systematic resampling ships O(1) numbers: the coordinator's one
    uniform ``offset`` plus the shard's ``fraction`` of the mass and the
    cumulative ``mass`` before it; the shard counts its own picks with
    :func:`~repro.inference.resampling.systematic_shard_counts`. The
    other resamplers draw global indices in the coordinator and ship
    the shard's offspring ``counts`` instead.

    Either way the shard owns the global picks ``picks[0] <= j <
    picks[1]``, and pick ``j`` fills slot ``j`` of the fixed partition
    whose shard offsets are ``slots``. Both ranges are contiguous, so
    the shard keeps the picks inside its own slots and exports the rest.
    """

    #: this shard's index
    index: int
    #: shard offsets of the fixed partition (``S + 1`` entries)
    slots: Tuple[int, ...]
    #: the global picks whose ancestor lives in this shard
    picks: Tuple[int, int]
    #: systematic: the uniform offset of pick 0
    offset: float = 0.0
    #: systematic: the cumulative mass of the shards before this one
    mass: float = 0.0
    #: systematic: this shard's share of the mass
    fraction: float = 1.0
    #: other resamplers: this shard's offspring count per particle
    counts: Optional[np.ndarray] = None

    def routes(self) -> List[Tuple[int, int, int]]:
        """``(destination, first, stop)`` for each shard this one's picks fill.

        ``first:stop`` slices the shard's ancestor array (one entry per
        owned pick, in pick order).
        """
        lo, hi = self.picks
        out = []
        for dest in range(len(self.slots) - 1):
            first = max(lo, self.slots[dest])
            stop = min(hi, self.slots[dest + 1])
            if first < stop:
                out.append((dest, first - lo, stop - lo))
        return out


# A barrier command opens up so a non-systematic barrier's offspring
# counts ride the command ring; the systematic one is a few numbers.
register_shm_leaf(
    ShardBarrier,
    lambda b: (b.index, b.slots, b.picks, b.offset, b.mass, b.fraction, b.counts),
    lambda parts: ShardBarrier(*parts),
)

# A checkpoint ``pull`` reply is one Shard; opening it up lets the
# payload arrays (vectorized batch states) ride the reply ring. The RNG
# rides the pickle — it is an opaque Generator, not an array.
register_shm_leaf(
    Shard,
    lambda shard: (shard.index, shard.rng, shard.payload),
    lambda parts: Shard(*parts),
)


class ShardHome:
    """One shard and the shard-side operations of the step cycle.

    Holds the shard (payload plus RNG substream), the stepper that
    advances it and what the barrier needs from its latest step: the
    accumulated log-weights (for a commit) and the weights normalized
    within the shard (for resampling). A persistent worker keeps one
    per resident shard and runs its commands through it; coordinator
    recovery replays oplogs through it; the materialized executors run
    the barrier through transient ones. One implementation, so every
    executor computes the same bits.

    The resample barrier takes two calls: :meth:`resample` derives the
    shard's ancestors, sets its own survivors aside and returns the rows
    other shards need; :meth:`assemble` installs the survivors and the
    rows imported from other shards. Nothing is installed before every
    shard has exported, so a failure between the two leaves the shard
    as the step left it.
    """

    __slots__ = ("shard", "stepper", "log_weights", "weights", "_kept")

    def __init__(self, shard: Shard, stepper: Any):
        self.shard = shard
        self.stepper = stepper
        self.log_weights: Optional[np.ndarray] = None
        self.weights: Optional[np.ndarray] = None
        self._kept: Any = None

    def step(self, inp: Any) -> Tuple[Any, "ShardWeights"]:
        """Advance the shard; returns its outputs and reduced weights."""
        from repro.inference.resampling import reduce_shard_weights

        result = self.stepper.step_shard(self.shard.payload, self.shard.rng, inp)
        self.shard.payload = result.payload
        self.shard.rng = result.rng
        self.log_weights = result.prev_log_weights + result.step_log_weights
        reduced = reduce_shard_weights(self.log_weights, result.prev_log_weights)
        self.weights = reduced.weights
        self._kept = None
        return result.outs, reduced

    def resample(self, barrier: ShardBarrier) -> Dict[int, Any]:
        """Resample the shard; returns the rows bound for other shards.

        The survivors whose picks fill this shard's own slots are set
        aside for :meth:`assemble`; the result maps each other shard to
        the rows of the picks that fill its slots.
        """
        from repro.inference.resampling import (
            ancestors_from_counts,
            systematic_shard_counts,
        )

        if self.weights is None:
            raise InferenceError("resample without a preceding step")
        if barrier.counts is None:
            cumulative = systematic_shard_counts(
                self.weights, barrier.fraction, barrier.mass, barrier.picks,
                barrier.offset, barrier.slots[-1],
            )
        else:
            cumulative = np.cumsum(barrier.counts)
        ancestors = ancestors_from_counts(cumulative)
        payload = self.shard.payload
        exports = {}
        kept = ancestors[:0]
        for dest, first, stop in barrier.routes():
            if dest == barrier.index:
                kept = ancestors[first:stop]
            else:
                exports[dest] = self.stepper.shard_export(payload, ancestors[first:stop])
        self._kept = self.stepper.shard_keep(payload, kept)
        return exports

    def assemble(self, barrier: ShardBarrier, imports: Dict[int, Any]) -> None:
        """Install the survivors and the imported rows.

        Slots fill in pick order and a shard's picks are contiguous, so
        rows from lower-indexed sources precede the survivors and rows
        from higher-indexed ones follow them.
        """
        if self._kept is None:  # replayed from the oplog
            self.resample(barrier)
        sources = sorted(imports)
        self.shard.payload = self.stepper.shard_assemble(
            self._kept,
            [imports[s] for s in sources if s < barrier.index],
            [imports[s] for s in sources if s > barrier.index],
        )
        self.log_weights = self.weights = self._kept = None

    def commit_weights(self) -> None:
        """Barrier without resampling: fold the step's log-weights in."""
        if self.log_weights is None:
            raise InferenceError("weight commit without a preceding step")
        self.shard.payload = self.stepper.shard_commit_weights(
            self.shard.payload, self.log_weights
        )

    def replay(self, entry: tuple) -> None:
        """Re-apply one logged command (see the executor's oplog)."""
        if entry[0] == "step":
            self.step(entry[1])
        elif entry[0] == "assemble":
            self.assemble(entry[1], entry[2])
        elif entry[0] == "weights":
            self.commit_weights()
        else:
            raise InferenceError(f"unknown oplog entry {entry[0]!r}")


class ResidentPopulation:
    """A handle to a population whose shards live in executor workers.

    The worker-resident counterpart of :class:`ShardedPopulation`: the
    partition (shard count, sizes, RNG substreams) is identical, but
    the payloads stay resident in the workers of a
    :class:`~repro.exec.executor.PersistentProcessExecutor` and the
    engine drives them through commands — step, weight commit, resample
    exchange — instead of shipping them through every call.
    """

    def __init__(self, executor: "Executor", key: int, sizes: Sequence[int]):
        self.executor = executor
        self.key = key
        self.sizes = list(sizes)
        self._released = False

    @classmethod
    def create(
        cls, executor: "Executor", stepper: Any, shards: Sequence[Shard]
    ) -> "ResidentPopulation":
        """Load ``shards`` into the executor's workers under a new key."""
        sizes = [shard_len(shard) for shard in shards]
        key = executor.new_key()
        executor.load_population(key, stepper, shards)
        return cls(executor, key, sizes)

    @property
    def n_shards(self) -> int:
        return len(self.sizes)

    @property
    def n_particles(self) -> int:
        return sum(self.sizes)

    def _check_live(self) -> None:
        if self._released:
            raise InferenceError("this resident population has been released")

    def map_step(self, inp: Any, trace: bool = False) -> List[ShardSummary]:
        """Advance every resident shard one step; collect the summaries.

        With ``trace=True`` the step command asks each worker to time
        its shard step and ship the spans back with the summary.
        """
        from repro.inference.resampling import ShardWeights

        self._check_live()
        return [
            ShardSummary(outs, ShardWeights(*weights), *spans)
            for outs, weights, *spans in self.executor.step_population(
                self.key, inp, trace=trace
            )
        ]

    def resample(self, barriers: Sequence[ShardBarrier]) -> None:
        """Barrier with resampling: shards resample themselves, migrants move."""
        self._check_live()
        self.executor.exchange_population(self.key, barriers)

    def commit_weights(self) -> None:
        """Barrier without resampling: workers fold weights locally."""
        self._check_live()
        self.executor.commit_population_weights(self.key)

    def materialize(self) -> ShardedPopulation:
        """Pull every shard out of the workers (diagnostics, checkpoints)."""
        self._check_live()
        return ShardedPopulation(self.executor.pull_population(self.key))

    def release(self) -> None:
        """Free the worker-resident shards and coordinator checkpoints."""
        if self._released:
            return
        self._released = True
        self.executor.release_population(self.key)

    def __del__(self) -> None:
        try:
            self.release()
        except Exception:
            pass

    def __len__(self) -> int:
        return self.n_shards

    def __repr__(self) -> str:
        return (
            f"ResidentPopulation(key={self.key}, n_shards={self.n_shards}, "
            f"released={self._released})"
        )


class LocalPopulation:
    """A materialized population, stepped through one :class:`ShardHome` per shard.

    The in-process counterpart of :class:`ResidentPopulation`, with the
    same ``map_step`` / ``resample`` / ``commit_weights`` interface, so
    the engines drive one barrier for every executor: the serial and
    thread executors schedule the shard operations with ``map_shards``,
    and :meth:`materialize` hands back the advanced population. The
    shards of the input population are wrapped, not mutated.
    """

    def __init__(
        self, executor: "Executor", stepper: Any, population: ShardedPopulation
    ):
        self.executor = executor
        self.homes = [
            ShardHome(Shard(shard.index, shard.rng, shard.payload), stepper)
            for shard in population.shards
        ]

    def map_step(self, inp: Any, trace: bool = False) -> List[ShardSummary]:
        """Advance every shard; the reductions run in the map tasks."""
        return [
            ShardSummary(outs, weights)
            for outs, weights in self.executor.map_shards(
                lambda home: home.step(inp), self.homes
            )
        ]

    def resample(self, barriers: Sequence[ShardBarrier]) -> None:
        """Barrier with resampling: the same two rounds a worker runs."""
        packages = self.executor.map_shards(
            lambda pair: pair[0].resample(pair[1]), list(zip(self.homes, barriers))
        )
        imports = route_exports(packages)
        self.executor.map_shards(
            lambda i: self.homes[i].assemble(barriers[i], imports[i]),
            range(len(self.homes)),
        )

    def commit_weights(self) -> None:
        """Barrier without resampling: fold each shard's weights in."""
        for home in self.homes:
            home.commit_weights()

    def materialize(self) -> ShardedPopulation:
        """The advanced population."""
        return ShardedPopulation([home.shard for home in self.homes])


def route_exports(packages: Sequence[Dict[int, Any]]) -> List[Dict[int, Any]]:
    """Turn each source shard's exports into each destination's imports.

    ``packages[source]`` maps a destination shard to the rows the source
    sends it; the result maps, for every shard, each source to the rows
    it receives.
    """
    imports: List[Dict[int, Any]] = [{} for _ in packages]
    for source, package in enumerate(packages):
        for dest, rows in package.items():
            imports[dest][source] = rows
    return imports


def shard_len(shard: Any) -> int:
    """Particle count of a shard payload (list or ParticleBatch-like)."""
    payload = shard.payload
    if hasattr(payload, "n"):
        return int(payload.n)
    return len(payload)
