"""Streaming inference engines.

``infer`` turns a probabilistic node into a deterministic stream node
whose output at each step is the *distribution* of the model's outputs
given all observations so far (Section 3.3). Every engine here
implements exactly that shape — :class:`InferenceEngine` is itself a
:class:`~repro.runtime.node.Node`, so inference runs in lock step with
deterministic nodes and its results can feed controllers
("inference-in-the-loop", Section 2.4).

Engines:

* :class:`ImportanceSampler` — Fig. 13: weights accumulate forever and
  are never reset; impractical for reactive programs (the paper's
  motivation for resampling) but the simplest semantics.
* :class:`ParticleFilter` — importance sampling + resampling at every
  step (Section 5.1).
* :class:`BoundedDelayedSampler` (BDS) — delayed sampling within a step,
  forced realization at the end of each step (Section 5.2).
* :class:`StreamingDelayedSampler` (SDS) — delayed sampling with the
  pointer-minimal graph maintained across steps (Section 5.3).
* :class:`OriginalDelayedSampler` (DS) — the Murray et al. graph
  maintained across steps; the baseline whose memory and latency grow
  with time (Section 6.3).

Execution runs through the pluggable layer of :mod:`repro.exec`: one
step is a map over population shards (each with its own RNG substream),
a global weight merge, and a resample barrier. By default the
population is a single shard driven by the engine's own generator —
bit-for-bit the classic sequential semantics. Passing ``executor=``
(or ``n_shards=``) partitions the population into deterministic shards
whose results are identical for any worker count.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.delayed.graph import DelayedGraph, graph_memory_words
from repro.delayed.interface import lift_distribution, value_expr
from repro.delayed.streaming import StreamingGraph
from repro.dists import Distribution, Empirical, Mixture
from repro.errors import InferenceError
from repro.exec.executor import (
    Executor,
    ProcessShardExecutor,
    SerialExecutor,
    parse_executor,
)
from repro.exec.shm import materialize
from repro.exec.supervision import RestartBudgetExhausted
from repro.obs.registry import count_event
from repro.exec.population import (
    DEFAULT_SHARDS,
    ResidentPopulation,
    ShardResult,
    ShardedPopulation,
    map_step,
    spawn_shard_rngs,
    split_sequence,
)
from repro.inference.contexts import DelayedCtx, SamplingCtx
from repro.inference.diagnostics import DiagnosticsLog, StepStats
from repro.inference.particles import (
    Particle,
    clone_particle,
    clone_state_concrete,
    state_words,
)
from repro.inference.resampling import RESAMPLERS, ess, normalize_log_weights
from repro.obs.spans import TELEMETRY
from repro.runtime.node import Node, ProbNode
from repro.symbolic import free_rvars

__all__ = [
    "InferenceEngine",
    "ImportanceSampler",
    "ParticleFilter",
    "BoundedDelayedSampler",
    "StreamingDelayedSampler",
    "OriginalDelayedSampler",
]


def _log_normalizer(log_weights: np.ndarray) -> float:
    """``log sum_i exp(log_weights_i)``, a NaN log-weight counting as ``-inf``.

    All-zero log-weights — the population after every resample — give
    ``log n`` without a pass over ``exp``.
    """
    if not log_weights.any():
        return math.log(log_weights.size)
    logw = log_weights[~np.isnan(log_weights)]
    top = logw.max(initial=-np.inf)
    if not np.isfinite(top):
        return float(top)
    logw -= top
    np.exp(logw, out=logw)
    return float(top + np.log(logw.sum()))


class InferenceEngine(Node):
    """Base class: a deterministic node wrapping a probabilistic model.

    State is the particle population; ``step`` advances every particle
    one synchronous instant and returns the posterior distribution over
    the model's output.

    ``resampler`` selects the scheme used when resampling triggers:
    ``"systematic"`` (the default), ``"stratified"``, ``"multinomial"``,
    or ``"residual"`` (deterministic copies of ``floor(n*w_i)`` per
    particle, multinomial on the fractional remainder).

    ``executor`` selects where the per-shard work of a step runs
    (``"serial"``, ``"threads:N"``, ``"processes:N"``,
    ``"processes-persistent:N"``, or an
    :class:`~repro.exec.executor.Executor` instance). Requesting an
    executor — or passing ``n_shards`` — switches the engine state from
    a plain particle list to a :class:`ShardedPopulation` whose shard
    count and per-shard RNG substreams are fixed independently of the
    executor, so every executor and worker count produces the same
    posterior bit-for-bit at a fixed seed. With a *resident* executor
    the state is instead a :class:`ResidentPopulation` handle — same
    partition, same substreams, but the payloads live in the executor's
    workers and the step is driven by commands. Without either knob the
    population is one shard on the engine's own generator: exactly the
    classic sequential behaviour.
    """

    #: graph class for delayed engines; None for concrete sampling.
    graph_cls = None
    #: keep the graph in the particle state between steps.
    persistent_graph = False
    #: force symbolic values to concrete ones at the end of each step.
    force_step_end = False
    #: resample after every step.
    resample = True

    def __init__(
        self,
        model: ProbNode,
        n_particles: int = 100,
        seed: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        resampler: str = "systematic",
        resample_threshold: Optional[float] = None,
        clone_on_resample: str = "all",
        executor: Union[None, str, Executor] = None,
        n_shards: Optional[int] = None,
        diagnostics: Union[bool, DiagnosticsLog] = False,
    ):
        if n_particles < 1:
            raise InferenceError("need at least one particle")
        if resampler not in RESAMPLERS:
            raise InferenceError(
                f"unknown resampler {resampler!r}; choose from {sorted(RESAMPLERS)}"
            )
        if clone_on_resample not in ("all", "duplicates"):
            raise InferenceError(
                "clone_on_resample must be 'all' or 'duplicates', "
                f"got {clone_on_resample!r}"
            )
        self.model = model
        self.n_particles = int(n_particles)
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.resampler = RESAMPLERS[resampler]
        self.resample_threshold = resample_threshold
        self.clone_on_resample = clone_on_resample
        # Sharded-execution configuration: an explicit executor or shard
        # count opts into the deterministic shard plan; the default is
        # the single-stream sequential population.
        self.executor = parse_executor(executor)
        self.sharded = executor is not None or n_shards is not None
        if n_shards is None:
            n_shards = DEFAULT_SHARDS if self.sharded else 1
        if int(n_shards) < 1:
            raise InferenceError("need at least one shard")
        self.n_shards = min(int(n_shards), self.n_particles)
        self._seed = seed
        #: diagnostics of the most recent step (StepStats or None)
        self.last_stats = None
        # Diagnostics collection: True builds a fresh log, an existing
        # DiagnosticsLog is shared (how the scalar-fallback migration
        # keeps one uninterrupted StepStats stream per infer() call).
        if diagnostics is True:
            self.diagnostics: Optional[DiagnosticsLog] = DiagnosticsLog()
        elif isinstance(diagnostics, DiagnosticsLog):
            self.diagnostics = diagnostics
        else:
            self.diagnostics = None

    # ------------------------------------------------------------------
    def init(self) -> Union[List[Particle], ShardedPopulation, ResidentPopulation]:
        particles = []
        for _ in range(self.n_particles):
            graph = self._fresh_graph() if self.persistent_graph else None
            particles.append(Particle(self.model.init(), graph, 0.0))
        if not self.sharded:
            return particles
        rngs = spawn_shard_rngs(self.n_shards, seed=self._seed, rng=self.rng)
        population = ShardedPopulation.build(
            split_sequence(particles, self.n_shards), rngs
        )
        if self.executor.resident:
            return ResidentPopulation.create(self.executor, self, population.shards)
        return population

    def step(
        self, state: Union[List[Particle], ShardedPopulation], inp: Any
    ) -> Tuple[Distribution, Union[List[Particle], ShardedPopulation]]:
        if isinstance(state, ResidentPopulation):
            return self._step_resident(state, inp)
        sharded = isinstance(state, ShardedPopulation)
        if sharded:
            population = state
        else:
            # Single shard on the engine's own generator: the executor
            # plan degenerates to the classic sequential step.
            population = ShardedPopulation.build([list(state)], [self.rng])
        timer = TELEMETRY.step_timer()
        results, population = self._map_population(population, inp)
        timer.mark("model_eval")
        outs = [out for result in results for out in result.outs]
        stepped = [p for result in results for p in result.payload]
        log_weights, weights = self._weigh(
            np.concatenate([r.prev_log_weights for r in results]),
            np.concatenate([r.step_log_weights for r in results]),
        )
        output = self._output_distribution(outs, weights)
        timer.mark("weight_merge")
        if self.resample and self._should_resample():
            stepped = self._resample(stepped, weights)
            timer.mark("resample")
        else:
            for particle, logw in zip(stepped, log_weights):
                particle.log_weight = float(logw)
            timer.mark("weight_commit")
        timer.total("step")
        if not sharded:
            return output, stepped
        return output, population.with_payloads(
            split_sequence(stepped, population.n_shards)
        )

    def step_shard(
        self, particles: List[Particle], rng: np.random.Generator, inp: Any
    ) -> ShardResult:
        """Map phase for one shard: advance its particles under ``rng``.

        Runs wherever the executor schedules it (inline, a thread, a
        worker process); touches only the shard's particles and its own
        generator, which is what makes the schedule irrelevant to the
        result.
        """
        outs: List[Any] = []
        stepped: List[Particle] = []
        step_logws: List[float] = []
        prev_logws: List[float] = []
        for particle in particles:
            out, new_particle, step_logw = self._step_particle(particle, inp, rng)
            outs.append(out)
            prev_logws.append(new_particle.log_weight)
            step_logws.append(step_logw)
            stepped.append(new_particle)
        return ShardResult(
            outs=outs,
            payload=stepped,
            step_log_weights=np.asarray(step_logws, dtype=float),
            prev_log_weights=np.asarray(prev_logws, dtype=float),
            rng=rng,
        )

    # ------------------------------------------------------------------
    # worker-resident execution (PersistentProcessExecutor)
    # ------------------------------------------------------------------
    def _map_population(
        self, population: ShardedPopulation, inp: Any
    ) -> Tuple[List[ShardResult], ShardedPopulation]:
        """Map the step over shards; second ladder rung on pool death.

        ``map_step`` on a :class:`ProcessShardExecutor` ships the whole
        shard each way and mutates no coordinator state, so when the
        pool itself dies (:class:`BrokenProcessPool` — workers OOM-killed
        or reaped) the identical map can simply be re-run serially:
        same shards, same substreams, bit-identical results. The engine
        drops to :class:`SerialExecutor` permanently for this stream.
        """
        try:
            return map_step(self.executor, self, population, inp)
        except BrokenProcessPool:
            if not isinstance(self.executor, ProcessShardExecutor):
                raise
            count_event(
                "repro_executor_degradations_total",
                {"from": "processes", "to": "serial"},
            )
            warnings.warn(
                "process pool died mid-stream; continuing serially "
                "(results are unchanged — shard partition and RNG "
                "substreams are executor-independent)",
                RuntimeWarning,
                stacklevel=3,
            )
            try:
                self.executor.close()
            except Exception:
                pass
            self.executor = SerialExecutor()
            return map_step(self.executor, self, population, inp)

    def _step_resident(
        self, population: ResidentPopulation, inp: Any
    ) -> Tuple[Distribution, ResidentPopulation]:
        """Supervised resident step: degrade off the pool if it fails.

        Wraps :meth:`_step_resident_plan` with the first rung of the
        executor-degradation ladder. Everything the plan mutates
        coordinator-side before the commit barrier — the engine RNG
        (ancestor draws) and the diagnostics log — is snapshotted here,
        so when the persistent pool exhausts its restart budget
        mid-step the step can be re-run from scratch on the next rung
        with bit-identical results.
        """
        executor = population.executor
        recoverable = hasattr(executor, "recover_population")
        if recoverable:
            rng_state = self.rng.bit_generator.state
            diag_mark = (
                len(self.diagnostics.steps)
                if self.diagnostics is not None
                else None
            )
        try:
            return self._step_resident_plan(population, inp)
        except RestartBudgetExhausted as exc:
            if not recoverable:
                raise
            state = self._degrade_resident(
                population, rng_state, diag_mark, exc
            )
            return self.step(state, inp)

    def _degrade_resident(
        self,
        population: ResidentPopulation,
        rng_state: Any,
        diag_mark: Optional[int],
        exc: RestartBudgetExhausted,
    ) -> ShardedPopulation:
        """Restart-budget exhausted: leave the persistent pool.

        Reassembles the population coordinator-side from the executor's
        checkpoints + oplogs (no worker involved), rewinds the engine
        RNG and diagnostics to the pre-step snapshot, and switches this
        engine to ``processes:N`` — same shard partition, same
        substreams, so the stream continues bit-identically. The shared
        persistent executor itself is left alone (other engines may
        still hold healthy populations on other slots).
        """
        executor = population.executor
        shards = executor.recover_population(population.key)
        population.release()
        self.rng.bit_generator.state = rng_state
        if diag_mark is not None:
            del self.diagnostics.steps[diag_mark:]
        count_event(
            "repro_executor_degradations_total",
            {"from": "processes-persistent", "to": "processes"},
        )
        warnings.warn(
            f"persistent executor exhausted its restart budget ({exc}); "
            "population recovered from checkpoints, continuing on a "
            "per-step process pool (results are unchanged)",
            RuntimeWarning,
            stacklevel=4,
        )
        self.executor = ProcessShardExecutor(getattr(executor, "workers", None))
        return ShardedPopulation(shards)

    def _step_resident_plan(
        self, population: ResidentPopulation, inp: Any
    ) -> Tuple[Distribution, ResidentPopulation]:
        """One step as commands against resident shard handles.

        The same plan as the materialized path — map the step, merge
        the weight vectors, resample at a global barrier — but the
        shard payloads never leave their workers: the map phase returns
        only outputs and weight vectors, the barrier ships only the
        global ancestor indices plus the migrating particles (or, when
        resampling does not trigger, nothing at all).
        """
        timer = TELEMETRY.step_timer()
        summaries = population.map_step(inp, trace=TELEMETRY.enabled)
        if TELEMETRY.enabled:
            # Worker-side spans piggybacked on the step replies: fold
            # them into the coordinator's registry at the merge point.
            for summary in summaries:
                if summary.spans:
                    TELEMETRY.recorder.record_shipped(summary.spans)
        timer.mark("model_eval")
        outs = self._merge_shard_outs([s.outs for s in summaries])
        # Only the weights outlive this statement: the log-weights stay
        # with the workers, so none of the vectors is held at the barrier.
        weights = self._weigh(
            np.concatenate([s.prev_log_weights for s in summaries]),
            np.concatenate([s.step_log_weights for s in summaries]),
        )[1]
        output = self._output_distribution(outs, weights)
        timer.mark("weight_merge")
        if self.resample and self._should_resample():
            # Barrier: ancestor indices from the engine-level generator
            # in the coordinator — identical under every executor.
            indices = np.asarray(self.resampler(weights, self.n_particles, self.rng))
            population.resample(indices)
            timer.mark("resample")
        else:
            population.commit_weights()
            timer.mark("weight_commit")
        timer.total("step")
        return output, population

    def _merge_shard_outs(self, chunks: List[Any]) -> Any:
        """Concatenate per-shard step outputs in shard order.

        Resident-mode outs may arrive as read-only views into a worker's
        reply ring (zero-copy transport); the merged outs escape the
        step inside the output distribution, so any such view is copied
        out here — the one place a reply reference outlives the step.
        """
        return [materialize(out) for chunk in chunks for out in chunk]

    def shard_export(
        self, payload: List[Particle], indices: Sequence[int]
    ) -> List[Particle]:
        """Worker-side: the particles another shard needs at the barrier.

        Exports travel through the coordinator as pickled messages, so
        the receiving shard always gets private copies — a migrated
        particle never aliases its source.
        """
        return [payload[int(i)] for i in indices]

    def shard_assemble(
        self,
        payload: List[Particle],
        plan: Sequence[tuple],
        imports: Dict[int, List[Particle]],
    ) -> List[Particle]:
        """Worker-side: rebuild one shard from the barrier exchange plan.

        ``plan`` entries are ``("local", index)`` or ``("import",
        source, row)``; the selection replays the serial re-scatter
        exactly. Cloning follows ``clone_on_resample``, with one
        economy: an import's first use *is* its clone (the pickle copy),
        so only repeated uses clone again.
        """
        clone_all = self.clone_on_resample == "all"
        used = set()
        rebuilt: List[Particle] = []
        for entry in plan:
            if entry[0] == "local":
                source = payload[entry[1]]
                needs_clone = clone_all or entry in used
            else:
                source = imports[entry[1]][entry[2]]
                needs_clone = entry in used
            used.add(entry)
            particle = clone_particle(source) if needs_clone else source
            particle.log_weight = 0.0
            rebuilt.append(particle)
        return rebuilt

    def shard_commit_weights(
        self, payload: List[Particle], log_weights: np.ndarray
    ) -> List[Particle]:
        """Worker-side: fold the step's log-weights into the particles."""
        for particle, logw in zip(payload, log_weights):
            particle.log_weight = float(logw)
        return payload

    def _weigh(
        self, prev_log_weights: np.ndarray, step_log_weights: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The step's log-weights and normalized weights; updates :attr:`last_stats`.

        One normalization serves the output distribution, the ESS, the
        resampler and the evidence. The incremental evidence
        ``log sum_i prev_w_i * exp(step_logw_i)`` (with uniform previous
        weights after a resample, the classic ``log mean w``) is the log
        normalizer of ``prev + step`` minus that of ``prev``. It comes
        from the NaN-zeroed weights, so one broken particle costs its
        weight, not the run's evidence; it is ``-inf`` when no particle
        keeps any weight.
        """
        log_weights = prev_log_weights + step_log_weights
        weights, log_z = normalize_log_weights(
            log_weights, return_log_normalizer=True
        )
        if np.isneginf(log_z):
            evidence = float("-inf")
        else:
            evidence = log_z - _log_normalizer(prev_log_weights)
        self.last_stats = StepStats(evidence, ess(weights), int(weights.size))
        if self.diagnostics is not None:
            self.diagnostics.record(self.last_stats)
        return log_weights, weights

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def _fresh_graph(self, rng: Optional[np.random.Generator] = None):
        return self.graph_cls(rng=self.rng if rng is None else rng)

    def _step_particle(self, particle: Particle, inp: Any, rng: np.random.Generator):
        raise NotImplementedError

    def _output_distribution(self, outs: List[Any], weights) -> Distribution:
        return Empirical(outs, weights)

    # ------------------------------------------------------------------
    def _should_resample(self) -> bool:
        """Resample this step? Reads the ESS :meth:`_weigh` computed."""
        if self.resample_threshold is None:
            return True
        return self.last_stats.ess < self.resample_threshold * self.n_particles

    def _resample(self, particles: List[Particle], weights) -> List[Particle]:
        """Resample: selected particles are duplicated by cloning state.

        With ``clone_on_resample="all"`` (the default) every selected
        particle is cloned, so the per-step resampling cost is
        proportional to the total live state — the cost model of the
        paper's runtime, where each step copies/garbage-collects the
        particles' heap. ``"duplicates"`` clones only the second and
        later occurrences of a particle (a sharing optimization that
        changes no results, only the latency profile).

        This is the barrier of the sharded plan: ancestor indices come
        from the engine-level generator in the coordinating process, so
        the selection is identical under every executor.
        """
        indices = self.resampler(weights, self.n_particles, self.rng)
        clone_all = self.clone_on_resample == "all"
        used = set()
        resampled: List[Particle] = []
        for idx in indices:
            idx = int(idx)
            source = particles[idx]
            if clone_all or idx in used:
                new_particle = clone_particle(source)
            else:
                used.add(idx)
                new_particle = source
            new_particle.log_weight = 0.0
            resampled.append(new_particle)
        return resampled

    # ------------------------------------------------------------------
    def memory_words(
        self, state: Union[List[Particle], ShardedPopulation]
    ) -> int:
        """Ideal memory: live abstract words held by the particle set.

        This is the reproduction of the paper's live-heap-words metric
        (Section 6.3): model state plus every graph node reachable from
        it through the pointers the graph implementation retains.
        """
        if isinstance(state, ResidentPopulation):
            state = state.materialize()
        if isinstance(state, ShardedPopulation):
            particles = [p for chunk in state.payloads() for p in chunk]
        else:
            particles = state
        total = 0
        for particle in particles:
            total += state_words(particle.state) + 2
            if particle.graph is not None:
                roots = [rv.node for rv in free_rvars(particle.state)]
                total += graph_memory_words(roots)
        return total


class ImportanceSampler(InferenceEngine):
    """Pure importance sampling: no resampling, weights accumulate.

    As the paper notes, "the probability of each individual path quickly
    collapses to 0 after a few steps", which is why the particle filter
    exists; this engine is the semantic baseline.
    """

    resample = False

    def _step_particle(self, particle: Particle, inp: Any, rng: np.random.Generator):
        ctx = SamplingCtx(rng)
        out, new_state = self.model.step(particle.state, inp, ctx)
        return out, Particle(new_state, None, particle.log_weight), ctx.log_weight


class ParticleFilter(InferenceEngine):
    """Bootstrap particle filter: sampling semantics + resampling."""

    def _step_particle(self, particle: Particle, inp: Any, rng: np.random.Generator):
        ctx = SamplingCtx(rng)
        out, new_state = self.model.step(particle.state, inp, ctx)
        return out, Particle(new_state, None, particle.log_weight), ctx.log_weight


class BoundedDelayedSampler(InferenceEngine):
    """Bounded delayed sampling (BDS, Section 5.2).

    Each step runs under a fresh graph, so conjugacy *within* the step is
    exploited (the HMM's observation conditions the position before it
    is sampled), and every symbolic value is forced at the end of the
    instant — the graph never survives a step, so memory is bounded by
    the per-step variable count for any model.
    """

    graph_cls = StreamingGraph
    persistent_graph = False
    force_step_end = True

    def _step_particle(self, particle: Particle, inp: Any, rng: np.random.Generator):
        graph = self._fresh_graph(rng)
        ctx = DelayedCtx(graph)
        out, new_state = self.model.step(particle.state, inp, ctx)
        # End of the instant: delay expires, every symbolic term is
        # realized so nothing references the step's graph afterwards.
        out = value_expr(graph, out)
        new_state = value_expr(graph, new_state)
        return out, Particle(new_state, None, particle.log_weight), ctx.log_weight


class _PersistentDelayedEngine(InferenceEngine):
    """Shared implementation of SDS and DS (graph kept across steps)."""

    persistent_graph = True

    def _step_particle(self, particle: Particle, inp: Any, rng: np.random.Generator):
        # The graph samples with whatever generator it references; bind
        # it to the shard substream so realizations drawn inside this
        # step are shard-deterministic (particles may have migrated here
        # from another shard at the last resample barrier).
        particle.graph.rng = rng
        ctx = DelayedCtx(particle.graph)
        out, new_state = self.model.step(particle.state, inp, ctx)
        out_dist = lift_distribution(particle.graph, out)
        new_particle = Particle(new_state, particle.graph, particle.log_weight)
        return out_dist, new_particle, ctx.log_weight

    def _output_distribution(self, outs: List[Any], weights) -> Distribution:
        return Mixture(outs, weights)


class StreamingDelayedSampler(_PersistentDelayedEngine):
    """Streaming delayed sampling (SDS, Section 5.3).

    The pointer-minimal graph persists across steps: conjugacy chains
    spanning time steps stay exact (e.g. the full Kalman posterior), and
    nodes the program no longer references become unreachable, keeping
    memory constant for state-space models.
    """

    graph_cls = StreamingGraph


class OriginalDelayedSampler(_PersistentDelayedEngine):
    """Original delayed sampling (DS) maintained across steps.

    Identical inference results to SDS, but the graph keeps backward
    pointers between marginalized nodes, so the live graph — and with it
    per-step clone cost — grows linearly with time (Fig. 18, Fig. 19).
    """

    graph_cls = DelayedGraph
