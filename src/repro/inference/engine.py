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

Execution runs through the pluggable layer of :mod:`repro.exec`. By
default the population is one list driven by the engine's own
generator — the classic sequential semantics: one global weight
normalization, then the resampler. Passing ``executor=`` (or
``n_shards=``) partitions the population into deterministic shards:
one step is then a map over the shards (each with its own RNG
substream, each reducing its own log-weights), a combine of the
per-shard partials, and a resample barrier in which every shard
resamples itself (:mod:`repro.exec.population`). Its results are
identical for any executor and worker count.
"""

from __future__ import annotations

import warnings
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.delayed.graph import DelayedGraph, graph_memory_words
from repro.delayed.interface import lift_distribution, value_expr
from repro.delayed.streaming import StreamingGraph
from repro.dists import Distribution, Empirical, Mixture
from repro.errors import InferenceError
from repro.exec.executor import Executor, SerialExecutor, parse_executor
from repro.exec.shm import materialize
from repro.exec.supervision import RestartBudgetExhausted
from repro.obs.registry import count_event
from repro.exec.population import (
    DEFAULT_SHARDS,
    LocalPopulation,
    ResidentPopulation,
    Shard,
    ShardBarrier,
    ShardResult,
    ShardedPopulation,
    shard_sizes,
    spawn_shard_rngs,
)
from repro.inference.contexts import DelayedCtx, SamplingCtx
from repro.inference.diagnostics import DiagnosticsLog, StepStats
from repro.inference.particles import (
    Particle,
    clone_particle,
    clone_state_concrete,
    state_words,
)
from repro.inference.resampling import (
    RESAMPLERS,
    ShardWeights,
    ess,
    log_normalizer,
    normalize_log_weights,
    report_nan_log_weights,
    systematic_indices,
    systematic_shard_bounds,
)
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
    (``"serial"``, ``"threads:N"``, ``"processes-persistent:N"``, or an
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

    This class is the only implementation of ``init``, ``step`` and
    ``memory_words``, for every executor and both substrates. A
    substrate supplies the *payload* of one population or shard — here
    a list of :class:`Particle` objects, a
    :class:`~repro.vectorized.batch.ParticleBatch` in
    :class:`~repro.vectorized.engine.VectorizedEngine` — through these
    hooks:

    * ``_init_payload(n, rng)`` — ``n`` fresh particles; called once for
      the whole population, or once per shard on its substream;
    * ``step_shard(payload, rng, inp)`` — advance a payload one instant;
    * ``shard_export`` / ``shard_keep`` / ``shard_assemble`` — the
      resample barrier; the unsharded step resamples with
      ``shard_assemble(shard_keep(payload, indices), [], [])``;
    * ``shard_commit_weights`` — the barrier without resampling;
    * ``_merge_shard_outs`` — concatenate per-shard outputs;
    * ``_payload_words`` — live abstract words of one payload.
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
    def init(self) -> Union[Any, ShardedPopulation, ResidentPopulation]:
        if not self.sharded:
            return self._init_payload(self.n_particles, self.rng)
        rngs = spawn_shard_rngs(self.n_shards, seed=self._seed, rng=self.rng)
        sizes = shard_sizes(self.n_particles, self.n_shards)
        population = ShardedPopulation.build(
            [self._init_payload(size, rng) for size, rng in zip(sizes, rngs)], rngs
        )
        if self.executor.resident:
            return ResidentPopulation.create(self.executor, self, population.shards)
        return population

    def step(
        self, state: Union[Any, ShardedPopulation, ResidentPopulation], inp: Any
    ) -> Tuple[Distribution, Union[Any, ShardedPopulation, ResidentPopulation]]:
        if isinstance(state, ResidentPopulation):
            return self._step_resident(state, inp)
        if isinstance(state, ShardedPopulation):
            return self._step_shards(state, inp)
        # One population on the engine's own generator: the classic
        # sequential step, its barrier applied through the shard hooks.
        timer = TELEMETRY.step_timer()
        result = self.step_shard(state, self.rng, inp)
        timer.mark("model_eval")
        log_weights, weights = self._weigh(
            result.prev_log_weights, result.step_log_weights
        )
        output = self._output_distribution(result.outs, weights)
        timer.mark("weight_merge")
        if self.resample and self._should_resample():
            indices = self.resampler(weights, self.n_particles, self.rng)
            payload = self.shard_assemble(
                self.shard_keep(result.payload, indices), [], []
            )
            timer.mark("resample")
        else:
            payload = self.shard_commit_weights(result.payload, log_weights)
            timer.mark("weight_commit")
        timer.total("step")
        return output, payload

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
    def _step_resident(
        self, population: ResidentPopulation, inp: Any
    ) -> Tuple[Distribution, Union[ShardedPopulation, ResidentPopulation]]:
        """Supervised resident step: degrade off the pool if it fails.

        Wraps :meth:`_step_shards` with the executor-degradation
        ladder (``processes-persistent`` → ``serial``). When the
        persistent pool exhausts its restart budget mid-step, the
        population is rewound to its pre-step state
        (:meth:`step_snapshot` / :meth:`rewind_resident`) and this
        engine switches to :class:`SerialExecutor` — same shard
        partition, same substreams — so the step re-runs with
        bit-identical results. The shared persistent executor itself is
        left alone (other engines may still hold healthy populations on
        other slots).
        """
        recoverable = hasattr(population.executor, "recover_population")
        snapshot = self.step_snapshot() if recoverable else None
        try:
            return self._step_shards(population, inp)
        except RestartBudgetExhausted as exc:
            if not recoverable:
                raise
            shards = self.rewind_resident(population, snapshot)
            count_event(
                "repro_executor_degradations_total",
                {"from": "processes-persistent", "to": "serial"},
            )
            warnings.warn(
                f"persistent executor exhausted its restart budget ({exc}); "
                "population recovered from checkpoints, continuing serially "
                "(results are unchanged)",
                RuntimeWarning,
                stacklevel=3,
            )
            self.executor = SerialExecutor()
            return self.step(ShardedPopulation(shards), inp)

    def step_snapshot(self) -> Tuple[Any, Optional[int]]:
        """What a step mutates coordinator-side before its commit barrier.

        The engine RNG (ancestor draws) and the length of the
        diagnostics log: everything :meth:`rewind_resident` restores so
        that a failed resident step can re-run bit-identically.
        """
        diag_mark = (
            len(self.diagnostics.steps) if self.diagnostics is not None else None
        )
        return self.rng.bit_generator.state, diag_mark

    def rewind_resident(
        self, population: ResidentPopulation, snapshot: Tuple[Any, Optional[int]]
    ) -> List[Shard]:
        """Recover a failed resident population to a :meth:`step_snapshot`.

        Reassembles the shards coordinator-side from the executor's
        checkpoints + oplogs (no worker involved), releases the handle,
        and rewinds the engine RNG and diagnostics to the snapshot.
        Returns the recovered shards, ready to be reloaded or stepped
        serially.
        """
        shards = population.executor.recover_population(population.key)
        population.release()
        rng_state, diag_mark = snapshot
        self.rng.bit_generator.state = rng_state
        if diag_mark is not None:
            del self.diagnostics.steps[diag_mark:]
        return shards

    def _step_shards(
        self, population: Union[ShardedPopulation, ResidentPopulation], inp: Any
    ) -> Tuple[Distribution, Union[ShardedPopulation, ResidentPopulation]]:
        """One step over a sharded population, materialized or resident.

        Every shard advances and reduces its own log-weights (in the
        executor's workers); the coordinator combines the per-shard
        partials (:meth:`_combine`) and, when resampling triggers,
        sends each shard its :class:`ShardBarrier` (:meth:`_barriers`).
        Each shard then resamples itself and only the rows that change
        shards move. A resident population is its own handle; a
        materialized one is driven through a :class:`LocalPopulation`
        with the same interface, which runs the same shard operations,
        so the result does not depend on the executor. Resident reply
        arrays are read-only views into the workers' rings, valid until
        the next command: :meth:`_merge_shard_outs` and :meth:`_combine`
        copy them out before the barrier is sent.
        """
        resident = isinstance(population, ResidentPopulation)
        shards = (
            population if resident
            else LocalPopulation(self.executor, self, population)
        )
        timer = TELEMETRY.step_timer()
        summaries = shards.map_step(inp, trace=TELEMETRY.enabled)
        if TELEMETRY.enabled:
            # Worker-side spans piggybacked on the step replies: fold
            # them into the coordinator's registry at the merge point.
            for summary in summaries:
                if summary.spans:
                    TELEMETRY.recorder.record_shipped(summary.spans)
        timer.mark("model_eval")
        outs = self._merge_shard_outs([summary.outs for summary in summaries])
        partials = [summary.weights for summary in summaries]
        weights, fractions = self._combine(partials)
        output = self._output_distribution(outs, weights)
        timer.mark("weight_merge")
        if self.resample and self._should_resample():
            shards.resample(self._barriers(partials, fractions, weights))
            timer.mark("resample")
        else:
            shards.commit_weights()
            timer.mark("weight_commit")
        timer.total("step")
        return output, population if resident else shards.materialize()

    def _combine(
        self, partials: List[ShardWeights]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The global weights and shard mass fractions; updates :attr:`last_stats`.

        The sharded counterpart of :meth:`_weigh`, from O(shards)
        numbers: :func:`normalize_log_weights` over the shards' log
        masses gives each shard's fraction of the mass and the log
        normalizer, from which come the evidence and the ESS. When the
        total mass is not finite (every particle scored ``-inf``, or
        some ``+inf``) the weights fall back to uniform over particles,
        as in :meth:`_weigh`, and the fractions are None: the shards'
        own weights do not describe that fallback, so the barrier then
        resamples from the global weights. NaN log-weights, treated as
        ``-inf`` where the shards reduced them, are counted and warned
        about here, once, whichever process reduced them.
        """
        fractions, log_z = normalize_log_weights(
            np.array([p.log_mass for p in partials]), return_log_normalizer=True
        )
        nan_count = sum(p.nan_count for p in partials)
        if nan_count:
            report_nan_log_weights(nan_count)
        if np.isneginf(log_z):
            evidence = float("-inf")
        else:
            evidence = log_z - log_normalizer(
                np.array([p.prev_log_mass for p in partials])
            )
        n = sum(p.weights.size for p in partials)
        if np.isfinite(log_z):
            denom = float(
                np.dot(fractions * fractions, [p.sum_sq for p in partials])
            )
            weights = np.empty(n)
            start = 0
            for fraction, partial in zip(fractions, partials):
                stop = start + partial.weights.size
                np.multiply(partial.weights, fraction, out=weights[start:stop])
                start = stop
            self.last_stats = StepStats(
                evidence, 1.0 / denom if denom > 0.0 else 0.0, n
            )
        else:
            weights, fractions = np.full(n, 1.0 / n), None
            self.last_stats = StepStats(evidence, ess(weights), n)
        if self.diagnostics is not None:
            self.diagnostics.record(self.last_stats)
        return weights, fractions

    def _barriers(
        self,
        partials: List[ShardWeights],
        fractions: Optional[np.ndarray],
        weights: np.ndarray,
    ) -> List[ShardBarrier]:
        """Each shard's share of the resample, drawn from the engine generator.

        Systematic resampling draws its one offset here and sends each
        shard its mass and pick bounds (O(shards) numbers); the shards
        derive their offspring counts themselves. The other resamplers,
        and every resampler when :meth:`_combine` fell back to uniform
        weights (``fractions`` None), draw global indices here, and one
        ``bincount`` reduces them to each shard's offspring counts.
        """
        slots = [0]
        for partial in partials:
            slots.append(slots[-1] + int(partial.weights.size))
        slots = tuple(slots)
        n = self.n_particles
        # A tracing wrapper around the resampler keeps its identity.
        resampler = getattr(self.resampler, "__wrapped__", self.resampler)
        if resampler is systematic_indices and fractions is not None:
            u = float(self.rng.random())
            mass, picks = systematic_shard_bounds(fractions, n, u)
            return [
                ShardBarrier(
                    i, slots, (int(picks[i]), int(picks[i + 1])), u,
                    float(mass[i]), float(fractions[i]),
                )
                for i in range(len(partials))
            ]
        indices = np.asarray(self.resampler(weights, n, self.rng))
        counts = np.bincount(indices, minlength=n)
        picks = np.zeros(len(partials) + 1, dtype=np.int64)
        np.cumsum(np.add.reduceat(counts, slots[:-1]), out=picks[1:])
        return [
            ShardBarrier(
                i, slots, (int(picks[i]), int(picks[i + 1])),
                counts=counts[slots[i] : slots[i + 1]],
            )
            for i in range(len(partials))
        ]

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
        """Shard-side: the particles whose picks fill another shard's slots.

        Always clones, so a migrated particle never aliases one its
        source shard keeps, whether or not the rows cross a process
        boundary on the way.
        """
        return [clone_particle(payload[int(i)]) for i in indices]

    def shard_keep(
        self, payload: List[Particle], indices: Sequence[int]
    ) -> List[Particle]:
        """Shard-side: the survivors that stay, cloned per ``clone_on_resample``.

        With ``clone_on_resample="all"`` (the default) every selected
        particle is cloned, so the per-step resampling cost is
        proportional to the total live state — the cost model of the
        paper's runtime, where each step copies/garbage-collects the
        particles' heap. ``"duplicates"`` clones only the second and
        later occurrences of a particle (a sharing optimization that
        changes no results, only the latency profile).
        """
        clone_all = self.clone_on_resample == "all"
        used = set()
        selected: List[Particle] = []
        for idx in indices:
            idx = int(idx)
            source = payload[idx]
            if clone_all or idx in used:
                selected.append(clone_particle(source))
            else:
                used.add(idx)
                selected.append(source)
        return selected

    def shard_assemble(
        self,
        kept: List[Particle],
        before: List[List[Particle]],
        after: List[List[Particle]],
    ) -> List[Particle]:
        """Shard-side: the resampled shard, imports around the survivors.

        ``before`` and ``after`` are the rows imported from lower- and
        higher-indexed shards.
        """
        rebuilt = [p for rows in before for p in rows] + kept
        rebuilt += [p for rows in after for p in rows]
        for particle in rebuilt:
            particle.log_weight = 0.0
        return rebuilt

    def shard_commit_weights(
        self, payload: List[Particle], log_weights: np.ndarray
    ) -> List[Particle]:
        """Shard-side: fold the step's log-weights into the particles."""
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
            evidence = log_z - log_normalizer(prev_log_weights)
        self.last_stats = StepStats(evidence, ess(weights), int(weights.size))
        if self.diagnostics is not None:
            self.diagnostics.record(self.last_stats)
        return log_weights, weights

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def _init_payload(self, n: int, rng: np.random.Generator) -> List[Particle]:
        """``n`` fresh particles: the population, or one shard of it."""
        return [
            Particle(
                self.model.init(),
                self._fresh_graph(rng) if self.persistent_graph else None,
                0.0,
            )
            for _ in range(n)
        ]

    def _payload_words(self, particles: List[Particle]) -> int:
        """Live abstract words of one particle list (see :meth:`memory_words`)."""
        total = 0
        for particle in particles:
            total += state_words(particle.state) + 2
            if particle.graph is not None:
                roots = [rv.node for rv in free_rvars(particle.state)]
                total += graph_memory_words(roots)
        return total

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

    # ------------------------------------------------------------------
    def memory_words(
        self, state: Union[Any, ShardedPopulation, ResidentPopulation]
    ) -> int:
        """Ideal memory: live abstract words held by the particle set.

        This is the reproduction of the paper's live-heap-words metric
        (Section 6.3): model state plus every graph node reachable from
        it through the pointers the graph implementation retains.
        """
        if isinstance(state, ResidentPopulation):
            state = state.materialize()
        if isinstance(state, ShardedPopulation):
            return sum(self._payload_words(payload) for payload in state.payloads())
        return self._payload_words(state)


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
