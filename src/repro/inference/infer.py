"""The ``infer`` operator: engine construction by name.

``infer particles model`` in ProbZelus returns a stream of distributions;
here :func:`infer` returns the corresponding :class:`InferenceEngine`
(itself a deterministic stream node). The default method is the particle
filter, matching the paper's default operational semantics; the delayed
samplers are selected by name.

``backend`` selects the execution substrate: ``"scalar"`` (the
reference engines, one Python object per particle), ``"vectorized"``
(the structure-of-arrays engines of :mod:`repro.vectorized`, which
advance the whole particle population per array operation), or
``"auto"``. With ``"vectorized"`` or ``"auto"`` one routing decision,
:func:`select_engine`, picks the engine; the scalar engine is used when
the model/method pair has no vectorized equivalent, so the parameter
never changes *what* is computed — only how fast.

``executor`` selects where the step runs (:mod:`repro.exec`):
``"serial"``, ``"threads:N"``, ``"processes:N"``,
``"processes-persistent:N"`` (worker-resident shards: the population
stays loaded in long-lived worker processes and only commands cross
the process boundary per step), or an
:class:`~repro.exec.executor.Executor` instance. Requesting one — or
passing ``n_shards`` — partitions the particle population into
deterministic shards with independent RNG substreams, so the posterior
is bit-for-bit identical for every executor and worker count at a
fixed seed. This knob, too, never changes *what* is computed.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Union

import numpy as np

from repro.errors import InferenceError
from repro.exec.executor import Executor
from repro.inference.engine import (
    BoundedDelayedSampler,
    ImportanceSampler,
    InferenceEngine,
    OriginalDelayedSampler,
    ParticleFilter,
    StreamingDelayedSampler,
)
from repro.runtime.node import ProbNode

__all__ = ["infer", "ENGINES", "BACKENDS"]

ENGINES = {
    "importance": ImportanceSampler,
    "is": ImportanceSampler,
    "pf": ParticleFilter,
    "particle_filter": ParticleFilter,
    "bds": BoundedDelayedSampler,
    "sds": StreamingDelayedSampler,
    "ds": OriginalDelayedSampler,
}

BACKENDS = ("scalar", "vectorized", "auto")


def infer(
    model: ProbNode,
    n_particles: int = 100,
    method: str = "pf",
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    backend: str = "scalar",
    executor: Union[None, str, Executor] = None,
    n_shards: Optional[int] = None,
    diagnostics: Union[bool, "DiagnosticsLog"] = False,
    **kwargs,
) -> InferenceEngine:
    """Build an inference engine for ``model``.

    ``method`` is one of ``"pf"`` (particle filter, the default),
    ``"importance"``, ``"bds"``, ``"sds"``, or ``"ds"``. ``backend`` is
    ``"scalar"`` (default), ``"vectorized"``, or ``"auto"``; the
    vectorized backends fall back to the scalar engine when the
    model/method pair is not vectorizable. ``executor`` selects the
    execution layer (``"serial"``, ``"threads:N"``, ``"processes:N"``,
    ``"processes-persistent:N"``, or an Executor instance) and
    ``n_shards`` the deterministic shard count; either switches the
    engine to a sharded population whose results are identical for
    every worker count. ``diagnostics=True`` attaches a
    :class:`~repro.inference.diagnostics.DiagnosticsLog` to the engine
    (``engine.diagnostics``), recording one
    :class:`~repro.inference.diagnostics.StepStats` per step — the same
    stream on every backend/executor combination, including across a
    mid-stream scalar fallback (pass an existing log to share it).
    Additional keyword arguments are forwarded to the engine
    constructor (``resampler``, ``resample_threshold``,
    ``clone_on_resample``).
    """
    key = method.lower()
    if key not in ENGINES:
        raise InferenceError(
            f"unknown inference method {method!r}; choose from {sorted(set(ENGINES))}"
        )
    if backend not in BACKENDS:
        raise InferenceError(
            f"unknown backend {backend!r}; choose from {sorted(BACKENDS)}"
        )
    kwargs = dict(
        kwargs,
        n_particles=n_particles,
        seed=seed,
        rng=rng,
        executor=executor,
        n_shards=n_shards,
        diagnostics=diagnostics,
    )
    if backend == "scalar":
        return ENGINES[key](model, **kwargs)
    return select_engine(model, key, backend, **kwargs)


def select_engine(
    model: ProbNode, key: str, backend: str, **engine_kwargs
) -> InferenceEngine:
    """Pick and build the engine for ``backend="vectorized"`` or ``"auto"``.

    The model's :data:`~repro.vectorized.models.MODEL_REGISTRY` entry
    and, for ``"auto"``, the static analysis verdict on the model the
    batched engine would run (the registered lockstep adapter's rewrite,
    if any) decide, in this order:

    * ``"unbatchable"`` — ``"auto"``, a delayed-sampling method, and the
      analysis conclusively rejects the model: the scalar engine, even
      for a registered class;
    * ``"registry"`` — the entry provides a batched engine for the
      method: the batched particle filter for ``pf``, the closed-form
      engine for ``sds``, else the DS graph engine for ``sds``/``bds``;
    * ``"analysis"`` — ``"auto"``, ``sds``/``bds``, no registered engine,
      and the analysis finds the model conclusively batchable and
      bounded: the DS graph engine on the model as given. A
      construction error propagates;
    * ``"unregistered"`` — anything else: the scalar engine.

    Each call counts ``repro_engine_selected_total{engine,reason}``.
    """
    # Imported lazily: repro.vectorized and repro.analysis depend on the
    # scalar engines, so module-level imports here would be circular.
    from repro.analysis import routing
    from repro.obs import count_event
    from repro.vectorized.engine import (
        VectorizedGaussianChainSDS,
        VectorizedParticleFilter,
    )
    from repro.vectorized.models import MODEL_REGISTRY, ModelEntry, vectorize_model

    entry = MODEL_REGISTRY.get(type(model), ModelEntry())
    routed = model if entry.graph is None else entry.graph(model)
    decision = None
    if backend == "auto":
        # Looked up on the module at call time, where tracers wrap it.
        _, decision = routing.consult_for_backend(routed, key)
    batched = vectorize_model(model) if key in ("pf", "particle_filter") else None
    delayed = key in ("sds", "bds")
    graph_engine = partial(VectorizedGaussianChainSDS, mode=key)
    if decision is False:
        factory, reason = ENGINES[key], "unbatchable"
    elif batched is not None:
        factory, model, reason = VectorizedParticleFilter, batched, "registry"
    elif key == "sds" and entry.sds is not None:
        factory, reason = entry.sds, "registry"
    elif delayed and entry.graph is not None:
        factory, model, reason = graph_engine, routed, "registry"
    elif delayed and decision:
        factory, reason = graph_engine, "analysis"
    else:
        factory, reason = ENGINES[key], "unregistered"
    engine = factory(model, **engine_kwargs)
    count_event(
        "repro_engine_selected_total",
        {"engine": type(engine).__name__, "reason": reason},
    )
    return engine
