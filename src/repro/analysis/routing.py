"""Analysis-first backend routing.

The glue between the static analysis and engine selection:
:func:`consult_for_backend` turns the ahead-of-time verdict on a model
into the routing decision that ``infer(..., backend="auto")``
(:func:`repro.inference.infer.select_engine`) combines with the model
registry. Models the analysis cannot see through (``conclusive=False``)
get no static opinion; the runtime's mid-stream scalar fallback keeps
them correct.

Every consultation increments ``repro_analysis_verdicts_total{verdict}``
(always-on, like the scalar-fallback counters), so a fleet's routing
decisions are visible next to its fallbacks::

    repro_analysis_verdicts_total{verdict="batchable"}            12
    repro_analysis_verdicts_total{verdict="batchable_unbounded"}   1
    repro_analysis_verdicts_total{verdict="unbatchable"}           2
    repro_analysis_verdicts_total{verdict="inconclusive"}          3

The cache is per *model configuration* (class + constructor attribute
values), not per instance: analyzing is cheap (a few ms) but
``infer()`` may be called per stream session, thousands of times.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.analysis.absint import analyze_model
from repro.analysis.report import ModelAnalysis

__all__ = [
    "analysis_for",
    "record_verdict",
    "consult_for_backend",
    "clear_analysis_cache",
]

_CACHE: Dict[Tuple, ModelAnalysis] = {}
_CACHE_MAX = 1024


def _attr_repr(value: Any) -> str:
    """A repr safe to key a cache on: default object reprs embed memory
    addresses (``<... object at 0x...>``), which would make every
    instance a cache miss — normalize those to the type name."""
    r = repr(value)
    if " at 0x" in r:
        return f"<{type(value).__module__}.{type(value).__qualname__}>"
    return r


def _cache_key(model: Any) -> Optional[Tuple]:
    """A structural key: class plus constructor-attribute reprs.

    Two instances of the same class with the same attributes have the
    same step dataflow, so they share one analysis. Models with exotic
    attribute sets (unreprable, huge) fall back to uncached analysis.
    """
    try:
        attrs = vars(model)
    except TypeError:
        return (type(model),)
    try:
        items = tuple(sorted((k, _attr_repr(v)) for k, v in attrs.items()))
    except Exception:
        return None
    if sum(len(k) + len(v) for k, v in items) > 4096:
        return None
    return (type(model), items)


def analysis_for(model: Any) -> ModelAnalysis:
    """The (cached) static analysis of ``model``."""
    key = _cache_key(model)
    if key is not None and key in _CACHE:
        return _CACHE[key]
    analysis = analyze_model(model)
    if key is not None:
        if len(_CACHE) >= _CACHE_MAX:
            _CACHE.clear()
        _CACHE[key] = analysis
    return analysis


def clear_analysis_cache() -> None:
    _CACHE.clear()


def record_verdict(analysis: ModelAnalysis) -> None:
    """Count the verdict in ``repro_analysis_verdicts_total``."""
    # Imported lazily: repro.obs is optional at call sites that only
    # want the verdict.
    from repro.obs import count_event

    count_event("repro_analysis_verdicts_total", {"verdict": analysis.verdict})


def consult_for_backend(model: Any, method_key: str) -> Tuple[ModelAnalysis, Optional[bool]]:
    """Should ``backend="auto"`` try the vectorized engines for ``model``?

    ``model`` is what the batched engine would run: the caller applies
    a registered lockstep adapter first (the raw Outlier model branches
    on a forced value, but its registration runs the masked-affine
    :class:`~repro.vectorized.models.GraphOutlierModel` rewrite).

    Returns ``(analysis, decision)`` where ``decision`` is:

    * ``False`` — conclusively out of fragment for a delayed-sampling
      method (wrong families, lockstep violation): skip the registry
      entirely and build the scalar engine.
    * ``True`` — conclusively batchable *and* bounded: try the
      vectorized path, and the caller may construct a generic graph
      engine even on a registry miss.
    * ``None`` — no static opinion (inconclusive, a method whose
      vectorization is a registry property like ``pf``, or batchable
      but unbounded — the registry may still serve it, but the
      analysis will not volunteer an engine whose graph grows without
      bound): the registry alone decides.

    The verdict is recorded in ``repro_analysis_verdicts_total``.
    """
    analysis = analysis_for(model)
    record_verdict(analysis)
    if method_key not in ("sds", "bds"):
        # pf/importance vectorization is about having a step_batch
        # implementation, which is a registry fact, not a dataflow one.
        return analysis, None
    if not analysis.conclusive:
        return analysis, None
    if not analysis.batchable:
        return analysis, False
    return analysis, True if analysis.bounded else None
