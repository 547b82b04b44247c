"""Probabilistic operator contexts.

Each inference engine gives the probabilistic operators their semantics
by handing the model a :class:`~repro.runtime.node.ProbCtx`:

* :class:`SamplingCtx` — the importance-sampler semantics of Fig. 13:
  ``sample`` draws, ``observe``/``factor`` update the log-weight. Used by
  both the importance sampler and the particle filter.
* :class:`DelayedCtx` — the delayed-sampling semantics of Fig. 14:
  ``sample`` adds a variable to the graph and returns a symbolic
  reference; ``observe`` conditions the graph analytically and scores
  with the *marginal* likelihood; ``value`` forces realization.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.delayed.graph import BaseGraph
from repro.delayed.interface import assume, observe_dist, value_expr
from repro.dists import Distribution
from repro.errors import InferenceError
from repro.lang.lifted import SymDist
from repro.runtime.node import ProbCtx
from repro.symbolic import RVar, is_symbolic

__all__ = ["SamplingCtx", "DelayedCtx"]

#: Exact classes that passed the full checks of :class:`SamplingCtx` (a
#: :class:`~repro.dists.Distribution` and not a :class:`SymDist`), so later
#: draws and scores skip the ABC ``isinstance`` dispatch. Membership
#: depends on the class alone, so every context shares the set and it
#: only grows, like the ABC's own subclass cache.
_CONCRETE_DISTS: set = set()


class SamplingCtx(ProbCtx):
    """Concrete sampling semantics (importance sampler / particle filter)."""

    __slots__ = ("rng", "log_weight")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.log_weight = 0.0

    def sample(self, dist: Any) -> Any:
        cls = type(dist)
        if cls not in _CONCRETE_DISTS:
            if isinstance(dist, SymDist):
                raise InferenceError(
                    "a symbolic distribution reached the sampling context; "
                    "sampling contexts only run fully concrete models"
                )
            if not isinstance(dist, Distribution):
                raise InferenceError(f"sample expects a distribution, got {dist!r}")
            _CONCRETE_DISTS.add(cls)
        return dist.sample(self.rng)

    def observe(self, dist: Any, value: Any) -> None:
        cls = type(dist)
        if cls not in _CONCRETE_DISTS:
            if isinstance(dist, SymDist):
                raise InferenceError(
                    "a symbolic distribution reached the sampling context"
                )
            if isinstance(dist, Distribution):
                _CONCRETE_DISTS.add(cls)
        self.log_weight += dist.log_pdf(value)

    def factor(self, log_score: float) -> None:
        self.log_weight += float(log_score)

    def value(self, expr: Any) -> Any:
        if is_symbolic(expr):
            raise InferenceError("symbolic value in a concrete sampling context")
        return expr


class DelayedCtx(ProbCtx):
    """Delayed-sampling semantics against a graph (DS, BDS, and SDS)."""

    __slots__ = ("graph", "log_weight", "_counter")

    def __init__(self, graph: BaseGraph):
        self.graph = graph
        self.log_weight = 0.0
        self._counter = 0

    def _fresh_name(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def sample(self, dist: Any) -> Any:
        node = assume(self.graph, dist, name=self._fresh_name("x"))
        return RVar(node)

    def observe(self, dist: Any, value: Any) -> None:
        self.log_weight += observe_dist(
            self.graph, dist, value, name=self._fresh_name("y")
        )

    def factor(self, log_score: float) -> None:
        self.log_weight += float(value_expr(self.graph, log_score))

    def value(self, expr: Any) -> Any:
        return value_expr(self.graph, expr)
