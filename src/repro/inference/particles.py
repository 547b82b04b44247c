"""Particle representation and cloning.

The compilation of Section 4 externalizes the transition-function state,
which "makes it possible to clone a particle during its execution by
duplicating the state" (Section 5.1). For the delayed samplers a
particle's state additionally references random variables in a graph, so
cloning must copy the *reachable portion of the graph* and remap the
references consistently.

Cloning is iterative (no recursion), so the arbitrarily long marginal
chains of the original DS implementation cannot overflow the stack; its
cost is proportional to the number of live nodes — the mechanism behind
the DS latency growth of Fig. 18.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.delayed.graph import BaseGraph, reachable_nodes
from repro.delayed.node import DSNode
from repro.symbolic import App, RVar, SymExpr, free_rvars

__all__ = ["Particle", "clone_particle", "clone_state_concrete", "state_words"]


@dataclass
class Particle:
    """One particle: model state, optional graph, and a log-weight."""

    state: Any
    graph: Optional[BaseGraph] = None
    log_weight: float = 0.0


def _clone_node_shells(nodes) -> Dict[int, DSNode]:
    """First pass: shallow node copies sharing immutable payloads."""
    mapping: Dict[int, DSNode] = {}
    for node in nodes:
        clone = DSNode.__new__(DSNode)
        clone.uid = node.uid
        clone.name = node.name
        clone.state = node.state
        clone.family = node.family
        clone.cdistr = node.cdistr  # immutable, shared
        clone.marginal = node.marginal  # immutable, shared
        clone.value = node.value
        clone.folded = node.folded
        clone.snapshot_cache = node.snapshot_cache  # immutable, shared
        clone.parent = None
        clone.children = []
        clone.marginal_child = None
        mapping[id(node)] = clone
    return mapping


def _fix_pointers(nodes, mapping: Dict[int, DSNode]) -> None:
    """Second pass: remap pointer fields into the cloned node set."""
    for node in nodes:
        clone = mapping[id(node)]
        if node.parent is not None:
            clone.parent = mapping.get(id(node.parent))
        if node.marginal_child is not None:
            clone.marginal_child = mapping.get(id(node.marginal_child))
        clone.children = [
            mapping[id(c)] for c in node.children if id(c) in mapping
        ]


def _remap_value(value: Any, mapping: Dict[int, DSNode]) -> Any:
    """Rebuild a state value, remapping RVar references into the clone."""
    if isinstance(value, RVar):
        replacement = mapping.get(id(value.node))
        if replacement is None:
            return value
        return RVar(replacement)
    if isinstance(value, App):
        return App(value.op, tuple(_remap_value(a, mapping) for a in value.args))
    if isinstance(value, tuple):
        return tuple(_remap_value(v, mapping) for v in value)
    if isinstance(value, list):
        return [_remap_value(v, mapping) for v in value]
    if isinstance(value, dict):
        return {k: _remap_value(v, mapping) for k, v in value.items()}
    return value


#: State types a clone may share: immutable, with no graph references.
_IMMUTABLE_SCALARS = (float, int, bool, str, bytes, type(None))


def clone_particle(particle: Particle) -> Particle:
    """Deep-copy a particle: graph nodes, references, and model state."""
    graph = particle.graph
    if graph is None:
        if isinstance(particle.state, _IMMUTABLE_SCALARS):
            return Particle(particle.state, None, particle.log_weight)
        return Particle(
            state=clone_state_concrete(particle.state),
            graph=None,
            log_weight=particle.log_weight,
        )
    roots = [rv.node for rv in free_rvars(particle.state)]
    nodes = reachable_nodes(roots)
    mapping = _clone_node_shells(nodes)
    _fix_pointers(nodes, mapping)
    new_graph = copy.copy(graph)  # shares the rng; counters copied by value
    new_state = _remap_value(particle.state, mapping)
    return Particle(state=new_state, graph=new_graph, log_weight=particle.log_weight)


def clone_state_concrete(state: Any) -> Any:
    """Copy a fully concrete model state (no graph references)."""
    if isinstance(state, _IMMUTABLE_SCALARS):
        return state
    return copy.deepcopy(state)


def state_words(value: Any) -> int:
    """Abstract heap words occupied by a model-state value.

    Scalars count 1, arrays their size, containers the sum of their
    elements plus a header, symbolic expressions the size of their tree
    (graph nodes are counted separately by the graph census).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return 1
    if isinstance(value, SymExpr):
        if isinstance(value, App):
            return 1 + sum(state_words(a) for a in value.args)
        return 1  # RVar: one pointer word; the node is counted by the census
    if hasattr(value, "size") and hasattr(value, "ndim"):  # ndarray
        return 1 + int(value.size)
    if isinstance(value, (tuple, list)):
        return 1 + sum(state_words(v) for v in value)
    if isinstance(value, dict):
        return 1 + sum(state_words(v) for v in value.values())
    return 2
