"""Shared result types of the ahead-of-time model analysis.

Every frontend (the Python abstract interpreter of
:mod:`repro.analysis.absint`, the kernel-AST walker of
:mod:`repro.analysis.core_ast`) produces the same artifacts:

* a per-step static random-variable dependency graph (:class:`RVNode`
  / :class:`EdgeInfo` inside a :class:`StepGraph`),
* a :class:`ModelAnalysis` verdict triple — *bounded memory* (the
  delayed-sampling graph cannot grow across instants), *batchable*
  (the model runs in lockstep on the generic batched DS graph), and a
  list of :class:`Diagnostic` lint findings,
* machine-readable :class:`Diagnostic` records (the ``replint``
  catalogue below).

The verdict fields mirror the *empirical*
:class:`~repro.delayed.detect.DSStructureReport` (``families``,
``shape``, ``forced``, ``is_batchable``) so the two can be
cross-validated model by model — the analysis answers the same question
without executing the model.

Diagnostic catalogue
--------------------

==========  ========  ====================================================
code        severity  meaning
==========  ========  ====================================================
``REP001``  error     unbounded delayed-sampling memory: a sampled
                      variable is never observed/realized and the chain
                      it anchors grows by one node per instant
``REP002``  warning   lockstep violation: control flow branches on a
                      per-particle sampled value — the model cannot run
                      on the batched backend (scalar engines still work)
``REP003``  warning   non-conjugate edge: the delayed sampler must
                      realize the parent at this site (per-slot
                      realize-and-continue; costs one forced realization
                      per instant)
``REP004``  warning   family without batched kernels (outside
                      ``BATCHABLE_FAMILIES``)
``REP005``  warning   unused observe: the observed distribution has no
                      latent parameter, so it conditions nothing (all
                      particles receive the same weight)
``REP006``  warning   unreachable ``init``: the initialization value is
                      dead (the variable's ``last`` is never read)
``REP007``  error     unguarded ``last``: ``last x`` without an
                      ``init x`` in scope
``REP008``  warning   dangling random variable: sampled, kept live in
                      the stream state forever, never observed or
                      realized (one permanent graph node)
``REP009``  error     symbolic branch: control flow on a symbolic value
                      — raises at runtime under every delayed sampler;
                      force it with ``value()`` first
==========  ========  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "Site",
    "Diagnostic",
    "RVNode",
    "EdgeInfo",
    "StepGraph",
    "ModelAnalysis",
    "SEVERITIES",
    "DIAGNOSTIC_CODES",
    "UNBOUNDED_MEMORY",
    "LOCKSTEP_BRANCH",
    "NONCONJUGATE_EDGE",
    "NONBATCHABLE_FAMILY",
    "UNUSED_OBSERVE",
    "UNREACHABLE_INIT",
    "UNGUARDED_LAST",
    "DANGLING_RV",
    "SYMBOLIC_BRANCH",
]

UNBOUNDED_MEMORY = "REP001"
LOCKSTEP_BRANCH = "REP002"
NONCONJUGATE_EDGE = "REP003"
NONBATCHABLE_FAMILY = "REP004"
UNUSED_OBSERVE = "REP005"
UNREACHABLE_INIT = "REP006"
UNGUARDED_LAST = "REP007"
DANGLING_RV = "REP008"
SYMBOLIC_BRANCH = "REP009"

SEVERITIES = ("error", "warning", "info")

DIAGNOSTIC_CODES = {
    UNBOUNDED_MEMORY: "unbounded-memory",
    LOCKSTEP_BRANCH: "lockstep-branch",
    NONCONJUGATE_EDGE: "non-conjugate-edge",
    NONBATCHABLE_FAMILY: "non-batchable-family",
    UNUSED_OBSERVE: "unused-observe",
    UNREACHABLE_INIT: "unreachable-init",
    UNGUARDED_LAST: "unguarded-last",
    DANGLING_RV: "dangling-rv",
    SYMBOLIC_BRANCH: "symbolic-branch",
}


@dataclass(frozen=True)
class Site:
    """Where a finding points: a file/line for Python models, a node
    and variable name for kernel-AST programs."""

    name: str = ""
    file: str = ""
    line: int = 0

    def __str__(self) -> str:
        parts = []
        if self.file:
            parts.append(f"{self.file}:{self.line}" if self.line else self.file)
        elif self.line:
            parts.append(f"line {self.line}")
        if self.name:
            parts.append(self.name)
        return " ".join(parts)


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding (see the catalogue in the module docstring)."""

    code: str
    severity: str
    message: str
    site: Site = Site()

    @property
    def slug(self) -> str:
        return DIAGNOSTIC_CODES.get(self.code, self.code)

    def format(self) -> str:
        where = str(self.site)
        prefix = f"{where}: " if where else ""
        return f"{prefix}{self.severity} {self.code} [{self.slug}] {self.message}"

    def as_dict(self) -> dict:
        return {
            "code": self.code,
            "slug": self.slug,
            "severity": self.severity,
            "message": self.message,
            "name": self.site.name,
            "file": self.site.file,
            "line": self.site.line,
        }


@dataclass(frozen=True)
class RVNode:
    """A random variable of the static per-step graph.

    ``kind`` is ``"sample"``, ``"observe"``, or ``"carried"`` (a
    variable created in a previous instant and read through the stream
    state / ``last``). ``root`` marks sampled variables whose
    distribution parameters contain no other random variable.
    """

    uid: int
    name: str
    family: str
    kind: str
    root: bool = False
    site: Site = Site()


@dataclass(frozen=True)
class EdgeInfo:
    """A dependency edge of the static graph.

    ``kind`` classifies the conjugacy relation the batched runtime
    would use: ``affine`` (scalar affine-Gaussian, possibly with
    per-particle coefficients), ``projection`` (component read of a
    multivariate Gaussian), ``mv_affine`` (matrix-affine mv-Gaussian),
    ``beta_bernoulli``, ``gamma_poisson``, ``dirichlet_categorical``,
    ``identity``, or ``nonconjugate`` — the last is a predicted
    realize-and-continue site (the delayed sampler must realize the
    parent before scoring the child).
    """

    parent: str
    child: str
    kind: str
    conjugate: bool
    site: Site = Site()


@dataclass(frozen=True)
class StepGraph:
    """The static random-variable graph of one abstract stream step."""

    nodes: Tuple[RVNode, ...] = ()
    edges: Tuple[EdgeInfo, ...] = ()
    observed: Tuple[int, ...] = ()
    realized: Tuple[int, ...] = ()
    sample_roots: int = 0


@dataclass(frozen=True)
class ModelAnalysis:
    """The ahead-of-time verdicts for one model / node.

    ``conclusive`` says whether the analysis could see through the
    model; when it is False the remaining verdicts are conservative
    defaults and routing takes no static opinion (the empirical probe,
    :func:`repro.delayed.detect.probe_ds_structure`, can still be asked).

    The ``families`` / ``shape`` / ``forced`` / ``is_batchable``
    quadruple is directly comparable with
    :class:`~repro.delayed.detect.DSStructureReport`.
    """

    conclusive: bool
    batchable: bool = False
    bounded: bool = False
    families: frozenset = frozenset()
    shape: str = "chain"
    forced: int = 0
    step_graph: Optional[StepGraph] = None
    realize_sites: Tuple[EdgeInfo, ...] = ()
    diagnostics: Tuple[Diagnostic, ...] = ()
    reason: str = ""
    name: str = ""

    @property
    def is_batchable(self) -> bool:
        """Alias matching :class:`~repro.delayed.detect.DSStructureReport`."""
        return self.batchable

    @property
    def verdict(self) -> str:
        """One-word routing verdict: the metric label of
        ``repro_analysis_verdicts_total``."""
        if not self.conclusive:
            return "inconclusive"
        if not self.batchable:
            return "unbatchable"
        return "batchable" if self.bounded else "batchable_unbounded"

    def errors(self) -> Tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")


def make_diagnostic(
    code: str, message: str, site: Site = Site(), severity: Optional[str] = None
) -> Diagnostic:
    """Build a diagnostic with the catalogue's default severity."""
    if severity is None:
        severity = "error" if code in (UNBOUNDED_MEMORY, UNGUARDED_LAST, SYMBOLIC_BRANCH) else "warning"
    return Diagnostic(code, severity, message, site)
