"""Structure detection: can a model run on the batched DS graph?

The array-native delayed-sampling runtime
(:mod:`repro.vectorized.sds_graph`) handles exactly the models whose
delayed-sampling execution is *lockstep-batchable*: every random
variable belongs to a family with SoA kernels (Gaussian, multivariate
Gaussian, Beta, Bernoulli, Gamma, Poisson, Dirichlet, Categorical),
every dependency is one of the batched conjugacy edges
(affine-Gaussian — possibly with per-particle coefficients from a
forced indicator — projection, matrix-affine, Beta-Bernoulli,
Gamma-Poisson, Dirichlet-Categorical), and the model's Python control
flow never branches on
a per-particle value — the lockstep condition that lets one run of the
model's code drive all particles at once.

:func:`probe_ds_structure` answers that question *empirically*: it
first runs the scalar model against an instrumented pointer-minimal
graph over a short probe input stream, reporting the conjugacy families
touched, how many realizations were forced outside ``observe``, and the
shape of the structure (``"chain"`` when one sampled variable line
exists, ``"tree"`` when a step assumes several sampled roots — the
Outlier model's Beta branch beside its position chain). When the model
uses forced realization or families beyond the Gaussian pair, the
verdict is confirmed by a small *batched* smoke run (a 3-particle
:class:`~repro.vectorized.sds_graph.BatchedDSGraph`): only a model whose
batched execution actually succeeds is reported batchable.

Routing does not run the probe: it trusts the static analysis
(:mod:`repro.analysis`), which answers the same question without
executing the model. The probe is the oracle the analysis is
cross-checked against in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Set

import numpy as np

from repro.delayed.streaming import StreamingGraph

__all__ = [
    "DSStructureReport",
    "probe_ds_structure",
    "GAUSSIAN_FAMILIES",
    "BATCHABLE_FAMILIES",
]

#: conjugacy families of the linear-Gaussian chain fragment.
GAUSSIAN_FAMILIES = frozenset({"gaussian", "mv_gaussian"})

#: conjugacy families the generic batched DS graph implements.
BATCHABLE_FAMILIES = frozenset(
    {
        "gaussian",
        "mv_gaussian",
        "beta",
        "bernoulli",
        "gamma",
        "poisson",
        "dirichlet",
        "categorical",
    }
)


@dataclass(frozen=True)
class DSStructureReport:
    """What the general delayed-sampling structure probe observed.

    ``is_batchable`` is the verdict: the model can run on the generic
    batched DS graph. ``families`` is the conjugacy family set touched,
    ``forced`` the number of realizations outside ``observe`` (allowed
    here — forced per-particle values may feed parameters, never
    control flow), ``shape`` is ``"chain"`` or ``"tree"`` (several
    sampled variable lines alive in one instant, e.g. the Outlier
    model's Beta→Bernoulli branch beside its position chain), and
    ``reason`` says why a model was rejected.
    """

    is_batchable: bool
    families: frozenset = frozenset()
    forced: int = 0
    steps: int = 0
    shape: str = "chain"
    reason: str = ""

    @property
    def is_chain(self) -> bool:
        """A linear-Gaussian chain: batchable, Gaussian-only, nothing forced."""
        return (
            self.is_batchable
            and self.forced == 0
            and self.families <= GAUSSIAN_FAMILIES
        )


class _ProbeGraph(StreamingGraph):
    """A streaming graph that records families, roots, and realizations."""

    def __init__(self, rng: Optional[np.random.Generator] = None):
        super().__init__(rng=rng)
        self.families: Set[str] = set()
        self.observed = 0
        #: sampled (non-observation) roots assumed in the current step.
        self.step_sample_roots = 0
        #: max simultaneous sampled roots over any probed step.
        self.max_sample_roots = 0

    def assume_root(self, marginal, name=""):
        node = super().assume_root(marginal, name=name)
        self.families.add(node.family)
        if not name.startswith("y"):
            self.step_sample_roots += 1
            self.max_sample_roots = max(
                self.max_sample_roots, self.step_sample_roots
            )
        return node

    def assume_conditional(self, cdistr, parent, name=""):
        node = super().assume_conditional(cdistr, parent, name=name)
        self.families.add(node.family)
        return node

    def observe(self, node, value):
        self.observed += 1
        return super().observe(node, value)

    def next_step(self) -> None:
        self.step_sample_roots = 0


def _run_scalar_probe(model: Any, inputs: Sequence[Any], seed: int):
    """Step the scalar delayed-sampling semantics; return (graph, steps, err)."""
    # Imported lazily: repro.inference.contexts itself imports the
    # delayed-sampling package, so a module-level import would be circular.
    from repro.inference.contexts import DelayedCtx

    graph = _ProbeGraph(rng=np.random.default_rng(seed))
    ctx = DelayedCtx(graph)
    steps = 0
    # Broad catch on purpose: the probe's contract is to *report*, never
    # to raise — an exception escaping here would abort the caller's
    # probe-then-register block halfway.
    try:
        state = model.init()
    except Exception as exc:
        return graph, steps, (
            f"probe failed [stage=init]: {type(exc).__name__}: {exc}"
        )
    try:
        for inp in inputs:
            graph.next_step()
            _, state = model.step(state, inp, ctx)
            steps += 1
    except Exception as exc:
        return graph, steps, f"probe step raised {type(exc).__name__}: {exc}"
    return graph, steps, None


def _run_batched_probe(
    model: Any, inputs: Sequence[Any], seed: int, n: int
) -> Optional[str]:
    """Smoke-run the model on a small batched graph; None means success.

    Failure-atomic by construction: *every* exception — including ones
    outside the anticipated graph/symbolic/inference family, e.g. a
    numpy shape error or an ``AttributeError`` in user model code — is
    converted to a structured, stage-tagged reason string and never
    propagated, and the smoke run touches no global registry.
    """
    # Imported lazily: repro.vectorized imports this module's package.
    from repro.vectorized.sds_graph import BatchedDelayedCtx, BatchedDSGraph

    graph = BatchedDSGraph(n, rng=np.random.default_rng(seed))
    ctx = BatchedDelayedCtx(graph)
    try:
        state = model.init()
    except Exception as exc:
        return (
            f"batched probe failed [stage=init]: "
            f"{type(exc).__name__}: {exc}"
        )
    for i, inp in enumerate(inputs):
        try:
            _, state = model.step(state, inp, ctx)
        except Exception as exc:
            return (
                f"batched probe failed [stage=step index={i}]: "
                f"{type(exc).__name__}: {exc}"
            )
    return None


def probe_ds_structure(
    model: Any,
    inputs: Sequence[Any],
    seed: int = 0,
    batch_check: int = 3,
) -> DSStructureReport:
    """Run ``model`` over ``inputs``; report families, shape, batchability.

    The scalar probe collects the family set,
    the forced-realization count, and the structure shape; a model
    whose families lie inside :data:`BATCHABLE_FAMILIES` is then
    *verified* by a ``batch_check``-particle batched smoke run whenever
    the scalar probe alone cannot vouch for lockstep execution (forced
    realizations, non-Gaussian families) — a forced per-particle value
    that feeds a parameter batches fine, one that feeds an ``if`` does
    not, and only actually running the batched semantics tells them
    apart.
    """
    if not inputs:
        return DSStructureReport(False, reason="no probe inputs provided")
    graph, steps, error = _run_scalar_probe(model, inputs, seed)
    families = frozenset(graph.families)
    forced = max(0, graph.n_realized - graph.observed)
    shape = "tree" if graph.max_sample_roots >= 2 else "chain"
    if error is not None:
        return DSStructureReport(
            False, families, forced, steps, shape, reason=error
        )
    if not families <= BATCHABLE_FAMILIES:
        extra = sorted(families - BATCHABLE_FAMILIES)
        return DSStructureReport(
            False, families, forced, steps, shape,
            reason=f"families without batched kernels: {extra}",
        )
    if forced == 0 and families <= GAUSSIAN_FAMILIES:
        # Pure chain: the scalar probe is already conclusive.
        return DSStructureReport(True, families, forced, steps, shape)
    reason = _run_batched_probe(model, inputs, seed, batch_check)
    if reason is not None:
        return DSStructureReport(False, families, forced, steps, shape, reason)
    return DSStructureReport(True, families, forced, steps, shape)
