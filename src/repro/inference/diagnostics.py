"""Inference diagnostics: effective sample size and log-evidence.

Streaming filters need observability: :class:`StepStats` captures, for
every synchronous step, the effective sample size before resampling and
the step's incremental log-evidence

    log Z_t = log ( (1/N) * sum_i w_i )

whose running sum estimates the log marginal likelihood
``log p(y_1..y_t)`` of the observations under the model. For the
delayed samplers this estimate is Rao-Blackwellized; with SDS on a
fully conjugate model (Kalman, Coin) a *single particle* computes the
exact marginal likelihood — a strong correctness check used by the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = ["StepStats", "DiagnosticsLog"]


@dataclass(frozen=True)
class StepStats:
    """Diagnostics of one inference step."""

    #: incremental log-evidence log( mean_i exp(logw_i) )
    log_evidence: float
    #: effective sample size of the normalized weights, in [1, N]
    ess: float
    #: number of particles
    n_particles: int

    @property
    def ess_fraction(self) -> float:
        """ESS as a fraction of the particle count."""
        return self.ess / self.n_particles


class DiagnosticsLog:
    """Accumulates per-step diagnostics of an engine run."""

    def __init__(self):
        self.steps: List[StepStats] = []

    def record(self, stats: Optional[StepStats]) -> None:
        if stats is not None:
            self.steps.append(stats)

    @property
    def total_log_evidence(self) -> float:
        """Estimate of ``log p(y_1..y_T)``: the sum of step evidences."""
        return float(sum(s.log_evidence for s in self.steps))

    @property
    def min_ess_fraction(self) -> float:
        """The worst weight degeneracy seen across the run."""
        if not self.steps:
            return 1.0
        return min(s.ess_fraction for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)
