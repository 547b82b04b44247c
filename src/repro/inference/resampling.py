"""Resampling schemes and weight utilities for particle methods.

The particle filter "periodically re-samples the set of particles"
(Section 5.1); systematic resampling is the default, with multinomial,
stratified, and residual variants for completeness. Log-weight
normalization is shared by every engine, which normalizes once per step
and takes the step's evidence from the same pass (the log normalizer).

Systematic resampling runs in linear time: instead of a binary search
per pick it counts, for every cumulative weight, the picks at or below
it, and turns the counts into ancestors with one ``bincount`` and one
``cumsum``. The counts are exact, so its indices are those of the
textbook ``searchsorted`` formulation, bit for bit.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from repro.errors import InferenceError
from repro.obs.registry import count_event

__all__ = [
    "normalize_log_weights",
    "ess",
    "systematic_indices",
    "stratified_indices",
    "multinomial_indices",
    "residual_indices",
    "RESAMPLERS",
]


def normalize_log_weights(
    log_weights: Sequence[float], *, return_log_normalizer: bool = False
):
    """Normalized linear weights from log weights.

    A ``NaN`` log-weight (a broken kernel scored one particle) is
    treated as ``-inf`` for that particle alone — zero weight, with a
    :class:`RuntimeWarning` so the breakage is visible — never as a
    reason to reset the whole population. Degenerate inputs (all
    ``-inf``: every particle scored zero likelihood) fall back to
    uniform weights rather than dying, which is what a streaming filter
    must do to keep running.

    With ``return_log_normalizer`` the result is ``(weights, log_z)``,
    ``log_z = log sum_i exp(log_weights_i)`` over the same NaN-zeroed
    weights (``-inf`` for the all-``-inf`` fallback), which is what the
    engines take the step evidence from.
    """
    logw = np.asarray(log_weights, dtype=float)
    if logw.size == 0:
        raise InferenceError("cannot normalize an empty weight vector")
    nan_mask = np.isnan(logw)
    if nan_mask.any():
        # The warning tells an interactive user once; the counter tells
        # a long-running deployment how often.
        count_event("repro_nan_log_weights_total", amount=int(nan_mask.sum()))
        warnings.warn(
            f"{int(nan_mask.sum())} NaN log-weight(s) treated as -inf "
            "(zero weight); check the model/kernel that produced them",
            RuntimeWarning,
            stacklevel=2,
        )
        logw = np.where(nan_mask, -np.inf, logw)
    top = logw.max()
    if np.isfinite(top):
        # In place, so the result is the only N-sized allocation. The
        # maximum contributes exp(0) = 1, so the total lies in [1, N].
        w = logw - top
        np.exp(w, out=w)
        total = w.sum()
        w /= total
        log_z = float(top + np.log(total))
    else:
        w = np.full(logw.size, 1.0 / logw.size)
        log_z = float(top)
    return (w, log_z) if return_log_normalizer else w


def _normalized_weights(weights: Sequence[float]) -> np.ndarray:
    """The weight vector every resampler actually draws from.

    The resamplers' cumulative-sum machinery assumes the weights sum to
    one; historically only ``residual_indices`` normalized internally,
    so an unnormalized vector silently dumped its missing mass on the
    last particle. Normalizing here makes all four schemes agree. An
    already-normalized vector (within round-off of the log-weight
    pipeline) passes through untouched so existing seeded streams are
    preserved bit-for-bit.
    """
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise InferenceError("cannot resample from an empty weight vector")
    if np.any(w < 0):
        raise InferenceError("resampling weights must be non-negative")
    total = float(w.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise InferenceError(
            "resampling weights must have a positive finite sum, "
            f"got {total!r}"
        )
    if abs(total - 1.0) > 1e-9:
        w = w / total
    return w


def ess(weights: Sequence[float]) -> float:
    """Effective sample size ``1 / sum(w_i^2)`` of normalized weights."""
    w = np.asarray(weights, dtype=float)
    denom = float(np.sum(w * w))
    if denom <= 0.0:
        return 0.0
    return 1.0 / denom


def systematic_indices(
    weights: Sequence[float], n: int, rng: np.random.Generator
) -> np.ndarray:
    """Systematic resampling: one uniform offset, ``n`` evenly spaced picks.

    Pick ``j`` sits at ``(u + j) / n`` and selects the first particle
    whose cumulative weight reaches it. Rather than search for each
    pick, count for every cumulative weight ``c_i`` the picks at or
    below it, ``floor(c_i n - u) + 1`` in exact arithmetic. Pick ``j``
    then selects the number of particles whose count is at most ``j``:
    a ``bincount`` and a ``cumsum``, O(N) in all.

    The counts are exact. Rounding moves ``c_i n - u`` by far less than
    1/2 (about ``n * 1e-16``), so ``floor(c_i n - u + 1/2)`` is the true
    count or one below it, and one comparison against the very
    expression ``(u + j) / n`` a search would use settles which. The
    indices are those of ``searchsorted(cumsum(w), (u + arange(n)) / n)``
    bit for bit.
    """
    w = _normalized_weights(weights)
    u = rng.random()
    cumulative = np.cumsum(w)
    cumulative[-1] = 1.0  # guard against round-off
    buf = cumulative * n
    counts = np.empty(cumulative.size, dtype=np.intp)
    # c n - u + 1/2 > -1/2, so truncation gives the floor (or 0, which
    # is then the true count).
    np.subtract(buf, u - 0.5, out=counts, casting="unsafe")
    np.add(counts, u, out=buf)
    buf /= n
    counts += buf <= cumulative
    del buf, cumulative
    # Counts of n and above (every pick at or below c) fall in the bins
    # cut off here; the last particle's is always one of them.
    return np.cumsum(np.bincount(counts[:-1], minlength=n + 1)[:n])


def stratified_indices(
    weights: Sequence[float], n: int, rng: np.random.Generator
) -> np.ndarray:
    """Stratified resampling: one uniform draw per stratum."""
    w = _normalized_weights(weights)
    positions = (rng.random(n) + np.arange(n)) / n
    cumulative = np.cumsum(w)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, positions).astype(int)


def multinomial_indices(
    weights: Sequence[float], n: int, rng: np.random.Generator
) -> np.ndarray:
    """Plain multinomial resampling."""
    w = _normalized_weights(weights)
    return rng.choice(w.size, size=n, p=w).astype(int)


def residual_indices(
    weights: Sequence[float], n: int, rng: np.random.Generator
) -> np.ndarray:
    """Residual resampling: deterministic copies, multinomial remainder.

    Each particle ``i`` is first copied ``floor(n * w_i)`` times; the
    ``n - sum floor(n * w_i)`` remaining slots are drawn multinomially
    from the fractional residuals. The deterministic part removes most
    of the multinomial variance while remaining unbiased.
    """
    w = _normalized_weights(weights)
    expected = n * w
    copies = np.floor(expected).astype(int)
    deterministic = np.repeat(np.arange(w.size), copies)
    remainder = n - int(copies.sum())
    if remainder == 0:
        return deterministic
    residuals = expected - copies
    total = residuals.sum()
    if total > 0:
        extra = rng.choice(w.size, size=remainder, p=residuals / total)
    else:
        extra = rng.choice(w.size, size=remainder, p=w)  # w exact multiples of 1/n
    return np.concatenate([deterministic, extra]).astype(int)


RESAMPLERS = {
    "systematic": systematic_indices,
    "stratified": stratified_indices,
    "multinomial": multinomial_indices,
    "residual": residual_indices,
}
