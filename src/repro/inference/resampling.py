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

import math
import warnings
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import InferenceError
from repro.obs.registry import count_event

__all__ = [
    "normalize_log_weights",
    "report_nan_log_weights",
    "log_normalizer",
    "ShardWeights",
    "reduce_shard_weights",
    "ess",
    "systematic_indices",
    "systematic_counts",
    "systematic_shard_bounds",
    "systematic_shard_counts",
    "ancestors_from_counts",
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
    w, log_z, nan_count = _normalize(np.asarray(log_weights, dtype=float))
    if nan_count:
        report_nan_log_weights(nan_count)
    return (w, log_z) if return_log_normalizer else w


def _normalize(logw: np.ndarray):
    """``(weights, log_z, nan_count)``: the quiet core of :func:`normalize_log_weights`."""
    if logw.size == 0:
        raise InferenceError("cannot normalize an empty weight vector")
    top = logw.max()
    nan_count = 0
    if np.isnan(top):  # the maximum propagates any NaN
        nan_mask = np.isnan(logw)
        nan_count = int(nan_mask.sum())
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
    return w, log_z, nan_count


def report_nan_log_weights(count: int) -> None:
    """Count and warn about ``count`` NaN log-weights treated as ``-inf``.

    The warning tells an interactive user once; the counter tells a
    long-running deployment how often.
    """
    count_event("repro_nan_log_weights_total", amount=int(count))
    warnings.warn(
        f"{int(count)} NaN log-weight(s) treated as -inf "
        "(zero weight); check the model/kernel that produced them",
        RuntimeWarning,
        stacklevel=3,
    )


def log_normalizer(log_weights: np.ndarray) -> float:
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


class ShardWeights(NamedTuple):
    """One shard's log-weights, reduced where the shard lives.

    The O(1) partials the resample barrier combines across shards, plus
    the shard's weights normalized within the shard (the output
    distribution scales them by the shard's mass fraction).
    """

    #: the shard's weights normalized to sum to one within the shard
    weights: np.ndarray
    #: ``log sum exp`` of the shard's log-weights after the step
    log_mass: float
    #: ``log sum exp`` of the shard's log-weights before the step
    prev_log_mass: float
    #: ``sum(weights ** 2)``, the shard's share of the ESS
    sum_sq: float
    #: NaN log-weights treated as ``-inf`` (counted by the coordinator)
    nan_count: int


def reduce_shard_weights(
    log_weights: np.ndarray, prev_log_weights: np.ndarray
) -> ShardWeights:
    """Reduce one shard's log-weights to its :class:`ShardWeights`.

    Quiet about NaNs: a reduction may run in a worker, whose metrics
    registry nobody reads, so the coordinator reports the summed
    ``nan_count`` once.
    """
    w, log_mass, nan_count = _normalize(np.asarray(log_weights, dtype=float))
    return ShardWeights(
        w,
        log_mass,
        log_normalizer(np.asarray(prev_log_weights, dtype=float)),
        float(np.sum(w * w)),
        nan_count,
    )


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
    pick, :func:`systematic_counts` counts for every cumulative weight
    the picks at or below it; pick ``j`` then selects the number of
    particles whose count is at most ``j``: a ``bincount`` and a
    ``cumsum``, O(N) in all. The indices are those of
    ``searchsorted(cumsum(w), (u + arange(n)) / n)`` bit for bit.
    """
    w = _normalized_weights(weights)
    u = rng.random()
    cumulative = np.cumsum(w)
    cumulative[-1] = 1.0  # guard against round-off
    counts = systematic_counts(cumulative, u, n)
    del cumulative  # lowers the step's peak memory
    # Counts of n and above (every pick at or below c) fall in the bins
    # cut off here; the last particle's is always one of them.
    return np.cumsum(np.bincount(counts[:-1], minlength=n + 1)[:n])


def systematic_counts(cumulative: np.ndarray, u: float, n: int) -> np.ndarray:
    """For each cumulative weight ``c``, the picks ``(u + j) / n`` at or below it.

    In exact arithmetic that is ``floor(c n - u) + 1``. The counts are
    exact in floating point too: rounding moves ``c n - u`` by far less
    than 1/2 (about ``n * 1e-16``), so ``floor(c n - u + 1/2)`` is the
    true count or one below it, and one comparison against the very
    expression ``(u + j) / n`` a search would use settles which. The
    counts are therefore monotone in ``c``. Consumes ``cumulative``'s
    values only; it is not modified.
    """
    buf = cumulative * n
    counts = np.empty(cumulative.size, dtype=np.intp)
    # c n - u + 1/2 > -1/2, so truncation gives the floor (or 0, which
    # is then the true count).
    np.subtract(buf, u - 0.5, out=counts, casting="unsafe")
    np.add(counts, u, out=buf)
    buf /= n
    counts += buf <= cumulative
    return counts


def systematic_shard_bounds(
    fractions: np.ndarray, n: int, u: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Where the systematic picks of a sharded population fall.

    ``fractions`` are the shards' mass fractions (summing to one).
    Returns ``(mass, picks)``, both of length ``S + 1``: shard ``s``
    covers the cumulative mass ``(mass[s], mass[s + 1]]`` and owns the
    picks ``picks[s] <= j < picks[s + 1]``, those whose position
    ``(u + j) / n`` falls in its mass. O(shards): the coordinator's
    whole share of systematic resampling.
    """
    mass = np.zeros(len(fractions) + 1)
    np.cumsum(fractions, out=mass[1:])
    mass[-1] = 1.0  # guard against round-off, as systematic_indices
    np.minimum(mass, 1.0, out=mass)
    picks = np.clip(systematic_counts(mass, u, n), 0, n)
    picks[0], picks[-1] = 0, n
    return mass, picks


def systematic_shard_counts(
    weights: np.ndarray,
    fraction: float,
    mass_before: float,
    picks: Tuple[int, int],
    u: float,
    n: int,
) -> np.ndarray:
    """One shard's systematic picks, counted in the shard.

    ``weights`` are the shard's weights normalized within the shard,
    ``fraction`` its mass fraction, ``mass_before`` and ``picks`` its
    bounds from :func:`systematic_shard_bounds`. The shard's cumulative
    weights are ``mass_before + fraction * cumsum(weights)``;
    :func:`systematic_counts` turns them into, for each particle, how
    many of the shard's picks lie at or below it. Round-off past the
    shard's mass is clipped to its last pick (the counts are monotone,
    so that equals capping the weight), and the last particle takes
    every remaining pick. The result is non-decreasing and ends
    at ``picks[1] - picks[0]``; its differences are the offspring
    counts. With one shard, the ancestors it implies are those of
    :func:`systematic_indices`, bit for bit.
    """
    lo, hi = int(picks[0]), int(picks[1])
    cumulative = np.cumsum(weights)
    cumulative *= fraction
    cumulative += mass_before
    counts = systematic_counts(cumulative, u, n)
    np.clip(counts, lo, hi, out=counts)
    counts -= lo
    counts[-1] = hi - lo
    return counts


def ancestors_from_counts(counts: np.ndarray) -> np.ndarray:
    """Ancestor of every pick from per-particle cumulative pick counts.

    Particle ``i`` takes the picks ``counts[i - 1] <= j < counts[i]``,
    so pick ``j``'s ancestor is the number of particles whose count is
    at most ``j``: a ``bincount`` and a ``cumsum``, as in
    :func:`systematic_indices`.
    """
    m = int(counts[-1])
    return np.cumsum(np.bincount(counts[:-1], minlength=m + 1)[:m])


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
