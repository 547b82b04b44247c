"""Resampling schemes and weight normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from systematic_oracle import searchsorted_systematic_indices

from repro.errors import InferenceError
from repro.inference.resampling import (
    RESAMPLERS,
    ess,
    multinomial_indices,
    normalize_log_weights,
    residual_indices,
    stratified_indices,
    systematic_indices,
)


class TestNormalizeLogWeights:
    def test_uniform_from_equal(self):
        weights = normalize_log_weights([-1.0, -1.0, -1.0])
        assert np.allclose(weights, [1 / 3] * 3)

    def test_shift_invariance(self):
        a = normalize_log_weights([0.0, -1.0, -2.0])
        b = normalize_log_weights([100.0, 99.0, 98.0])
        assert np.allclose(a, b)

    def test_all_neg_inf_falls_back_to_uniform(self):
        weights = normalize_log_weights([-math.inf, -math.inf])
        assert np.allclose(weights, [0.5, 0.5])

    def test_single_neg_inf_gets_zero(self):
        weights = normalize_log_weights([0.0, -math.inf])
        assert np.allclose(weights, [1.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(InferenceError):
            normalize_log_weights([])

    def test_single_nan_zeroes_only_that_particle(self):
        """Regression: one NaN log-weight must not reset the population.

        ``normalize_log_weights([0.0, nan, 0.0])`` used to return
        all-uniform — silently discarding the two healthy particles and
        masking the broken kernel that produced the NaN.
        """
        with pytest.warns(RuntimeWarning, match="NaN log-weight"):
            weights = normalize_log_weights([0.0, math.nan, 0.0])
        assert np.allclose(weights, [0.5, 0.0, 0.5])

    def test_nan_among_finite_keeps_relative_weights(self):
        with pytest.warns(RuntimeWarning):
            weights = normalize_log_weights([math.log(3.0), math.nan, math.log(1.0)])
        assert np.allclose(weights, [0.75, 0.0, 0.25])

    def test_all_nan_falls_back_to_uniform(self):
        """Only a fully degenerate vector may reset to uniform."""
        with pytest.warns(RuntimeWarning):
            weights = normalize_log_weights([math.nan, math.nan])
        assert np.allclose(weights, [0.5, 0.5])

    def test_nan_and_neg_inf_mix(self):
        with pytest.warns(RuntimeWarning):
            weights = normalize_log_weights([math.nan, -math.inf, 0.0])
        assert np.allclose(weights, [0.0, 0.0, 1.0])

    @given(
        logw=st.lists(
            st.floats(min_value=-500, max_value=500, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_always_a_distribution(self, logw):
        weights = normalize_log_weights(logw)
        assert np.all(weights >= 0)
        assert weights.sum() == pytest.approx(1.0)


class TestEss:
    def test_uniform_weights_full_ess(self):
        assert ess([0.25] * 4) == pytest.approx(4.0)

    def test_degenerate_weights_ess_one(self):
        assert ess([1.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_zero_weights(self):
        assert ess([0.0, 0.0]) == 0.0


class TestIndices:
    @pytest.mark.parametrize("scheme", sorted(RESAMPLERS))
    def test_indices_in_range(self, scheme, rng):
        weights = normalize_log_weights([0.0, -1.0, -2.0, -0.5])
        indices = RESAMPLERS[scheme](weights, 10, rng)
        assert len(indices) == 10
        assert all(0 <= i < 4 for i in indices)

    @pytest.mark.parametrize(
        "fn",
        [systematic_indices, stratified_indices, multinomial_indices, residual_indices],
    )
    def test_degenerate_weight_selects_single(self, fn, rng):
        indices = fn([0.0, 1.0, 0.0], 8, rng)
        assert all(i == 1 for i in indices)

    def test_systematic_proportionality(self, rng):
        weights = np.array([0.5, 0.3, 0.2])
        counts = np.zeros(3)
        for _ in range(200):
            idx = systematic_indices(weights, 100, rng)
            counts += np.bincount(idx, minlength=3)
        freqs = counts / counts.sum()
        assert np.allclose(freqs, weights, atol=0.01)

    @given(seed=st.integers(0, 1000), n=st.integers(1, 64))
    def test_systematic_counts_are_within_one_of_expectation(self, seed, n):
        rng = np.random.default_rng(seed)
        weights = np.array([0.5, 0.5])
        idx = systematic_indices(weights, n, rng)
        count0 = int(np.sum(idx == 0))
        assert abs(count0 - n / 2) <= 1.0


@st.composite
def systematic_cases(draw):
    """(weights, n, seed): random weights, weights with zeros, exact
    multiples of 1/n, one nonzero weight; n equal to the number of
    weights or not, always including n in {1, 2, 1000}."""
    n = draw(st.one_of(st.sampled_from([1, 2, 1000]), st.integers(1, 64)))
    m = draw(st.one_of(st.just(n), st.integers(1, 64)))
    kind = draw(st.sampled_from(["random", "zeros", "multiples", "single"]))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        weights = data.random(m)
    elif kind == "zeros":
        weights = data.random(m) * (data.random(m) < 0.3)
        weights[data.integers(m)] = 1.0
    elif kind == "multiples":
        weights = data.multinomial(n, np.full(m, 1.0 / m)) / n
    else:
        weights = np.zeros(m)
        weights[data.integers(m)] = 1.0
    return weights, n, draw(st.integers(0, 2**32 - 1))


class _FixedOffset:
    """A generator stand-in whose one uniform draw is chosen."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestSystematicMatchesSearchsorted:
    """The O(N) counting resampler against the binary-search oracle:
    identical indices, identical generator state afterwards."""

    @staticmethod
    def assert_same(weights, n, seed):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        got = systematic_indices(weights, n, fast)
        want = searchsorted_systematic_indices(weights, n, slow)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert fast.bit_generator.state == slow.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(case=systematic_cases())
    def test_identical_indices_and_generator_state(self, case):
        self.assert_same(*case)

    @pytest.mark.parametrize("u", [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 1000])
    def test_extreme_offsets_on_exact_multiples(self, u, n):
        # Every pick then lands on or next to a cumulative weight.
        for m in sorted({1, 3, n}):
            weights = np.full(m, 1.0 / m)
            got = systematic_indices(weights, n, _FixedOffset(u))
            want = searchsorted_systematic_indices(weights, n, _FixedOffset(u))
            np.testing.assert_array_equal(got, want)

    def test_large_population(self):
        data = np.random.default_rng(11)
        log_weights = -0.5 * data.normal(size=250_000) ** 2
        self.assert_same(normalize_log_weights(log_weights), 250_000, 12)


class TestUnnormalizedWeights:
    """Regression: resamplers must normalize, not dump mass on the last particle.

    ``systematic_indices``/``stratified_indices`` used to assume
    normalized weights — the ``cumulative[-1] = 1.0`` round-off guard
    handed any missing mass to the last particle, so uniform-but-
    unnormalized ``[0.2, 0.2, 0.2]`` resampled to ``[1, 2, 2]`` instead
    of ``[0, 1, 2]``.
    """

    def test_systematic_uniform_unnormalized(self, rng):
        idx = systematic_indices([0.2, 0.2, 0.2], 3, rng)
        assert list(idx) == [0, 1, 2]

    @pytest.mark.parametrize("scheme", sorted(RESAMPLERS))
    def test_scaling_weights_changes_nothing(self, scheme, rng_factory):
        """Every scheme: w and c*w draw identical ancestor indices.

        Power-of-two scales make the internal normalization bit-exact,
        so the comparison can demand identical index vectors.
        """
        weights = np.array([0.5, 0.125, 0.25, 0.125])
        for scale in (0.25, 1.0, 8.0):
            a = RESAMPLERS[scheme](weights, 12, rng_factory(9))
            b = RESAMPLERS[scheme](weights * scale, 12, rng_factory(9))
            assert np.array_equal(a, b), (scheme, scale)

    @pytest.mark.parametrize("scheme", sorted(RESAMPLERS))
    def test_normalized_input_unchanged(self, scheme, rng_factory):
        """Already-normalized vectors keep their historical streams."""
        weights = normalize_log_weights([0.0, -1.0, -2.0, -0.5])
        a = RESAMPLERS[scheme](weights, 10, rng_factory(4))
        b = RESAMPLERS[scheme](list(weights), 10, rng_factory(4))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("scheme", sorted(RESAMPLERS))
    def test_schemes_agree_on_proportions(self, scheme, rng):
        """Unnormalized weights keep every scheme unbiased."""
        weights = np.array([5.0, 3.0, 2.0])  # sums to 10, not 1
        counts = np.zeros(3)
        for _ in range(200):
            idx = RESAMPLERS[scheme](weights, 100, rng)
            counts += np.bincount(idx, minlength=3)
        assert np.allclose(counts / counts.sum(), weights / weights.sum(), atol=0.02)

    @pytest.mark.parametrize("scheme", sorted(RESAMPLERS))
    def test_degenerate_sums_rejected(self, scheme, rng):
        with pytest.raises(InferenceError):
            RESAMPLERS[scheme]([0.0, 0.0], 4, rng)
        with pytest.raises(InferenceError):
            RESAMPLERS[scheme]([], 4, rng)
        with pytest.raises(InferenceError):
            RESAMPLERS[scheme]([0.5, -0.5, 1.0], 4, rng)


class TestResidual:
    def test_registered(self):
        assert RESAMPLERS["residual"] is residual_indices

    def test_deterministic_part_guarantees_floor_copies(self, rng):
        weights = np.array([0.55, 0.25, 0.2])
        for _ in range(50):
            idx = residual_indices(weights, 10, rng)
            counts = np.bincount(idx, minlength=3)
            assert len(idx) == 10
            # every particle receives at least floor(n * w_i) copies
            assert np.all(counts >= np.floor(10 * weights).astype(int))

    def test_exact_multiples_need_no_random_remainder(self, rng):
        idx = residual_indices(np.array([0.25, 0.75]), 4, rng)
        assert np.array_equal(np.bincount(idx, minlength=2), [1, 3])

    def test_unbiased_frequencies(self, rng):
        weights = np.array([0.5, 0.3, 0.2])
        counts = np.zeros(3)
        for _ in range(200):
            idx = residual_indices(weights, 100, rng)
            counts += np.bincount(idx, minlength=3)
        assert np.allclose(counts / counts.sum(), weights, atol=0.01)

    @given(seed=st.integers(0, 500), n=st.integers(1, 64))
    def test_always_returns_n_valid_indices(self, seed, n):
        rng = np.random.default_rng(seed)
        weights = normalize_log_weights([0.0, -0.3, -2.0, -0.7])
        idx = residual_indices(weights, n, rng)
        assert len(idx) == n
        assert all(0 <= i < 4 for i in idx)
