"""Resampling schemes and weight normalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from systematic_oracle import searchsorted_systematic_indices

from repro.bench.models import KalmanModel
from repro.errors import InferenceError
from repro.exec.population import ShardBarrier
from repro.inference import infer
from repro.inference.resampling import (
    RESAMPLERS,
    ess,
    multinomial_indices,
    normalize_log_weights,
    reduce_shard_weights,
    residual_indices,
    stratified_indices,
    ancestors_from_counts,
    systematic_indices,
    systematic_shard_bounds,
    systematic_shard_counts,
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


@st.composite
def sharded_cases(draw):
    """(per-shard log-weights, offset): 1-6 shards of random sizes
    (one-particle shards included), random weights, some shards with
    zero mass, all mass in shard 0, or every weight -inf."""
    n_shards = draw(st.integers(1, 6))
    sizes = draw(
        st.lists(
            st.one_of(st.just(1), st.integers(1, 40)),
            min_size=n_shards, max_size=n_shards,
        )
    )
    kind = draw(st.sampled_from(["random", "zero_mass", "first_only", "all_neg_inf"]))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shards = [data.normal(scale=3.0, size=size) for size in sizes]
    if kind == "zero_mass":
        dead = data.random(n_shards) < 0.5
        dead[data.integers(n_shards)] = False
        for shard, is_dead in zip(shards, dead):
            if is_dead:
                shard[:] = -np.inf
    elif kind == "first_only":
        for shard in shards[1:]:
            shard[:] = -np.inf
    elif kind == "all_neg_inf":
        for shard in shards:
            shard[:] = -np.inf
    u = draw(
        st.one_of(
            st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53]),
            st.floats(0.0, 1.0, exclude_max=True),
        )
    )
    return shards, u


def sharded_offspring(shards, u):
    """The sharded systematic barrier, coordinator and shards together:
    per-shard reductions, the mass fractions, the bounds, each shard's
    cumulative pick counts and offspring counts. Returns (fractions,
    mass, picks, offspring, cumulative counts, reduced)."""
    reduced = [reduce_shard_weights(logw, np.zeros_like(logw)) for logw in shards]
    sizes = np.array([logw.size for logw in shards])
    n = int(sizes.sum())
    fractions, log_z = normalize_log_weights(
        np.array([r.log_mass for r in reduced]), return_log_normalizer=True
    )
    if np.isneginf(log_z):
        fractions = sizes / n
    mass, picks = systematic_shard_bounds(fractions, n, u)
    cumulative = [
        systematic_shard_counts(
            r.weights, fractions[s], mass[s], (picks[s], picks[s + 1]), u, n
        )
        for s, r in enumerate(reduced)
    ]
    counts = [np.diff(c, prepend=0) for c in cumulative]
    return fractions, mass, picks, counts, cumulative, reduced


class TestShardedSystematicCounts:
    """The per-shard counting kernel: each shard derives its own
    offspring counts from the one offset and its bounds."""

    @settings(max_examples=300, deadline=None)
    @given(case=sharded_cases())
    def test_counts_cover_every_pick_once_in_order(self, case):
        shards, u = case
        n = sum(logw.size for logw in shards)
        _, _, picks, counts, cumulative, _ = sharded_offspring(shards, u)
        assert all((c >= 0).all() for c in counts)
        assert sum(int(c.sum()) for c in counts) == n
        for s, c in enumerate(counts):
            assert c.size == shards[s].size
            assert int(c.sum()) == picks[s + 1] - picks[s]
        offsets = np.cumsum([0] + [logw.size for logw in shards])
        ancestors = np.concatenate(
            [offsets[s] + np.repeat(np.arange(c.size), c) for s, c in enumerate(counts)]
        )
        assert ancestors.size == n
        assert (np.diff(ancestors) >= 0).all()
        # What the shards run: the same ancestors from the cumulative counts.
        for s, c in enumerate(cumulative):
            lo, hi = picks[s], picks[s + 1]
            np.testing.assert_array_equal(
                offsets[s] + ancestors_from_counts(c), ancestors[lo:hi]
            )

    @settings(max_examples=200, deadline=None)
    @given(case=sharded_cases())
    def test_one_shard_reproduces_systematic_indices(self, case):
        shards, u = case
        merged = [np.concatenate(shards)]
        _, _, _, counts, cumulative, reduced = sharded_offspring(merged, u)
        n = merged[0].size
        want = systematic_indices(reduced[0].weights, n, _FixedOffset(u))
        got = ancestors_from_counts(cumulative[0])
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.repeat(np.arange(n), counts[0]), want)

    def test_zero_mass_shards_get_no_picks(self):
        shards = [np.zeros(5), np.full(4, -np.inf), np.zeros(3)]
        _, _, picks, counts, _, _ = sharded_offspring(shards, 0.3)
        assert picks[1] == picks[2]
        assert not counts[1].any()

    def test_all_neg_inf_is_uniform_over_particles(self):
        """Not uniform over shards: a 1-particle shard beside a
        99-particle one gets about 1 pick in 100."""
        shards = [np.full(1, -np.inf), np.full(99, -np.inf)]
        fractions, _, picks, counts, _, _ = sharded_offspring(shards, 0.5)
        np.testing.assert_allclose(fractions, [0.01, 0.99])
        assert picks[1] - picks[0] == 1
        assert (counts[1] == 1).all()

    def test_all_mass_in_first_shard_reaches_the_last(self):
        """The last shard's slots are filled from shard 0, which is not
        its neighbour: the routes skip the shards in between."""
        shards = [np.zeros(3), np.full(3, -np.inf), np.full(3, -np.inf)]
        fractions, mass, picks, counts, _, _ = sharded_offspring(shards, 0.25)
        assert int(counts[0].sum()) == 9
        barrier = ShardBarrier(
            0, (0, 3, 6, 9), (int(picks[0]), int(picks[1])), 0.25,
            float(mass[0]), float(fractions[0]),
        )
        assert barrier.routes() == [(0, 0, 3), (1, 3, 6), (2, 6, 9)]

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    @pytest.mark.parametrize("kind", ["pos_inf", "all_neg_inf"])
    def test_non_finite_mass_falls_back_like_the_unsharded_step(
        self, kind, backend
    ):
        """A +inf log-weight, or -inf everywhere, leaves no finite total
        mass: the combined weights are uniform over particles (not over
        shards), the ESS and evidence are those of the unsharded step,
        and the barrier's offspring are the unsharded resampler's."""
        if kind == "pos_inf":
            shards = [np.array([0.0, np.inf, -1.0]), np.array([-2.0, -0.5]),
                      np.full(1, -np.inf)]
        else:
            shards = [np.full(3, -np.inf), np.full(2, -np.inf), np.full(1, -np.inf)]
        n = sum(logw.size for logw in shards)
        engine = infer(
            KalmanModel(), n_particles=n, method="pf", backend=backend,
            seed=3, n_shards=len(shards),
        )
        _, want = engine._weigh(np.zeros(n), np.concatenate(shards))
        want_stats = engine.last_stats
        rng_state = engine.rng.bit_generator.state
        want_offspring = np.bincount(
            systematic_indices(want, n, engine.rng), minlength=n
        )
        engine.rng.bit_generator.state = rng_state
        partials = [reduce_shard_weights(lw, np.zeros_like(lw)) for lw in shards]
        weights, fractions = engine._combine(partials)
        assert fractions is None
        np.testing.assert_array_equal(weights, want)
        assert engine.last_stats == want_stats
        barriers = engine._barriers(partials, fractions, weights)
        np.testing.assert_array_equal(
            np.concatenate([b.counts for b in barriers]), want_offspring
        )


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
