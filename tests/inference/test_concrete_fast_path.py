"""Concrete fast paths of scalar interpretation against their generic oracles.

Plain floats skip ``is_symbolic`` in the lifted constructors, known
distribution classes skip the ABC check in :class:`SamplingCtx`, scalar
states skip the deepcopy dispatch in ``clone_particle`` and plain-float
values of empirical posteriors skip the 0-d array per value. Each must give the same
result, the same error and the same posterior stream as the generic
formulation kept in ``interp_oracles``.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

import interp_oracles
from repro import infer
from repro.bench import (
    CoinModel,
    KalmanModel,
    OutlierModel,
    coin_data,
    kalman_data,
    outlier_data,
)
from repro.dists import Distribution, Empirical, Gaussian
from repro.dists.base import require_positive
from repro.errors import DistributionError, InferenceError
from repro.inference.contexts import SamplingCtx
from repro.inference.particles import Particle, clone_particle
from repro.lang import lifted
from repro.symbolic import BatchConst, RVar


class FakeNode:
    family = "gaussian"


CONSTRUCTORS = [
    lifted.gaussian,
    lifted.mv_gaussian,
    lifted.beta,
    lifted.bernoulli,
    lifted.binomial,
    lifted.gamma,
    lifted.inverse_gamma,
    lifted.poisson,
    lifted.exponential,
    lifted.uniform,
    lifted.categorical,
    lifted.dirichlet,
    lifted.delta,
]

RV = RVar(FakeNode())
BC = BatchConst(np.array([0.5, 1.5]))
PARAMS = [
    0.5,
    -0.0,
    3,
    0,
    True,
    False,
    float("nan"),
    np.float64(2.0),
    np.array(0.25),
    np.array([0.2, 0.8]),
    (0.3, RV),
    [BC, 1.0],
    (0.4, 0.6),
    RV,
]


def _arity(constructor):
    return constructor.__code__.co_argcount


def _slots(dist):
    names = []
    for cls in type(dist).__mro__:
        names.extend(getattr(cls, "__slots__", ()))
    return [getattr(dist, name) for name in names]


def _same(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, (RVar, BatchConst)):
        return a is b
    return a == b


def _outcome(constructor, args):
    try:
        return constructor(*args), None
    except Exception as exc:  # the fast path must raise what the oracle raises
        return None, (type(exc), str(exc))


class TestLiftParity:
    @pytest.mark.parametrize("constructor", CONSTRUCTORS, ids=lambda c: c.__name__)
    def test_same_type_and_parameters_as_generic_lift(self, constructor, monkeypatch):
        combos = list(itertools.product(PARAMS, repeat=_arity(constructor)))
        fast = [_outcome(constructor, args) for args in combos]
        monkeypatch.setattr(lifted, "_lift", interp_oracles.generic_lift)
        generic = [_outcome(constructor, args) for args in combos]
        for args, (got, err), (want, want_err) in zip(combos, fast, generic):
            assert err == want_err, args
            if err is not None:
                continue
            assert type(got) is type(want), args
            if isinstance(want, lifted.SymDist):
                assert got.kind == want.kind
                assert _same(list(got.params), list(want.params)), args
            else:
                assert _same(_slots(got), _slots(want)), args

    def test_concrete_scalars_build_distributions(self):
        assert type(lifted.gaussian(0.0, 1)) is Gaussian
        assert type(lifted.gaussian(True, np.float64(2.0))) is Gaussian

    def test_symbolic_containers_still_lift(self):
        assert isinstance(lifted.gaussian((0.3, RV), 1.0), lifted.SymDist)
        assert isinstance(lifted.gaussian(0.0, [BC, 1.0]), lifted.SymDist)
        dist = lifted.gaussian(0.0, RV)
        assert dist.params[0] == 0.0 and dist.params[1] is RV


class Subclassed(Gaussian):
    __slots__ = ()


class TestSamplingCtxChecks:
    def _warm(self, rng):
        ctx = SamplingCtx(rng)
        ctx.sample(Gaussian(0.0, 1.0))
        ctx.observe(Gaussian(0.0, 1.0), 0.5)
        return ctx

    def test_symdist_still_raises_after_warm_draws(self, rng):
        ctx = self._warm(rng)
        sym = lifted.gaussian(RV, 1.0)
        with pytest.raises(InferenceError, match="only run fully concrete models"):
            ctx.sample(sym)
        with pytest.raises(InferenceError, match="reached the sampling context"):
            ctx.observe(sym, 1.0)

    def test_non_distribution_still_raises(self, rng):
        ctx = self._warm(rng)
        with pytest.raises(InferenceError, match="sample expects a distribution"):
            ctx.sample(0.5)
        with pytest.raises(InferenceError, match="sample expects a distribution"):
            ctx.sample("not a distribution")

    def test_same_messages_as_generic_checks(self, rng):
        ctx = self._warm(rng)
        for bad in (lifted.gaussian(RV, 1.0), 0.5, object()):
            with pytest.raises(InferenceError) as fast:
                ctx.sample(bad)
            with pytest.raises(InferenceError) as generic:
                interp_oracles.generic_sample(ctx, bad)
            assert str(fast.value) == str(generic.value)

    def test_subclass_draws_like_generic(self):
        fast = SamplingCtx(np.random.default_rng(3))
        generic = SamplingCtx(np.random.default_rng(3))
        for _ in range(3):
            for dist in (Subclassed(1.0, 2.0), Gaussian(-1.0, 0.5)):
                assert fast.sample(dist) == interp_oracles.generic_sample(generic, dist)
                fast.observe(dist, 0.25)
                interp_oracles.generic_observe(generic, dist, 0.25)
        assert fast.log_weight == generic.log_weight

    def test_every_cached_class_is_a_distribution(self, rng):
        from repro.inference.contexts import _CONCRETE_DISTS

        self._warm(rng)
        for bad in (lifted.gaussian(RV, 1.0), 0.5):
            with pytest.raises(InferenceError):
                SamplingCtx(rng).sample(bad)
        assert Gaussian in _CONCRETE_DISTS
        assert all(issubclass(cls, Distribution) for cls in _CONCRETE_DISTS)
        assert lifted.SymDist not in _CONCRETE_DISTS


class TestRequirePositive:
    @pytest.mark.parametrize(
        "value", [float("nan"), 0.0, -0.0, 0, -1.0, -3, float("-inf"), np.float64("nan")]
    )
    def test_rejects(self, value):
        with pytest.raises(DistributionError, match="must be > 0"):
            require_positive("var", value)

    @pytest.mark.parametrize("value", [1e-300, 1, True, 2.5, np.float64(4.0), float("inf")])
    def test_accepts_as_float(self, value):
        out = require_positive("var", value)
        assert type(out) is float and out == float(value)


class TestEmpiricalFastPath:
    CASES = [
        [-0.0, -0.0, -0.0],
        [-0.0],
        [0.0, -0.0],
        [1.5, -2.25, 1e300, -1e300, 3.0],
        [0.1 * k for k in range(37)],
        [1, 2.5, 3],
        [True, 0.5],
        [np.float64(0.1), np.float64(-0.7), np.float64(3.3)],
        [0.1, np.float64(0.2), 0.3],
        [float("inf"), 1.0],
    ]

    @pytest.mark.parametrize("values", CASES, ids=range(len(CASES)))
    @pytest.mark.parametrize("weighted", [False, True])
    def test_moments_bit_identical_to_generic_loop(self, values, weighted):
        weights = None
        if weighted:
            weights = np.random.default_rng(len(values)).random(len(values)) + 0.01
        dist = Empirical(values, weights)
        with np.errstate(all="ignore"):
            for fast, generic in (
                (dist.mean(), interp_oracles.generic_mean(dist)),
                (dist.variance(), interp_oracles.generic_variance(dist)),
            ):
                assert type(fast) is float
                assert _same(fast, generic)

    def test_negative_zero_survives(self):
        mean = Empirical([-0.0, -0.0]).mean()
        assert mean == 0.0 and math.copysign(1.0, mean) == -1.0

    def test_array_values_keep_generic_path(self):
        dist = Empirical([np.array([1.0, 2.0]), np.array([3.0, 4.0])], [0.25, 0.75])
        np.testing.assert_array_equal(dist.mean(), interp_oracles.generic_mean(dist))
        np.testing.assert_array_equal(dist.variance(), interp_oracles.generic_variance(dist))

    WARN_CASES = [
        ([1e300, -1e300], None),  # the variance overflows
        ([1e200, 1.0], None),
        ([float("inf"), float("-inf")], None),  # inf - inf in the mean
        ([float("inf"), 1.0], None),  # inf - inf in the variance
        ([float("inf"), 1.0], [0.0, 1.0]),  # inf * 0 in the mean
        ([float("inf"), 1.5, np.float64(2.0)], None),
    ]

    @pytest.mark.parametrize("values,weights", WARN_CASES, ids=range(len(WARN_CASES)))
    def test_overflow_warns_like_generic_loop(self, values, weights):
        dist = Empirical(values, weights)
        warned = 0
        for fast, generic in (
            (dist.mean, interp_oracles.generic_mean),
            (dist.variance, interp_oracles.generic_variance),
        ):
            with warnings.catch_warnings(record=True) as fast_rec:
                warnings.simplefilter("always")
                got = fast()
            with warnings.catch_warnings(record=True) as generic_rec:
                warnings.simplefilter("always")
                want = generic(dist)
            assert _same(got, want)
            assert [w.category for w in fast_rec] == [w.category for w in generic_rec]
            warned += len(fast_rec)
        assert warned > 0


class TestCloneParticle:
    @pytest.mark.parametrize("state", [1.5, -0.0, 3, True, None, "s", b"b", np.float64(1.0)])
    def test_scalar_state_shared(self, state):
        particle = Particle(state, None, -2.5)
        clone = clone_particle(particle)
        assert clone is not particle
        assert clone.state is state and clone.graph is None and clone.log_weight == -2.5

    @pytest.mark.parametrize(
        "state", [(1.0, 0.5), [1.0, 2.0], np.array([1.0, 2.0]), np.float64(1.0), {"x": [1.0]}]
    )
    def test_other_states_copied_like_generic(self, state):
        particle = Particle(state, None, 0.25)
        clone = clone_particle(particle)
        want = interp_oracles.generic_clone_particle(particle)
        assert type(clone.state) is type(want.state)
        assert repr(clone.state) == repr(want.state)
        if isinstance(state, (list, dict, np.ndarray)):
            assert clone.state is not state


def _kalman():
    return KalmanModel(), kalman_data(25, seed=4).observations


def _coin():
    return CoinModel(), coin_data(25, seed=4).observations


def _outlier():
    return OutlierModel(), outlier_data(25, seed=4).observations


CELLS = [
    (model, method, {})
    for model in (_kalman, _coin, _outlier)
    for method in ("pf", "importance", "bds", "sds", "ds")
] + [
    (_kalman, "pf", {"clone_on_resample": "duplicates"}),
    (_outlier, "pf", {"clone_on_resample": "duplicates"}),
    (_outlier, "pf", {"executor": "serial", "n_shards": 2}),
]


def _stream(model_factory, method, kwargs):
    model, observations = model_factory()
    engine = infer(model, 40, method=method, seed=11, **kwargs)
    state = engine.init()
    moments = []
    for obs in observations:
        dist, state = engine.step(state, obs)
        moments.append((dist.mean(), dist.variance()))
    return moments


@pytest.mark.parametrize(
    "model_factory,method,kwargs",
    CELLS,
    ids=[f"{m.__name__[1:]}-{meth}-{'-'.join(map(str, kw.values())) or 'plain'}" for m, meth, kw in CELLS],
)
def test_stream_bit_identical_to_generic_paths(model_factory, method, kwargs, monkeypatch):
    fast = _stream(model_factory, method, kwargs)
    interp_oracles.install(monkeypatch)
    generic = _stream(model_factory, method, kwargs)
    assert len(fast) == len(generic)
    for step, (got, want) in enumerate(zip(fast, generic)):
        for g, w in zip(got, want):
            assert np.array_equal(np.asarray(g), np.asarray(w)), step
