"""The routing table: which engine every (model, method, backend) cell builds.

Pins the engine class ``infer`` constructs for ten models x five methods x
three backends, and a checksum of the posterior means of a 20-step run at
a fixed seed. The expected table was generated before the batched-engine
registries were merged into one, so a routing refactor that changes an
engine or a posterior in any cell fails here.

The checksum of a run is ``(sum_k m_k, sum_k (k + 1) m_k)`` where ``m_k``
is the step-``k`` posterior mean (a vector mean ``v`` enters as
``sum_j (j + 1) v_j``); both are compared to 1e-9 relative, which every
same-seed run reproduces and no changed step passes.
"""

import warnings

import numpy as np
import pytest

from repro.bench import (
    CoinModel,
    DirichletCategoricalModel,
    HmmModel,
    KalmanModel,
    MixedFragmentModel,
    OutlierModel,
    PoissonCountModel,
    RobotModel,
    categorical_data,
    coin_data,
    count_data,
    kalman_data,
    mixed_count_data,
    outlier_data,
    robot_data,
)
from repro.inference import infer
from repro.lang import gaussian
from repro.runtime.node import ProbCtx, ProbNode

STEPS = 20
SEED = 7
N_PARTICLES = 30


class KalmanSubclass(KalmanModel):
    """A user subclass: the registry matches exact classes only."""


class UnregisteredChain(ProbNode):
    """Batchable and bounded, but never registered."""

    def init(self):
        return None

    def step(self, state, yobs, ctx: ProbCtx):
        if state is None:
            xt = ctx.sample(gaussian(0.0, 100.0))
        else:
            xt = ctx.sample(gaussian(0.8 * state, 1.0))
        ctx.observe(gaussian(xt, 1.0), yobs)
        return xt, xt


MODELS = {
    "kalman": (KalmanModel, lambda: kalman_data(STEPS, seed=1)),
    "hmm": (HmmModel, lambda: kalman_data(STEPS, seed=2)),
    "coin": (CoinModel, lambda: coin_data(STEPS, seed=3)),
    "outlier": (OutlierModel, lambda: outlier_data(STEPS, seed=4)),
    "count": (PoissonCountModel, lambda: count_data(STEPS, seed=5)),
    "categorical": (DirichletCategoricalModel, lambda: categorical_data(STEPS, seed=6)),
    "robot": (RobotModel, lambda: robot_data(STEPS, seed=7)),
    "mixed": (
        lambda: MixedFragmentModel(realize="one"),
        lambda: mixed_count_data(STEPS, seed=8),
    ),
    "kalman_subclass": (KalmanSubclass, lambda: kalman_data(STEPS, seed=9)),
    "unregistered": (UnregisteredChain, lambda: kalman_data(STEPS, seed=10)),
}
METHODS = ("pf", "sds", "bds", "ds", "importance")
BACKENDS = ("scalar", "vectorized", "auto")


def run_cell(model_name, method, backend):
    """``(engine class name, checksum)`` of one cell's 20-step run."""
    make_model, make_data = MODELS[model_name]
    observations = make_data().observations
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        engine = infer(
            make_model(), N_PARTICLES, method=method, backend=backend, seed=SEED
        )
        state = engine.init()
        total = weighted = 0.0
        for k, obs in enumerate(observations):
            dist, state = engine.step(state, obs)
            flat = np.ravel(np.asarray(dist.mean(), dtype=float))
            m = float(np.dot(np.arange(1, flat.size + 1), flat))
            total += m
            weighted += (k + 1) * m
    return type(engine).__name__, (total, weighted)


# fmt: off
EXPECTED = {
    ('kalman', 'pf', 'scalar'): ('ParticleFilter', (60.838100482924446, 572.1430959702079)),
    ('kalman', 'pf', 'vectorized'): ('VectorizedParticleFilter', (60.838100482924446, 572.1430959702079)),
    ('kalman', 'pf', 'auto'): ('VectorizedParticleFilter', (60.838100482924446, 572.1430959702079)),
    ('kalman', 'sds', 'scalar'): ('StreamingDelayedSampler', (64.94063197359125, 606.2876714327487)),
    ('kalman', 'sds', 'vectorized'): ('VectorizedKalmanSDS', (64.94063197359125, 606.2876714327488)),
    ('kalman', 'sds', 'auto'): ('VectorizedKalmanSDS', (64.94063197359125, 606.2876714327488)),
    ('kalman', 'bds', 'scalar'): ('BoundedDelayedSampler', (63.21641556051137, 590.0373516155245)),
    ('kalman', 'bds', 'vectorized'): ('VectorizedGaussianChainSDS', (63.21641556051137, 590.0373516155245)),
    ('kalman', 'bds', 'auto'): ('VectorizedGaussianChainSDS', (63.21641556051137, 590.0373516155245)),
    ('kalman', 'ds', 'scalar'): ('OriginalDelayedSampler', (64.94063197359125, 606.2876714327487)),
    ('kalman', 'ds', 'vectorized'): ('OriginalDelayedSampler', (64.94063197359125, 606.2876714327487)),
    ('kalman', 'ds', 'auto'): ('OriginalDelayedSampler', (64.94063197359125, 606.2876714327487)),
    ('kalman', 'importance', 'scalar'): ('ImportanceSampler', (64.26544667613916, 624.5242801780171)),
    ('kalman', 'importance', 'vectorized'): ('ImportanceSampler', (64.26544667613916, 624.5242801780171)),
    ('kalman', 'importance', 'auto'): ('ImportanceSampler', (64.26544667613916, 624.5242801780171)),
    ('hmm', 'pf', 'scalar'): ('ParticleFilter', (88.72073753707393, 1180.1950760766047)),
    ('hmm', 'pf', 'vectorized'): ('VectorizedParticleFilter', (88.72073753707393, 1180.1950760766047)),
    ('hmm', 'pf', 'auto'): ('VectorizedParticleFilter', (88.72073753707393, 1180.1950760766047)),
    ('hmm', 'sds', 'scalar'): ('StreamingDelayedSampler', (91.36841931638173, 1190.0535271458132)),
    ('hmm', 'sds', 'vectorized'): ('VectorizedKalmanSDS', (91.36841931638173, 1190.053527145813)),
    ('hmm', 'sds', 'auto'): ('VectorizedKalmanSDS', (91.36841931638173, 1190.053527145813)),
    ('hmm', 'bds', 'scalar'): ('BoundedDelayedSampler', (88.36583349439476, 1154.1895698400913)),
    ('hmm', 'bds', 'vectorized'): ('VectorizedGaussianChainSDS', (88.36583349439476, 1154.1895698400913)),
    ('hmm', 'bds', 'auto'): ('VectorizedGaussianChainSDS', (88.36583349439476, 1154.1895698400913)),
    ('hmm', 'ds', 'scalar'): ('OriginalDelayedSampler', (91.36841931638173, 1190.0535271458132)),
    ('hmm', 'ds', 'vectorized'): ('OriginalDelayedSampler', (91.36841931638173, 1190.0535271458132)),
    ('hmm', 'ds', 'auto'): ('OriginalDelayedSampler', (91.36841931638173, 1190.0535271458132)),
    ('hmm', 'importance', 'scalar'): ('ImportanceSampler', (94.74837168382427, 1263.8158352371624)),
    ('hmm', 'importance', 'vectorized'): ('ImportanceSampler', (94.74837168382427, 1263.8158352371624)),
    ('hmm', 'importance', 'auto'): ('ImportanceSampler', (94.74837168382427, 1263.8158352371624)),
    ('coin', 'pf', 'scalar'): ('ParticleFilter', (5.733638892824105, 57.08031015278045)),
    ('coin', 'pf', 'vectorized'): ('VectorizedParticleFilter', (5.733638892824105, 57.08031015278045)),
    ('coin', 'pf', 'auto'): ('VectorizedParticleFilter', (5.733638892824105, 57.08031015278045)),
    ('coin', 'sds', 'scalar'): ('StreamingDelayedSampler', (5.851167863783963, 56.29766427243206)),
    ('coin', 'sds', 'vectorized'): ('VectorizedBetaBernoulliSDS', (5.851167863783963, 56.29766427243206)),
    ('coin', 'sds', 'auto'): ('VectorizedBetaBernoulliSDS', (5.851167863783963, 56.29766427243206)),
    ('coin', 'bds', 'scalar'): ('BoundedDelayedSampler', (6.298809231454453, 61.92332947270581)),
    ('coin', 'bds', 'vectorized'): ('VectorizedGaussianChainSDS', (6.298809231454454, 61.92332947270582)),
    ('coin', 'bds', 'auto'): ('VectorizedGaussianChainSDS', (6.298809231454454, 61.92332947270582)),
    ('coin', 'ds', 'scalar'): ('OriginalDelayedSampler', (5.851167863783963, 56.29766427243206)),
    ('coin', 'ds', 'vectorized'): ('OriginalDelayedSampler', (5.851167863783963, 56.29766427243206)),
    ('coin', 'ds', 'auto'): ('OriginalDelayedSampler', (5.851167863783963, 56.29766427243206)),
    ('coin', 'importance', 'scalar'): ('ImportanceSampler', (5.507332838540196, 51.46185166865429)),
    ('coin', 'importance', 'vectorized'): ('ImportanceSampler', (5.507332838540196, 51.46185166865429)),
    ('coin', 'importance', 'auto'): ('ImportanceSampler', (5.507332838540196, 51.46185166865429)),
    ('outlier', 'pf', 'scalar'): ('ParticleFilter', (-358.0757636151893, -3971.8608920123925)),
    ('outlier', 'pf', 'vectorized'): ('VectorizedParticleFilter', (-367.663076662181, -3996.318533954389)),
    ('outlier', 'pf', 'auto'): ('VectorizedParticleFilter', (-367.663076662181, -3996.318533954389)),
    ('outlier', 'sds', 'scalar'): ('StreamingDelayedSampler', (-363.8979438558249, -3985.3203417241425)),
    ('outlier', 'sds', 'vectorized'): ('VectorizedGaussianChainSDS', (-363.8979438558249, -3985.3203417241425)),
    ('outlier', 'sds', 'auto'): ('VectorizedGaussianChainSDS', (-363.8979438558249, -3985.3203417241425)),
    ('outlier', 'bds', 'scalar'): ('BoundedDelayedSampler', (-365.00586466158006, -3998.348992214338)),
    ('outlier', 'bds', 'vectorized'): ('VectorizedGaussianChainSDS', (-364.87022972906385, -3993.7661568496296)),
    ('outlier', 'bds', 'auto'): ('VectorizedGaussianChainSDS', (-364.87022972906385, -3993.7661568496296)),
    ('outlier', 'ds', 'scalar'): ('OriginalDelayedSampler', (-363.8979438558249, -3985.3203417241425)),
    ('outlier', 'ds', 'vectorized'): ('OriginalDelayedSampler', (-363.8979438558249, -3985.3203417241425)),
    ('outlier', 'ds', 'auto'): ('OriginalDelayedSampler', (-363.8979438558249, -3985.3203417241425)),
    ('outlier', 'importance', 'scalar'): ('ImportanceSampler', (-355.5452706468583, -3779.254942845378)),
    ('outlier', 'importance', 'vectorized'): ('ImportanceSampler', (-355.5452706468583, -3779.254942845378)),
    ('outlier', 'importance', 'auto'): ('ImportanceSampler', (-355.5452706468583, -3779.254942845378)),
    ('count', 'pf', 'scalar'): ('ParticleFilter', (13.988422520098798, 147.38779010714163)),
    ('count', 'pf', 'vectorized'): ('ParticleFilter', (13.988422520098798, 147.38779010714163)),
    ('count', 'pf', 'auto'): ('ParticleFilter', (13.988422520098798, 147.38779010714163)),
    ('count', 'sds', 'scalar'): ('StreamingDelayedSampler', (16.173921138201326, 171.82607886179866)),
    ('count', 'sds', 'vectorized'): ('VectorizedGaussianChainSDS', (16.173921138201326, 171.82607886179866)),
    ('count', 'sds', 'auto'): ('VectorizedGaussianChainSDS', (16.173921138201326, 171.82607886179866)),
    ('count', 'bds', 'scalar'): ('BoundedDelayedSampler', (14.229358645479794, 147.84809015022256)),
    ('count', 'bds', 'vectorized'): ('VectorizedGaussianChainSDS', (14.229358645479794, 147.84809015022256)),
    ('count', 'bds', 'auto'): ('VectorizedGaussianChainSDS', (14.229358645479794, 147.84809015022256)),
    ('count', 'ds', 'scalar'): ('OriginalDelayedSampler', (16.173921138201326, 171.82607886179866)),
    ('count', 'ds', 'vectorized'): ('OriginalDelayedSampler', (16.173921138201326, 171.82607886179866)),
    ('count', 'ds', 'auto'): ('OriginalDelayedSampler', (16.173921138201326, 171.82607886179866)),
    ('count', 'importance', 'scalar'): ('ImportanceSampler', (15.72925751741328, 170.17147746037375)),
    ('count', 'importance', 'vectorized'): ('ImportanceSampler', (15.72925751741328, 170.17147746037375)),
    ('count', 'importance', 'auto'): ('ImportanceSampler', (15.72925751741328, 170.17147746037375)),
    ('categorical', 'pf', 'scalar'): ('ParticleFilter', (41.64526644844458, 430.8202361672392)),
    ('categorical', 'pf', 'vectorized'): ('ParticleFilter', (41.64526644844458, 430.8202361672392)),
    ('categorical', 'pf', 'auto'): ('ParticleFilter', (41.64526644844458, 430.8202361672392)),
    ('categorical', 'sds', 'scalar'): ('StreamingDelayedSampler', (41.59435682566487, 437.21692952300543)),
    ('categorical', 'sds', 'vectorized'): ('VectorizedGaussianChainSDS', (41.59435682566487, 437.2169295230054)),
    ('categorical', 'sds', 'auto'): ('VectorizedGaussianChainSDS', (41.59435682566487, 437.2169295230054)),
    ('categorical', 'bds', 'scalar'): ('BoundedDelayedSampler', (42.13036342383724, 442.22254820475894)),
    ('categorical', 'bds', 'vectorized'): ('VectorizedGaussianChainSDS', (42.13036342383724, 442.222548204759)),
    ('categorical', 'bds', 'auto'): ('VectorizedGaussianChainSDS', (42.13036342383724, 442.222548204759)),
    ('categorical', 'ds', 'scalar'): ('OriginalDelayedSampler', (41.59435682566487, 437.21692952300543)),
    ('categorical', 'ds', 'vectorized'): ('OriginalDelayedSampler', (41.59435682566487, 437.21692952300543)),
    ('categorical', 'ds', 'auto'): ('OriginalDelayedSampler', (41.59435682566487, 437.21692952300543)),
    ('categorical', 'importance', 'scalar'): ('ImportanceSampler', (41.19699954351023, 430.2792828116306)),
    ('categorical', 'importance', 'vectorized'): ('ImportanceSampler', (41.19699954351023, 430.2792828116306)),
    ('categorical', 'importance', 'auto'): ('ImportanceSampler', (41.19699954351023, 430.2792828116306)),
    ('robot', 'pf', 'scalar'): ('ParticleFilter', (-13.478352889106777, -185.41649278804272)),
    ('robot', 'pf', 'vectorized'): ('ParticleFilter', (-13.478352889106777, -185.41649278804272)),
    ('robot', 'pf', 'auto'): ('ParticleFilter', (-13.478352889106777, -185.41649278804272)),
    ('robot', 'sds', 'scalar'): ('StreamingDelayedSampler', (1.297961863835666, 43.24556179686418)),
    ('robot', 'sds', 'vectorized'): ('VectorizedGaussianChainSDS', (1.297961863835666, 43.24556179686418)),
    ('robot', 'sds', 'auto'): ('VectorizedGaussianChainSDS', (1.297961863835666, 43.24556179686418)),
    ('robot', 'bds', 'scalar'): ('BoundedDelayedSampler', (-2.7004112280513892, -17.054828937096943)),
    ('robot', 'bds', 'vectorized'): ('VectorizedGaussianChainSDS', (-2.7004112280513892, -17.05482893709694)),
    ('robot', 'bds', 'auto'): ('VectorizedGaussianChainSDS', (-2.7004112280513892, -17.05482893709694)),
    ('robot', 'ds', 'scalar'): ('OriginalDelayedSampler', (1.297961863835666, 43.24556179686418)),
    ('robot', 'ds', 'vectorized'): ('OriginalDelayedSampler', (1.297961863835666, 43.24556179686418)),
    ('robot', 'ds', 'auto'): ('OriginalDelayedSampler', (1.297961863835666, 43.24556179686418)),
    ('robot', 'importance', 'scalar'): ('ImportanceSampler', (-4.525782686877996, -95.97881446756132)),
    ('robot', 'importance', 'vectorized'): ('ImportanceSampler', (-4.525782686877996, -95.97881446756132)),
    ('robot', 'importance', 'auto'): ('ImportanceSampler', (-4.525782686877996, -95.97881446756132)),
    ('mixed', 'pf', 'scalar'): ('ParticleFilter', (0.0, 0.0)),
    ('mixed', 'pf', 'vectorized'): ('ParticleFilter', (0.0, 0.0)),
    ('mixed', 'pf', 'auto'): ('ParticleFilter', (0.0, 0.0)),
    ('mixed', 'sds', 'scalar'): ('StreamingDelayedSampler', (0.0, 0.0)),
    ('mixed', 'sds', 'vectorized'): ('VectorizedGaussianChainSDS', (0.0, 0.0)),
    ('mixed', 'sds', 'auto'): ('VectorizedGaussianChainSDS', (0.0, 0.0)),
    ('mixed', 'bds', 'scalar'): ('BoundedDelayedSampler', (0.0, 0.0)),
    ('mixed', 'bds', 'vectorized'): ('VectorizedGaussianChainSDS', (0.0, 0.0)),
    ('mixed', 'bds', 'auto'): ('VectorizedGaussianChainSDS', (0.0, 0.0)),
    ('mixed', 'ds', 'scalar'): ('OriginalDelayedSampler', (0.0, 0.0)),
    ('mixed', 'ds', 'vectorized'): ('OriginalDelayedSampler', (0.0, 0.0)),
    ('mixed', 'ds', 'auto'): ('OriginalDelayedSampler', (0.0, 0.0)),
    ('mixed', 'importance', 'scalar'): ('ImportanceSampler', (0.0, 0.0)),
    ('mixed', 'importance', 'vectorized'): ('ImportanceSampler', (0.0, 0.0)),
    ('mixed', 'importance', 'auto'): ('ImportanceSampler', (0.0, 0.0)),
    ('kalman_subclass', 'pf', 'scalar'): ('ParticleFilter', (-212.5418363768518, -2443.370729933575)),
    ('kalman_subclass', 'pf', 'vectorized'): ('ParticleFilter', (-212.5418363768518, -2443.370729933575)),
    ('kalman_subclass', 'pf', 'auto'): ('ParticleFilter', (-212.5418363768518, -2443.370729933575)),
    ('kalman_subclass', 'sds', 'scalar'): ('StreamingDelayedSampler', (-211.32584097486068, -2442.6270431265734)),
    ('kalman_subclass', 'sds', 'vectorized'): ('StreamingDelayedSampler', (-211.32584097486068, -2442.6270431265734)),
    ('kalman_subclass', 'sds', 'auto'): ('VectorizedGaussianChainSDS', (-211.32584097486065, -2442.627043126574)),
    ('kalman_subclass', 'bds', 'scalar'): ('BoundedDelayedSampler', (-213.85502336497927, -2473.459499777087)),
    ('kalman_subclass', 'bds', 'vectorized'): ('BoundedDelayedSampler', (-213.85502336497927, -2473.459499777087)),
    ('kalman_subclass', 'bds', 'auto'): ('VectorizedGaussianChainSDS', (-213.85502336497927, -2473.4594997770864)),
    ('kalman_subclass', 'ds', 'scalar'): ('OriginalDelayedSampler', (-211.32584097486068, -2442.6270431265734)),
    ('kalman_subclass', 'ds', 'vectorized'): ('OriginalDelayedSampler', (-211.32584097486068, -2442.6270431265734)),
    ('kalman_subclass', 'ds', 'auto'): ('OriginalDelayedSampler', (-211.32584097486068, -2442.6270431265734)),
    ('kalman_subclass', 'importance', 'scalar'): ('ImportanceSampler', (-201.9005214909393, -2237.890361273866)),
    ('kalman_subclass', 'importance', 'vectorized'): ('ImportanceSampler', (-201.9005214909393, -2237.890361273866)),
    ('kalman_subclass', 'importance', 'auto'): ('ImportanceSampler', (-201.9005214909393, -2237.890361273866)),
    ('unregistered', 'pf', 'scalar'): ('ParticleFilter', (-195.10328779867754, -2009.7230495325073)),
    ('unregistered', 'pf', 'vectorized'): ('ParticleFilter', (-195.10328779867754, -2009.7230495325073)),
    ('unregistered', 'pf', 'auto'): ('ParticleFilter', (-195.10328779867754, -2009.7230495325073)),
    ('unregistered', 'sds', 'scalar'): ('StreamingDelayedSampler', (-231.63367826190975, -2510.5249350879703)),
    ('unregistered', 'sds', 'vectorized'): ('StreamingDelayedSampler', (-231.63367826190975, -2510.5249350879703)),
    ('unregistered', 'sds', 'auto'): ('VectorizedGaussianChainSDS', (-231.63367826190975, -2510.524935087971)),
    ('unregistered', 'bds', 'scalar'): ('BoundedDelayedSampler', (-230.7057872108494, -2502.893939262256)),
    ('unregistered', 'bds', 'vectorized'): ('BoundedDelayedSampler', (-230.7057872108494, -2502.893939262256)),
    ('unregistered', 'bds', 'auto'): ('VectorizedGaussianChainSDS', (-230.7057872108494, -2502.893939262256)),
    ('unregistered', 'ds', 'scalar'): ('OriginalDelayedSampler', (-231.63367826190975, -2510.5249350879703)),
    ('unregistered', 'ds', 'vectorized'): ('OriginalDelayedSampler', (-231.63367826190975, -2510.5249350879703)),
    ('unregistered', 'ds', 'auto'): ('OriginalDelayedSampler', (-231.63367826190975, -2510.5249350879703)),
    ('unregistered', 'importance', 'scalar'): ('ImportanceSampler', (-95.30925060458597, -690.0087735483288)),
    ('unregistered', 'importance', 'vectorized'): ('ImportanceSampler', (-95.30925060458597, -690.0087735483288)),
    ('unregistered', 'importance', 'auto'): ('ImportanceSampler', (-95.30925060458597, -690.0087735483288)),
}
# fmt: on


CELLS = [(m, meth, b) for m in MODELS for meth in METHODS for b in BACKENDS]


@pytest.mark.parametrize("model_name,method,backend", CELLS)
def test_cell_builds_same_engine_and_posterior(model_name, method, backend):
    engine_name, checksum = run_cell(model_name, method, backend)
    expected_name, expected_checksum = EXPECTED[(model_name, method, backend)]
    assert engine_name == expected_name
    np.testing.assert_allclose(checksum, expected_checksum, rtol=1e-9, atol=1e-9)
