"""A hand-written batched SDS engine for the Outlier model: a test oracle.

Not part of the library: the library runs the Outlier model on the
generic batched DS graph, and ``test_generic_graph.py`` checks that it
is bit-identical to this closed-form engine at a fixed seed.
"""

from typing import Any

import numpy as np

from repro.dists import Distribution
from repro.errors import InferenceError
from repro.vectorized.dists import GaussianMixtureArray
from repro.vectorized.engine import VectorizedEngine
from repro.vectorized.kernels import (
    bernoulli_sample,
    beta_bernoulli_predictive,
    beta_bernoulli_update,
    gaussian_log_prob,
)


class VectorizedOutlierSDS(VectorizedEngine):
    """Rao-Blackwellized SDS for the Outlier model, batched.

    The scalar SDS engine keeps two symbolic chains per particle: the
    conjugate Gaussian position and the Beta outlier probability, whose
    Bernoulli child is force-realized each step (``ctx.value``) to
    branch on. Batched, that becomes: draw the indicator from the
    posterior predictive ``alpha/(alpha+beta)``, condition the Beta on
    the realized value, and apply the Kalman update / predictive weight
    only where the sensor is trusted — a masked blend over the
    population, one array operation per quantity.

    The library runs the Outlier model on the generic batched DS graph
    (``VectorizedGaussianChainSDS`` over a
    :class:`~repro.vectorized.models.GraphOutlierModel` adapter), whose
    per-particle masked affine edge performs exactly this arithmetic —
    bit-identical at a fixed seed. This hand-written engine is the
    oracle that equivalence is checked against.
    """

    _PARAMS = (
        "prior_mean",
        "prior_var",
        "motion_var",
        "obs_var",
        "outlier_alpha",
        "outlier_beta",
        "outlier_mean",
        "outlier_var",
    )

    def __init__(self, model: Any, **kwargs):
        if not all(hasattr(model, p) for p in self._PARAMS):
            raise InferenceError(
                f"model {type(model).__name__} is not Outlier-shaped; "
                "VectorizedOutlierSDS needs prior/motion/obs/outlier parameters"
            )
        super().__init__(model, **kwargs)

    def _init_batch_state(self, n: int, rng: np.random.Generator) -> Any:
        return None  # (alpha, beta, post_mean, post_var) after step 1

    def _step_batch(self, state: Any, yobs: Any, n: int, rng: np.random.Generator):
        model = self.model
        if state is None:
            alpha = np.full(n, float(model.outlier_alpha))
            beta = np.full(n, float(model.outlier_beta))
            pred_mean = np.full(n, float(model.prior_mean))
            pred_var = np.full(n, float(model.prior_var))
        else:
            alpha, beta, post_mean, post_var = state
            pred_mean = post_mean
            pred_var = post_var + model.motion_var
        # Forced realization of the indicator: sample the posterior
        # predictive, then condition the Beta on the drawn value.
        is_outlier = bernoulli_sample(beta_bernoulli_predictive(alpha, beta), rng)
        alpha, beta = beta_bernoulli_update(is_outlier, alpha, beta)
        yobs = float(yobs)
        gain = pred_var / (pred_var + model.obs_var)
        upd_mean = pred_mean + gain * (yobs - pred_mean)
        upd_var = (1.0 - gain) * pred_var
        step_logw = np.where(
            is_outlier,
            gaussian_log_prob(yobs, model.outlier_mean, model.outlier_var),
            gaussian_log_prob(yobs, pred_mean, pred_var + model.obs_var),
        )
        post_mean = np.where(is_outlier, pred_mean, upd_mean)
        post_var = np.where(is_outlier, pred_var, upd_var)
        return (
            (post_mean, post_var),
            (alpha, beta, post_mean, post_var),
            step_logw,
        )

    def _output_distribution(self, outs, weights) -> Distribution:
        post_mean, post_var = outs
        return GaussianMixtureArray(post_mean, post_var, weights)
