"""Vectorized execution backend: structure-of-arrays particle inference.

The scalar engines of :mod:`repro.inference` are the semantic baseline —
one Python object per particle, stepped in an interpreter loop. This
package is the high-throughput substrate: the particle population lives
in stacked NumPy arrays (:class:`ParticleBatch`), distributions sample
and score whole batches at once (:mod:`repro.vectorized.kernels`), and
the engines advance every particle in a constant number of array
operations per synchronous instant.

Select it through the public API::

    from repro import infer
    engine = infer(model, n_particles=1000, method="pf", backend="vectorized")

which falls back to the scalar engines when the model has no vectorized
equivalent. :data:`MODEL_REGISTRY` records, per model class, which
batched engines it has (see :func:`repro.inference.infer.select_engine`).
"""

from repro.vectorized.batch import (
    ParticleBatch,
    batch_state_words,
    concat_states,
    gather,
    slice_state,
)
from repro.vectorized.dists import (
    ArrayEmpirical,
    BetaMixtureArray,
    CountMixtureArray,
    DirichletMixtureArray,
    GammaMixtureArray,
    GaussianMixtureArray,
    MvGaussianMixtureArray,
)
from repro.vectorized.engine import (
    ScalarFallbackState,
    VectorizedBetaBernoulliSDS,
    VectorizedEngine,
    VectorizedGaussianChainSDS,
    VectorizedKalmanSDS,
    VectorizedParticleFilter,
)
from repro.vectorized.sds_graph import (
    FAMILY_KERNELS,
    BatchedDelayedCtx,
    BatchedDSGraph,
    BatchedNode,
    BetaBernoulliEdge,
    ChainOuts,
    ChainState,
    ChainStructureError,
    DirichletCategoricalEdge,
    GammaPoissonEdge,
    SlotFamily,
    register_slot_family,
)
from repro.vectorized.kernels import (
    BATCH_KERNELS,
    beta_bernoulli_log_prob,
    beta_bernoulli_predictive,
    beta_bernoulli_update,
    log_prob,
    sample_n,
    supports_batch,
)
from repro.vectorized.models import (
    MODEL_REGISTRY,
    GraphOutlierModel,
    ModelEntry,
    VectorizedCoin,
    VectorizedKalman,
    VectorizedModel,
    VectorizedOutlier,
    register_ds_graph_model,
    register_sds_engine,
    register_vectorizer,
    vectorize_model,
)

__all__ = [
    "ParticleBatch",
    "gather",
    "slice_state",
    "concat_states",
    "batch_state_words",
    "ArrayEmpirical",
    "GaussianMixtureArray",
    "MvGaussianMixtureArray",
    "BetaMixtureArray",
    "GammaMixtureArray",
    "DirichletMixtureArray",
    "CountMixtureArray",
    "VectorizedEngine",
    "VectorizedParticleFilter",
    "VectorizedKalmanSDS",
    "VectorizedGaussianChainSDS",
    "VectorizedBetaBernoulliSDS",
    "ScalarFallbackState",
    "BatchedDSGraph",
    "BatchedDelayedCtx",
    "BatchedNode",
    "BetaBernoulliEdge",
    "GammaPoissonEdge",
    "DirichletCategoricalEdge",
    "SlotFamily",
    "FAMILY_KERNELS",
    "register_slot_family",
    "ChainOuts",
    "ChainState",
    "ChainStructureError",
    "BATCH_KERNELS",
    "supports_batch",
    "sample_n",
    "log_prob",
    "beta_bernoulli_predictive",
    "beta_bernoulli_log_prob",
    "beta_bernoulli_update",
    "VectorizedModel",
    "VectorizedKalman",
    "VectorizedCoin",
    "VectorizedOutlier",
    "GraphOutlierModel",
    "ModelEntry",
    "MODEL_REGISTRY",
    "register_vectorizer",
    "register_sds_engine",
    "register_ds_graph_model",
    "vectorize_model",
]

