"""Scalar interpretation without its concrete fast paths: the oracles.

These are the formulations that ``repro.lang.lifted._lift``,
``SamplingCtx.sample``/``.observe``, ``clone_particle`` and
``Empirical.mean``/``.variance`` used before plain floats skipped the
symbolic checks, the ABC dispatch and the 0-d array loop. The fast paths
must return the same values bit for bit, raise the same errors, and
leave every posterior stream unchanged; :func:`install` swaps these
oracles in so a test can run a stream both ways.
"""

import numpy as np

from repro.dists import Distribution, Empirical
from repro.errors import InferenceError
from repro.inference.particles import Particle, clone_particle, clone_state_concrete
from repro.lang.lifted import SymDist
from repro.symbolic import is_symbolic


def generic_lift(kind, concrete, *params):
    if any(is_symbolic(p) for p in params):
        return SymDist(kind, tuple(params))
    return concrete(*params)


def generic_sample(self, dist):
    if isinstance(dist, SymDist):
        raise InferenceError(
            "a symbolic distribution reached the sampling context; "
            "sampling contexts only run fully concrete models"
        )
    if not isinstance(dist, Distribution):
        raise InferenceError(f"sample expects a distribution, got {dist!r}")
    return dist.sample(self.rng)


def generic_observe(self, dist, value):
    if isinstance(dist, SymDist):
        raise InferenceError(
            "a symbolic distribution reached the sampling context"
        )
    self.log_weight += dist.log_pdf(value)


def generic_clone_particle(particle):
    if particle.graph is not None:
        return clone_particle(particle)  # the graph path has no fast path
    return Particle(
        state=clone_state_concrete(particle.state),
        graph=None,
        log_weight=particle.log_weight,
    )


def generic_mean(self):
    acc = None
    for v, w in zip(self.values, self.weights):
        term = np.asarray(v, dtype=float) * w
        acc = term if acc is None else acc + term
    if acc is not None and acc.ndim == 0:
        return float(acc)
    return acc


def generic_variance(self):
    mean = generic_mean(self)
    acc = None
    for v, w in zip(self.values, self.weights):
        diff = np.asarray(v, dtype=float) - mean
        term = w * diff * diff
        acc = term if acc is None else acc + term
    if acc is not None and acc.ndim == 0:
        return float(acc)
    return acc


def install(monkeypatch):
    """Route scalar interpretation through the oracles for one test."""
    import repro.inference.engine as engine
    import repro.lang.lifted as lifted
    from repro.inference.contexts import SamplingCtx

    monkeypatch.setattr(lifted, "_lift", generic_lift)
    monkeypatch.setattr(SamplingCtx, "sample", generic_sample)
    monkeypatch.setattr(SamplingCtx, "observe", generic_observe)
    monkeypatch.setattr(engine, "clone_particle", generic_clone_particle)
    monkeypatch.setattr(Empirical, "mean", generic_mean)
    monkeypatch.setattr(Empirical, "variance", generic_variance)
