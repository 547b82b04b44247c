"""Systematic resampling by binary search: the oracle for the O(N) resampler.

This is the textbook formulation that ``repro.inference.resampling`` used
before it switched to counting picks per cumulative weight. The counting
version must return the same indices bit for bit and draw the same single
uniform from the generator.
"""

import numpy as np

from repro.inference.resampling import _normalized_weights


def searchsorted_systematic_indices(weights, n, rng):
    w = _normalized_weights(weights)
    positions = (rng.random() + np.arange(n)) / n
    cumulative = np.cumsum(w)
    cumulative[-1] = 1.0  # guard against round-off
    return np.searchsorted(cumulative, positions).astype(int)
