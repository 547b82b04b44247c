"""Ablation: resampling schemes and resampling thresholds.

Not a paper figure — an ablation over the design choices the
"Ablation: resampling scheme and trigger" section of EXPERIMENTS.md
describes: (a) systematic vs stratified vs multinomial resampling,
(b) resample-every-step (the paper's choice) vs ESS-triggered
resampling, and (c) no resampling at all (the importance sampler whose
weight collapse motivates Section 5.1's particle filter).
"""

import numpy as np
import pytest

from repro.bench import KalmanModel, kalman_data
from repro.inference import infer
from repro.inference.diagnostics import DiagnosticsLog
from repro.inference.metrics import mse_of_run

from conftest import emit


def run_config(data, seed, **kwargs):
    engine = infer(KalmanModel(), seed=seed, **kwargs)
    state = engine.init()
    means = []
    log = DiagnosticsLog()
    for obs in data.observations:
        dist, state = engine.step(state, obs)
        means.append(dist.mean())
        log.record(engine.last_stats)
    return mse_of_run(means, data.truths), log


def test_ablation_resampling_schemes(benchmark, bench_config):
    data = kalman_data(bench_config["sweep_steps"], seed=7)
    schemes = ["systematic", "stratified", "multinomial"]

    def sweep():
        results = {}
        for scheme in schemes:
            mses = [
                run_config(
                    data, seed, n_particles=30, method="pf", resampler=scheme
                )[0]
                for seed in range(bench_config["sweep_runs"])
            ]
            results[scheme] = float(np.median(mses))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation — resampling scheme (PF, 30 particles, median MSE):\n"
        + "\n".join(f"  {s}: {m:.4f}" for s, m in results.items())
    )
    # all schemes are consistent estimators: same ballpark
    values = list(results.values())
    assert max(values) < 2.0 * min(values)


def test_ablation_resample_threshold(benchmark, bench_config):
    data = kalman_data(bench_config["sweep_steps"], seed=7)

    def sweep():
        results = {}
        for label, threshold in [("every-step", None), ("ess<0.5N", 0.5)]:
            mses = [
                run_config(
                    data, seed, n_particles=30, method="pf",
                    resample_threshold=threshold,
                )[0]
                for seed in range(bench_config["sweep_runs"])
            ]
            results[label] = float(np.median(mses))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation — resampling trigger (PF, 30 particles, median MSE):\n"
        + "\n".join(f"  {s}: {m:.4f}" for s, m in results.items())
    )
    assert max(results.values()) < 2.0 * min(results.values())


def test_ablation_no_resampling_degenerates(benchmark, bench_config):
    """Importance sampling's ESS collapses — the Section 5.1 motivation."""
    data = kalman_data(bench_config["sweep_steps"], seed=7)

    def measure():
        _, is_log = run_config(data, 0, n_particles=50, method="importance")
        _, pf_log = run_config(data, 0, n_particles=50, method="pf")
        return is_log.min_ess_fraction, pf_log.min_ess_fraction

    is_ess, pf_ess = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(
        f"Ablation — weight degeneracy (min ESS fraction over the run):\n"
        f"  importance sampling: {is_ess:.4f}\n"
        f"  particle filter:     {pf_ess:.4f}"
    )
    assert is_ess < 0.1        # collapses without resampling
    assert pf_ess > is_ess     # resampling keeps the population alive
