"""Ablation: particle-cloning policy at resampling.

The "Ablation: particle cloning at resampling" section of EXPERIMENTS.md
documents the substitution for the paper's latency experiment:
the OCaml runtime's per-step cost is proportional to the live heap
(GC + state copies), which we model by cloning every selected particle
at resampling (``clone_on_resample="all"``). The sharing optimization
(``"duplicates"``) changes no inference result — this ablation verifies
both claims: identical posteriors, different DS latency profile.
"""

import numpy as np
import pytest

from repro.bench import KalmanModel, kalman_data
from repro.inference import infer

from conftest import emit


def run_means(data, method, clone_policy, seed=0, particles=10):
    engine = infer(
        KalmanModel(), n_particles=particles, method=method, seed=seed,
        clone_on_resample=clone_policy,
    )
    state = engine.init()
    means = []
    for obs in data.observations:
        dist, state = engine.step(state, obs)
        means.append(dist.mean())
    return means


def test_clone_policy_does_not_change_inference(benchmark, bench_config):
    """Same rng, same posteriors under both cloning policies (SDS)."""
    data = kalman_data(30, seed=11)

    def compute():
        exact = run_means(data, "sds", "all", particles=1)
        shared = run_means(data, "sds", "duplicates", particles=1)
        return exact, shared

    exact, shared = benchmark.pedantic(compute, rounds=1, iterations=1)
    assert np.allclose(exact, shared)


def test_clone_policy_changes_ds_latency_profile(benchmark, bench_config):
    """Under `duplicates`, DS latency growth flattens (fewer clones of
    the growing graph); under `all` it shows the paper's degradation."""
    import time

    data = kalman_data(bench_config["profile_steps"], seed=11)

    def profile(policy):
        engine = infer(
            KalmanModel(), n_particles=10, method="ds", seed=0,
            clone_on_resample=policy,
        )
        state = engine.init()
        latencies = []
        for obs in data.observations:
            start = time.perf_counter()
            _, state = engine.step(state, obs)
            latencies.append(time.perf_counter() - start)
        quarter = len(latencies) // 4
        return float(np.mean(latencies[-quarter:]) / np.mean(latencies[:quarter]))

    def compute():
        return profile("all"), profile("duplicates")

    growth_all, growth_dup = benchmark.pedantic(compute, rounds=1, iterations=1)
    emit(
        "Ablation — DS latency growth by cloning policy:\n"
        f"  clone all selected: {growth_all:.2f}x\n"
        f"  clone duplicates:   {growth_dup:.2f}x"
    )
    assert growth_all > growth_dup
    assert growth_all > 2.0
