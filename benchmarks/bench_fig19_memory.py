"""Fig. 19 (and Fig. 4): ideal memory per step, PF / BDS / SDS / DS.

Reproduced shape: PF, BDS, and SDS use constant memory over time; DS
memory grows linearly on Kalman and Outlier and stays constant on Coin.
Memory is the live abstract words reachable from the particle states
(the paper forces a GC and counts live heap words; see the "Ideal
memory per step" section of EXPERIMENTS.md for the substitution).
"""

import numpy as np
import pytest

from repro.bench import (
    CoinModel,
    KalmanModel,
    OutlierModel,
    coin_data,
    format_profile,
    kalman_data,
    memory_profile,
    outlier_data,
    summarize_profile,
)

from conftest import emit


def test_fig4_and_fig19_kalman_memory(benchmark, bench_config):
    data = kalman_data(bench_config["profile_steps"], seed=42)

    def profile():
        return memory_profile(
            KalmanModel, data, n_particles=bench_config["profile_particles"],
            methods=["pf", "bds", "sds", "ds"],
        )

    result = benchmark.pedantic(profile, rounds=1, iterations=1)
    emit(format_profile(result, "Fig. 4 / Fig. 19 — Kalman ideal memory (words)"))
    summary = summarize_profile(result)

    # Fig. 4's headline: DS grows linearly, SDS constant
    steps = bench_config["profile_steps"]
    assert summary["ds"]["last"] > 0.5 * steps  # linear growth
    for method in ("pf", "bds", "sds"):
        assert summary[method]["growth"] < 1.05
    # SDS ends far below DS
    assert summary["ds"]["last"] > 5 * summary["sds"]["last"]


def test_fig19_coin_memory(benchmark, bench_config):
    data = coin_data(bench_config["profile_steps"], seed=42)

    def profile():
        return memory_profile(
            CoinModel, data, n_particles=bench_config["profile_particles"],
            methods=["pf", "bds", "sds", "ds"],
        )

    result = benchmark.pedantic(profile, rounds=1, iterations=1)
    emit(format_profile(result, "Fig. 19 — Coin ideal memory (words)"))
    summary = summarize_profile(result)
    # constant for every method, including DS (graph of constant size)
    for method in ("pf", "bds", "sds", "ds"):
        assert summary[method]["growth"] < 1.05


def test_fig19_outlier_memory(benchmark, bench_config):
    data = outlier_data(bench_config["profile_steps"], seed=42)

    def profile():
        return memory_profile(
            OutlierModel, data, n_particles=bench_config["profile_particles"],
            methods=["pf", "bds", "sds", "ds"],
        )

    result = benchmark.pedantic(profile, rounds=1, iterations=1)
    emit(format_profile(result, "Fig. 19 — Outlier ideal memory (words)"))
    summary = summarize_profile(result)
    assert summary["ds"]["growth"] > 2.0
    for method in ("pf", "bds", "sds"):
        assert summary[method]["growth"] < 1.6  # fluctuates, no trend
