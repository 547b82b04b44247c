"""Reference kernels: fixed computations that measure the machine's speed.

A shared host can slow down by up to 2x for stretches of seconds to
minutes (on the 2-vCPU container the nominal times below come from, CPU
time grew with wall time, so it was not preemption but other tenants on
the physical cores). A kernel of the benchmark's own, run
just before every instant, slows down with it. Dividing each instant's
latency by the kernel's time, and multiplying by the kernel's nominal time,
gives the instant's latency at a fixed machine speed.

The kernels do not call the program under test, so a change to the program
cannot move them. Each workload uses the kernel whose resource mix is
closest to its own: interpreter-bound Python, NumPy on large arrays, or
both at small sizes, because the slowdowns of those differ.
"""

from __future__ import annotations

import math
import random
from time import perf_counter_ns

import numpy as np


def python_filter(n: int = 150, steps: int = 3) -> None:
    """Interpreter-bound: a pure-Python bootstrap particle filter."""
    rng = random.Random(12345)
    xs = [rng.gauss(0.0, 1.0) for _ in range(n)]
    for y in (0.3, -0.2, 0.5)[:steps]:
        xs = [x + rng.gauss(0.0, 1.0) for x in xs]
        ws = [math.exp(-0.5 * (y - x) ** 2) for x in xs]
        total = sum(ws)
        cumulative, acc = [], 0.0
        for w in ws:
            acc += w / total
            cumulative.append(acc)
        u, j, survivors = rng.random() / n, 0, []
        for i in range(n):
            position = u + i / n
            while j < n - 1 and cumulative[j] < position:
                j += 1
            survivors.append(xs[j])
        xs = survivors


_PARTICLES = {}


def array_filter(n: int = 50_000) -> None:
    """Array-bound: one NumPy bootstrap particle-filter step on n particles."""
    if n not in _PARTICLES:
        _PARTICLES[n] = np.random.default_rng(1).normal(size=n)
    rng = np.random.default_rng(7)
    x = _PARTICLES[n] + rng.normal(size=n)
    log_w = -0.5 * (0.3 - x) ** 2
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    indices = np.searchsorted(np.cumsum(w), (rng.random() + np.arange(n)) / n)
    x[np.minimum(indices, n - 1)].sum()


def mixed_filter() -> None:
    """Both at small sizes, where per-call overhead dominates."""
    python_filter(80)
    for _ in range(12):
        array_filter(1000)


#: kernel -> its time in milliseconds at the reference speed: a typical
#: time on the shared 2-vCPU container the suite was calibrated on.
KERNELS = {
    "python": (python_filter, 0.80),
    "array": (array_filter, 5.0),
    "mixed": (mixed_filter, 1.60),
}


class Reference:
    """One kernel and its nominal time. A latency measured next to a kernel
    run of ``k`` ns is ``latency * nominal_ms / k`` ms at the reference
    speed."""

    def __init__(self, name: str):
        self.kernel, self.nominal_ms = KERNELS[name]
        for _ in range(3):  # first-call costs: imports, allocations
            self.kernel()

    def time_ns(self) -> int:
        start = perf_counter_ns()
        self.kernel()
        return perf_counter_ns() - start
