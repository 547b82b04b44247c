"""Executor crossover: particle-filter step latency per executor and size.

For the vectorized and the scalar particle filter on the Fig. 2 HMM, at
each particle count, one round times a short stream under the default
unsharded population (no executor) and under every executor (``serial``,
``threads:2``, ``processes-persistent:2``, four shards each), back to
back in an order that rotates between rounds. A stream's value is its
mean ms per step after the warm-up steps. Each cell reports the median
of the rounds' values and, in brackets, the median of the per-round
ratios to the default's run in the same round. Run from the repository
root::

    PYTHONPATH=src python benchmarks/crossover_table.py --rounds 10
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.bench import HmmModel, kalman_data
from repro.exec import shutdown_executors
from repro.inference import infer

EXECUTORS = (None, "serial", "threads:2", "processes-persistent:2")
COUNTS = (10_000, 100_000, 250_000, 1_000_000)
#: steps per stream, and the first steps left out of its value
STEPS = 12
WARMUP = 2
#: the largest scalar population timed: a scalar step costs about 10 us
#: per particle, so ten rounds at 1M would take hours.
SCALAR_MAX = 250_000


def step_ms(backend, n_particles, executor, observations):
    """Mean ms per step of one stream, after the warm-up steps."""
    engine = infer(
        HmmModel(), n_particles=n_particles, method="pf", backend=backend,
        seed=0, executor=executor,
    )
    state = engine.init()
    for step, y in enumerate(observations):
        if step == WARMUP:
            started = time.perf_counter()
        _, state = engine.step(state, y)
    elapsed = time.perf_counter() - started
    if hasattr(state, "release"):
        state.release()
    return elapsed * 1e3 / (len(observations) - WARMUP)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args()
    observations = kalman_data(STEPS, seed=42).observations
    names = ["no executor" if e is None else e for e in EXECUTORS]
    print("| engine | particles | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(EXECUTORS))
    for backend in ("vectorized", "scalar"):
        for n in COUNTS:
            if backend == "scalar" and n > SCALAR_MAX:
                print(f"| `pf@{backend}` | {n:,} |" + " not measured |" * len(EXECUTORS))
                continue
            samples = {executor: [] for executor in EXECUTORS}
            for r in range(args.rounds):
                shift = r % len(EXECUTORS)
                order = EXECUTORS[shift:] + EXECUTORS[:shift]
                for executor in order:
                    samples[executor].append(step_ms(backend, n, executor, observations))
            cells = [f"{statistics.median(samples[None]):.2f}"]
            for executor in EXECUTORS[1:]:
                ratios = [a / b for a, b in zip(samples[executor], samples[None])]
                cells.append(
                    f"{statistics.median(samples[executor]):.2f} "
                    f"({statistics.median(ratios):.2f}x)"
                )
            print(f"| `pf@{backend}` | {n:,} | " + " | ".join(cells) + " |", flush=True)
    shutdown_executors()


if __name__ == "__main__":
    main()
