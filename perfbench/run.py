"""Reactive-inference benchmark: one workload, one run, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload kalman_pf --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md in this directory). The last line of
standard output is the result; the line before it records the run's context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

# NumPy and the program are imported inside the functions below, after
# main() has pinned the thread counts and put src/ on the path.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOADS = ("kalman_pf", "kalman_pf_persistent", "sds_fleet", "scalar_pf")

#: settings that change what the program does: a fault plan installs
#: itself at import, the others resize or re-time the persistent executor.
FORBIDDEN_ENV = (
    "REPRO_FAULT_PLAN",
    "REPRO_SHM_BYTES",
    "REPRO_STEP_TIMEOUT_S",
    "REPRO_RESTART_BUDGET",
    "REPRO_CHECKPOINT_EVERY",
)
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)

#: fresh processes timed for setup_s before and after the timed phase, so
#: that one run samples more than one state of a shared machine; the median
#: of all of them is reported.
SETUP_PROBES = (4, 3)
PROBE_TIMEOUT_S = 120

#: per-layer metrics each workload must show nonzero in a traced run: the
#: layers the README's table expects to move the end-to-end metrics there.
EXPECTED_NONZERO = {
    "kalman_pf": [
        "inference.resampling.ms",
        "inference.weights.ms",
        "vectorized.models.ms",
        "vectorized.dists.ms",
        "vectorized.batch.ms",
        "engine.step.self_ms",
    ],
    "kalman_pf_persistent": [
        "inference.weights.ms",
        "engine.step.self_ms",
        "exec.map_ms",
        "exec.exchange_ms",
        "exec.worker_step_ms",
    ],
    "sds_fleet": [
        "inference.resampling.ms",
        "vectorized.dists.ms",
        "vectorized.batch.ms",
        "vectorized.sds_graph.ms",
        "vectorized.sds_graph.clone_ms",
        "vectorized.interp.ms",
        "engine.step.self_ms",
        "exec.server.self_ms",
        "analysis.routing.ms",
    ],
    "scalar_pf": [
        "runtime.model_step.ms",
        "inference.particles.clone_ms",
        "inference.resampling.ms",
        "analysis.routing.ms",
        "analysis.routing.scalar_streams",
    ],
}

#: trace file: the spans of this many timed instants (self times use all).
TRACE_FILE_INSTANTS = 20

NOTE = (
    "instant times are scaled to the reference speed (perfbench/reference.py); "
    "raw figures come from {cpus} visible CPUs that other tenants may share"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# set-up time, in fresh processes
# ----------------------------------------------------------------------
def setup_probe(args) -> int:
    """Child mode: time from before ``import repro`` until the first instant
    can run (imports, engine or server construction with its routing,
    worker start and ``init``)."""
    started = perf_counter()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.open()
    elapsed = perf_counter() - started
    workload.close()
    print(json.dumps({"setup_s": elapsed}))
    return 0


class ProbeFailed(RuntimeError):
    pass


def measure_setup(args, probes):
    """Set-up seconds of ``probes`` fresh processes, in plain wall-clock
    time: no reference kernel tracked them (imports and process start slow
    down less than the kernels)."""
    samples = []
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
    ]
    for _ in range(probes):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise ProbeFailed("set-up probe failed")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ----------------------------------------------------------------------
# the timed phase
# ----------------------------------------------------------------------
class Phase:
    """Per-instant timings of one timed phase (warm-up excluded)."""

    def __init__(self):
        self.latencies_ns = []  # the instant
        self.cycles_ns = []  # the instant plus reading its posteriors
        self.kernel_ns = []  # the reference kernel run just before it
        self.last_kernel_ns = 0  # the kernel run after the last instant
        self.wall_s = 0.0
        self.instants = 0  # instants run, warm-up included
        self.error = None
        self.exhausted = False


def run_phase(workload, seconds, kernel):
    """Warm-up, then instants until ``seconds`` have passed and at least
    MIN_INSTANTS were timed. The reference kernel runs before each instant
    and after the last, outside the instants' timing."""
    import workloads as wl

    phase = Phase()
    n_inputs = len(workload.streams[0].observations)
    k = 0
    started = None
    while True:
        if k == wl.WARMUP:
            started = perf_counter()
        if k == n_inputs:
            phase.exhausted = True
            break
        kernel_ns = kernel.time_ns()
        t0 = perf_counter_ns()
        try:
            workload.instant(k)
        except Exception:
            phase.error = traceback.format_exc()
            break
        t1 = perf_counter_ns()
        workload.collect(k)
        if k >= wl.WARMUP:
            phase.latencies_ns.append(t1 - t0)
            phase.cycles_ns.append(perf_counter_ns() - t0)
            phase.kernel_ns.append(kernel_ns)
        k += 1
        if (
            started is not None
            and len(phase.latencies_ns) >= wl.MIN_INSTANTS
            and perf_counter() - started >= seconds
        ):
            break
    if started is not None:
        phase.wall_s = perf_counter() - started
    phase.last_kernel_ns = kernel.time_ns()
    phase.instants = k
    return phase


def percentile_ms(latencies_ns, q):
    import numpy as np

    return float(np.percentile(np.asarray(latencies_ns, dtype=float), q)) / 1e6


# ----------------------------------------------------------------------
# checks and accuracy
# ----------------------------------------------------------------------
def check_streams(workload):
    """Failed posteriors per the oracles (README: "Checks"), and per stream
    the statistic each check bounds."""
    import numpy as np
    import oracles

    failed = 0
    stats = {}
    for stream in workload.streams:
        if not stream.means:
            continue
        means = np.vstack(stream.means)
        n = len(means)
        bad = ~np.isfinite(means).all(axis=1)
        if stream.check == "exact":
            exact = stream.oracle.means[:n]
            error = np.abs(means - exact) / np.maximum(1.0, np.abs(exact))
            bad |= ~(error <= oracles.EXACT_TOL).all(axis=1)
            stats[stream.name] = {"max_rel_error": float(error.max())}
        elif stream.check == "pf":
            z = oracles.pf_zscores(means[:, 0], stream.oracle, stream.n_particles)
            bad |= ~(np.abs(z) <= oracles.Z_BOUND)
            mean_z2 = float(np.mean(z**2))
            stats[stream.name] = {"max_abs_z": float(np.abs(z).max()), "mean_z2": mean_z2}
            if not mean_z2 <= oracles.Z2_MEAN_BOUND:
                bad[:] = True
        if bad.any():
            print(
                f"perfbench: {stream.name}: {int(bad.sum())} posteriors fail the "
                f"{stream.check} check ({stats.get(stream.name)}), "
                f"first at instant {int(np.argmax(bad))}",
                file=sys.stderr,
            )
        failed += int(bad.sum())
    return failed, stats


def accuracy(workload, first):
    """(mse of the streams with an exact posterior as a multiple of the exact
    posterior's mse, raw mse over all streams), over instants >= first."""
    import numpy as np

    num = den = raw = 0.0
    count = 0
    for stream in workload.streams:
        means = np.vstack(stream.means)[first:]
        truths = stream.truths[first : first + len(means)]
        err = float(((means - truths) ** 2).sum())
        raw += err
        count += len(means)
        if stream.oracle is not None:
            num += err
            exact = stream.oracle.means[first : first + len(means)]
            den += float(((exact - truths) ** 2).sum())
    return num / den, raw / max(count, 1)


def peak_rss_mb(worker_pids):
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def counter_totals(names):
    """Sum of the default registry's counters with the given base names."""
    from repro.obs import metrics_snapshot

    totals = dict.fromkeys(names, 0.0)
    for full_name, value in metrics_snapshot()["counters"].items():
        base = full_name.split("{", 1)[0]
        if base in totals:
            totals[base] += value
    return totals


TRANSPORT = ("repro_transport_pickled_bytes_total", "repro_transport_shm_bytes_total")
RETRIES = (
    "repro_worker_restarts_total",
    "repro_executor_degradations_total",
    "repro_session_retries_total",
)


def bit_identity(workload):
    """Persistent workload: its warm-up posterior means must equal, bit for
    bit, those of the same engine on executor=None with the same shards.
    Returns the number of posteriors that differ."""
    import workloads as wl

    if not hasattr(workload, "reference_means") or not workload.worker_pids():
        return 0
    reference = workload.reference_means(wl.WARMUP)
    measured = [float(m[0]) for m in workload.streams[0].means[: wl.WARMUP]]
    differ = sum(a != b for a, b in zip(measured, reference))
    if differ:
        print(f"perfbench: {differ} persistent posteriors differ from serial", file=sys.stderr)
    return differ


def metric(value, unit):
    return {"value": value, "unit": unit}


def context(args, timed_instants, exhausted, extra):
    import numpy
    import workloads as wl

    cpus = os.cpu_count()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "warmup_instants": wl.WARMUP,
        "timed_instants": timed_instants,
        "inputs_exhausted": exhausted,
        "note": NOTE.format(cpus=cpus),
    }
    info.update(extra)
    return info


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def end_to_end(args):
    """End-to-end metrics. Instant times are at the reference speed
    (reference.py): each is scaled by the slower kernel run around it."""
    import statistics

    import numpy as np

    import reference as ref
    import workloads as wl
    import repro

    setup_samples = measure_setup(args, SETUP_PROBES[0])
    workload = wl.WORKLOADS[args.workload](args.seed)
    workload.make_inputs(workload.n_inputs(args.seconds))
    kernel = ref.Reference(workload.reference)
    workload.open()
    n_streams = len(workload.streams)
    try:
        phase = run_phase(workload, args.seconds, kernel)
        rss = peak_rss_mb(workload.worker_pids())
        attempted = phase.instants * n_streams + (n_streams if phase.error else 0)
        failed, check_stats = check_streams(workload)
        failed += n_streams if phase.error else 0
        if phase.error is None:
            failed += bit_identity(workload)
        failed = min(failed, attempted)
    finally:
        workload.close()
        repro.shutdown_executors()
    if phase.error:
        sys.stderr.write(phase.error)
    if not phase.latencies_ns:
        return None
    setup_samples += measure_setup(args, SETUP_PROBES[1])
    mse_ratio, mse_raw = accuracy(workload, wl.WARMUP)
    timed = len(phase.latencies_ns)
    # The slower of the two kernel runs around an instant: contention that
    # slows the instant but starts or ends mid-instant shows in at least one.
    around = np.asarray(phase.kernel_ns + [phase.last_kernel_ns], dtype=float)
    scale = kernel.nominal_ms / np.maximum(around[:-1], around[1:])
    latency_ms = np.asarray(phase.latencies_ns, dtype=float) * scale
    cycle_s = float((np.asarray(phase.cycles_ns, dtype=float) * scale).sum()) / 1e3
    metrics = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "instant_ms.p50": metric(float(np.percentile(latency_ms, 50)), "ms"),
        "instant_ms.p90": metric(float(np.percentile(latency_ms, 90)), "ms"),
        "posteriors_per_s": metric(timed * n_streams / cycle_s, "1/s"),
        "mse_ratio": metric(mse_ratio, "ratio"),
        "peak_rss_mb": metric(rss, "MB"),
        "ok_frac": metric(1.0 - failed / attempted, "ratio"),
    }
    info = context(
        args,
        timed,
        phase.exhausted,
        {
            "setup_s_samples": setup_samples,
            "mse_raw": mse_raw,
            "checks": check_stats,
            "reference_kernel": workload.reference,
            "machine_slowdown": float(np.median(phase.kernel_ns)) / 1e6 / kernel.nominal_ms,
            "raw_instant_ms.p50": percentile_ms(phase.latencies_ns, 50),
            "raw_instant_ms.p90": percentile_ms(phase.latencies_ns, 90),
            "raw_posteriors_per_s": timed * n_streams / phase.wall_s,
        },
    )
    correct = failed == 0 and phase.error is None
    return info, {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced(args):
    """Per-layer metrics. Two engines with the same seed run interleaved,
    one instant each in turn: the untraced one with every wrapper off, the
    traced one with the wrappers on. Both see the same machine conditions,
    so the ratio of their medians is the cost of tracing, and their
    posteriors must be equal."""
    import dataclasses

    import numpy as np

    import repro
    import tracer as tr
    import workloads as wl
    from repro.analysis.routing import clear_analysis_cache
    from repro.inference.engine import InferenceEngine
    from repro.obs import MetricsRegistry, telemetry
    from repro.vectorized.engine import ScalarFallbackState, VectorizedEngine

    retries_before = counter_totals(RETRIES)
    plain = wl.WORKLOADS[args.workload](args.seed)
    plain.make_inputs(plain.n_inputs(args.seconds))
    traced_ = wl.WORKLOADS[args.workload](args.seed)
    traced_.streams = [dataclasses.replace(s, means=[]) for s in plain.streams]
    n_streams = len(plain.streams)
    n_inputs = len(plain.streams[0].observations)

    spans = tr.Tracer()
    patches = tr.Patches(spans)
    registry = MetricsRegistry()
    tr.install_program_probes(patches)
    root = spans.name_id(tr.ROOT)
    plain_lat, traced_lat = [], []
    transport = dict.fromkeys(TRANSPORT, 0.0)
    try:
        # The untraced engine first, so persistent workers start before any
        # wrapper exists; the traced one with wrappers on, so its set-up
        # routing is timed (analysis cache cleared, as in a fresh process).
        plain.open()
        clear_analysis_cache()
        patches.apply()
        traced_.open()
        for engine, _ in traced_.engines():
            tr.install_stream_probes(patches, engine)
        patches.undo()
        scalar_streams = sum(
            isinstance(s, ScalarFallbackState)
            or (isinstance(e, InferenceEngine) and not isinstance(e, VectorizedEngine))
            for e, s in traced_.engines()
        )
        k = 0
        started = None
        while k < n_inputs:
            if k == wl.WARMUP:
                words_first = [e.memory_words(s) for e, s in traced_.engines()]
                worker_ms_first = worker_step_ms(registry)
                started = perf_counter()
            t0 = perf_counter_ns()
            plain.instant(k)
            t1 = perf_counter_ns()
            plain.collect(k)
            before = counter_totals(TRANSPORT)
            patches.apply()
            spans.current_instant = k
            with telemetry(registry):
                span = spans.open(root)
                t2 = perf_counter_ns()
                try:
                    traced_.instant(k)
                finally:
                    t3 = perf_counter_ns()
                    spans.close(span)
                    spans.current_instant = -1
                    patches.undo()
            traced_.collect(k)
            spans.compact(threshold=100_000)
            if k >= wl.WARMUP:
                plain_lat.append(t1 - t0)
                traced_lat.append(t3 - t2)
                after = counter_totals(TRANSPORT)
                for key in TRANSPORT:
                    transport[key] += after[key] - before[key]
            k += 1
            if (
                started is not None
                and len(traced_lat) >= wl.MIN_INSTANTS
                and perf_counter() - started >= args.seconds
            ):
                break
        words_last = [e.memory_words(s) for e, s in traced_.engines()]
        worker_ms = worker_step_ms(registry) - worker_ms_first
        failed = check_streams(plain)[0] + check_streams(traced_)[0]
    except Exception:
        # Per-layer figures of a run that broke off mean nothing: no result.
        sys.stderr.write(traceback.format_exc())
        return None
    finally:
        patches.undo()
        plain.close()
        traced_.close()
        repro.shutdown_executors()

    same = all(
        len(a.means) == len(b.means)
        and all(np.array_equal(x, y) for x, y in zip(a.means, b.means))
        for a, b in zip(plain.streams, traced_.streams)
    )
    if not same:
        print("perfbench: traced posteriors differ from untraced ones", file=sys.stderr)

    timed = len(traced_lat)
    layers = spans.self_times(wl.WARMUP)
    instant_ns = layers.pop("_instant_ns")
    metrics = {}
    for layer, (ms_name, calls_name) in tr.LAYER_METRICS.items():
        entry = layers.get(layer, {"self_ns": 0, "calls": 0})
        metrics[ms_name] = metric(entry["self_ns"] / 1e6 / timed, "ms")
        if calls_name:
            metrics[calls_name] = metric(entry["calls"] / timed, "count")
    metrics["analysis.routing.ms"] = metric(spans.total_ns("analysis.routing", -1) / 1e6, "ms")
    metrics["analysis.routing.scalar_streams"] = metric(scalar_streams, "count")
    metrics["exec.pickled_bytes"] = metric(transport[TRANSPORT[0]] / timed, "bytes")
    metrics["exec.shm_bytes"] = metric(transport[TRANSPORT[1]] / timed, "bytes")
    retries_after = counter_totals(RETRIES)
    metrics["exec.retries"] = metric(
        sum(retries_after[k] - retries_before[k] for k in RETRIES), "count"
    )
    metrics["exec.worker_step_ms"] = metric(worker_ms / timed, "ms")
    metrics["memory.words_growth"] = metric(
        max(last / first for first, last in zip(words_first, words_last)), "ratio"
    )
    metrics["trace.overhead_frac"] = metric(
        percentile_ms(traced_lat, 50) / percentile_ms(plain_lat, 50) - 1.0, "ratio"
    )

    missing = [
        name for name in EXPECTED_NONZERO[args.workload] if not metrics[name]["value"] > 0
    ]
    if not metrics["memory.words_growth"]["value"] > 0:
        missing.append("memory.words_growth")
    if missing:
        print(f"perfbench: layers that should be nonzero are not: {missing}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    trace_path = RESULTS / f"trace-{stem}.json"
    summary = {
        "instants": timed,
        "traced_instant_mean_ms": float(instant_ns.mean()) / 1e6,
        "self_ms_sum": sum(v["self_ns"] for v in layers.values()) / 1e6 / timed,
        "self_ms_per_instant": {k: v["self_ns"] / 1e6 / timed for k, v in layers.items()},
        "calls_per_instant": {k: v["calls"] / timed for k, v in layers.items()},
    }
    tr.write_json(
        trace_path,
        spans.chrome_trace(wl.WARMUP, wl.WARMUP + TRACE_FILE_INSTANTS - 1, summary),
    )
    tr.write_json(RESULTS / f"selftimes-{stem}.json", summary)
    info = context(
        args,
        timed,
        k == n_inputs,
        {
            "trace_file": str(trace_path.relative_to(ROOT)),
            "traced_instant_mean_ms": summary["traced_instant_mean_ms"],
            "self_ms_sum": summary["self_ms_sum"],
        },
    )
    correct = failed == 0 and same and not missing
    line = {"correct": correct, "attempted": 2 * k * n_streams, "failed": failed}
    return info, dict(line, metrics=metrics)


def worker_step_ms(registry):
    """Total of the shard-step spans the persistent workers shipped back."""
    from repro.obs.spans import PHASE_HISTOGRAM

    hist = registry.get(PHASE_HISTOGRAM, {"phase": "worker_step"})
    return hist.sum if hist is not None else 0.0


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    Closing the executors stops their workers. The shared-memory rings also
    start multiprocessing's resource tracker, which would otherwise outlive
    this process until it noticed the exit; stopping it here closes its pipe
    and waits for it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    executor = sys.modules.get("repro.exec.executor")
    if executor is not None:
        executor.shutdown_executors()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    present = [name for name in FORBIDDEN_ENV if name in os.environ]
    if present:
        return fail(f"refusing to run with {', '.join(present)} set")
    for name in THREAD_ENV:
        os.environ[name] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        return fail(f"no program source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        if args.setup_probe:
            return setup_probe(args)
        result = end_to_end(args) if args.trace == 0 else traced(args)
    except ProbeFailed as exc:
        return fail(str(exc))
    finally:
        stop_children()
    if result is None:
        return fail("the run broke off before its results")
    info, line = result
    print(json.dumps({"context": info}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
