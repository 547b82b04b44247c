"""Self-test of the benchmark: a short traced run of every workload.

Run from the repository root::

    python3 perfbench/selftest.py [--seconds 2] [--seed 1]

Each traced run must be correct: traced posteriors equal untraced ones, the
oracle checks pass, and every layer expected to move on the workload is
nonzero. Its trace file must load as Chrome trace-event JSON, and the self
times of its layers must add up to the traced instant. Exits 1 on any
failure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, WORKLOADS  # noqa: E402


def check(workload: str, seconds: float, seed: int) -> list:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr.strip()[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"]:
        problems.append(f"not correct: {done.stderr.strip()}")
    with open(ROOT / context["trace_file"]) as handle:
        trace = json.load(handle)
    events = trace["traceEvents"]
    if not events or any(
        e["ph"] != "X" or e["dur"] < 0 or not {"name", "ts", "pid", "tid"} <= set(e)
        for e in events
    ):
        problems.append("trace file is not a list of complete trace events")
    total, layers = context["traced_instant_mean_ms"], context["self_ms_sum"]
    if abs(layers - total) > 1e-6 * total:
        problems.append(f"self times add up to {layers} ms, the instant is {total} ms")
    overhead = result["metrics"]["trace.overhead_frac"]["value"]
    print(
        f"{workload}: {len(events)} trace events, instant {total:.3f} ms, "
        f"tracing overhead {overhead:+.1%}"
    )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    failures = 0
    for workload in WORKLOADS:
        for problem in check(workload, args.seconds, args.seed):
            print(f"{workload}: {problem}", file=sys.stderr)
            failures += 1
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
