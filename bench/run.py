"""Benchmark driver for nonadd.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the repository root is this file's parent directory and
the library is imported from its ``src``.  Every measurement runs in its own
single-threaded worker process (``worker.py``), one after another.

``--trace 0`` samples set-up time in ``SETUP_SAMPLES`` set-up-only
processes and then measures whole passes over the workload's ops for at
least ``--seconds``, untraced.  It prints the end-to-end metrics, with
timings scaled to the reference speed (see ``worker.py``).

``--trace 1`` runs one pass untraced and the same pass traced, each in a
fresh process, and prints the per-layer metrics and the tracing overhead.
The two report digests must agree.

The next-to-last stdout line is a JSON summary (report digest, error rate,
failing ops with their inputs, machine facts); the last line is the result
object.  Exit codes: 0 measured, 1 a worker failed, 2 bad arguments or a
checkout without the library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 5
BUDGET_S = 170.0            # a run must end within 180 s


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, deadline: float, *,
               seconds: float = 0.0, trace: int = 0, limit: int = 0) -> dict:
    """Run one worker to completion and return its JSON result."""
    timeout = max(1.0, deadline - time.monotonic())
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", str(seconds), "--trace", str(trace),
           "--limit", str(limit), "--started", repr(time.time())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {mode} timed out after {timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git repository, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: float,
            deadline: float) -> tuple[dict, dict, dict]:
    setups = [run_worker(workload, seed, "setup", deadline) for _ in range(SETUP_SAMPLES)]
    timed = run_worker(workload, seed, "timed", deadline, seconds=seconds)
    values = {
        "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
        "ops_per_s": timed["ops_per_s"],
        "op_p50_ms": timed["p50_ms"],
        "op_p95_ms": timed["p95_ms"],
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    raw = dict(timed["raw"], setup_s=statistics.median(s["setup_s"] for s in setups))
    info = {"raw": raw, "speed_factor": timed["speed_factor"],
            "ref_samples": timed["ref_samples"], "passes": timed["passes"],
            "ops_per_pass": timed["ops_per_pass"], "timed_wall_s": timed["wall_s"]}
    return timed, metrics, info


def trace(workload: str, seed: int, deadline: float) -> tuple[dict, dict, dict]:
    plain = run_worker(workload, seed, "pass", deadline)
    traced = run_worker(workload, seed, "pass", deadline, trace=1)
    layers = traced["layers"]
    layers["bench.untraced_wall_ms"] = plain["wall_s"] * 1000.0
    layers["bench.trace_overhead_ratio"] = traced["ops_wall_s"] / plain["ops_wall_s"]
    metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
    merged = {"attempted": plain["attempted"] + traced["attempted"],
              "failed": plain["failed"] + traced["failed"],
              "failures": plain["failures"] + traced["failures"],
              "digest": traced["digest"], "numpy": traced["numpy"]}
    info = {"untraced_digest": plain["digest"], "traced_digest": traced["digest"],
            "digests_agree": plain["digest"] == traced["digest"],
            "trace_file": f"bench/out/trace-{workload}.jsonl.gz"}
    return merged, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nonadd benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nonadd" / "__init__.py").is_file():
        print(f"error: no nonadd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            run, metrics, info = trace(args.workload, args.seed, deadline)
        else:
            run, metrics, info = measure(args.workload, args.seed, args.seconds, deadline)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    correct = run["failed"] == 0 and info.get("digests_agree", True)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "report_digest": run["digest"],
        "error_rate": {"value": run["failed"] / run["attempted"], "unit": "ratio",
                       "base": run["attempted"]},
        "failures": run["failures"],
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": run["numpy"], "git_sha": git_sha()},
        **info,
    }
    print(json.dumps(summary))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
