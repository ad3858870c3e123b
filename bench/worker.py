"""One benchmark process: set up a workload, then run its ops in a closed loop.

Started by ``run.py``, one process per measurement, single-threaded.  It
prints one JSON line.  Its ``setup_s`` is the time from the moment the
parent started this process (``--started``, the parent's ``time.time()``)
until the first op was ready.

Modes:
  setup  stop after set-up (a set-up time sample)
  timed  run whole passes over the ops until ``--seconds`` have elapsed
  pass   run one pass, traced with ``--trace 1``; ``--limit`` keeps the first K ops

Timings are reported at a reference speed.  The host's speed drifts by tens
of percent within seconds and over minutes, so the worker times a fixed
reference kernel every ``REF_PERIOD_S`` and scales each op's time by
``REF_NOMINAL_S`` over the median kernel time within ``REF_WINDOW_S`` of
the op.  Raw timings are reported beside the scaled ones.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from spec import OpFailure

ROOT = Path(__file__).resolve().parent.parent
MAX_LISTED_FAILURES = 20
REF_NOMINAL_S = 0.010       # the kernel time that reported timings are scaled to
REF_PERIOD_S = 0.25         # a timed phase runs the kernel this often
REF_WINDOW_S = 0.5          # kernel samples this close to an op set its scale
SETUP_REF_SAMPLES = 10


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter loops, small-array and
    large-array numpy work, the three kinds of work nonadd's ops are made of."""
    t0 = time.perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i
    small = np.arange(4225.0)                   # a 65 x 65 condition grid
    for _ in range(200):
        small = np.maximum(small[::-1] * 0.5, small)
    big = np.arange(float(1 << 18))             # an 18-point measure table
    for _ in range(4):
        big = np.maximum(big[::-1] * 0.5, big)
    return time.perf_counter() - t0


class Runner:
    """Runs passes over the ops, checks every output and keeps the digest."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.first = [None] * len(ops)      # per-op output hash from the first pass
        self.op_log: list[tuple] = []       # (end, latency, segment) seconds per op
        self.ref_log: list[tuple] = []      # (time, kernel seconds) per sample
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self._mark = None                   # where the next op's share of wall time starts
        self._last_ref = -math.inf

    def run_pass(self, index: int) -> None:
        perf = time.perf_counter
        if self._mark is None:
            self._mark = perf()
        for i, op in enumerate(self.ops):
            error = None
            t0 = perf()
            try:
                out = op.run()
            except Exception as e:  # an op that raises is a failed op, not a crash
                error = f"{type(e).__name__}: {e}"
            t1 = perf()
            self.attempted += 1
            if error is None:
                error, blob = self._check(op, out, index == 0)
            else:
                blob = error.encode()
            digest = hashlib.sha256(blob).digest()
            if index == 0:
                self.first[i] = digest
            elif error is None and digest != self.first[i]:
                error = "output differs from the first pass"
            if error is not None:
                self.failed += 1
                if len(self.failures) < MAX_LISTED_FAILURES:
                    self.failures.append({"pass": index, "op": op.label, "error": error[:500]})
            t2 = perf()
            self.op_log.append((t1, t1 - t0, t2 - self._mark))
            self._mark = t2
            if t2 - self._last_ref >= REF_PERIOD_S:
                self.ref_log.append((t2, reference_kernel()))
                self._last_ref = self._mark = perf()

    def _check(self, op, out, first_pass):
        try:
            if self.tracer is None:
                return None, op.check(out, first_pass)
            with self.tracer.paused():
                return None, op.check(out, first_pass)
        except OpFailure as e:
            return f"check failed: {e}", f"check failed: {e}".encode()
        except Exception as e:  # a malformed output is a failed op
            return f"check raised {type(e).__name__}: {e}", repr(e).encode()

    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.first)).hexdigest()

    def _scales(self) -> list[float]:
        """REF_NOMINAL_S over the median kernel time near each op."""
        times = [t for t, _ in self.ref_log]
        kernel = [k for _, k in self.ref_log]
        out = []
        for end, _, _ in self.op_log:
            lo = bisect.bisect_left(times, end - REF_WINDOW_S)
            hi = bisect.bisect_right(times, end + REF_WINDOW_S)
            if lo == hi:                        # no sample in the window: the nearest
                lo = min(lo, len(times) - 1)
                hi = lo + 1
            out.append(REF_NOMINAL_S / statistics.median(kernel[lo:hi]))
        return out

    def summary(self) -> dict:
        scales = self._scales()
        raw_ms = [lat * 1000.0 for _, lat, _ in self.op_log]
        scaled_ms = [ms * s for ms, s in zip(raw_ms, scales)]
        raw_wall = sum(seg for _, _, seg in self.op_log)
        scaled_wall = sum(seg * s for (_, _, seg), s in zip(self.op_log, scales))
        n = len(self.op_log)

        def p95(xs):
            return statistics.quantiles(xs, n=20, method="inclusive")[18]

        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures, "digest": self.digest(),
                "ops_per_pass": len(self.ops), "ops_wall_s": scaled_wall,
                "ops_per_s": n / scaled_wall, "p50_ms": statistics.median(scaled_ms),
                "p95_ms": p95(scaled_ms),
                "raw": {"ops_wall_s": raw_wall, "ops_per_s": n / raw_wall,
                        "p50_ms": statistics.median(raw_ms), "p95_ms": p95(raw_ms)},
                "ref_samples": len(self.ref_log),
                "speed_factor": statistics.median(k for _, k in self.ref_log) / REF_NOMINAL_S}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "pass"), required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ops = workloads.build(args.workload, args.seed, ROOT)
    if args.limit:
        ops = ops[:args.limit]
    setup_s = time.time() - args.started
    if args.mode == "setup":
        kernel = statistics.median(reference_kernel() for _ in range(SETUP_REF_SAMPLES))
        print(json.dumps({"setup_s": setup_s,
                          "setup_scaled_s": setup_s * REF_NOMINAL_S / kernel}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    runner = Runner(ops, tracer)
    passes = 0
    t0 = time.perf_counter()
    while True:
        runner.run_pass(passes)
        passes += 1
        wall = time.perf_counter() - t0
        if args.mode == "pass" or wall >= args.seconds:
            break
    result = runner.summary()
    result.update({"setup_s": setup_s, "wall_s": wall, "passes": passes,
                   "numpy": np.__version__,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
    if tracer is not None:
        tracer.remove()
        result["layers"] = tracer.metrics(wall)
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}.jsonl.gz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
