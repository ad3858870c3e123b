"""Run every workload once and print its end-to-end metrics, error rate and
report digest.

    python3 bench/report.py [--seed N] [--seconds S]

Each workload runs through ``run.py --trace 0``, as a benchmark run would.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spec import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", "0"], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: run.py exited with code {proc.returncode}")
            status = 1
            continue
        summary, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{name} (seed {args.seed}, correct={result['correct']})")
        for metric, m in result["metrics"].items():
            print(f"  {metric:12s} {m['value']:12.4f} {m['unit']}")
        rate = summary["error_rate"]
        print(f"  {'error_rate':12s} {rate['value']:12.4f} {rate['unit']} "
              f"({result['failed']} of {rate['base']} ops)")
        print(f"  report_digest {summary['report_digest']}")
        for failure in summary["failures"]:
            print(f"  FAILED {failure['op']}: {failure['error']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
