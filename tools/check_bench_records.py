"""Check the committed benchmark records against the benchmark declaration.

    python3 tools/check_bench_records.py

Loads every ``BENCH_*.json`` at the repository root and fails if one does not
parse, or if it names a workload or an end-to-end metric that
``BENCHMARK.json`` does not declare: a ``workloads`` key, a metric in a
workload's ``summary`` or in one side of a run, or the ``claim``'s workload
and metric.  A claim that names its ``round`` must be read from that round:
every run under ``workloads`` carries it.  Exit code 0 when every record is
consistent, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_FIELDS = {"report_digest", "ops_attempted", "ops_failed"}   # per-run facts, not metrics


def problems(record: dict, workloads: set, metrics: set) -> list[str]:
    out = []
    claim = record.get("claim") or {}
    if "workload" in claim and claim["workload"] not in workloads:
        out.append(f"claim names undeclared workload {claim['workload']!r}")
    if "metric" in claim and claim["metric"] not in metrics:
        out.append(f"claim names undeclared metric {claim['metric']!r}")
    for name, body in record.get("workloads", {}).items():
        if name not in workloads:
            out.append(f"undeclared workload {name!r}")
        for metric in body.get("summary", {}):
            if metric not in metrics:
                out.append(f"{name}: summary names undeclared metric {metric!r}")
        for run in body.get("runs", []):
            if "round" in claim and run.get("round") != claim["round"]:
                out.append(f"{name}: pair {run.get('pair')} is round {run.get('round')!r}, "
                           f"the claim's is {claim['round']!r}")
            for side in ("parent", "change"):
                for metric in set(run.get(side, {})) - RUN_FIELDS - metrics:
                    out.append(f"{name}: pair {run.get('pair')} {side} names "
                               f"undeclared metric {metric!r}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    status = 0
    for path in sorted(ROOT.glob("BENCH_*.json")):
        try:
            record = json.loads(path.read_text())
        except ValueError as exc:
            print(f"{path.name}: does not parse: {exc}")
            status = 1
            continue
        found = problems(record, workloads, metrics)
        for line in found:
            print(f"{path.name}: {line}")
        status |= bool(found)
        if not found:
            print(f"{path.name}: ok")
    return status


if __name__ == "__main__":
    sys.exit(main())
