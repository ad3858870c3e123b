"""Self-test of the benchmark itself (not of nonadd); well under a minute.

    python3 bench/selftest.py

Checks, for every workload on a prefix of its ops:
  * two untraced runs with the same seed give the same report digest;
  * the traced run gives that digest too;
  * layer self times plus ``bench.unattributed_ms`` add up to the traced wall time.
And once, in this process:
  * ``Tracer.remove`` restores every binding ``Tracer.install`` replaced;
  * ``BENCHMARK.json`` names exactly the workloads and metrics the driver prints.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import sys
import time

from run import ROOT, run_worker
from spec import END_TO_END, LAYERS, PER_LAYER, WORKLOADS

PREFIX = {"fuzz_mix": 20, "lattice_large_n": 60, "scenario_runs": 40}
SEED = 7


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def check_workload(name: str) -> None:
    deadline = time.monotonic() + 170.0
    runs = [run_worker(name, SEED, "pass", deadline, limit=PREFIX[name], trace=t)
            for t in (0, 0, 1)]
    failures = [f for r in runs for f in r["failures"]]
    check(not failures, f"{name}: no failed ops {failures if failures else ''}")
    check(runs[0]["digest"] == runs[1]["digest"], f"{name}: same seed, same digest")
    check(runs[0]["digest"] == runs[2]["digest"], f"{name}: traced digest equals untraced")
    layers = runs[2]["layers"]
    total = sum(layers.get(f"{layer}.self_ms", 0.0) for layer in LAYERS)
    total += layers["bench.unattributed_ms"]
    check(math.isclose(total, layers["bench.traced_wall_ms"], rel_tol=1e-9),
          f"{name}: layer self times + unattributed = traced wall "
          f"({total:.3f} vs {layers['bench.traced_wall_ms']:.3f} ms)")


def check_tracer_removal() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer, binding_snapshot
    before = binding_snapshot()
    tracer = Tracer()
    tracer.install()
    during = binding_snapshot()
    tracer.remove()
    after = binding_snapshot()
    changed = sum(before[k] != during[k] for k in before)
    check(changed > 100, f"install replaced {changed} bindings")
    check(after == before, "remove restored every binding")


def check_benchmark_json() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(tuple(w["name"] for w in doc["workloads"]) == WORKLOADS, "BENCHMARK.json workloads")
    check([(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END),
          "BENCHMARK.json end_to_end metrics")
    check([(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER),
          "BENCHMARK.json per_layer metrics")


def main() -> int:
    for name in WORKLOADS:
        check_workload(name)
    check_tracer_removal()
    check_benchmark_json()
    return 0


if __name__ == "__main__":
    sys.exit(main())
