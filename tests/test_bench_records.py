"""``tools/check_bench_records.py``: a record names only declared workloads
and metrics, and a claim's round is the round of the runs it reads."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("check_bench_records",
                                               ROOT / "tools" / "check_bench_records.py")
check_bench_records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench_records)

WORKLOADS, METRICS = {"fuzz_mix"}, {"ops_per_s"}


def record(claim_round, *run_rounds):
    runs = [{"round": r, "pair": i, "parent": {"ops_per_s": 1.0}, "change": {"ops_per_s": 2.0}}
            for i, r in enumerate(run_rounds)]
    return {"claim": {"workload": "fuzz_mix", "metric": "ops_per_s", "round": claim_round},
            "workloads": {"fuzz_mix": {"runs": runs}}}


def test_runs_of_the_claimed_round_pass():
    assert check_bench_records.problems(record(2, 2, 2), WORKLOADS, METRICS) == []


def test_a_run_of_another_round_is_named():
    assert check_bench_records.problems(record(2, 2, 1), WORKLOADS, METRICS) == [
        "fuzz_mix: pair 1 is round 1, the claim's is 2"]


def test_undeclared_names_are_named():
    rec = {"claim": {"workload": "other", "metric": "speed"},
           "workloads": {"fuzz_mix": {"summary": {"speed": {}}, "runs": []}}}
    assert check_bench_records.problems(rec, WORKLOADS, METRICS) == [
        "claim names undeclared workload 'other'", "claim names undeclared metric 'speed'",
        "fuzz_mix: summary names undeclared metric 'speed'"]

