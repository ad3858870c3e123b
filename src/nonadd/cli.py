"""Command-line front end: scenario runs, fuzz campaigns, and listings.

Exit codes: 0 when every task verdict is a pass, 1 on any mathematical
failure (the report carries witnesses), 2 on input or validation errors.
A task refused while it runs ends the run with 2; the report keeps the
records of the tasks before it and names the refusal under ``error``.
Reports are deterministic per (scenario, seed) except for the timing
section, which is kept separate so the rest of the document is
byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .campaigns import CAMPAIGNS, run_campaign
from .conditions import CONDITIONS
from .results import DomainError, _dumps, _jsonify
from .scenarios import (
    BUILTIN_SCENARIOS,
    SCENARIO_VERSION,
    TASKS,
    Scenario,
    ScenarioError,
    builtin_scenario,
    run_task,
)

EXIT_OK = 0
EXIT_MATH_FAILURE = 1
EXIT_INPUT_ERROR = 2


def _load_scenario(ref: str) -> Scenario:
    if ref in BUILTIN_SCENARIOS:
        return Scenario(builtin_scenario(ref), name=ref)
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario {ref!r}: {e}") from None
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario {ref!r} is not valid JSON: {e}") from None
    return Scenario(doc, name=ref)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(_dumps(report))
        return
    body = _jsonify(report["report"])
    if "campaign" in body:
        print(f"campaign: {body['campaign']['id']}")
    else:
        print(f"scenario: {body.get('scenario', '?')}")
    print(f"seed: {body.get('seed')}")
    for i, task in enumerate(body.get("tasks", [])):
        mark = "pass" if task.get("verdict") == "pass" else "FAIL"
        line = f"[{mark}] task {i + 1} {task.get('task')}"
        if "outcome" in task:
            line += f": {task['outcome']} (expected {task['expected']})"
        if "value" in task:
            line += f" value={task['value']}"
        mode = task.get("result", {}).get("mode")
        if mode in ("sampled", "grid"):    # not decided exactly: say so
            line += f" mode={mode}"
        print(line)
        if task.get("verdict") != "pass":
            wit = task.get("result", {}).get("witness") or task.get("error")
            if wit:
                print(f"       witness: {json.dumps(wit, sort_keys=True)}")
    if "error" in body:
        print(f"[ERROR] task {body['error']['task'] + 1}: {body['error']['message']}")
    if "campaign" in body:
        c = body["campaign"]
        print(f"campaign {c['id']}: {c['passed']}/{c['trials']} passed")
        for failure in c.get("failures", []):
            print(f"       failure: {json.dumps(failure, sort_keys=True)[:400]}")
    summary = body.get("summary", {})
    print(f"summary: {summary.get('passed', 0)} passed, "
          f"{summary.get('failed', 0)} failed")
    timing = report.get("timing", {})
    if timing:
        print(f"timing: {timing.get('total_ms', 0):.0f} ms")


def _cmd_run(args) -> int:
    try:
        sc = _load_scenario(args.scenario)
    except (ScenarioError, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    t0 = time.perf_counter()
    tasks, task_ms, error = [], [], {}
    for i, task in enumerate(sc.tasks):
        start = time.perf_counter()
        try:
            tasks.append(run_task(sc, task, default_seed=args.seed))
        except (ScenarioError, DomainError) as e:
            # refused while it ran: the tasks before it keep their records
            print(f"error: tasks[{i}]: {e}", file=sys.stderr)
            error = {"error": {"task": i, "message": str(e)}}
            break
        task_ms.append((time.perf_counter() - start) * 1000.0)
    failed = sum(1 for rec in tasks if rec["verdict"] != "pass")
    report = {
        "report": {
            "version": SCENARIO_VERSION,
            "scenario": sc.name,
            "seed": args.seed,
            "tasks": tasks,
            "summary": {"passed": len(tasks) - failed, "failed": failed},
            **error,
        },
        "timing": {"total_ms": (time.perf_counter() - t0) * 1000.0,
                   "tasks_ms": task_ms},
    }
    _emit(report, args.format)
    if error:
        return EXIT_INPUT_ERROR
    return EXIT_OK if failed == 0 else EXIT_MATH_FAILURE


def _cmd_fuzz(args) -> int:
    t0 = time.perf_counter()
    try:
        rep = run_campaign(args.campaign, args.trials, args.seed, jobs=args.jobs)
    except DomainError as e:
        # an unknown campaign, a count below 1, or an instance refused
        # while it was built
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report = {
        "report": {
            "version": SCENARIO_VERSION,
            "campaign": rep,
            "seed": args.seed,
            "summary": {"passed": rep["passed"], "failed": rep["failed"]},
        },
        "timing": {"total_ms": (time.perf_counter() - t0) * 1000.0},
    }
    _emit(report, args.format)
    return EXIT_OK if rep["failed"] == 0 else EXIT_MATH_FAILURE


def _cmd_list(_args) -> int:
    print("campaigns (fuzz ids):")
    for cid in sorted(CAMPAIGNS):
        print(f"  {cid}")
    print("built-in scenarios:")
    for name in sorted(BUILTIN_SCENARIOS):
        print(f"  {name}")
    print("conditions (check_condition ids):")
    for name in sorted(CONDITIONS):
        print(f"  {name}")
    print("scenario tasks and their fields ([optional]; every task also takes [expect]):")
    specs = {key if isinstance(key, str) else " ".join(key): spec for key, spec in TASKS.items()}
    for label in sorted(specs):
        fields = [name if field.required else f"[{name}]"
                  for name, field in specs[label].fields.items() if name != "expect"]
        print(f"  {label}: {' '.join(fields) or '(none)'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonadd",
        description="Verification toolkit for nonadditive integrals, inequality "
                    "conditions, and metrics of convergence in measure.",
    )
    parser.add_argument("--list", action="store_true",
                        help="enumerate campaigns, built-in scenarios, and conditions")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="execute a scenario file or built-in name")
    run_p.add_argument("scenario", help="path to a scenario JSON or a built-in name")
    run_p.add_argument("--format", choices=("text", "json"), default="text")
    run_p.add_argument("--seed", type=int, default=0)

    fuzz_p = sub.add_parser("fuzz", help="run a seeded fuzz campaign")
    fuzz_p.add_argument("campaign")
    fuzz_p.add_argument("--trials", type=int, default=100)
    fuzz_p.add_argument("--seed", type=int, default=0)
    fuzz_p.add_argument("--format", choices=("text", "json"), default="text")
    fuzz_p.add_argument("--jobs", type=int, default=1)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.list:
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    parser.print_help()
    return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
