"""Command-line interface: scenario runs, exit codes, determinism, fuzz."""

import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nonadd import campaigns, scenarios
from nonadd.campaigns import CAMPAIGNS, Campaign, merge_report, run_campaign, run_trials
from nonadd.cli import main
from nonadd.conditions import cond_sum_split
from nonadd.results import CheckResult, DomainError, _dumps, _jsonify
from nonadd.scenarios import BUILTIN_SCENARIOS, Scenario, ScenarioError, builtin_scenario


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_cli_json(args, capsys):
    code = main(args + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def subadditive_doc(n):
    """Subadditive on an exactly monotone lambda measure: a sweep of the 3**n
    disjoint pairs (a possibility measure would hold by its kind, unswept)."""
    return {"version": 1, "space": {"n": n},
            "measures": {"mu": {"kind": "lambda_sugeno", "lambda": -0.5, "density": [0.5] * n}},
            "tasks": [{"task": "check_measure", "measure": "mu", "property": "subadditive"}]}


def null_additive_doc(k, n=16):
    """null_additive on a rounding table (every explicit table of a scenario
    is one) whose highest null point k - 1 moves a value: a sweep of its 2**k
    null sets times 2**n cells."""
    table = [bin(a >> k).count("1") / (n - k) + (1 / 64 if a >> k and a >> (k - 1) & 1 else 0)
             for a in range(1 << n)]
    return {"version": 1, "space": {"n": n},
            "measures": {"mu": {"kind": "explicit", "table": table}},
            "tasks": [{"task": "check_measure", "measure": "mu", "property": "null_additive",
                       "expect": "fails"}]}


def lowered_table_doc(n=12):
    """A possibility table given as an explicit one with one entry lowered:
    the per-point sweep refuses it as the table is read."""
    table = [max([0.0] + [(b % 5 + 1) / 8 for b in range(n) if a >> b & 1])
             for a in range(1 << n)]
    table[0b101101100110] = 0.0625
    return {"version": 1, "space": {"n": n},
            "measures": {"lowered": {"kind": "explicit", "table": table}},
            "tasks": [{"task": "check_measure", "measure": "lowered", "property": "monotone",
                       "expect": "fails"}]}


def shilkret_doc(n, kind="possibility"):
    """A ``verify shilkret_maxitive`` task on a maxitive measure of n points:
    a possibility measure, or the same max fold as an explicit table, which
    the max-product sweep reads over its 4**n pairs."""
    density = [(k % 5 + 1) / 8 for k in range(n)]
    if kind == "possibility":
        measure = {"kind": "possibility", "density": density}
    else:
        measure = {"kind": "explicit",
                   "table": [max([0.0] + [density[b] for b in range(n) if a >> b & 1])
                             for a in range(1 << n)]}
    return {"version": 1, "space": {"n": n}, "measures": {"mu": measure},
            "tasks": [{"task": "verify", "theorem": "shilkret_maxitive", "measure": "mu"}]}


class TestRun:
    def test_counterexample_builtin_passes(self, capsys):
        code, doc = run_cli_json(["run", "counterexample"], capsys)
        assert code == 0
        task = doc["report"]["tasks"][0]
        assert task["verdict"] == "pass"
        assert task["report"]["lhs"] == 0.25
        assert task["report"]["rhs_sum"] == 0.125
        assert task["report"]["violated"] is True

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_all_builtins_pass(self, name, capsys):
        code, _ = run_cli(["run", name], capsys)
        assert code == 0, name

    def test_text_output_shows_inexact_modes(self, capsys):
        code, out = run_cli(["run", "verifier_tour"], capsys)
        doc = run_cli_json(["run", "verifier_tour"], capsys)[1]
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("[")]
        modes = [task.get("result", {}).get("mode") for task in doc["report"]["tasks"]]
        assert len(lines) == len(modes)
        for line, mode in zip(lines, modes):
            assert line.endswith(f" mode={mode}") == (mode in ("sampled", "grid"))
        assert lines[0].endswith(": holds (expected holds) mode=grid")   # upper_mh, both

    def test_undefined_reference_exits_2(self, tmp_path, capsys):
        doc = builtin_scenario("two_point_integrals")
        doc["tasks"][0]["measure"] = "missing"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(["run", str(path)], capsys)
        assert code == 2

    def test_malformed_document_names_field(self, tmp_path):
        doc = {"version": 1, "space": {"n": 2}, "tasks": "oops"}
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="tasks"):
            Scenario(doc)

    BAD_ITEMS = {
        "table entry": (("measures", "mu", "table"), [0, 0.3, "x", True],
                        "measures.mu.table[2]: expected a number or \"inf\", got 'x'"),
        "nested knot": (("profiles", "p", "knots"), [[0, 1], [0.5, 0.25], [0.75, "y"]],
                        "profiles.p.knots[2][1]: expected a number or \"inf\", got 'y'"),
        "knot length": (("profiles", "p", "knots"), [[0, 1], [0.5]],
                        "profiles.p.knots[1]: expected a list of 2 items, got [0.5]"),
        "function entry": (("functions", "f"), [0.5, None],
                           "functions.f[1]: expected a number or \"inf\", got None"),
        # the shortcut for a list of plain numbers hands these to the item route
        "NaN function entry": (("functions", "f"), [0.5, float("nan")],
                               "functions.f[1]: expected a number or \"inf\", got nan"),
        "bool function entry": (("functions", "f"), [True, 0.5],
                                "functions.f[0]: expected a number or \"inf\", got True"),
    }

    @pytest.mark.parametrize("value", [[0, 1, 2.5], [0.5, "inf", 1], [1e308 * 10, -0.0]])
    def test_number_list_reads_as_item_by_item(self, value):
        want = scenarios._NUMBER_ITEMS(None, value, "functions.f")
        assert repr(scenarios._numbers(None, value, "functions.f")) == repr(want)

    @pytest.mark.parametrize("case", sorted(BAD_ITEMS))
    def test_bad_list_item_names_its_path(self, case):
        # list items resolve without paths; the failing one is named in full
        path, value, message = self.BAD_ITEMS[case]
        doc = {"version": 1, "space": {"n": 2},
               "measures": {"mu": {"kind": "explicit", "table": [0, 0.3, 0.6, 0.8]}},
               "functions": {"f": [0.5, 0.2]}, "profiles": {"p": {"knots": [[0, 1]]}},
               "tasks": [{"task": "integral", "kind": "sugeno", "function": "f",
                          "measure": "mu"}]}
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ScenarioError) as info:
            Scenario(doc)
        assert str(info.value) == message

    def test_bad_reference_in_a_list_names_its_path(self):
        doc = builtin_scenario("verifier_tour")
        task = next(i for i, t in enumerate(doc["tasks"]) if "circs" in t)
        doc["tasks"][task]["circs"][1] = "missing"
        with pytest.raises(ScenarioError) as info:
            Scenario(doc)
        assert str(info.value) == f"tasks[{task}].circs[1]: undefined operator 'missing'"

    COUNTS = [("shilkret_maxitive", "trials", 0), ("sugeno_subadditive", "trials", 0),
              ("shilkret_norm", "trials", 0), ("metric_axioms", "trials", 0),
              ("metric_axioms", "trials", -3), ("cauchy_probe", "levels", 0),
              ("fuzz", "trials", 0)]

    @pytest.mark.parametrize("kind, field, value", COUNTS)
    def test_count_below_one_refused_before_any_task(self, kind, field, value, tmp_path,
                                                     capsys):
        # a task over no draws or levels would hold having checked nothing
        doc = builtin_scenario("verifier_tour")
        doc["tasks"].append({"task": "metric_axioms", "kind": "d_op_p", "operator": "pmin",
                             "p": 1, "measure": "dist"})
        i = next(i for i, t in enumerate(doc["tasks"]) if kind in (t["task"], t.get("theorem")))
        doc["tasks"][i][field] = value
        with pytest.raises(ScenarioError) as info:
            Scenario(doc)
        assert str(info.value) == f"tasks[{i}].{field}: expected an integer >= 1, got {value}"
        path = tmp_path / "count.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path)])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "") and f"tasks[{i}].{field}" in err

    def test_math_failure_exits_1(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "space": {"n": 2},
            "measures": {"mu": {"kind": "explicit", "table": [0, 0.3, 0.6, 0.8]}},
            "functions": {"f": [0.5, 0.2]},
            "tasks": [{"task": "integral", "kind": "sugeno", "function": "f",
                       "measure": "mu", "expect_value": 0.9}],
        }
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(doc))
        code, doc_out = run_cli_json(["run", str(path)], capsys)
        assert code == 1
        assert doc_out["report"]["summary"]["failed"] == 1

    def test_failing_task_prints_its_witness(self, tmp_path, capsys):
        # the additive table fails maxitivity on the pair of singletons
        doc = {"version": 1, "space": {"n": 2},
               "measures": {"mu": {"kind": "explicit", "table": [0, 0.5, 0.5, 1]}},
               "tasks": [{"task": "check_measure", "measure": "mu", "property": "maxitive",
                          "expect": "holds"}]}
        path = tmp_path / "fails.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["run", str(path)], capsys)
        witness = run_cli_json(["run", str(path)], capsys)[1]["report"]["tasks"][0][
            "result"]["witness"]
        assert code == 1
        lines = out.splitlines()
        assert lines[2] == "[FAIL] task 1 check_measure: fails (expected holds)"
        assert lines[3] == f"       witness: {json.dumps(witness, sort_keys=True)}"
        assert lines[4] == "summary: 0 passed, 1 failed"

    def test_witness_of_numpy_scalars_prints_as_json(self, monkeypatch, capsys):
        # the report is converted as it is printed, in either format
        record = {"task": "check_measure", "expected": "holds", "outcome": "fails",
                  "verdict": "fail", "result": {"holds": False, "mode": "exhaustive",
                                                "witness": {"a": np.int64(3),
                                                            "mu": np.float64(math.inf)}}}
        monkeypatch.setattr("nonadd.cli.run_task", lambda *args, **kwargs: record)
        code, out = run_cli(["run", "counterexample"], capsys)
        assert code == 1
        assert '       witness: {"a": 3, "mu": "inf"}' in out.splitlines()
        code, doc = run_cli_json(["run", "counterexample"], capsys)
        assert code == 1
        assert doc["report"]["tasks"][0]["result"]["witness"] == {"a": 3, "mu": "inf"}

    @pytest.mark.parametrize("knots, message", [
        pytest.param([[0.5, 1], [0.25, 0]], "knots must be sorted by t", id="unsorted"),
        pytest.param([[0, 1], [2, 0]], "knot abscissae must lie in the scale",
                     id="outside_the_scale"),
        pytest.param([[0.25, 1], [0.5, 0]], "profile evaluated below the first knot",
                     id="first_knot_above_zero"),
    ])
    def test_bad_knots_exit_2_naming_the_profile(self, knots, message, tmp_path, capsys):
        doc = {"version": 1, "space": {"n": 2},
               "measures": {"mu": {"kind": "possibility", "density": [0.5, 1.0]}},
               "profiles": {"p": {"knots": knots}},
               "tasks": [{"task": "check_measure", "measure": "mu", "property": "monotone"}]}
        path = tmp_path / "knots.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: profiles.p: {message}\n"

    def test_refusal_while_a_task_runs_names_the_task(self, tmp_path, capsys):
        # the profile grid is refused when the second task runs, not at parse time
        doc = {"version": 1, "space": {"n": 2},
               "measures": {"mu": {"kind": "possibility", "density": [0.5, 1.0]}},
               "profiles": {"p": {"knots": [[0, 1], [1, 0]]}},
               "operators": {"min": {"name": "min"}},
               "tasks": [{"task": "check_measure", "measure": "mu", "property": "monotone"},
                         {"task": "profile_integral", "profile": "p", "operator": "min",
                          "resolution": 2.0 ** -25}]}
        Scenario(doc)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        message = "profile grid enumerates 33,554,433 cells, over the budget of 16,777,216"
        code = main(["run", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: tasks[1]: {message}\n"
        # the first task's record stays on stdout, the refusal after it
        lines = captured.out.splitlines()
        assert lines[2:5] == ["[pass] task 1 check_measure: holds (expected holds)",
                              f"[ERROR] task 2: {message}", "summary: 1 passed, 0 failed"]
        code = main(["run", str(path), "--format", "json"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)["report"]
        assert code == 2 and captured.err == f"error: tasks[1]: {message}\n"
        assert [t["task"] for t in report["tasks"]] == ["check_measure"]
        assert report["summary"] == {"passed": 1, "failed": 0}
        assert report["error"] == {"task": 1, "message": message}

    def test_an_overflowing_power_is_refused_with_its_task(self, tmp_path, capsys):
        # 8 ** 400 is above the largest float: the d_op_p distance's |f - g|^p
        # is refused while the second task runs, as an input error
        doc = {"version": 1, "space": {"n": 2},
               "measures": {"mu": {"kind": "possibility", "density": [0.5, 1.0]}},
               "functions": {"f": [8, 0.5], "g": [0, 0]},
               "operators": {"pmin": {"name": "power_min", "p": 1, "u": 1}},
               "tasks": [{"task": "metric", "kind": "kyfan", "measure": "mu",
                          "f": "f", "g": "g"},
                         {"task": "metric", "kind": "d_op_p", "operator": "pmin", "p": 400,
                          "measure": "mu", "f": "f", "g": "g"}]}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        message = "|v|^p overflows a float at v=8.0, p=400.0"
        code = main(["run", str(path), "--format", "json"])
        captured = capsys.readouterr()
        report = json.loads(captured.out)["report"]
        assert code == 2 and captured.err == f"error: tasks[1]: {message}\n"
        assert [(t["task"], t["verdict"]) for t in report["tasks"]] == [("metric", "pass")]
        assert report["error"] == {"task": 1, "message": message}

    def test_non_subadditive_metric_task_reports_triangle_witness(self, tmp_path,
                                                                  capsys):
        # measure with a planted union above the sum of its parts
        doc = {
            "version": 1,
            "space": {"n": 2},
            "measures": {"mu": {"kind": "explicit", "table": [0, 0.1, 0.1, 0.9]}},
            "tasks": [{"task": "metric_axioms", "kind": "kyfan", "measure": "mu",
                       "trials": 20}],
        }
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli_json(["run", str(path)], capsys)
        assert code == 1
        task = out["report"]["tasks"][0]
        assert task["outcome"] == "hypothesis-failed"
        assert task["error_detail"]["triangle_violation"]["holds"] is True

    def test_expectation_inversion(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "space": {"n": 2},
            "measures": {"mu": {"kind": "explicit", "table": [0, 0.1, 0.1, 0.9]}},
            "tasks": [{"task": "check_measure", "measure": "mu",
                       "property": "subadditive", "expect": "fails"},
                      {"task": "triangle_search", "measure": "mu",
                       "expect": "holds"}],
        }
        path = tmp_path / "expect.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli_json(["run", str(path)], capsys)
        assert code == 0

    def test_witness_feeds_back_as_scenario(self, tmp_path, capsys):
        # take the witness pair from a failing subadditivity check and replay
        # it as an explicit expectation in a fresh scenario
        doc = {
            "version": 1,
            "space": {"n": 2},
            "measures": {"mu": {"kind": "explicit", "table": [0, 0.1, 0.1, 0.9]}},
            "tasks": [{"task": "check_measure", "measure": "mu",
                       "property": "subadditive"}],
        }
        path = tmp_path / "w1.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli_json(["run", str(path)], capsys)
        assert code == 1
        witness = out["report"]["tasks"][0]["result"]["witness"]
        assert witness["mu_union"] > witness["mu_a"] + witness["mu_b"]

    def test_inf_token_accepted(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "space": {"n": 2},
            "scale": {"upper": "inf", "closed": True},
            "measures": {"mu": {"kind": "explicit", "table": [0, 2.0, 3.0, "inf"]}},
            "functions": {"f": [6.0, 6.0]},
            "tasks": [{"task": "integral", "kind": "sugeno", "function": "f",
                       "measure": "mu", "expect_value": 6.0}],
        }
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(["run", str(path)], capsys)
        assert code == 0

    def test_integral_kinds_are_the_named_integrals(self, tmp_path, capsys):
        # each kind of the integral task is one library function, read on
        # the task's domain (point 0 only)
        import nonadd
        mu = nonadd.MonotoneMeasure.explicit(nonadd.FiniteSpace(2), [0, 0.3, 0.6, 0.8])
        f, luk, join = nonadd.Fn([0.2, 0.5]), nonadd.lukasiewicz(), nonadd.join()
        want = {"sugeno": nonadd.sugeno_integral(f, mu, 1),
                "shilkret": nonadd.shilkret_integral(f, mu, 1),
                "upper_generalized": nonadd.upper_integral(f, mu, luk, 1),
                "lower_generalized": nonadd.lower_integral(f, mu, join, 1),
                "seminormed": nonadd.seminormed_integral(f, mu, luk, 1)}
        ops = {"upper_generalized": "luk", "lower_generalized": "max", "seminormed": "luk"}
        doc = {"version": 1, "space": {"n": 2},
               "measures": {"mu": {"kind": "explicit", "table": [0, 0.3, 0.6, 0.8]}},
               "functions": {"f": [0.2, 0.5]},
               "operators": {"luk": {"name": "lukasiewicz"}, "max": {"name": "max"}},
               "tasks": [{"task": "integral", "kind": kind, "function": "f", "measure": "mu",
                          "domain": 1, **({"operator": ops[kind]} if kind in ops else {})}
                         for kind in want]}
        path = tmp_path / "kinds.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli_json(["run", str(path)], capsys)
        assert code == 0
        assert [t["value"] for t in out["report"]["tasks"]] == list(want.values())
        assert want["sugeno"] != nonadd.sugeno_integral(f, mu)   # the domain is read

    @pytest.mark.parametrize("lifted, integral, expect", [
        ("max", "sum", "hypothesis-failed"), ("min", "min", "holds")])
    def test_open_scale_upper_integral_is_exact_or_refused(self, lifted, integral, expect,
                                                           tmp_path, capsys):
        # on [0, 1) the sup of max is the open end 1 and on [0, inf) the sup of
        # sum is inf: no level attains either, so each task is refused with the
        # operator, the scale and the tail mass; min annihilates the zero tail
        doc = {
            "version": 1,
            "space": {"n": 2},
            "scale": {"upper": 1, "closed": False},
            "measures": {"mu": {"kind": "possibility", "density": [0.5, 0.25]}},
            "functions": {"f": [0.5, 0.25], "g1": [0.25, 0.125]},
            "operators": {name: {"name": name} for name in (lifted, integral)},
            "tasks": [{"task": "integral", "kind": "upper_generalized", "function": "f",
                       "measure": "mu", "operator": lifted, "expect": expect},
                      {"task": "oracle", "function": "f", "measure": "mu",
                       "operator": lifted, "expect": expect},
                      {"task": "verify", "theorem": "convergence_lemmas",
                       "operator": integral, "measure": "mu", "sequence": ["g1", "f", "f"],
                       "limit": "f", "expect": expect}],
        }
        path = tmp_path / "open_tail.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli_json(["run", str(path)], capsys)
        assert code == 0
        tasks = out["report"]["tasks"]
        assert [t["outcome"] for t in tasks] == [expect] * 3
        if expect == "hypothesis-failed":
            tail = "the upper integral is exact only for tail mass 0 under a declared " \
                "'zero_right_annihilator'"
            assert [t["error"] for t in tasks] == [
                f"operator 'max' leaves the open end of [0,1.0) at tail mass 0.0: {tail}"] * 2 + [
                f"operator 'sum' leaves the open end of [0,inf) at tail mass 0.0: {tail}"]
        else:
            assert tasks[0]["value"] == 0.5
            assert (tasks[1]["direct"], tasks[1]["oracle"]) == (0.5, 0.5)
            assert tasks[2]["result"]["detail"]["integrals"] == [0.25, 0.5, 0.5]

    def test_infinite_values_compare_at_gap_zero(self, tmp_path, capsys):
        # both sides of the oracle task and the integral are inf: two
        # infinities read as gap 0 (core._rel_gap), not as margin nan
        doc = {
            "version": 1,
            "space": {"n": 3},
            "scale": {"upper": "inf", "closed": True},
            "measures": {"mu": {"kind": "possibility", "density": [0.5, "inf", 0.25]}},
            "functions": {"f": [0, "inf", 0.5]},
            "operators": {"mo": {"name": "marshall_olkin", "alpha": 0.5, "beta": 0.25}},
            "tasks": [{"task": "oracle", "function": "f", "measure": "mu", "operator": "mo"},
                      {"task": "integral", "kind": "upper_generalized", "function": "f",
                       "measure": "mu", "operator": "mo", "expect_value": "inf"}],
        }
        path = tmp_path / "inf_gap.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli_json(["run", str(path)], capsys)
        assert code == 0
        oracle, integral = out["report"]["tasks"]
        assert oracle["result"]["margin"] == integral["result"]["margin"] == 0.0

    @pytest.mark.parametrize("tasks, measure, named", [
        pytest.param([{"task": "verify", "theorem": "subadditive_minkowski",
                       "operator": "min", "measure": "mu", "f": "f", "g": "g", "pp": 7}],
                     None, "tasks[0].pp", id="typo_pp"),
        pytest.param([{"task": "check_measure", "measure": "mu", "property": "maxitive",
                       "tolerence": 0.5}], None, "tasks[0].tolerence", id="typo_tolerence"),
        pytest.param([{"task": "check_measure", "measure": "mu", "property": "maxitive",
                       "tolerance": 0.5}], None, "tasks[0].tolerance",
                     id="tolerance_not_read"),
        pytest.param([{"task": "check_relation", "relation": "comonotone", "f": "f",
                       "g": "g", "star": "min"}], None, "tasks[0].star",
                     id="star_not_read"),
        pytest.param([{"task": "check_condition", "condition": "mh_product_power",
                       "p1": 1, "p2": 2, "p3": 2, "p4": 3}], None, "tasks[0].p4",
                     id="typo_p4"),
        pytest.param([{"task": "triangle_search", "measure": "mu", "kinds": ["nope"],
                       "expect": "premise-failed"}], None, "tasks[0].kinds",
                     id="unknown_metric_kind"),
        pytest.param([{"task": "check_measure", "measure": "mu", "property": "maxitive"}],
                     {"kind": "possibility", "density": [0.5, 1.0], "densty": [1, 1]},
                     "measures.mu.densty", id="typo_densty"),
        pytest.param([{"task": "verify", "theorem": "shilkret_maxitive", "measure": "mu",
                       "trials": "abc"}], None, "tasks[0].trials", id="trials_not_int"),
        pytest.param([{"task": "fuzz", "campaign": "sugeno_identity", "trials": 2,
                       "seed": "x"}], None, "tasks[0].seed", id="seed_not_int"),
        pytest.param([{"task": "verify", "theorem": "upper_mh", "star": "max",
                       "circs": ["min", "min", "min"], "measure": "mu", "f": "f", "g": "f",
                       "direction": "necessity", "seed": 3}], None, "tasks[0].seed",
                     id="upper_mh_reads_no_seed"),
        pytest.param([{"task": "integral", "function": "f", "measure": "mu",
                       "expect_value": 0.5, "tolerance": "x"}], None, "tasks[0].tolerance",
                     id="tolerance_not_number"),
        pytest.param([{"task": "integral", "kind": "seminormed", "function": "f",
                       "measure": "mu"}], None, "tasks[0].operator",
                     id="integral_operator_required"),
        pytest.param([{"task": "integral", "kind": "sugeno", "function": "f",
                       "measure": "mu", "operator": "min"}], None, "tasks[0].operator",
                     id="integral_operator_not_read"),
        pytest.param([{"task": "check_condition", "condition": "mh_product_power",
                       "p1": 1, "p2": 2, "p3": 2, "operator": "min"}], None,
                     "tasks[0].operator", id="operator_not_a_parameter"),
        pytest.param([{"task": "check_condition", "condition": "mh_upper", "star": "max",
                       "combiner": "max", "circs": ["min", "min", "min"]}], None,
                     "tasks[0].phis", id="required_phis_missing"),
        pytest.param([{"task": "check_condition", "condition": "mh_upper", "star": "max",
                       "combiner": "max", "circs": "min", "phis": ["id", "id", "id"]}],
                     None, "tasks[0].circs", id="circs_not_a_triple"),
        pytest.param([{"task": "fuzz", "campaign": "sugeno_identity", "trials": 300},
                      {"task": "check_measure", "measure": "mu", "property": "maxitive",
                       "expect": "hold"}], None, "tasks[1].expect",
                     id="late_bad_expect"),
        pytest.param([{"task": "verify", "theorem": "sugeno_subadditive_boundary",
                       "expect": "pass"}], None, "tasks[0].expect", id="expect_alias_pass"),
        pytest.param([{"task": "check_measure", "measure": "mu", "property": "maxitive"},
                      {"task": "check_measure", "measure": "mu", "property": "maxitive",
                       "expect": "fail"}], None, "tasks[1].expect", id="expect_alias_fail"),
        pytest.param([{"task": "check_measure", "measure": "mu", "property": "subadditive",
                       "expect": "violated"}], None, "tasks[0].expect",
                     id="expect_alias_violated"),
        pytest.param([{"task": "fuzz", "campaign": "sugeno_identity", "trials": 300},
                      {"task": "verify", "theorem": "mean_convergence", "measure": "mu",
                       "sequence": ["f", "g"], "limit": "f"}], None, "tasks[1].operator",
                     id="mean_convergence_without_kind_or_operator"),
        pytest.param([{"task": "fuzz", "campaign": "sugeno_identity", "trials": 300},
                      {"task": "verify", "theorem": "mean_convergence", "kind": "kyfan",
                       "measure": "mu", "sequence": ["f", "g"], "limit": "f"}], None,
                     "tasks[1].kind", id="mean_convergence_kyfan"),
    ])
    def test_undeclared_or_malformed_field_exits_2_before_any_task(
            self, tasks, measure, named, tmp_path, capsys, monkeypatch):
        def no_task_runs(*args, **kwargs):
            raise AssertionError("a task ran before validation finished")

        monkeypatch.setattr(scenarios, "run_campaign", no_task_runs)
        doc = {"version": 1, "space": {"n": 2},
               "measures": {"mu": measure or {"kind": "possibility",
                                              "density": [0.5, 1.0]}},
               "functions": {"f": [0.5, 0.25], "g": [0.25, 0.5]},
               "operators": {"min": {"name": "min"}, "max": {"name": "max"}},
               "maps": {"id": {"name": "identity"}},
               "tasks": tasks}
        path = tmp_path / "bad_field.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert named in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key, value, named", [
        pytest.param("scale", {"upper": 1, "closed": "false"}, "scale.closed",
                     id="closed_not_a_bool"),
        pytest.param("scale", {"uper": 2}, "scale.uper", id="typo_uper"),
        pytest.param("space", {"n": 2.7}, "space.n", id="n_not_int"),
        pytest.param("scale", [1], "scale", id="scale_not_an_object"),
        pytest.param("spce", {"n": 3}, "spce", id="typo_spce"),
        pytest.param("scael", {"upper": 2}, "scael", id="typo_scael"),
    ])
    def test_space_and_scale_fields_are_declared(self, key, value, named, tmp_path,
                                                 capsys):
        doc = builtin_scenario("two_point_integrals")
        doc[key] = value
        path = tmp_path / "bad_header.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"{named}:" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("operators, task, named", [
        pytest.param({}, {"task": "check_condition", "condition": "mh_product_power",
                          "p1": float("nan"), "p2": 1, "p3": 1}, "tasks[0].p1",
                     id="condition_exponent"),
        pytest.param({"pm": {"name": "power_min", "p": float("nan")}},
                     {"task": "integral", "kind": "upper_generalized", "function": "f",
                      "measure": "mu", "operator": "pm"}, "operators.pm.p",
                     id="operator_parameter"),
    ])
    def test_nan_number_exits_2_naming_the_field(self, operators, task, named, tmp_path,
                                                 capsys):
        # Python's json reads NaN, and `p <= 0` is false for NaN: a NaN
        # exponent would hold the condition vacuously and pass power_min's gates
        doc = {"version": 1, "space": {"n": 2},
               "measures": {"mu": {"kind": "possibility", "density": [0.5, 1.0]}},
               "functions": {"f": [0.5, 0.25]}, "operators": operators, "tasks": [task]}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        code = main(["run", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert f"{named}: expected a number" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("named", ["functions.f[1]", "measures.mu.density[0]",
                                       "operators.pm.p"])
    def test_oversized_integer_exits_2_naming_the_field(self, named, tmp_path, capsys):
        # float() of a JSON integer past the float range raises OverflowError
        doc = {"version": 1, "space": {"n": 2},
               "measures": {"mu": {"kind": "possibility", "density": [0.5, 1.0]}},
               "functions": {"f": [0.5, 0.25]},
               "operators": {"pm": {"name": "power_min", "p": 1.0}},
               "tasks": [{"task": "integral", "kind": "upper_generalized", "function": "f",
                          "measure": "mu", "operator": "pm"}]}
        node, key = {"functions.f[1]": (doc["functions"]["f"], 1),
                     "measures.mu.density[0]": (doc["measures"]["mu"]["density"], 0),
                     "operators.pm.p": (doc["operators"]["pm"], "p")}[named]
        node[key] = "BIG"
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc).replace('"BIG"', "1" + "0" * 400))
        code = main(["run", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {named}: integer of 401 digits is too large for a float\n"

    def test_negative_distortion_exponent_exits_2_naming_the_field(self, tmp_path, capsys):
        # x ** -1 has no value at 0: the distortion's g(0) check would raise
        # ZeroDivisionError, which exits 1 with a traceback
        doc = {"version": 1, "space": {"n": 2},
               "measures": {"dist": {"kind": "distortion", "exponent": -1,
                                     "probs": [0.25, 0.75]}},
               "tasks": [{"task": "check_measure", "measure": "dist", "property": "monotone"}]}
        path = tmp_path / "negative_exponent.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "measures.dist.exponent: expected a nonnegative number" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("scale", [{"upper": 1, "closed": True},
                                       {"upper": "inf", "closed": True}],
                             ids=["unit", "extended"])
    @pytest.mark.parametrize("operator", ["product", "lukasiewicz"])
    @pytest.mark.parametrize("c_values", [None, [0.0, 0.25, 0.5, 1.0]],
                             ids=["grid", "c_values"])
    def test_condition_task_reads_the_scenario_scale(self, scale, operator, c_values):
        # sum_split takes a scale, which the task passes from the scenario
        task = {"task": "check_condition", "condition": "sum_split", "operator": "op"}
        if c_values is not None:
            task["c_values"] = c_values
        sc = Scenario({"version": 1, "space": {"n": 2}, "scale": scale,
                       "operators": {"op": {"name": operator}}, "tasks": [task]})
        record = scenarios.run_task(sc, sc.tasks[0])
        op = sc.operators["op"]
        want = cond_sum_split(op, sc.scale, c_values).to_dict()
        assert json.dumps(record["result"]) == json.dumps(want)

    def test_a_field_that_names_no_parameter_raises_at_declaration(self):
        # a misspelt field would otherwise resolve, go unread and let the
        # library default stand
        with pytest.raises(TypeError, match=r"is_pqd has no parameter for the fields \['mesure'\]"):
            scenarios._calls(scenarios.is_pqd, f=scenarios._FN, g=scenarios._FN,
                             mesure=scenarios._MEASURE)
        # a bind may join fields that the library function does not read
        scenarios._calls(scenarios.verify_lower_mh, scenarios._mh_bundle, **scenarios._MH,
                         boxplus=scenarios._OP)

    def test_a_task_calls_the_function_bound_in_its_module(self, monkeypatch):
        # the call is looked up when the task runs, so a verifier patched on
        # its own module (as the benchmark's tracer patches it) is the one called
        from nonadd import theorems
        calls = []

        def patched(**kwargs):
            calls.append(kwargs)
            return CheckResult(False, 1.0, {"patched": True})

        monkeypatch.setattr(theorems, "verify_upper_mh", patched)
        sc = Scenario(builtin_scenario("verifier_tour"))
        record = scenarios.run_task(sc, sc.tasks[0])
        assert record["outcome"] == "fails" and record["result"]["witness"] == {"patched": True}
        [kwargs] = calls
        assert sorted(kwargs) == ["direction", "f", "g", "mu", "ops"]
        assert (kwargs["mu"], kwargs["direction"]) == (sc.measures["pos"], "both")
        assert kwargs["f"].values == (0.25, 0.5, 0.75)

    @pytest.mark.parametrize("doc, refusal", [
        pytest.param(subadditive_doc(15), None, id="budget_15"),
        pytest.param(subadditive_doc(16), "tasks[0]: subadditive check over disjoint pairs "
                     "enumerates 43,046,721 cells", id="budget_16"),
        pytest.param(null_additive_doc(8), None, id="null_8"),
        pytest.param(null_additive_doc(9), "tasks[0]: null-additive sweep over null sets "
                     "enumerates 33,554,432 cells", id="null_9"),
        pytest.param(shilkret_doc(13, "explicit"), "tasks[0]: max-product sweep over all "
                     "pairs enumerates 67,108,864 cells", id="shilkret_explicit_13"),
        pytest.param(lowered_table_doc(), "measures.lowered: table is not monotone: "
                     "{'set': 2916, 'point': 1, 'value': 0.625, 'value_with_point': 0.0625}",
                     id="fold_lowered_12"),
    ])
    def test_outside_input_over_the_budget_or_not_monotone_exits_2(self, doc, refusal,
                                                                  tmp_path, capsys):
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path)])
        err = capsys.readouterr().err
        if refusal is None:
            assert (code, err) == (0, "")
        else:
            assert code == 2 and err.startswith(f"error: {refusal}")

    @pytest.mark.parametrize("n", [13, 16])
    def test_possibility_shilkret_task_holds_by_its_kind(self, n, tmp_path, capsys):
        # the max-product indicator sweep, over the cell budget from 13
        # points, cannot fail a possibility measure and is not run
        path = tmp_path / f"shilkret_{n}.json"
        path.write_text(json.dumps(shilkret_doc(n)))
        code, out = run_cli_json(["run", str(path)], capsys)
        [task] = out["report"]["tasks"]
        assert code == 0 and task["outcome"] == "holds"
        assert task["result"]["mode"] == "sampled"

    def test_builtin_modes_follow_the_readme_table(self):
        # every task kind has a row, and every result of every built-in
        # reports a mode of its row
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("### Verdict modes"):]
        table = {}
        for line in section.split("\n\n")[2].splitlines()[2:]:
            task, modes = (re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:3])
            kind, selectors = task[0], task[1:] or [None]
            table.update({(kind, s): set(modes) for s in selectors})

        def modes(kind, task):
            selector = task.get(scenarios.SELECTORS.get(kind))
            return table.get((kind, selector)) or table[(kind, None)]

        for key in scenarios.TASKS:
            kind, selector = key if isinstance(key, tuple) else (key, None)
            assert modes(kind, {scenarios.SELECTORS.get(kind): selector}), key
        for name in sorted(BUILTIN_SCENARIOS):
            doc = builtin_scenario(name)
            sc = Scenario(doc)
            for task in sc.tasks:
                record = scenarios.run_task(sc, task)
                if "result" in record:
                    assert record["result"]["mode"] in modes(task["task"], task), (name, task)

    def test_readme_scenario_example_runs(self, tmp_path, capsys):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("### Scenario format (version 1)"):]
        start = section.index("```json\n") + len("```json\n")
        path = tmp_path / "readme.json"
        path.write_text(section[start:section.index("```", start)])
        code, _ = run_cli(["run", str(path)], capsys)
        assert code == 0


# sha256 of json.dumps(report, sort_keys=True, indent=2) for the default seed,
# recorded with numpy 2.4 on x86-64.  A kernel rewrite must leave every
# built-in report byte-identical; a change that alters one on purpose
# records the new digest here and says why in CHANGES.md.
REPORT_SHA256 = {
    "counterexample": "8e783536410a467398e4d38717e273098861d69fd7cb8ee98c743742c2d4c850",
    "harmonic_duality": "b6a8965829f6464821aa942aa6761731604d3d0017131c164df7a94669646a49",
    "infinite_total_boundary":
        "b636c378066aa6376cc16e47e2fcdab4b2fb5d57225ac7f191a7160502f4dcb5",
    "lower_bounded_sum": "34de13674257b4f7c81c20a360157c9a96ebc9e2f70783da6d28378257ff854b",
    "lower_sum_subadditive":
        "f40e39a20511e86923ed631d667471d46494be3d3d2aadab7ed4910c6720dcb7",
    "reciprocal_integral": "e9bc74f2d12c4871d271d2aacff4be230329e033d4b90adce9a73c44c6d654e6",
    "two_point_integrals": "445af2a1e3512dc89546b918890f3aa5e95ab300b391be118efc5ba5f6b00bb3",
    "verifier_tour": "9a3943fb381a597a73df8ca9f1e4a3c1b3da43a0f0a82fc8181e4df7a2bbf7fe",
}


# The same digest of the report of ``fuzz <id> --trials 20 --seed 0``, for
# every campaign.  Recorded before the condition sweeps were vectorized; a
# change to a sweep or a gate cache must leave all of them unchanged.
FUZZ_REPORT_SHA256 = {
    "cauchy_probe": "a564143fc72b18e4b4fb56aa1837371e0da931f55fb0f0fde182f8ffd5e06844",
    "comonotone_subadditive":
        "991718b870f0a03a38db37d1de9b09d49b690c76aeb66fa1b06beb27ae5cff80",
    "convergence_lemmas":
        "c65845ccb1b7b1e5c58083f685023abe9ff847d0d75cd5870792c81beeadfddb",
    "counterexample": "2ca0bfb38322c5dd24cdf848d8f6db2ae8eaa4f55b978be8f1adc4e73cfee6f0",
    "dual_minkowski": "4a5aab5fa1fff4b91ada8d630544da30a7e551d4cd8168c84b81db9159122f87",
    "h_duality_one_minus":
        "5a9b0f43ab47d721416f2d72261b3ef59b444e9b5717474a64ffb5272ade9fa2",
    "h_duality_reciprocal":
        "b8307a74d2da7d55c925e866c758e03c897efe3432a646eb9de26f3d9462577b",
    "lower_mh": "826430607953fa98b59abc1b0133905cfed0bdea47a8fa997381749d1d5cb392",
    "mean_convergence": "f02281ba156577f3212e913a3899f20938f9ebc95c5b77f111e5e6167e5cb745",
    "measure_properties":
        "c055959730542c66bc9d6407e0aebaf4e8fce8e8263d1323751e319f1b50297e",
    "metric_axioms": "9e0d0b567ff8006d30c606af5b87f3dac8588516d9777a02a68209f79d00c1d0",
    "oracle_agreement": "9f5a5207a8e59722ae32f1315541f57b746442154a665182d0e530b3280928a7",
    "plus_assoc_comonotone":
        "0a8426a24d4f3b5dffe09f92eee663b2f8a6e1842dcd1108450968348ddf0839",
    "seminorm_minkowski":
        "548586e4dba05aa70cb8c9aa9b999709dd0ac363e2fe57b81571c9633e04ff02",
    "shilkret_maxitive": "3d31ee690bb896181d577db486d64392cac26aff9ee96e7b9a85743289afa8f4",
    "subadditive_minkowski":
        "ba1dafe669b22ecb63a8927b5c8097f173ffe30aa29e7fa88d958f26fa4cd4c3",
    "sugeno_identity": "df4a6aec616d98660b101313e7eb79dcad38b9a75060d0f5fb1b9de83137921f",
    "sugeno_subadditive":
        "ca99f353490ea3afe399c63f48aed76e85fe4b2da528ef87367a84519b41b845",
    "upper_mh": "f8ffb72b31311a5fb0d2cd2d585a81c3cae64bf301ffc8b894b663e6dd62fb9c",
    "upper_mh_necessity":
        "493882a290e7d9977860ffbcdaacde1461788f97d9554dc765b01eedf4e33b26",
}


class TestDeterminism:
    def test_pinned_names_are_the_non_smoke_builtins(self):
        # every built-in has a pinned report; a fuzz campaign is run by name
        assert sorted(REPORT_SHA256) == sorted(BUILTIN_SCENARIOS)

    @pytest.mark.parametrize("name", sorted(REPORT_SHA256))
    def test_builtin_report_bytes_pinned(self, name, capsys):
        code, doc = run_cli_json(["run", name], capsys)
        assert code == 0
        blob = json.dumps(doc["report"], sort_keys=True, indent=2).encode()
        assert hashlib.sha256(blob).hexdigest() == REPORT_SHA256[name]

    def test_pinned_fuzz_ids_are_the_campaigns(self):
        assert sorted(FUZZ_REPORT_SHA256) == sorted(CAMPAIGNS)

    @pytest.mark.parametrize("cid", sorted(FUZZ_REPORT_SHA256))
    def test_fuzz_report_bytes_pinned(self, cid, capsys):
        code, doc = run_cli_json(["fuzz", cid, "--trials", "20", "--seed", "0"], capsys)
        assert code == 0
        blob = json.dumps(doc["report"], sort_keys=True, indent=2).encode()
        assert hashlib.sha256(blob).hexdigest() == FUZZ_REPORT_SHA256[cid]

    def test_reports_identical_modulo_timing(self, capsys):
        code1, doc1 = run_cli_json(["run", "two_point_integrals", "--seed", "5"], capsys)
        code2, doc2 = run_cli_json(["run", "two_point_integrals", "--seed", "5"], capsys)
        assert code1 == code2 == 0
        assert json.dumps(doc1["report"], sort_keys=True) == \
            json.dumps(doc2["report"], sort_keys=True)

    def test_fuzz_deterministic_per_seed(self, capsys):
        a = run_cli_json(["fuzz", "sugeno_identity", "--trials", "30", "--seed", "9"],
                         capsys)[1]
        b = run_cli_json(["fuzz", "sugeno_identity", "--trials", "30", "--seed", "9"],
                         capsys)[1]
        assert json.dumps(a["report"], sort_keys=True) == \
            json.dumps(b["report"], sort_keys=True)


SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16]
REPORT_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**40, 10**40),
    st.floats(), st.sampled_from(SPECIAL_FLOATS), st.text(),
    st.builds(np.float64, st.floats() | st.sampled_from(SPECIAL_FLOATS)),
    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)), st.builds(np.bool_, st.booleans()),
    st.builds(CheckResult, st.just(False), st.floats(),
              st.dictionaries(st.text(), st.floats() | st.builds(np.float64, st.floats()),
                              min_size=1)),
)
REPORT_TREES = st.recursive(
    REPORT_SCALARS,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)
                   | st.dictionaries(st.text() | st.integers(), inner, max_size=3)),
    max_leaves=30)


class TestJsonWriter:
    """``--format json`` prints ``json.dumps(doc, sort_keys=True, indent=2)``,
    the form the digests above hash, written in one walk by ``_dumps``."""

    @given(REPORT_TREES)
    @example({"witness": [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16],
              "n": [10**30, np.int64(-7), np.bool_(True)], "s": "\u00e9\x00\n\ud800"})
    @example({"r": CheckResult(False, -0.0, {"a": np.float64(math.inf), "b": (1, 2)}),
              "e": [[], {}, ()], 3: None})
    def test_matches_the_converted_dump(self, tree):
        assert _dumps(tree) == json.dumps(_jsonify(tree), sort_keys=True, indent=2)

    @pytest.mark.parametrize("argv", [["run", name] for name in sorted(BUILTIN_SCENARIOS)]
                             + [["fuzz", cid, "--trials", "3"] for cid in sorted(CAMPAIGNS)],
                             ids=" ".join)
    def test_stdout_is_the_canonical_dump(self, argv, capsys):
        main(argv + ["--format", "json"])
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


class TestFuzzCommand:
    def test_known_campaign(self, capsys):
        code, doc = run_cli_json(["fuzz", "plus_assoc_comonotone", "--trials", "40",
                                  "--seed", "2"], capsys)
        assert code == 0
        assert doc["report"]["campaign"]["passed"] == 40

    def test_text_output_names_the_campaign(self, capsys):
        code, out = run_cli(["fuzz", "plus_assoc_comonotone", "--trials", "3",
                             "--seed", "2"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["campaign: plus_assoc_comonotone", "seed: 2"]
        assert "campaign plus_assoc_comonotone: 3/3 passed" in lines
        assert not any(line.startswith("scenario:") for line in lines)

    def test_one_parser_serves_every_call(self, capsys):
        argv = ["fuzz", "sugeno_identity", "--trials", "6", "--seed", "4"]
        first = run_cli_json(argv, capsys)
        with pytest.raises(SystemExit) as bad:
            main(["fuzz", "sugeno_identity", "--trials", "six"])
        assert bad.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        assert run_cli(["fuzz", "unknown_theorem"], capsys)[0] == 2
        second = run_cli_json(argv, capsys)
        assert first[0] == second[0] == 0
        assert json.dumps(first[1]["report"], sort_keys=True) == \
            json.dumps(second[1]["report"], sort_keys=True)

    def test_unknown_campaign_exits_2(self, capsys):
        code, _ = run_cli(["fuzz", "unknown_theorem"], capsys)
        assert code == 2

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_2(self, trials, capsys):
        code, _ = run_cli(["fuzz", "oracle_agreement", "--trials", trials], capsys)
        assert code == 2
        with pytest.raises(DomainError, match="trials"):
            run_campaign("oracle_agreement", int(trials), 0)

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exit_2(self, jobs, capsys):
        code, _ = run_cli(["fuzz", "oracle_agreement", "--trials", "4", "--jobs", jobs],
                          capsys)
        assert code == 2

    def test_scenario_fuzz_task_with_no_trials_exits_2(self, tmp_path, capsys):
        doc = {"version": 1,
               "tasks": [{"task": "fuzz", "campaign": "sugeno_identity", "trials": 0}]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code = main(["run", str(path)])
        assert code == 2
        assert "trials" in capsys.readouterr().err

    def test_list(self, capsys):
        code, out = run_cli(["--list"], capsys)
        assert code == 0
        assert "counterexample" in out and "mh_upper" in out
        lines = {line.split(":")[0].strip(): line.split(":", 1)[1].split()
                 for line in out.splitlines() if line.startswith("  ") and ":" in line}
        assert {"[p]", "[q]", "[r]", "operator", "measure"} <= set(
            lines["verify subadditive_minkowski"])
        assert lines["check_condition mh_upper"][:4] == ["star", "combiner", "circs", "phis"]
        assert len([k for k in lines if k.startswith("verify ")]) == 14

    def test_list_is_an_option_only(self, capsys):
        # `nonadd --list` is the one spelling; `list` is no command
        with pytest.raises(SystemExit) as info:
            main(["list"])
        assert info.value.code == 2
        assert "invalid choice: 'list'" in capsys.readouterr().err

    def test_text_output_prints_the_failures(self, monkeypatch, capsys):
        monkeypatch.setitem(CAMPAIGNS, "odd_trials_fail",
                            Campaign(lambda seed, k: [{"trial": k, "why": "odd"}] if k % 2
                                     else []))
        code, out = run_cli(["fuzz", "odd_trials_fail", "--trials", "4", "--seed", "1"], capsys)
        assert code == 1
        assert out.splitlines()[2:6] == [
            "campaign odd_trials_fail: 2/4 passed",
            '       failure: {"trial": 1, "why": "odd"}',
            '       failure: {"trial": 3, "why": "odd"}',
            "summary: 2 passed, 2 failed",
        ]


class TestCampaignDriver:
    @pytest.mark.parametrize("cid", sorted(CAMPAIGNS))
    def test_trial_ranges_merge_to_the_serial_report(self, cid):
        parts = [run_trials(cid, 0, lo, hi) for lo, hi in ((0, 7), (7, 13), (13, 20))]
        assert json.dumps(merge_report(cid, 20, 0, parts)) == \
            json.dumps(run_campaign(cid, 20, 0))

    def test_failures_capped_in_trial_order(self, monkeypatch):
        # no real campaign fails, so the cap and the merge order are checked
        # on one that fails every trial
        monkeypatch.setitem(CAMPAIGNS, "always_fails",
                            Campaign(lambda seed, k: [{"trial": k, "seed": seed}]))
        rep = run_campaign("always_fails", 25, 4)
        assert (rep["trials"], rep["passed"], rep["failed"]) == (25, 0, 25)
        assert rep["failures"] == [{"trial": k, "seed": 4} for k in range(10)]
        assert rep["notes"] == {"claim": "no violation in 25 trials"}
        parts = [run_trials("always_fails", 4, lo, hi) for lo, hi in ((0, 3), (3, 4), (4, 25))]
        assert json.dumps(merge_report("always_fails", 25, 4, parts)) == json.dumps(rep)

    def test_sub_seeds_do_not_alias_across_seeds(self, monkeypatch):
        # seed 420, trial k must share no sub-seed with seed 0, trial k + 420,
        # which makes every k-dependent choice alike (420 = lcm(3, ..., 7))
        seen = []

        def spy(owner, name):
            orig = getattr(owner, name)

            def recorded(*args, **kw):
                seen.append(kw["seed"] if "seed" in kw else args[0])
                return orig(*args, **kw)
            monkeypatch.setattr(owner, name, recorded)

        for name in ("verify_shilkret_maxitive", "verify_sugeno_subadditive",
                     "_reciprocal_pair_measure", "check_metric_axioms", "cauchy_probe"):
            spy(campaigns, name)
        for name in ("non_subadditive_measure", "measure_with_null_atoms"):
            spy(campaigns.sampling, name)

        def sub_seeds(run):
            seen.clear()
            run()
            assert seen
            return list(seen)

        for cid, k in (("shilkret_maxitive", 0), ("sugeno_subadditive", 3),
                       ("dual_minkowski", 2), ("cauchy_probe", 0), ("convergence_lemmas", 0)):
            trial = CAMPAIGNS[cid].trial
            assert set(sub_seeds(lambda: trial(0, k + 420))).isdisjoint(
                sub_seeds(lambda: trial(420, k))), cid
        per_run = CAMPAIGNS["metric_axioms"].per_run
        assert set(sub_seeds(lambda: per_run(9, 0))).isdisjoint(sub_seeds(lambda: per_run(9, 1)))


class TestSubprocessEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nonadd", "run", "counterexample"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "pass" in proc.stdout

    def test_parallel_fuzz_matches_sequential_verdict(self, capsys):
        # the whole report, notes included, is the serial one byte for byte;
        # shilkret_maxitive's min_backward_margin depends on every instance,
        # and at seed 0 it comes from trial 19, in the last range
        for cid in ("oracle_agreement", "metric_axioms", "counterexample",
                    "shilkret_maxitive"):
            args = ["fuzz", cid, "--trials", "24", "--seed", "0", "--format", "json"]
            code, doc = run_cli_json(args[:-2], capsys)
            assert code == 0
            want = json.dumps(doc["report"], sort_keys=True, indent=2)
            for jobs in ("2", "3"):
                par = subprocess.run([sys.executable, "-m", "nonadd", *args, "--jobs", jobs],
                                     capture_output=True, text=True, timeout=300)
                assert par.returncode == 0, par.stderr
                got = json.dumps(json.loads(par.stdout)["report"], sort_keys=True, indent=2)
                assert got == want, (cid, jobs)

    def test_the_process_pool_is_imported_only_by_a_parallel_run(self):
        probe = ("import sys, nonadd.cli; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
