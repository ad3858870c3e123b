"""Scenario documents: a versioned, validated description of measures,
functions, operators, maps, and a task list, plus the built-in scenarios.

A scenario is a JSON object (the token ``"inf"`` is accepted wherever a
number is expected):

    {
      "version": 1,
      "space": {"n": 2},
      "scale": {"upper": 1, "closed": true},
      "measures":  {"mu": {"kind": "explicit", "table": [0, 0.3, 0.6, 0.8]}},
      "functions": {"f": [0.5, 0.2]},
      "operators": {"S": {"name": "min"}},
      "maps":      {"h": {"name": "one_minus"}},
      "tasks":     [{"task": "integral", "kind": "sugeno", "function": "f",
                     "measure": "mu", "expect_value": 0.3}]
    }

Each task carries an optional ``expect`` field (default ``"holds"``); the
task passes when the mathematical outcome matches the expectation, so a
scenario that documents a counterexample passes by reproducing the
violation.  Validation failures name the offending field and map to exit
code 2 in the command line.
"""

from __future__ import annotations

import math
from typing import Any

from .campaigns import CAMPAIGNS, run_campaign
from .conditions import CONDITIONS, check_condition
from .core import (
    EXTENDED,
    FiniteSpace,
    Fn,
    INF,
    NONNEG,
    SurvivalProfile,
    UNIT,
    ValueScale,
)
from .integrals import (
    IntegralSpec,
    check_h_duality,
    check_sugeno_identity,
    integral_eval,
    profile_integral,
    upper_integral_subset_oracle,
)
from .measures import MonotoneMeasure, check_measure_property, MEASURE_PROPERTIES
from .metrics import (
    METRIC_KINDS,
    MetricSpec,
    cauchy_probe,
    check_convergence_lemmas,
    check_metric_axioms,
    check_shilkret_norm,
    find_triangle_violation,
    metric_eval,
    verify_mean_convergence,
)
from .operators import (
    BinaryOp,
    DUALITY_FACTORIES,
    OPERATOR_FACTORIES,
    PHI_FACTORIES,
    PhiMap,
    DualityMap,
)
from .relations import is_comonotone, is_mu_subadditive, is_pqd, is_star_associated
from .results import CheckResult, DomainError, HypothesisError, RelationVerdict, _jsonify
from .theorems import (
    MHOperators,
    reproduce_counterexample,
    verify_comonotone_subadditive,
    verify_dual_minkowski,
    verify_lower_mh,
    verify_seminorm_minkowski,
    verify_shilkret_maxitive,
    verify_subadditive_minkowski,
    verify_sugeno_subadditive,
    verify_sugeno_subadditive_boundary,
    verify_upper_mh,
)

SCENARIO_VERSION = 1


class ScenarioError(ValueError):
    """Scenario document fails validation; the message names the field."""


def _num(value, field: str) -> float:
    if isinstance(value, str):
        if value == "inf":
            return INF
        raise ScenarioError(f"{field}: expected a number or \"inf\", got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{field}: expected a number, got {value!r}")
    return float(value)


def _vector(values, field: str) -> list[float]:
    if not isinstance(values, list) or not values:
        raise ScenarioError(f"{field}: expected a nonempty list of numbers")
    return [_num(v, f"{field}[{i}]") for i, v in enumerate(values)]


class Scenario:
    """Parsed and validated scenario with named bindings."""

    def __init__(self, doc: dict, name: str = "<inline>"):
        if not isinstance(doc, dict):
            raise ScenarioError("scenario: expected a JSON object")
        self.name = name
        version = doc.get("version")
        if version != SCENARIO_VERSION:
            raise ScenarioError(f"version: expected {SCENARIO_VERSION}, got {version!r}")

        space_doc = doc.get("space", {"n": 1})
        if not isinstance(space_doc, dict) or "n" not in space_doc:
            raise ScenarioError("space: expected an object with point count 'n'")
        try:
            self.space = FiniteSpace(int(space_doc["n"]))
        except (TypeError, ValueError, DomainError) as e:
            raise ScenarioError(f"space.n: {e}") from None

        scale_doc = doc.get("scale", {"upper": 1, "closed": True})
        try:
            self.scale = ValueScale(_num(scale_doc.get("upper", 1), "scale.upper"),
                                    bool(scale_doc.get("closed", True)))
        except DomainError as e:
            raise ScenarioError(f"scale: {e}") from None

        self.measures: dict[str, MonotoneMeasure] = {}
        for mname, mdoc in (doc.get("measures") or {}).items():
            self.measures[mname] = self._build_measure(mname, mdoc)
        self.functions: dict[str, list[float]] = {}
        for fname, fdoc in (doc.get("functions") or {}).items():
            self.functions[fname] = _vector(fdoc, f"functions.{fname}")
            if len(self.functions[fname]) != self.space.n:
                raise ScenarioError(f"functions.{fname}: length must equal space.n")
        self.operators: dict[str, BinaryOp] = {}
        for oname, odoc in (doc.get("operators") or {}).items():
            self.operators[oname] = self._build_operator(oname, odoc)
        self.phis: dict[str, PhiMap] = {}
        self.duals: dict[str, DualityMap] = {}
        for pname, pdoc in (doc.get("maps") or {}).items():
            self._build_map(pname, pdoc)
        self.profiles: dict[str, SurvivalProfile] = {}
        for pname, pdoc in (doc.get("profiles") or {}).items():
            self.profiles[pname] = self._build_profile(pname, pdoc)

        tasks = doc.get("tasks")
        if not isinstance(tasks, list) or not tasks:
            raise ScenarioError("tasks: expected a nonempty list")
        self.tasks = tasks
        for i, task in enumerate(tasks):
            if not isinstance(task, dict) or "task" not in task:
                raise ScenarioError(f"tasks[{i}]: expected an object with a 'task' kind")

    # -- binding builders --------------------------------------------------

    def _build_measure(self, name: str, doc) -> MonotoneMeasure:
        field = f"measures.{name}"
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ScenarioError(f"{field}: expected an object with 'kind'")
        kind = doc["kind"]
        try:
            if kind == "explicit":
                table = _vector(doc.get("table"), f"{field}.table")
                return MonotoneMeasure.explicit(self.space, table, rounding=True)
            if kind == "possibility":
                return MonotoneMeasure.possibility(
                    self.space, _vector(doc.get("density"), f"{field}.density"))
            if kind == "distortion":
                gamma = _num(doc.get("exponent", 0.5), f"{field}.exponent")
                probs = _vector(doc.get("probs"), f"{field}.probs")
                return MonotoneMeasure.distortion(
                    self.space, probs, lambda x: x ** gamma, name=f"power({gamma})")
            if kind == "lambda_sugeno":
                return MonotoneMeasure.lambda_sugeno(
                    self.space, _num(doc.get("lambda"), f"{field}.lambda"),
                    _vector(doc.get("density"), f"{field}.density"))
        except DomainError as e:
            raise ScenarioError(f"{field}: {e}") from None
        raise ScenarioError(f"{field}.kind: unknown measure kind {kind!r}")

    def _build_operator(self, name: str, doc) -> BinaryOp:
        field = f"operators.{name}"
        if not isinstance(doc, dict) or "name" not in doc:
            raise ScenarioError(f"{field}: expected an object with 'name'")
        factory = OPERATOR_FACTORIES.get(doc["name"])
        if factory is None:
            raise ScenarioError(f"{field}.name: unknown operator {doc['name']!r}")
        params = {k: _num(v, f"{field}.{k}") for k, v in doc.items() if k != "name"}
        try:
            return factory(**params)
        except (TypeError, DomainError) as e:
            raise ScenarioError(f"{field}: {e}") from None

    def _build_profile(self, name: str, doc) -> SurvivalProfile:
        """Survival profiles: tabulated knots or the truncated-quadratic
        closed form (1 - k t^2)_+ referenced by its coefficient."""
        field = f"profiles.{name}"
        if not isinstance(doc, dict):
            raise ScenarioError(f"{field}: expected an object")
        try:
            if "knots" in doc:
                knots = [(_num(t, f"{field}.knots"), _num(g, f"{field}.knots"))
                         for t, g in doc["knots"]]
                return SurvivalProfile(self.scale, knots=knots)
            if doc.get("form") == "truncated_quadratic":
                k = _num(doc.get("coefficient", 1.0), f"{field}.coefficient")
                import numpy as np
                return SurvivalProfile(self.scale,
                                       fn=lambda t: np.maximum(1.0 - k * np.square(t), 0.0))
        except DomainError as e:
            raise ScenarioError(f"{field}: {e}") from None
        raise ScenarioError(f"{field}: expected 'knots' or a known 'form'")

    def _build_map(self, name: str, doc):
        field = f"maps.{name}"
        if not isinstance(doc, dict) or "name" not in doc:
            raise ScenarioError(f"{field}: expected an object with 'name'")
        if doc["name"] in PHI_FACTORIES:
            params = {k: _num(v, f"{field}.{k}") for k, v in doc.items() if k != "name"}
            try:
                self.phis[name] = PHI_FACTORIES[doc["name"]](**params)
            except (TypeError, DomainError) as e:
                raise ScenarioError(f"{field}: {e}") from None
        elif doc["name"] in DUALITY_FACTORIES:
            self.duals[name] = DUALITY_FACTORIES[doc["name"]]()
        else:
            raise ScenarioError(f"{field}.name: unknown map {doc['name']!r}")

    # -- lookups -----------------------------------------------------------

    def measure(self, ref, field: str) -> MonotoneMeasure:
        if ref not in self.measures:
            raise ScenarioError(f"{field}: undefined measure {ref!r}")
        return self.measures[ref]

    def vector(self, ref, field: str) -> list[float]:
        if ref not in self.functions:
            raise ScenarioError(f"{field}: undefined function {ref!r}")
        return self.functions[ref]

    def fn(self, ref, field: str, scale: ValueScale | None = None) -> Fn:
        vec = self.vector(ref, field)
        try:
            return Fn(vec, scale or self.scale)
        except DomainError as e:
            raise ScenarioError(f"{field}: {e}") from None

    def operator(self, ref, field: str) -> BinaryOp:
        if ref not in self.operators:
            raise ScenarioError(f"{field}: undefined operator {ref!r}")
        return self.operators[ref]

    def phi(self, ref, field: str) -> PhiMap:
        if ref not in self.phis:
            raise ScenarioError(f"{field}: undefined increasing map {ref!r}")
        return self.phis[ref]

    def dual(self, ref, field: str) -> DualityMap:
        if ref not in self.duals:
            raise ScenarioError(f"{field}: undefined duality map {ref!r}")
        return self.duals[ref]

    def profile(self, ref, field: str) -> SurvivalProfile:
        if ref not in self.profiles:
            raise ScenarioError(f"{field}: undefined profile {ref!r}")
        return self.profiles[ref]


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------

def _outcome_token(result) -> str:
    if isinstance(result, (CheckResult, RelationVerdict)):
        if isinstance(result, CheckResult) and result.status != "checked":
            return result.status
        return "holds" if result.holds else "fails"
    raise TypeError(f"no outcome token for {result!r}")


def _expectation(task: dict) -> str:
    exp = task.get("expect", "holds")
    aliases = {"violated": "fails", "pass": "holds", "fail": "fails"}
    exp = aliases.get(exp, exp)
    if exp not in ("holds", "fails", "condition-failed", "premise-failed",
                   "hypothesis-failed"):
        raise ScenarioError(f"expect: unknown expectation {exp!r}")
    return exp


def _mh_bundle(sc: Scenario, task: dict, prefix: str) -> MHOperators:
    star = sc.operator(task.get("star"), f"{prefix}.star")
    combiner = sc.operator(task.get("combiner", task.get("star")), f"{prefix}.combiner")
    circ_refs = task.get("circs") or [task.get("circ")] * 3
    if not isinstance(circ_refs, list) or len(circ_refs) != 3:
        raise ScenarioError(f"{prefix}.circs: expected three operator names")
    circs = tuple(sc.operator(r, f"{prefix}.circs") for r in circ_refs)
    phi_refs = task.get("phis")
    if phi_refs is None:
        phis = (PHI_FACTORIES["identity"](),) * 3
    else:
        if not isinstance(phi_refs, list) or len(phi_refs) != 3:
            raise ScenarioError(f"{prefix}.phis: expected three map names")
        phis = tuple(sc.phi(r, f"{prefix}.phis") for r in phi_refs)
    return MHOperators(star, combiner, circs, phis)


def run_task(sc: Scenario, task: dict, default_seed: int = 0,
             default_tolerance: float | None = None) -> dict:
    """Execute a single task; returns a JSON-safe record with a verdict."""
    kind = task["task"]
    seed = int(task.get("seed", default_seed))
    tol = task.get("tolerance", default_tolerance)
    record: dict[str, Any] = {"task": kind}

    def finish(result, extra: dict | None = None) -> dict:
        outcome = _outcome_token(result)
        expected = _expectation(task)
        record["outcome"] = outcome
        record["expected"] = expected
        record["verdict"] = "pass" if outcome == expected else "fail"
        if isinstance(result, (CheckResult, RelationVerdict)):
            record["result"] = result.to_dict()
        if extra:
            record.update(_jsonify(extra))
        return record

    try:
        if kind == "counterexample":
            rep = reproduce_counterexample(float(task.get("resolution", 1e-4)))
            ok = (rep.violated and rep.premise.holds and not rep.power_condition.holds)
            grid_ok = (abs(rep.lhs_grid.value - rep.lhs) <= 1e-3
                       and abs(rep.rhs_each_grid.value - rep.rhs_each) <= 1e-3)
            res = CheckResult(ok and grid_ok, margin=rep.lhs - rep.rhs_sum) \
                if ok and grid_ok else \
                CheckResult(False, 0.0, {"report": rep.to_dict()})
            return finish(res, {"report": rep.to_dict()})

        if kind == "integral":
            spec = IntegralSpec(task.get("kind", "sugeno"),
                                sc.operator(task["operator"], "integral.operator")
                                if "operator" in task else None,
                                task.get("domain"))
            f = sc.fn(task.get("function"), "integral.function")
            mu = sc.measure(task.get("measure"), "integral.measure")
            value = integral_eval(spec, f, mu)
            record["value"] = value
            if "expect_value" in task:
                want = _num(task["expect_value"], "integral.expect_value")
                eps = float(tol if tol is not None else 1e-12)
                res = CheckResult(abs(value - want) <= eps, margin=abs(value - want)) \
                    if abs(value - want) <= eps else \
                    CheckResult(False, abs(value - want),
                                {"value": value, "expected": want})
                return finish(res)
            return finish(CheckResult(True, margin=0.0))

        if kind == "profile_integral":
            prof = sc.profile(task.get("profile"), "profile_integral.profile")
            op = sc.operator(task.get("operator"), "profile_integral.operator")
            res_p = profile_integral(prof, op, float(task.get("resolution", 1e-4)))
            record["value"] = res_p.value
            record["error_bound"] = res_p.error_bound
            if "expect_value" in task:
                want = _num(task["expect_value"], "profile_integral.expect_value")
                eps = float(tol if tol is not None else 1e-3)
                gap = abs(res_p.value - want)
                res = CheckResult(gap <= eps, margin=gap) if gap <= eps else \
                    CheckResult(False, gap, {"value": res_p.value, "expected": want})
                return finish(res)
            return finish(CheckResult(True, margin=res_p.error_bound))

        if kind == "oracle":
            f = sc.fn(task.get("function"), "oracle.function")
            mu = sc.measure(task.get("measure"), "oracle.measure")
            op = sc.operator(task.get("operator"), "oracle.operator")
            direct = integral_eval(IntegralSpec("upper_generalized", op,
                                                task.get("domain")), f, mu)
            oracle = upper_integral_subset_oracle(f, mu, op, task.get("domain"))
            gap = abs(direct - oracle)
            eps = float(tol if tol is not None else 1e-12)
            res = CheckResult(gap <= eps, margin=gap) if gap <= eps else \
                CheckResult(False, gap, {"direct": direct, "oracle": oracle})
            return finish(res, {"direct": direct, "oracle": oracle})

        if kind == "check_measure":
            mu = sc.measure(task.get("measure"), "check_measure.measure")
            prop = task.get("property")
            if prop not in MEASURE_PROPERTIES:
                raise ScenarioError(f"check_measure.property: unknown {prop!r}")
            return finish(check_measure_property(mu, prop))

        if kind == "check_relation":
            rel = task.get("relation")
            f = sc.fn(task.get("f"), "check_relation.f")
            g = sc.fn(task.get("g"), "check_relation.g")
            if rel == "comonotone":
                return finish(is_comonotone(f, g, task.get("domain")))
            if rel == "star_associated":
                star = sc.operator(task.get("star"), "check_relation.star")
                return finish(is_star_associated(f, g, star, task.get("domain")))
            if rel == "mu_subadditive":
                boxplus = sc.operator(task.get("boxplus"), "check_relation.boxplus")
                mu = sc.measure(task.get("measure"), "check_relation.measure")
                return finish(is_mu_subadditive(f, g, boxplus, mu, task.get("domain")))
            if rel == "pqd":
                mu = sc.measure(task.get("measure"), "check_relation.measure")
                return finish(is_pqd(f, g, mu))
            raise ScenarioError(f"check_relation.relation: unknown {rel!r}")

        if kind == "check_condition":
            cond = task.get("condition")
            if cond not in CONDITIONS:
                raise ScenarioError(f"check_condition.condition: unknown {cond!r}")
            kwargs: dict[str, Any] = {}
            for key in ("p1", "p2", "p3", "q", "r"):
                if key in task:
                    kwargs[key] = _num(task[key], f"check_condition.{key}")
            name_map = {"operator": "op", "semicopula": "semicopula", "star": "star",
                        "combiner": "combiner", "boxplus": "boxplus", "op_h": "op_h"}
            for field, arg in name_map.items():
                if field in task:
                    kwargs[arg] = sc.operator(task[field], f"check_condition.{field}")
            if "circs" in task:
                kwargs["circs"] = tuple(sc.operator(r, "check_condition.circs")
                                        for r in task["circs"])
            if "phis" in task:
                kwargs["phis"] = tuple(sc.phi(r, "check_condition.phis")
                                       for r in task["phis"])
            if "c_values" in task:
                kwargs["c_values"] = _vector(task["c_values"], "check_condition.c_values")
            if cond not in ("mh_product_power", "counterexample_premise",
                            "semicopula_sum_split"):
                kwargs.setdefault("scale", sc.scale)
            return finish(check_condition(cond, **kwargs))

        if kind == "check_identity":
            ident = task.get("identity")
            f = sc.fn(task.get("function"), "check_identity.function")
            mu = sc.measure(task.get("measure"), "check_identity.measure")
            if ident == "sugeno_identity":
                return finish(check_sugeno_identity(f, mu, task.get("domain")))
            if ident == "h_duality":
                op = sc.operator(task.get("operator"), "check_identity.operator")
                h = sc.dual(task.get("map"), "check_identity.map")
                return finish(check_h_duality(f, mu, op, h))
            raise ScenarioError(f"check_identity.identity: unknown {ident!r}")

        if kind == "verify":
            return finish(_run_verify(sc, task, seed))

        if kind == "metric_axioms":
            spec = _metric_spec(sc, task)
            mu = sc.measure(task.get("measure"), "metric_axioms.measure")
            return finish(check_metric_axioms(spec, mu,
                                              trials=int(task.get("trials", 200)),
                                              seed=seed))

        if kind == "triangle_search":
            mu = sc.measure(task.get("measure"), "triangle_search.measure")
            kinds = task.get("kinds", list(METRIC_KINDS))
            return finish(find_triangle_violation(mu, kinds=kinds))

        if kind == "metric":
            spec = _metric_spec(sc, task)
            mu = sc.measure(task.get("measure"), "metric.measure")
            f = sc.vector(task.get("f"), "metric.f")
            g = sc.vector(task.get("g"), "metric.g")
            value = metric_eval(spec, f, g, mu)
            record["value"] = value
            if "expect_value" in task:
                want = _num(task["expect_value"], "metric.expect_value")
                eps = float(tol if tol is not None else 1e-12)
                ok = abs(value - want) <= eps
                res = CheckResult(ok, margin=abs(value - want)) if ok else \
                    CheckResult(False, abs(value - want), {"value": value, "expected": want})
                return finish(res)
            return finish(CheckResult(True, margin=0.0))

        if kind == "fuzz":
            campaign = task.get("campaign")
            if campaign not in CAMPAIGNS:
                raise ScenarioError(f"fuzz.campaign: unknown {campaign!r}")
            rep = run_campaign(campaign, int(task.get("trials", 100)), seed)
            res = CheckResult(rep["failed"] == 0, margin=float(rep["failed"])) \
                if rep["failed"] == 0 else \
                CheckResult(False, float(rep["failed"]), {"failures": rep["failures"]})
            return finish(res, {"campaign": rep})

        raise ScenarioError(f"task: unknown task kind {kind!r}")
    except HypothesisError as e:
        record["outcome"] = "hypothesis-failed"
        record["expected"] = _expectation(task)
        record["verdict"] = "pass" if record["expected"] == "hypothesis-failed" else "fail"
        record["error"] = str(e)
        if e.detail is not None:
            record["error_detail"] = _jsonify(e.detail)
        return record


def _metric_spec(sc: Scenario, task: dict) -> MetricSpec:
    kind = task.get("kind", "kyfan")
    if kind == "d_op_p":
        op = sc.operator(task.get("operator"), "metric.operator")
        return MetricSpec(kind, op, _num(task.get("p", 1), "metric.p"))
    return MetricSpec(kind)


def _run_verify(sc: Scenario, task: dict, seed: int):
    theorem = task.get("theorem")
    if theorem == "upper_mh":
        ops = _mh_bundle(sc, task, "verify")
        return verify_upper_mh(ops, sc.measure(task.get("measure"), "verify.measure"),
                               sc.fn(task.get("f"), "verify.f"),
                               sc.fn(task.get("g"), "verify.g"),
                               task.get("domain"),
                               task.get("direction", "sufficiency"), seed=seed)
    if theorem == "seminorm_minkowski":
        return verify_seminorm_minkowski(
            sc.operator(task.get("semicopula"), "verify.semicopula"),
            sc.operator(task.get("star"), "verify.star"),
            _num(task.get("p", 1), "verify.p"),
            sc.measure(task.get("measure"), "verify.measure"),
            sc.fn(task.get("f"), "verify.f"), sc.fn(task.get("g"), "verify.g"),
            task.get("domain"), task.get("normalization", "total_one"))
    if theorem == "comonotone_subadditive":
        return verify_comonotone_subadditive(
            sc.operator(task.get("operator"), "verify.operator"),
            sc.measure(task.get("measure"), "verify.measure"),
            sc.fn(task.get("f"), "verify.f"), sc.fn(task.get("g"), "verify.g"),
            task.get("domain"))
    if theorem == "subadditive_minkowski":
        return verify_subadditive_minkowski(
            sc.operator(task.get("operator"), "verify.operator"),
            _num(task.get("q", 1), "verify.q"), _num(task.get("r", 1), "verify.r"),
            _num(task.get("p", 1), "verify.p"),
            sc.measure(task.get("measure"), "verify.measure"),
            sc.vector(task.get("f"), "verify.f"), sc.vector(task.get("g"), "verify.g"))
    if theorem == "shilkret_maxitive":
        return verify_shilkret_maxitive(
            sc.measure(task.get("measure"), "verify.measure"),
            trials=int(task.get("trials", 8)), seed=seed)
    if theorem == "sugeno_subadditive":
        return verify_sugeno_subadditive(
            sc.measure(task.get("measure"), "verify.measure"),
            trials=int(task.get("trials", 8)), seed=seed)
    if theorem == "sugeno_subadditive_boundary":
        return verify_sugeno_subadditive_boundary()
    if theorem == "lower_mh":
        ops = _mh_bundle(sc, task, "verify")
        return verify_lower_mh(ops, sc.operator(task.get("boxplus"), "verify.boxplus"),
                               sc.measure(task.get("measure"), "verify.measure"),
                               sc.fn(task.get("f"), "verify.f"),
                               sc.fn(task.get("g"), "verify.g"), task.get("domain"))
    if theorem in ("dual_minkowski_single", "dual_minkowski_pair"):
        kind = "single" if theorem.endswith("single") else "pair"
        boxplus = sc.operator(task["boxplus"], "verify.boxplus") \
            if "boxplus" in task else None
        return verify_dual_minkowski(
            kind, sc.operator(task.get("star"), "verify.star"),
            sc.operator(task.get("operator"), "verify.operator"),
            sc.dual(task.get("map"), "verify.map"),
            sc.measure(task.get("measure"), "verify.measure"),
            sc.fn(task.get("f"), "verify.f"), sc.fn(task.get("g"), "verify.g"),
            boxplus=boxplus)
    if theorem == "mean_convergence":
        spec = _metric_spec(sc, task)
        seq = [sc.fn(rf, "verify.sequence", NONNEG) for rf in task.get("sequence", [])]
        return verify_mean_convergence(spec,
                                       sc.measure(task.get("measure"), "verify.measure"),
                                       seq, sc.fn(task.get("limit"), "verify.limit", NONNEG))
    if theorem == "cauchy_probe":
        spec = _metric_spec(sc, task)
        return cauchy_probe(spec, sc.measure(task.get("measure"), "verify.measure"),
                            seed=seed, levels=int(task.get("levels", 8)))
    if theorem == "convergence_lemmas":
        seq = [sc.fn(rf, "verify.sequence", NONNEG) for rf in task.get("sequence", [])]
        return check_convergence_lemmas(
            sc.operator(task.get("operator"), "verify.operator"),
            sc.measure(task.get("measure"), "verify.measure"),
            seq, sc.fn(task.get("limit"), "verify.limit", NONNEG),
            task.get("kind", "monotone"))
    if theorem == "shilkret_norm":
        return check_shilkret_norm(sc.measure(task.get("measure"), "verify.measure"),
                                   trials=int(task.get("trials", 50)), seed=seed)
    raise ScenarioError(f"verify.theorem: unknown theorem {theorem!r}")


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

def _builtin_counterexample() -> dict:
    return {
        "version": 1,
        "space": {"n": 1},
        "operators": {"SL": {"name": "lukasiewicz"}},
        "profiles": {
            "combined": {"form": "truncated_quadratic", "coefficient": 1},
            "factor": {"form": "truncated_quadratic", "coefficient": 4},
        },
        "tasks": [
            {"task": "counterexample", "expect": "holds"},
            {"task": "profile_integral", "profile": "combined", "operator": "SL",
             "expect_value": 0.25, "tolerance": 1e-3},
            {"task": "profile_integral", "profile": "factor", "operator": "SL",
             "expect_value": 0.0625, "tolerance": 1e-3},
        ],
    }


def _builtin_two_point() -> dict:
    return {
        "version": 1,
        "space": {"n": 2},
        "measures": {"mu": {"kind": "explicit", "table": [0, 0.3, 0.6, 0.8]}},
        "functions": {"f": [0.5, 0.2]},
        "operators": {"min": {"name": "min"}, "product": {"name": "product"}},
        "tasks": [
            {"task": "integral", "kind": "sugeno", "function": "f", "measure": "mu",
             "expect_value": 0.3},
            {"task": "integral", "kind": "shilkret", "function": "f", "measure": "mu",
             "expect_value": 0.16, "tolerance": 1e-9},
            {"task": "oracle", "function": "f", "measure": "mu", "operator": "min"},
            {"task": "check_identity", "identity": "sugeno_identity",
             "function": "f", "measure": "mu"},
        ],
    }


def _builtin_lower_bounded_sum() -> dict:
    # dependent pair under an additive (hence submodular) measure, with the
    # probabilistic-sum level combiner and the bounded sum on values
    return {
        "version": 1,
        "space": {"n": 4},
        "measures": {"mu": {"kind": "explicit",
                            "table": [0, 0.125, 0.25, 0.375, 0.25, 0.375, 0.5, 0.625,
                                      0.375, 0.5, 0.625, 0.75, 0.625, 0.75, 0.875, 1.0]}},
        "functions": {"f": [0.125, 0.25, 0.5, 0.75], "g": [0.0, 0.25, 0.25, 0.625]},
        "operators": {"bsum": {"name": "bounded_sum"}, "max": {"name": "max"},
                      "psum": {"name": "prob_sum"}},
        "tasks": [
            {"task": "check_relation", "relation": "pqd", "f": "f", "g": "g",
             "measure": "mu", "expect": "holds"},
            {"task": "check_relation", "relation": "mu_subadditive", "f": "f", "g": "g",
             "boxplus": "psum", "measure": "mu", "expect": "holds"},
            {"task": "verify", "theorem": "lower_mh", "star": "bsum", "combiner": "bsum",
             "circs": ["max", "max", "max"], "boxplus": "psum",
             "measure": "mu", "f": "f", "g": "g", "expect": "holds"},
        ],
    }


def _builtin_lower_sum_subadditive() -> dict:
    return {
        "version": 1,
        "space": {"n": 3},
        "scale": {"upper": "inf", "closed": True},
        "measures": {"mu": {"kind": "possibility", "density": [0.5, 0.75, 1.0]}},
        "functions": {"f": [2.0, 0.5, 1.25], "g": [0.25, 3.0, 0.0]},
        "operators": {"sum": {"name": "sum"}, "max": {"name": "max"}},
        "tasks": [
            {"task": "verify", "theorem": "lower_mh", "star": "sum", "combiner": "sum",
             "circs": ["max", "max", "max"], "boxplus": "sum",
             "measure": "mu", "f": "f", "g": "g", "expect": "holds"},
        ],
    }


def _builtin_harmonic_duality() -> dict:
    return {
        "version": 1,
        "space": {"n": 3},
        "scale": {"upper": "inf", "closed": True},
        "measures": {"mu": {"kind": "explicit",
                            "table": [0, 0.5, 1.0, 1.25, 2.0, 2.25, 2.5, 3.0]}},
        "functions": {"f": [0.5, 1.0, 2.0], "g": [0.25, 1.5, 3.0]},
        "operators": {"sum": {"name": "sum"}},
        "maps": {"h": {"name": "reciprocal"}},
        "tasks": [
            {"task": "check_relation", "relation": "comonotone", "f": "f", "g": "g",
             "expect": "holds"},
            {"task": "verify", "theorem": "dual_minkowski_single", "star": "sum",
             "operator": "sum", "map": "h", "measure": "mu", "f": "f", "g": "g",
             "expect": "holds"},
        ],
    }


def _builtin_reciprocal_integral() -> dict:
    # the working measure is the reciprocal conjugate of a subadditive
    # measure that is infinite on every set containing the first point
    return {
        "version": 1,
        "space": {"n": 2},
        "scale": {"upper": "inf", "closed": True},
        "measures": {"mu": {"kind": "explicit", "table": [0, 0, 2.0, "inf"]},
                     "mu_h": {"kind": "explicit", "table": [0, 0.5, "inf", "inf"]}},
        "functions": {"f": [2.0, 0.5], "g": [1.0, 0.0]},
        "operators": {"sum": {"name": "sum"}, "min": {"name": "min"}},
        "maps": {"h": {"name": "reciprocal"}},
        "tasks": [
            {"task": "verify", "theorem": "dual_minkowski_pair", "star": "sum",
             "operator": "min", "map": "h", "boxplus": "sum",
             "measure": "mu", "f": "f", "g": "g", "expect": "holds"},
        ],
    }


def _builtin_verifier_tour() -> dict:
    """One task per addressable verifier, exercising the whole task grammar."""
    return {
        "version": 1,
        "space": {"n": 3},
        "measures": {
            "pos": {"kind": "possibility", "density": [0.25, 0.5, 1.0]},
            "nullpos": {"kind": "possibility", "density": [0, 0.5, 1.0]},
            "dist": {"kind": "distortion", "exponent": 0.5,
                     "probs": [0.25, 0.25, 0.5]},
        },
        "functions": {
            "f": [0.25, 0.5, 0.75], "g": [0.125, 0.25, 0.5],
            "gsmall": [0.125, 0.25, 0.25],
            "fs": [-0.5, 0.25, 1.0], "gs": [0.25, -0.125, 0.5],
            "fm": [0.7, 0.0, 0.0], "gm": [0.2, 0.0, 0.0],
            "lim": [0.4, 0.5, 0.25],
            "s1": [0.65, 0.75, 0.5], "s2": [0.4625, 0.5625, 0.3125],
            "s3": [0.415625, 0.515625, 0.265625],
            "q1": [0.2, 0.25, 0.125], "q2": [0.3, 0.375, 0.1875],
            "q3": [7.0, 0.5, 0.25],
            "limq": [0.4, 0.5, 0.25],
        },
        "operators": {
            "min": {"name": "min"}, "max": {"name": "max"},
            "product": {"name": "product"},
            "pmin": {"name": "power_min", "p": 1, "u": 1},
        },
        "tasks": [
            {"task": "verify", "theorem": "upper_mh", "star": "max",
             "combiner": "max", "circs": ["product", "product", "product"],
             "measure": "pos", "f": "f", "g": "g", "direction": "both"},
            {"task": "verify", "theorem": "seminorm_minkowski", "semicopula": "min",
             "star": "max", "p": 1, "measure": "pos", "f": "f", "g": "g"},
            {"task": "verify", "theorem": "comonotone_subadditive",
             "operator": "min", "measure": "pos", "f": "f", "g": "gsmall"},
            {"task": "verify", "theorem": "subadditive_minkowski", "operator": "min",
             "q": 1, "r": 1, "p": 1, "measure": "dist", "f": "fs", "g": "gs"},
            {"task": "verify", "theorem": "shilkret_maxitive", "measure": "pos",
             "trials": 4},
            {"task": "verify", "theorem": "sugeno_subadditive", "measure": "dist",
             "trials": 4},
            {"task": "verify", "theorem": "shilkret_norm", "measure": "pos",
             "trials": 20},
            {"task": "metric", "kind": "kyfan", "measure": "pos",
             "f": "fm", "g": "gm", "expect_value": 0.25},
            {"task": "verify", "theorem": "mean_convergence", "kind": "d_op_p",
             "operator": "pmin", "p": 1, "measure": "dist",
             "sequence": ["s1", "s2", "s3"], "limit": "lim"},
            {"task": "verify", "theorem": "cauchy_probe", "kind": "d_op_p",
             "operator": "pmin", "p": 1, "measure": "dist", "levels": 6},
            {"task": "verify", "theorem": "convergence_lemmas", "operator": "min",
             "measure": "nullpos", "sequence": ["q1", "q2", "q3"], "limit": "limq",
             "kind": "monotone"},
            {"task": "check_condition", "condition": "mh_product_power",
             "p1": 1, "p2": 2, "p3": 2, "expect": "holds"},
            {"task": "triangle_search", "measure": "pos",
             "expect": "premise-failed"},
            {"task": "fuzz", "campaign": "measure_properties", "trials": 20,
             "seed": 11},
        ],
    }


def _builtin_boundary() -> dict:
    return {
        "version": 1,
        "space": {"n": 2},
        "tasks": [{"task": "verify", "theorem": "sugeno_subadditive_boundary",
                   "expect": "holds"}],
    }


def _builtin_smoke(campaign: str, trials: int = 25) -> dict:
    return {
        "version": 1,
        "space": {"n": 2},
        "tasks": [{"task": "fuzz", "campaign": campaign, "trials": trials, "seed": 7}],
    }


BUILTIN_SCENARIOS: dict[str, Any] = {
    "counterexample": _builtin_counterexample,
    "two_point_integrals": _builtin_two_point,
    "lower_bounded_sum": _builtin_lower_bounded_sum,
    "lower_sum_subadditive": _builtin_lower_sum_subadditive,
    "harmonic_duality": _builtin_harmonic_duality,
    "reciprocal_integral": _builtin_reciprocal_integral,
    "infinite_total_boundary": _builtin_boundary,
    "verifier_tour": _builtin_verifier_tour,
}
for _cid in ("oracle_agreement", "sugeno_identity", "upper_mh", "shilkret_maxitive",
             "sugeno_subadditive", "metric_axioms", "lower_mh", "dual_minkowski"):
    BUILTIN_SCENARIOS[f"smoke_{_cid}"] = (lambda c: (lambda: _builtin_smoke(c)))(_cid)


def builtin_scenario(name: str) -> dict:
    try:
        return BUILTIN_SCENARIOS[name]()
    except KeyError:
        raise ScenarioError(f"unknown built-in scenario {name!r}; known: "
                            f"{sorted(BUILTIN_SCENARIOS)}") from None
