"""Scenario documents: a versioned, validated description of measures,
functions, operators, maps, and a task list, plus the built-in scenarios.

A scenario is a JSON object (the token ``"inf"`` is accepted wherever a
number is expected, ``NaN`` nowhere):

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

``TASKS`` declares each task's fields (a resolver, and a default unless
required) and its library call, which most tasks make by passing their fields
by parameter name (``_calls``); ``SPACE``, ``SCALE``, ``MEASURE_KINDS`` and
``PROFILE_FORMS`` declare the other objects alike, and ``_TOP_LEVEL`` the
document's own keys.  Parsing resolves everything through them, so an
undeclared, missing or malformed field raises ``ScenarioError`` naming it
(``tasks[2].p``, ``measures.mu.density``, ``scale.closed``, ``spce``) before
any task runs: exit code 2.

Each task carries an optional ``expect`` field (default ``"holds"``); the
task passes when the mathematical outcome matches the expectation, so a
scenario that documents a counterexample passes by reproducing the
violation.
"""

from __future__ import annotations

import inspect
import math
import sys
from dataclasses import replace
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np

from .campaigns import CAMPAIGNS, run_campaign
from .conditions import CONDITIONS, check_condition
from .core import FiniteSpace, Fn, INF, NONNEG, SurvivalProfile, ValueScale, _TOL, _rel_gap
from .integrals import (
    check_h_duality,
    check_sugeno_identity,
    lower_integral,
    profile_integral,
    seminormed_integral,
    shilkret_integral,
    sugeno_integral,
    upper_integral,
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
from .operators import DUALITY_FACTORIES, OPERATOR_FACTORIES, PHI_FACTORIES, DualityMap, PhiMap
from .relations import is_comonotone, is_mu_subadditive, is_pqd, is_star_associated
from .results import CheckResult, DomainError, HypothesisError, _jsonify
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


# ---------------------------------------------------------------------------
# field resolvers: (scenario, JSON value, field path) -> library value
# ---------------------------------------------------------------------------

def _number(sc, value, where: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:           # an int; a float literal such as 1e400 reads as inf
            raise ScenarioError(f"{where}: integer of {len(str(abs(value)))} digits "
                                f"is too large for a float") from None
        if not math.isnan(number):
            return number
    if value == "inf":
        return INF
    raise ScenarioError(f"{where}: expected a number or \"inf\", got {value!r}")


def _nonnegative(sc, value, where: str) -> float:
    number = _number(sc, value, where)
    if number < 0:
        raise ScenarioError(f"{where}: expected a nonnegative number, got {value!r}")
    return number


def _int(sc, value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    return value


def _count(sc, value, where: str) -> int:
    """A number of draws or levels: a task over none would check nothing."""
    if _int(sc, value, where) < 1:
        raise ScenarioError(f"{where}: expected an integer >= 1, got {value!r}")
    return value


def _bool(sc, value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}: expected true or false, got {value!r}")
    return value


def _domain(sc, value, where: str) -> int:
    full = (1 << sc.space.n) - 1
    if not 0 <= _int(sc, value, where) <= full:
        raise ScenarioError(f"{where}: expected a bitmask of points in [0, {full}], "
                            f"got {value!r}")
    return value


def _enum(choices):
    def resolve(sc, value, where: str) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ScenarioError(f"{where}: expected one of {sorted(choices)}, got {value!r}")
        return value
    return resolve


def _listof(item, length: int | None = None):
    """A nonempty list resolved item by item; a fixed ``length`` gives a tuple.
    Item paths are formed only to name a failing item."""
    def resolve(sc, value, where: str):
        if not isinstance(value, list) or not value or length not in (None, len(value)):
            raise ScenarioError(f"{where}: expected a list of {length or 'one or more'} "
                                f"items, got {value!r}")
        try:
            items = [item(sc, v, where) for v in value]
        except ScenarioError:   # resolved again below, with paths: the failing item raises
            items = None
        if items is None:
            items = [item(sc, v, f"{where}[{i}]") for i, v in enumerate(value)]
        return items if length is None else tuple(items)
    return resolve


def _ref(table: str, what: str):
    """The one lookup: a name bound in one of the scenario's tables."""
    def resolve(sc, ref, where: str):
        try:
            return getattr(sc, table)[ref]
        except (KeyError, TypeError):
            raise ScenarioError(f"{where}: undefined {what} {ref!r}") from None
    return resolve


_MEASURE = _ref("measures", "measure")
_VECTOR = _ref("functions", "function")
_OP = _ref("operators", "operator")
_PHI = _ref("phis", "increasing map")
_DUAL = _ref("duals", "duality map")
_PROFILE = _ref("profiles", "profile")
_OPS3 = _listof(_OP, 3)
_PHIS3 = _listof(_PHI, 3)
_NUMBER_ITEMS = _listof(_number)


def _numbers(sc, value, where: str) -> list[float]:
    """A nonempty list of numbers.  A list of plain ints and floats, none
    NaN or too large for a float, is read with no Python call per item; any
    other goes item by item, which reads "inf" and names a failing item."""
    if type(value) is list and value and set(map(type, value)) <= {int, float}:
        try:
            floats = list(map(float, value))
        except OverflowError:           # an int too large: the item route names it
            pass
        else:
            if not any(map(math.isnan, floats)):
                return floats
    return _NUMBER_ITEMS(sc, value, where)


def _fn(scale: ValueScale | None = None):
    def resolve(sc, ref, where: str) -> Fn:
        try:
            return Fn(_VECTOR(sc, ref, where), scale or sc.scale)
        except DomainError as e:
            raise ScenarioError(f"{where}: {e}") from None
    return resolve


_FN = _fn()
_FN_NONNEG = _fn(NONNEG)
_MAP_FACTORIES = {**PHI_FACTORIES, **DUALITY_FACTORIES}


# ---------------------------------------------------------------------------
# declared bindings
# ---------------------------------------------------------------------------

_REQUIRED = object()


class Field(NamedTuple):
    """An optional field; a bare resolver in a table declares a required one."""

    resolve: Callable[[Any, Any, str], Any]
    default: Any = None

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


class Spec(NamedTuple):
    """A declared binding: its fields, an optional ``bind(args, where)`` that
    joins several resolved fields at parse time, and ``call(sc, args)``."""

    fields: dict[str, Field]
    call: Callable
    bind: Callable | None = None


def _spec(call, bind=None, **fields) -> Spec:
    return Spec({k: f if isinstance(f, Field) else Field(f, _REQUIRED)
                 for k, f in fields.items()}, call, bind)


def _resolve(sc, doc: dict, spec: Spec, where: str, skip=()) -> SimpleNamespace:
    """The fields of ``doc`` resolved by ``spec``; ``where`` ("" at the top
    level) prefixes the field names in errors."""
    def path(key):
        return f"{where}.{key}" if where else key

    for key in doc:
        if key not in spec.fields and key not in skip:
            raise ScenarioError(f"{path(key)}: undeclared field; declared: "
                                f"{', '.join(spec.fields) or 'none'}")
    args = SimpleNamespace()
    for key, field in spec.fields.items():
        if key in doc:
            value = field.resolve(sc, doc[key], path(key))
        elif field.required:
            raise ScenarioError(f"{path(key)}: required field is missing")
        else:
            value = field.default
        setattr(args, key, value)
    if spec.bind is not None:
        try:
            spec.bind(args, where)
        except DomainError as e:
            raise ScenarioError(f"{where}: {e}") from None
    return args


def _raw(sc, value, where: str):
    return value


# the document's keys, passed on as written: Scenario.__init__ validates each
_TOP_LEVEL = _spec(None, version=Field(_raw), space=Field(_raw, {"n": 1}),
                   scale=Field(_raw, {}), measures=Field(_raw), functions=Field(_raw),
                   operators=Field(_raw), maps=Field(_raw), profiles=Field(_raw),
                   tasks=Field(_raw))
SPACE = _spec(lambda sc, a: FiniteSpace(a.n), n=_int)
SCALE = _spec(lambda sc, a: ValueScale(a.upper, a.closed),
              upper=Field(_number, 1.0), closed=Field(_bool, True))

MEASURE_KINDS = {
    "explicit": _spec(lambda sc, a: MonotoneMeasure.explicit(sc.space, a.table,
                                                             rounding=True),
                      table=_numbers),
    "possibility": _spec(lambda sc, a: MonotoneMeasure.possibility(sc.space, a.density),
                         density=_numbers),
    "distortion": _spec(lambda sc, a: MonotoneMeasure.distortion(
                            sc.space, a.probs, lambda x: x ** a.exponent,
                            name=f"power({a.exponent})"),
                        exponent=Field(_nonnegative, 0.5), probs=_numbers),
    "lambda_sugeno": _spec(lambda sc, a: MonotoneMeasure.lambda_sugeno(
                               sc.space, getattr(a, "lambda"), a.density),
                           **{"lambda": _number}, density=_numbers),
}

# survival profiles: tabulated knots (the form when "form" is absent), or the
# truncated-quadratic closed form (1 - k t^2)_+ referenced by its coefficient
PROFILE_FORMS = {
    "knots": _spec(lambda sc, a: SurvivalProfile(sc.scale, knots=a.knots),
                   knots=_listof(_listof(_number, 2))),
    "truncated_quadratic": _spec(lambda sc, a: SurvivalProfile(
                                     sc.scale, fn=lambda t: np.maximum(
                                         1.0 - a.coefficient * np.square(t), 0.0)),
                                 coefficient=Field(_number, 1.0)),
}


class Scenario:
    """Parsed and validated scenario with named bindings and resolved tasks."""

    def __init__(self, doc: dict, name: str = "<inline>"):
        if not isinstance(doc, dict):
            raise ScenarioError("scenario: expected a JSON object")
        self.name = name
        top = _resolve(self, doc, _TOP_LEVEL, "")
        if top.version != SCENARIO_VERSION:
            raise ScenarioError(f"version: expected {SCENARIO_VERSION}, got {top.version!r}")

        self.space = self._bind("space", top.space, SPACE)
        self.scale = self._bind("scale", top.scale, SCALE)
        self.measures = {name: self._build(f"measures.{name}", mdoc, MEASURE_KINDS, "kind")
                         for name, mdoc in (top.measures or {}).items()}
        self.functions: dict[str, list[float]] = {}
        for fname, fdoc in (top.functions or {}).items():
            self.functions[fname] = _numbers(self, fdoc, f"functions.{fname}")
            if len(self.functions[fname]) != self.space.n:
                raise ScenarioError(f"functions.{fname}: length must equal space.n")
        self.operators = {name: self._make(f"operators.{name}", odoc, OPERATOR_FACTORIES)
                          for name, odoc in (top.operators or {}).items()}
        self.phis: dict[str, PhiMap] = {}
        self.duals: dict[str, DualityMap] = {}
        for name, mdoc in (top.maps or {}).items():
            made = self._make(f"maps.{name}", mdoc, _MAP_FACTORIES)
            (self.duals if isinstance(made, DualityMap) else self.phis)[name] = made
        self.profiles = {name: self._build(f"profiles.{name}", pdoc, PROFILE_FORMS, "form",
                                           "knots")
                         for name, pdoc in (top.profiles or {}).items()}

        tasks = top.tasks
        if not isinstance(tasks, list) or not tasks:
            raise ScenarioError("tasks: expected a nonempty list")
        self.tasks = tasks
        self._resolved = {id(task): _resolve_task(self, task, f"tasks[{i}]")
                          for i, task in enumerate(tasks)}

    def _bind(self, field: str, doc, spec: Spec, skip=()):
        """The value of an object field whose keys ``spec`` declares."""
        if not isinstance(doc, dict):
            raise ScenarioError(f"{field}: expected an object, got {doc!r}")
        try:
            return spec.call(self, _resolve(self, doc, spec, field, skip))
        except DomainError as e:
            raise ScenarioError(f"{field}: {e}") from None

    def _build(self, field: str, doc, specs: dict, selector: str, default=None):
        """A measure or profile: ``doc[selector]`` picks its declared fields."""
        key = doc.get(selector, default) if isinstance(doc, dict) else None
        if not isinstance(key, str) or key not in specs:
            raise ScenarioError(f"{field}.{selector}: expected one of {sorted(specs)}, "
                                f"got {key!r}")
        return self._bind(field, doc, specs[key], (selector,))

    def _make(self, field: str, doc, factories: dict):
        """An operator or map: ``doc["name"]`` picks the factory, the other
        keys are its numeric parameters (the factory rejects unknown ones)."""
        name = doc.get("name") if isinstance(doc, dict) else None
        if not isinstance(name, str) or name not in factories:
            raise ScenarioError(f"{field}.name: expected one of {sorted(factories)}, "
                                f"got {name!r}")
        params = {k: _number(self, v, f"{field}.{k}") for k, v in doc.items() if k != "name"}
        try:
            return factories[name](**params)
        except (TypeError, DomainError) as e:
            raise ScenarioError(f"{field}: {e}") from None


# ---------------------------------------------------------------------------
# the task table
# ---------------------------------------------------------------------------

_EXPECT = Field(_enum(("holds", "fails", "condition-failed", "premise-failed",
                       "hypothesis-failed")), "holds")
_SEED = Field(_int)              # None: the run's seed
_TOLERANCE = Field(_number)      # None: the check's own epsilon, else the task's own
_DOMAIN = Field(_domain)
_VALUE = {"expect_value": Field(_number), "tolerance": _TOLERANCE}


def _task(call, bind=None, **fields) -> Spec:
    return _spec(call, bind, **fields, expect=_EXPECT)


def _within(value, want, a, eps: float, witness: dict) -> CheckResult:
    """``value`` within the task's tolerance (``eps`` when none) of ``want``,
    two infinities at gap 0 (``core._rel_gap``)."""
    eps = a.tolerance if a.tolerance is not None else eps
    gap = abs(_rel_gap(value, want))
    return CheckResult(True, margin=gap) if gap <= eps else CheckResult(False, gap, witness)


def _valued(value, a, eps: float, margin: float = 0.0, **extra):
    """A computed value, checked against ``expect_value`` when the task gives one."""
    res = CheckResult(True, margin=margin) if a.expect_value is None else \
        _within(value, a.expect_value, a, eps, {"value": value, "expected": a.expect_value})
    return res, {"value": value, **extra}


# the integral task's kinds, each one library function
_INTEGRALS = {"sugeno": sugeno_integral, "shilkret": shilkret_integral,
              "upper_generalized": upper_integral, "lower_generalized": lower_integral,
              "seminormed": seminormed_integral}


def _integral_operator(a, where: str) -> None:
    if (a.operator is None) != (a.kind in ("sugeno", "shilkret")):
        raise ScenarioError(f"{where}.operator: "
                            f"{'required' if a.operator is None else 'not read'} by the "
                            f"{a.kind!r} integral")


def _integral(sc, a):
    ops = () if a.operator is None else (a.operator,)
    return _valued(_INTEGRALS[a.kind](a.function, a.measure, *ops, domain=a.domain), a, _TOL)


def _metric_spec(a, where: str) -> None:
    if a.kind != "d_op_p":
        for key in ("operator", "p"):
            if getattr(a, key) is not None:
                raise ScenarioError(f"{where}.{key}: not read by the {a.kind!r} metric")
        a.spec = MetricSpec(a.kind)
    elif a.operator is None or (a.p is not None and not a.p > 0):
        raise ScenarioError(f"{where}.{'operator' if a.operator is None else 'p'}: the "
                            f"'d_op_p' metric needs an operator and a positive exponent")
    else:
        a.spec = MetricSpec("d_op_p", a.operator, 1.0 if a.p is None else a.p)


def _mh_bundle(a, where: str) -> None:
    a.ops = MHOperators(a.star, a.star if a.combiner is None else a.combiner, a.circs,
                        a.phis or (PHI_FACTORIES["identity"](),) * 3)


_METRIC = {"kind": Field(_enum(METRIC_KINDS), "kyfan"), "operator": Field(_OP),
           "p": Field(_number), "measure": _MEASURE}
_OP_METRIC = {**_METRIC, "kind": Field(_enum(("d_op_p",)), "d_op_p")}
_MH = {"star": _OP, "combiner": Field(_OP), "circs": _OPS3, "phis": Field(_PHIS3),
       "measure": _MEASURE, "f": _FN, "g": _FN, "domain": _DOMAIN}


# both rest on grid suprema (``profile_integral``) or grid conditions
def _counterexample(sc, a):
    rep = reproduce_counterexample(a.resolution)
    res = CheckResult(True, margin=rep.lhs - rep.rhs_sum) if rep.reproduced else \
        CheckResult(False, 0.0, {"report": rep.to_dict()})
    return replace(res, mode="grid"), {"report": rep.to_dict()}


def _profile_integral(sc, a):
    res = profile_integral(a.profile, a.operator, a.resolution)
    checked, value = _valued(res.value, a, 1e-3, res.error_bound, error_bound=res.error_bound)
    return replace(checked, mode="grid"), value


def _oracle(sc, a):
    direct = upper_integral(a.function, a.measure, a.operator, a.domain)
    both = {"direct": direct,
            "oracle": upper_integral_subset_oracle(a.function, a.measure, a.operator,
                                                   a.domain)}
    return _within(direct, both["oracle"], a, _TOL, both), both


def _fuzz(sc, a):
    rep = run_campaign(a.campaign, a.trials, a.seed)
    res = CheckResult(True, margin=0.0, mode="sampled") if rep["failed"] == 0 else \
        CheckResult(False, float(rep["failed"]), {"failures": rep["failures"]}, mode="sampled")
    return res, {"campaign": rep}


# a task field that fills a library parameter of another name
_PARAM = {"operator": "op", "measure": "mu", "function": "f", "map": "h", "property": "prop"}
_FIELD = {p: f for f, p in _PARAM.items()}


def _arguments(params, sc, a) -> dict:
    """The keyword arguments of a task's library call: each value of ``a``,
    a resolved field or a value its ``bind`` set, that is not None and names
    a parameter (through ``_PARAM``), and the scenario's scale for a
    ``scale`` parameter that no field sets."""
    kwargs = {_PARAM.get(k, k): v for k, v in vars(a).items()
              if v is not None and _PARAM.get(k, k) in params}
    if "scale" in params:
        kwargs.setdefault("scale", sc.scale)
    return kwargs


def _calls(fn, bind=None, **fields) -> Spec:
    """A task that calls ``fn`` by the one argument rule (``_arguments``),
    looking ``fn`` up in its module when it runs, so a binding patched there
    is the one called.  Without a ``bind``, a field that names no parameter
    of ``fn`` raises here rather than go unread."""
    params = inspect.signature(fn).parameters
    unread = [k for k in fields if _PARAM.get(k, k) not in params]
    if bind is None and unread:
        raise TypeError(f"{fn.__name__} has no parameter for the fields {unread}")
    module, name = sys.modules[fn.__module__], fn.__name__
    return _task(lambda sc, a: getattr(module, name)(**_arguments(params, sc, a)), bind,
                 **fields)


# check_condition fields come from each condition's signature: every
# parameter of a condition but its scale, which is the scenario's
_CONDITION_PARAMS = {
    **dict.fromkeys(("p1", "p2", "p3", "q", "r"), _number),
    **dict.fromkeys(("op", "semicopula", "star", "combiner", "boxplus", "op_h"), _OP),
    "circs": _OPS3, "phis": _PHIS3, "c_values": _numbers,
}


def _condition_task(cid: str) -> Spec:
    params = inspect.signature(CONDITIONS[cid]).parameters
    return _task(lambda sc, a: check_condition(cid, **_arguments(params, sc, a)),
                 **{_FIELD.get(p, p): Field(_CONDITION_PARAMS[p], _REQUIRED if params[p].default
                                            is inspect.Parameter.empty else None)
                    for p in params if p in _CONDITION_PARAMS})


# the field that selects the table entry, for the kinds keyed by (kind, selector)
SELECTORS = {"verify": "theorem", "check_relation": "relation",
             "check_identity": "identity", "check_condition": "condition"}

TASKS: dict[Any, Spec] = {
    "counterexample": _task(_counterexample, resolution=Field(_number, 1e-4)),
    "integral": _task(
        _integral, _integral_operator, kind=Field(_enum(_INTEGRALS), "sugeno"),
        operator=Field(_OP), domain=_DOMAIN, function=_FN, measure=_MEASURE, **_VALUE),
    "profile_integral": _task(_profile_integral, profile=_PROFILE, operator=_OP,
                              resolution=Field(_number, 1e-4), **_VALUE),
    "oracle": _task(_oracle, function=_FN, measure=_MEASURE, operator=_OP, domain=_DOMAIN,
                    tolerance=_TOLERANCE),
    "check_measure": _calls(check_measure_property, measure=_MEASURE,
                            property=_enum(MEASURE_PROPERTIES)),
    ("check_relation", "comonotone"): _calls(is_comonotone, f=_FN, g=_FN, domain=_DOMAIN),
    ("check_relation", "star_associated"): _calls(
        is_star_associated, f=_FN, g=_FN, star=_OP, domain=_DOMAIN),
    ("check_relation", "mu_subadditive"): _calls(
        is_mu_subadditive, f=_FN, g=_FN, boxplus=_OP, measure=_MEASURE, domain=_DOMAIN),
    ("check_relation", "pqd"): _calls(is_pqd, f=_FN, g=_FN, measure=_MEASURE),
    **{("check_condition", cid): _condition_task(cid) for cid in CONDITIONS},
    ("check_identity", "sugeno_identity"): _calls(
        check_sugeno_identity, function=_FN, measure=_MEASURE, domain=_DOMAIN),
    ("check_identity", "h_duality"): _calls(
        check_h_duality, function=_FN, measure=_MEASURE, operator=_OP, map=_DUAL),
    ("verify", "upper_mh"): _calls(
        verify_upper_mh, _mh_bundle, **_MH,
        direction=Field(_enum(("sufficiency", "necessity", "both")), "sufficiency")),
    ("verify", "seminorm_minkowski"): _calls(
        verify_seminorm_minkowski, semicopula=_OP, star=_OP, p=Field(_number, 1.0),
        measure=_MEASURE, f=_FN, g=_FN, domain=_DOMAIN,
        normalization=Field(_enum(("total_one", "values_unit")), "total_one")),
    ("verify", "comonotone_subadditive"): _calls(verify_comonotone_subadditive, operator=_OP,
                                                 measure=_MEASURE, f=_FN, g=_FN, domain=_DOMAIN),
    ("verify", "subadditive_minkowski"): _calls(
        verify_subadditive_minkowski, operator=_OP, q=Field(_number, 1.0), r=Field(_number, 1.0),
        p=Field(_number, 1.0), measure=_MEASURE, f=_VECTOR, g=_VECTOR),
    ("verify", "shilkret_maxitive"): _calls(
        verify_shilkret_maxitive, measure=_MEASURE, trials=Field(_count, 8), seed=_SEED),
    ("verify", "sugeno_subadditive"): _calls(
        verify_sugeno_subadditive, measure=_MEASURE, trials=Field(_count, 8), seed=_SEED),
    ("verify", "sugeno_subadditive_boundary"): _calls(verify_sugeno_subadditive_boundary),
    ("verify", "lower_mh"): _calls(verify_lower_mh, _mh_bundle, **_MH, boxplus=_OP),
    **{("verify", f"dual_minkowski_{kind}"): _task(
        lambda sc, a, kind=kind: verify_dual_minkowski(
            kind, a.star, a.operator, a.map, a.measure, a.f, a.g, boxplus=a.boxplus),
        star=_OP, operator=_OP, map=_DUAL, measure=_MEASURE, f=_FN, g=_FN,
        boxplus=Field(_OP)) for kind in ("single", "pair")},
    ("verify", "mean_convergence"): _calls(
        verify_mean_convergence, _metric_spec, **_OP_METRIC, sequence=_listof(_FN_NONNEG),
        limit=_FN_NONNEG),
    ("verify", "cauchy_probe"): _calls(
        cauchy_probe, _metric_spec, **_METRIC, seed=_SEED, levels=Field(_count, 8)),
    ("verify", "convergence_lemmas"): _calls(
        check_convergence_lemmas, operator=_OP, measure=_MEASURE, sequence=_listof(_FN_NONNEG),
        limit=_FN_NONNEG, kind=Field(_enum(("monotone", "fatou")), "monotone")),
    ("verify", "shilkret_norm"): _calls(
        check_shilkret_norm, measure=_MEASURE, trials=Field(_count, 50), seed=_SEED),
    "metric_axioms": _calls(
        check_metric_axioms, _metric_spec, **_METRIC, trials=Field(_count, 200), seed=_SEED),
    "triangle_search": _calls(find_triangle_violation, measure=_MEASURE,
                              kinds=Field(_listof(_enum(METRIC_KINDS)), METRIC_KINDS)),
    "metric": _task(
        lambda sc, a: _valued(metric_eval(a.spec, a.f, a.g, a.measure), a, _TOL),
        _metric_spec, **_METRIC, f=_VECTOR, g=_VECTOR, **_VALUE),
    "fuzz": _task(_fuzz, campaign=_enum(CAMPAIGNS), trials=Field(_count, 100), seed=_SEED),
}


def _resolve_task(sc: Scenario, task, where: str):
    """(kind, table entry, resolved fields) of one task document."""
    kind = task.get("task") if isinstance(task, dict) else None
    if not isinstance(kind, str):
        raise ScenarioError(f"{where}: expected an object with a 'task' kind")
    selector = SELECTORS.get(kind)
    key = (kind, task.get(selector)) if selector else kind
    try:
        spec = TASKS[key]
    except (KeyError, TypeError):
        field = selector or "task"
        raise ScenarioError(f"{where}.{field}: unknown {field} {task.get(field)!r}") from None
    return kind, spec, _resolve(sc, task, spec, where, ("task", selector))


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------

def run_task(sc: Scenario, task: dict, default_seed: int = 0) -> dict:
    """Execute a single task; returns a JSON-safe record with a verdict.

    A task of ``sc.tasks`` was resolved when the scenario was parsed; any
    other task document is resolved here."""
    kind, spec, resolved = sc._resolved.get(id(task)) or _resolve_task(sc, task, "task")
    a = SimpleNamespace(**vars(resolved))
    if hasattr(a, "seed") and a.seed is None:
        a.seed = default_seed
    record: dict[str, Any] = {"task": kind, "expected": a.expect}
    try:
        out = spec.call(sc, a)
    except HypothesisError as e:
        record.update(outcome="hypothesis-failed", error=str(e))
        if e.detail is not None:
            record["error_detail"] = _jsonify(e.detail)
    else:
        result, extra = out if isinstance(out, tuple) else (out, {})
        status = getattr(result, "status", "checked")     # a RelationVerdict has none
        record["outcome"] = status if status != "checked" else \
            "holds" if result.holds else "fails"
        record["result"] = result.to_dict()
        record.update(_jsonify(extra))
    record["verdict"] = "pass" if record["outcome"] == a.expect else "fail"
    return record


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


def builtin_scenario(name: str) -> dict:
    try:
        return BUILTIN_SCENARIOS[name]()
    except KeyError:
        raise ScenarioError(f"unknown built-in scenario {name!r}; known: "
                            f"{sorted(BUILTIN_SCENARIOS)}") from None
