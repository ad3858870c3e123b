"""Seeded fuzz campaigns, one per verifiable statement, shared by the
command line and the acceptance suite.

Each campaign is a :class:`Campaign` in ``CAMPAIGNS``: its per-trial
function builds instance k from ``(seed, k)`` alone (rejection sampling
with a capped resample budget) and runs the checker.  The driver alone
loops over trials, in contiguous ranges (:func:`run_trials`) merged in
trial order (:func:`merge_report`), and builds the report

    {"id", "trials", "passed", "failed", "failures": [...], "notes": {...}}

Universally quantified statements over functions are labelled as "no
violation in N trials"; equivalence statements get exact per-instance
verdicts because both sides are decidable on finite spaces.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

from .conditions import check_condition
from .core import EXTENDED, FiniteSpace, Fn, INF, NONNEG, UNIT, rng_for
from .integrals import (
    check_h_duality,
    check_sugeno_identity,
    lower_integral,
    sugeno_integral,
    upper_integral,
    upper_integral_subset_oracle,
)
from .measures import MonotoneMeasure, check_measure_property, dual_measure, generate_measure
from .metrics import (
    MetricSpec,
    cauchy_probe,
    check_metric_axioms,
    check_convergence_lemmas,
    kyfan_classical,
    metric_eval,
    verify_mean_convergence,
)
from .operators import (
    BinaryOp,
    bounded_sum,
    cached_gate,
    join,
    lukasiewicz,
    marshall_olkin,
    minimum,
    op_dual,
    phi_identity,
    phi_power,
    plain_sum,
    power_min,
    power_product,
    power_prod,
    prob_sum,
    product,
    reciprocal,
    one_minus,
)
from .relations import is_comonotone, is_star_associated
from . import sampling
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
from .results import CheckResult, DomainError

_MIN = minimum()
_PROD = product()
_JOIN = join()
_SUM = plain_sum()
_SL = lukasiewicz()
_BSUM = bounded_sum()
_PSUM = prob_sum()
_MO = marshall_olkin(0.5, 0.5)
_ID = phi_identity()
_H1 = one_minus()
_HR = reciprocal()

MAX_FAILURE_RECORDS = 10


@dataclass(frozen=True)
class Campaign:
    """``trial(seed, k)`` returns the failure records of instance k (with
    ``min_note``, also a value whose minimum is that note).  ``gates`` are
    seed-independent conditions ``(anchor, id, arguments)`` the trials rely
    on.  ``per_run(trials, seed)`` returns failure records, placed before
    the trial records if ``per_run_first``, and notes.  Without ``trial`` a
    campaign is one instance, decided by ``per_run``.
    """

    trial: Callable | None
    exact: bool = False
    gates: tuple = ()
    per_run: Callable | None = None
    per_run_first: bool = False
    min_note: str | None = None


def _condition(anchor: BinaryOp, cond: str, **kwargs) -> CheckResult:
    """``check_condition(cond, **kwargs)``, run once per process: cached on
    the shared catalog operator ``anchor`` under the condition id and the
    arguments (operators and maps by identity, numbers and scales by value)."""
    return cached_gate(anchor, (cond, *sorted(kwargs.items())),
                       lambda: check_condition(cond, **kwargs))


def _failed(k: int, res, **extra) -> list:
    """The failure records of trial k for one verifier result."""
    return [] if res.holds else [{"trial": k, **extra, "check": res.to_dict()}]


# ---------------------------------------------------------------------------
# integral-layer campaigns
# ---------------------------------------------------------------------------

_ORACLE_OPS = (_MIN, _PROD, _SL, _BSUM, _MO)


def _oracle_agreement(seed: int, k: int) -> list:
    """Level form against the exhaustive subset form, across the operator
    catalog, exact to 1e-12."""
    rng = rng_for(seed, "oracle", k)
    n = 3 + k % 8
    mu = sampling.monotone_measure(seed * 7 + 1, k, n)
    f = sampling.random_fn(rng, n, UNIT)
    domain = (1 << n) - 1 if k % 3 else rng.randrange(1, 1 << n)
    failures = []
    for op in _ORACLE_OPS:
        direct = upper_integral(f, mu, op, domain)
        oracle = upper_integral_subset_oracle(f, mu, op, domain)
        if abs(direct - oracle) > 1e-12:
            failures.append({"trial": k, "op": op.name, "direct": direct,
                             "oracle": oracle, "f": list(f.values)})
    return failures


def _sugeno_identity(seed: int, k: int) -> list:
    """Lower-with-join equals upper-with-min, plus the classical threshold
    form, on every instance."""
    rng = rng_for(seed, "identity", k)
    n = 2 + k % 9
    mu = sampling.monotone_measure(seed * 5 + 3, k, n)
    f = sampling.random_fn(rng, n, UNIT)
    res = check_sugeno_identity(f, mu)
    classical = kyfan_classical(list(f.values), [0.0] * n, mu)
    agree = abs(classical - sugeno_integral(f, mu)) <= max(1e-12, mu.tolerance())
    if res.holds and agree:
        return []
    return [{"trial": k, "check": res.to_dict(), "classical": classical}]


def _plus_assoc_comonotone(seed: int, k: int) -> list:
    """Sum-association decided exactly and compared with comonotonicity."""
    rng = rng_for(seed, "plus-assoc", k)
    n = 2 + k % 9
    style = k % 3
    if style == 0:
        f, g = sampling.comonotone_pair(rng, n, UNIT)
    elif style == 1:
        f = sampling.random_fn(rng, n, UNIT)
        g = sampling.random_fn(rng, n, UNIT)
    else:
        f, g = sampling.anti_monotone_pair(rng, n, UNIT)
    assoc = is_star_associated(f, g, _SUM)
    como = is_comonotone(f, g)
    if assoc.mode == "exhaustive" and assoc.holds == como.holds:
        return []
    return [{"trial": k, "assoc": assoc.to_dict(), "comonotone": como.to_dict()}]


# duality map, operators cycled by trial, scale, rate of infinite values
_H_DUALITY = {
    "one_minus": (_H1, (_JOIN, _MIN, _BSUM, _PSUM), UNIT, 0.0),
    "reciprocal": (_HR, (_SUM, _JOIN, _MIN), EXTENDED, 0.1),
}


def _h_duality(which: str, seed: int, k: int) -> list:
    """The conjugation identity between the two integral forms."""
    h, ops, scale, inf_rate = _H_DUALITY[which]
    rng = rng_for(seed, "h-duality", which, k)
    n = 2 + k % 7
    mu = sampling.monotone_measure(seed * 11 + 5, k, n)
    f = sampling.random_fn(rng, n, scale, zero_rate=0.4, inf_rate=inf_rate)
    return _failed(k, check_h_duality(f, mu, ops[k % len(ops)], h))


# ---------------------------------------------------------------------------
# upper-integral inequality campaigns
# ---------------------------------------------------------------------------

# operator tuples whose scalar condition holds, with the pair construction
# each star supports
_UPPER_MH = (
    {"name": "max_min", "ops": MHOperators(_MIN, _MIN, (_MIN,) * 3, (_ID,) * 3),
     "pair": "any", "scale": UNIT},
    {"name": "join_product", "ops": MHOperators(_JOIN, _JOIN, (_PROD,) * 3, (_ID,) * 3),
     "pair": "comonotone", "scale": UNIT},
    {"name": "prob_sum_powers", "ops": MHOperators(
        _PSUM, _PSUM, (_PROD,) * 3,
        (phi_power(1.0), phi_power(2.0), phi_power(2.0))),
     "pair": "comonotone", "scale": UNIT},
    {"name": "join_min_powers", "ops": MHOperators(
        _JOIN, _JOIN, (_MIN,) * 3,
        (phi_power(0.5), phi_power(1.0), phi_power(2.0))),
     "pair": "comonotone", "scale": UNIT},
    {"name": "min_marshall_olkin", "ops": MHOperators(
        _MIN, _MIN, (_MO,) * 3, (phi_power(2.0),) * 3),
     "pair": "any", "scale": UNIT},
    {"name": "min_product_twoblock", "ops": MHOperators(
        _PROD, _MIN, (_MIN,) * 3, (_ID,) * 3),
     "pair": "two_block", "scale": UNIT},
)


def _upper_mh(seed: int, k: int) -> list:
    """Sufficiency fuzz over condition-verified tuples and mixed
    star-associated pair constructions: zero inequality violations."""
    spec = _UPPER_MH[k % len(_UPPER_MH)]
    rng = rng_for(seed, "upper-mh", k)
    n = 3 + k % 6
    mu = sampling.monotone_measure(seed * 13 + 7, k, n)
    f, g = sampling.star_associated_pair(rng, n, spec["ops"].star, spec["scale"],
                                         kind=spec["pair"])
    res = verify_upper_mh(spec["ops"], mu, f, g, direction="sufficiency",
                          condition_verified=True, seed=k)
    return _failed(k, res, tuple=spec["name"])


def _upper_mh_necessity(seed: int, k: int) -> list:
    """Power-family tuples with the first exponent too large: the condition
    check must fail with a witness, and the witness indicator instance must
    violate the integral inequality."""
    rng = rng_for(seed, "mh-necessity", k)
    p1 = [1.5, 2.0, 3.0][k % 3]
    p2 = [0.5, 1.0][k % 2]
    p3 = [0.5, 1.0, 2.0][rng.randrange(3)]
    cond = _condition(_PSUM, "mh_product_power", p1=p1, p2=p2, p3=p3)
    if cond.holds:
        return [{"trial": k, "reason": "condition unexpectedly holds", "p": [p1, p2, p3]}]
    w = cond.witness
    a, b, c = w["a"], w["b"], w["c"]
    # realize the witness scalar as a one-point measure and check the
    # inequality itself breaks on the indicator pair
    mu = MonotoneMeasure.possibility(FiniteSpace(1), [c])

    def side(p, v):  # phi_p^-1 of the upper integral of phi_p(v)
        phi = phi_power(p)
        return float(phi.inverse(upper_integral(Fn([float(phi.forward(v))], UNIT), mu, _PROD)))

    lhs = side(p1, float(_PSUM.fn(a, b)))
    rhs = float(_PSUM.fn(side(p2, a), side(p3, b)))
    if lhs > rhs:
        return []
    return [{"trial": k, "p": [p1, p2, p3], "witness": w, "lhs": lhs, "rhs": rhs}]


_SEMINORM = ({"S": _MIN, "star": _JOIN, "p": 1.0},
             {"S": _MIN, "star": _JOIN, "p": 2.0},
             {"S": _MO, "star": _JOIN, "p": 1.0})
_PHI_ONE = phi_power(1.0)


def _seminorm_minkowski(seed: int, k: int) -> list:
    """Power-form inequality for seminormed integrals on positive tuples."""
    spec = _SEMINORM[k % len(_SEMINORM)]
    rng = rng_for(seed, "seminorm", k)
    n = 3 + k % 5
    dens = [rng.randrange(0, 65) / 64.0 for _ in range(n)]
    dens[rng.randrange(n)] = 1.0  # pin the total to 1
    mu = MonotoneMeasure.possibility(FiniteSpace(n), dens)
    f, g = sampling.comonotone_pair(rng, n, UNIT)
    return _failed(k, verify_seminorm_minkowski(spec["S"], spec["star"], spec["p"], mu, f, g))


def _seminorm_refuted(trials: int, seed: int):
    """The refuted tuple: its premise holds and its power-form condition fails."""
    refuted = _condition(_BSUM, "counterexample_premise", semicopula=_SL, star=_BSUM)
    power = _condition(_BSUM, "mh_upper", star=_BSUM, combiner=_BSUM, circs=(_SL,) * 3,
                       phis=(_PHI_ONE,) * 3, scale=UNIT)
    notes = {"premise_holds": refuted.holds, "power_condition_holds": power.holds}
    if refuted.holds and not power.holds:
        return [], notes
    return [{"reason": "refuted tuple misclassified", "notes": notes}], notes


def _comonotone_subadditive(seed: int, k: int) -> list:
    rng = rng_for(seed, "como-subadd", k)
    n = 2 + k % 7
    op = (_MIN, _PROD)[k % 2]
    mu = sampling.monotone_measure(seed * 17 + 9, k, n)
    f, g = sampling.comonotone_pair(rng, n, UNIT, max_sum=1.0)
    return _failed(k, verify_comonotone_subadditive(op, mu, f, g))


def _nilpotent_sum_split(trials: int, seed: int):
    """The nilpotent Lukasiewicz t-norm must fail the sum-split condition."""
    negative = _condition(_SL, "sum_split", op=_SL, scale=UNIT)
    failures = [{"reason": "nilpotent operator unexpectedly passes sum_split"}] \
        if negative.holds else []
    return failures, {"negative_condition_fails": not negative.holds}


_SUBADDITIVE_COMBOS = (
    {"op": _MIN, "q": 1.0, "r": 1.0, "p": 1.0},
    {"op": _MIN, "q": 1.0, "r": 1.0, "p": 2.0},
    {"op": _PROD, "q": 1.0, "r": 1.0, "p": 1.0},
    {"op": _PROD, "q": 1.0, "r": 1.0, "p": 2.0},
    {"op": power_product(0.5), "q": 0.5, "r": 1.0, "p": 2.0},
)


def _subadditive_minkowski(seed: int, k: int) -> list:
    combo = _SUBADDITIVE_COMBOS[k % len(_SUBADDITIVE_COMBOS)]
    rng = rng_for(seed, "minkowski-subadd", k)
    n = 2 + k % 7
    mu = sampling.subadditive_measure(seed * 19 + 11, k, n)
    f = sampling.signed_vector(rng, n)
    g = sampling.signed_vector(rng, n)
    res = verify_subadditive_minkowski(combo["op"], combo["q"], combo["r"], combo["p"],
                                       mu, f, g, condition_verified=True)
    return _failed(k, res, op=combo["op"].name)


# ---------------------------------------------------------------------------
# equivalence campaigns
# ---------------------------------------------------------------------------

def _shilkret_maxitive(seed: int, k: int):
    """Half maxitive (forward direction), half additive with positive atoms
    (backward witness construction); three-way consistency throughout.
    The value is the backward margin of a passing additive trial."""
    n = 3 + k % 6
    family = "possibility" if k % 2 == 0 else "non_maxitive"
    mu = generate_measure(rng_for(seed, "maxprod-equiv", k).randrange(1 << 30), family, n)
    res = verify_shilkret_maxitive(mu, trials=6, seed=seed + k)
    margin = res.margin if res.holds and family == "non_maxitive" else INF
    return _failed(k, res, family=family), margin


def _sugeno_subadditive(seed: int, k: int) -> list:
    """Forward on subadditive mixes and indicator recovery on every instance."""
    n = 2 + k % 7
    if k % 4 == 3:
        mu, _pair = sampling.non_subadditive_measure(seed + k, n)
    else:
        mu = sampling.subadditive_measure(seed * 23 + 13, k, n)
    return _failed(k, verify_sugeno_subadditive(mu, trials=5, seed=seed + k))


def _sugeno_boundary(trials: int, seed: int):
    """The infinite-total boundary probe."""
    boundary = verify_sugeno_subadditive_boundary()
    failures = [] if boundary.holds else \
        [{"reason": "boundary probe failed", "check": boundary.to_dict()}]
    return failures, {"boundary_violation_margin": boundary.margin}


# ---------------------------------------------------------------------------
# lower-integral and duality campaigns
# ---------------------------------------------------------------------------

def _lower_mh(seed: int, k: int) -> list:
    """The three worked tuple families for the lower-integral inequality."""
    rng = rng_for(seed, "lower-mh", k)
    n = 3 + k % 5
    family = k % 3
    if family == 0:
        # probabilistic-sum level combiner under an additive (hence
        # submodular) measure with a dependent pair
        mu = generate_measure(rng.randrange(1 << 30), "non_maxitive", n)
        f, g = sampling.comonotone_pair(rng, n, UNIT)
        ops = MHOperators(_BSUM, _BSUM, (_JOIN,) * 3, (_ID,) * 3)
        res = verify_lower_mh(ops, _PSUM, mu, f, g)
    elif family == 1:
        # plain-sum everywhere under a subadditive measure, any pair
        mu = sampling.subadditive_measure(seed * 29 + 15, k, n)
        f = sampling.random_fn(rng, n, EXTENDED)
        g = sampling.random_fn(rng, n, EXTENDED)
        ops = MHOperators(_SUM, _SUM, (_JOIN,) * 3, (_ID,) * 3)
        res = verify_lower_mh(ops, _SUM, mu, f, g)
    else:
        # join level combiner with comonotone pairs
        mu = sampling.monotone_measure(seed * 29 + 16, k, n)
        f, g = sampling.comonotone_pair(rng, n, EXTENDED)
        ops = MHOperators(_SUM, _SUM, (_JOIN,) * 3, (_ID,) * 3)
        res = verify_lower_mh(ops, _JOIN, mu, f, g)
    return _failed(k, res, family=family)


def _reciprocal_pair_measure(seed: int, n: int) -> MonotoneMeasure:
    """Measure whose reciprocal conjugate is subadditive with infinite total:
    the conjugate is infinite on sets containing a pinned point and follows
    a subadditive finite part elsewhere."""
    rng = rng_for(seed, "reciprocal-measure", n)
    pin = rng.randrange(n)
    sub = sampling.subadditive_measure(seed, rng.randrange(4), n)
    tab_h = sub.table().copy()
    tab_h[[m for m in range(1 << n) if m >> pin & 1]] = INF
    mu_h = MonotoneMeasure.explicit(FiniteSpace(n), tab_h, rounding=True)
    # the working measure is the conjugate of mu_h; conjugating again
    # recovers mu_h inside the verifier
    return dual_measure(mu_h, _HR)


def _dual_minkowski(seed: int, k: int) -> list:
    """Single-kind conjugation fuzz on the unit scale, the harmonic
    instance on the extended scale, and the reciprocal pair-kind instance."""
    rng = rng_for(seed, "dual-mink", k)
    n = 3 + k % 5
    style = k % 3
    if style == 0:
        mu = sampling.monotone_measure(seed * 31 + 17, k, n)
        f, g = sampling.comonotone_pair(rng, n, UNIT)
        res = verify_dual_minkowski("single", _JOIN, _BSUM, _H1, mu, f, g,
                                    condition_verified=True)
    elif style == 1:
        mu = sampling.monotone_measure(seed * 31 + 18, k, n)
        f, g = sampling.comonotone_pair(rng, n, EXTENDED)
        res = verify_dual_minkowski("single", _SUM, _SUM, _HR, mu, f, g,
                                    condition_verified=True)
    else:
        mu = _reciprocal_pair_measure(seed + k, n)
        f = sampling.random_fn(rng, n, EXTENDED, zero_rate=0.3)
        g = sampling.random_fn(rng, n, EXTENDED, zero_rate=0.3)
        res = verify_dual_minkowski("pair", _SUM, _MIN, _HR, mu, f, g,
                                    boxplus=_SUM, condition_verified=True)
    return _failed(k, res, style=style)


# ---------------------------------------------------------------------------
# metric campaigns
# ---------------------------------------------------------------------------

_METRIC_SPECS = (MetricSpec("frechet"), MetricSpec("kyfan"),
                 *(MetricSpec("d_op_p", op(p, 1.0), p)
                   for p in (0.5, 1.0, 2.0) for op in (power_min, power_prod)))


def _metric_suites(trials: int, seed: int):
    """Axiom suites for every metric kind under subadditive measures."""
    per_spec = max(1, trials // len(_METRIC_SPECS))
    failures = []
    for i, spec in enumerate(_METRIC_SPECS):
        n = 3 + i % 4
        mu = sampling.subadditive_measure(seed * 37 + 19, i, n)
        res = check_metric_axioms(spec, mu, trials=per_spec, seed=seed + i)
        if not res.holds:
            failures.append({"spec": spec.describe(), "check": res.to_dict()})
    return failures, {"specs": [s.describe() for s in _METRIC_SPECS]}


def _kyfan_threeway(seed: int, k: int) -> list:
    """Three-way agreement of the convergence-in-measure metric, on the
    first hundred trials."""
    if k >= 100:
        return []
    rng = rng_for(seed, "kyfan-threeway", k)
    n = 2 + k % 6
    mu = sampling.subadditive_measure(seed * 37 + 20, k, n)
    f = sampling.signed_vector(rng, n)
    g = sampling.signed_vector(rng, n)
    d1 = metric_eval(MetricSpec("kyfan"), f, g, mu)
    diff = [abs(a - b) for a, b in zip(f, g)]
    d2 = lower_integral(Fn(diff, EXTENDED), mu, _JOIN, None, EXTENDED)
    d3 = kyfan_classical(f, g, mu)
    tol = max(1e-12, mu.tolerance())
    if abs(d1 - d2) > tol or abs(d1 - d3) > tol:
        return [{"trial": k, "threeway": [d1, d2, d3]}]
    return []


def _mean_convergence(seed: int, k: int) -> list:
    rng = rng_for(seed, "mean-conv", k)
    n = 3 + k % 5
    p = (0.5, 1.0, 2.0)[k % 3]
    spec = MetricSpec("d_op_p", power_min(p, 1.0), p)
    mu = sampling.subadditive_measure(seed * 41 + 21, k, n)
    limit = sampling.random_fn(rng, n, NONNEG)
    shape = [rng.randrange(1, 9) / 8.0 for _ in range(n)]
    seq = []
    for j in range(1, 7):
        bump = 4.0 ** (-j / p)
        seq.append(Fn([v + bump * s for v, s in zip(limit.values, shape)], NONNEG))
    return _failed(k, verify_mean_convergence(spec, mu, seq, limit))


def _cauchy_probe(seed: int, k: int) -> list:
    p = (0.5, 1.0, 2.0)[k % 3]
    op = power_min(p, 1.0) if k % 2 == 0 else power_prod(p, 1.0)
    spec = MetricSpec("d_op_p", op, p)
    n = 3 + k % 5
    mu = sampling.subadditive_measure(seed * 43 + 23, k, n)
    res = cauchy_probe(spec, mu, seed=seed + k, levels=8)
    if res.holds and res.status == "checked":
        return []
    return [{"trial": k, "check": res.to_dict()}]


def _convergence_lemmas(seed: int, k: int) -> list:
    """Monotone limits and the lower-bound lemma, with null-set disagreement
    planted on a zero-density atom."""
    rng = rng_for(seed, "conv-lemmas", k)
    n = 3 + k % 5
    mu = sampling.measure_with_null_atoms(seed + k, n)
    null_atom = next((i for i in range(n) if mu(1 << i) == 0.0), None)
    limit = sampling.random_fn(rng, n, NONNEG, zero_rate=0.0)
    stabilize_at = 3 + k % 3
    seq = []
    for j in range(6):
        frac = min(1.0, (j + 1) / stabilize_at)
        vals = [v * frac for v in limit.values]
        if null_atom is not None:
            vals[null_atom] = 7.0  # disagreement on a null set is invisible
        seq.append(Fn(vals, NONNEG))
    osc = [Fn([v * (0.5 if j % 2 else 1.0) for v in limit.values], NONNEG)
           for j in range(6)]
    limit_low = Fn([v * 0.5 for v in limit.values], NONNEG)
    return (_failed(k, check_convergence_lemmas(_MIN, mu, seq, limit, "monotone"),
                    kind="monotone")
            + _failed(k, check_convergence_lemmas(_MIN, mu, osc, limit_low, "fatou"),
                      kind="fatou"))


# generator family and the expected verdict of each property check
_MEASURE_FAMILIES = (
    ("possibility", {"monotone": True, "maxitive": True, "subadditive": True,
                     "null_additive": True}),
    ("monotonized_random", {"monotone": True}),
    ("distortion_concave", {"monotone": True, "subadditive": True, "null_additive": True}),
    ("non_maxitive", {"monotone": True, "maxitive": False, "subadditive": True}),
)


def _measure_properties(seed: int, k: int) -> list:
    """Generated families pass their defining checks and the implication
    chain (maxitive implies subadditive implies null-additive)."""
    n = 2 + k % 7
    kind = k % 4
    family, checks = _MEASURE_FAMILIES[kind]
    mu = generate_measure(rng_for(seed, "measure-props", k).randrange(1 << 30), family, n)
    failures = []
    for prop, expected in checks.items():
        res = check_measure_property(mu, prop)
        if res.holds != expected:
            failures.append({"trial": k, "family": kind, "prop": prop,
                             "check": res.to_dict()})
        if prop == "maxitive" and not res.holds:
            a, b = int(res.witness["set_a"]), int(res.witness["set_b"])
            if not (a & b) == 0 or not mu(a | b) > max(mu(a), mu(b)):
                failures.append({"trial": k, "reason": "witness does not replay"})
    return failures


def _counterexample(trials: int, seed: int):
    rep = reproduce_counterexample()
    return ([] if rep.reproduced else [{"report": rep.to_dict()}]), rep.to_dict()


def _dual_gate(cond, star, inner, h, scale, **extra):
    return star, cond, {"star": star, "op_h": op_dual(inner, h), "scale": scale, **extra}


CAMPAIGNS = {
    "counterexample": Campaign(None, exact=True, per_run=_counterexample),
    "oracle_agreement": Campaign(
        _oracle_agreement, exact=True,
        per_run=lambda trials, seed: ([], {"ops": [op.name for op in _ORACLE_OPS]})),
    "sugeno_identity": Campaign(_sugeno_identity, exact=True),
    "plus_assoc_comonotone": Campaign(_plus_assoc_comonotone, exact=True),
    "h_duality_one_minus": Campaign(functools.partial(_h_duality, "one_minus")),
    "h_duality_reciprocal": Campaign(functools.partial(_h_duality, "reciprocal")),
    "upper_mh": Campaign(
        _upper_mh,
        # the MHOperators fields are the condition's argument names
        gates=tuple((t["ops"].star, "mh_upper", {**vars(t["ops"]), "scale": t["scale"]})
                    for t in _UPPER_MH),
        per_run=lambda trials, seed: ([], {"tuples": [t["name"] for t in _UPPER_MH]})),
    "upper_mh_necessity": Campaign(_upper_mh_necessity),
    "seminorm_minkowski": Campaign(_seminorm_minkowski, per_run=_seminorm_refuted),
    "comonotone_subadditive": Campaign(_comonotone_subadditive, per_run=_nilpotent_sum_split),
    "subadditive_minkowski": Campaign(
        _subadditive_minkowski,
        gates=tuple((c["op"], "distributive_scaling",
                     {"op": c["op"], "q": c["q"], "r": c["r"], "scale": EXTENDED})
                    for c in _SUBADDITIVE_COMBOS)),
    "shilkret_maxitive": Campaign(_shilkret_maxitive, exact=True,
                                  min_note="min_backward_margin"),
    "sugeno_subadditive": Campaign(_sugeno_subadditive, exact=True, per_run=_sugeno_boundary),
    "lower_mh": Campaign(_lower_mh),
    "dual_minkowski": Campaign(
        _dual_minkowski,
        gates=(_dual_gate("dual_star_split", _JOIN, _BSUM, _H1, UNIT),
               _dual_gate("dual_star_split", _SUM, _SUM, _HR, EXTENDED),
               _dual_gate("dual_star_split_pair", _SUM, _MIN, _HR, EXTENDED, boxplus=_SUM))),
    "metric_axioms": Campaign(_kyfan_threeway, per_run=_metric_suites, per_run_first=True),
    "mean_convergence": Campaign(_mean_convergence),
    "cauchy_probe": Campaign(_cauchy_probe),
    "convergence_lemmas": Campaign(_convergence_lemmas),
    "measure_properties": Campaign(_measure_properties, exact=True),
}


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def run_trials(campaign_id: str, seed: int, lo: int, hi: int) -> dict:
    """Trials ``[lo, hi)`` of a campaign: their failure count, their first
    failure records in trial order, and the smallest ``min_note`` value."""
    campaign = CAMPAIGNS[campaign_id]
    failures, failed, low = [], 0, INF
    for k in (range(lo, hi) if campaign.trial else ()):
        records = campaign.trial(seed, k)
        if campaign.min_note:
            records, value = records
            low = min(low, value)
        failed += len(records)
        failures += records[:MAX_FAILURE_RECORDS - len(failures)]
    return {"failed": failed, "failures": failures, "low": low}


def merge_report(campaign_id: str, trials: int, seed: int, parts) -> dict:
    """The report of a run of ``trials`` trials from the :func:`run_trials`
    parts of contiguous ranges covering them, in trial order.  The gates
    and the per-run part run here, before the parts are read."""
    campaign = CAMPAIGNS[campaign_id]
    for anchor, cond, kwargs in campaign.gates:
        res = _condition(anchor, cond, **kwargs)
        if not res.holds:
            raise DomainError(f"campaign {campaign_id}: gate {cond} fails on "
                              f"{anchor.name}: {res.witness}")
    run_failures, run_notes = campaign.per_run(trials, seed) if campaign.per_run else ([], {})
    failures, failed, low = [], 0, INF
    for part in parts:
        failures += part["failures"]
        failed += part["failed"]
        low = min(low, part["low"])
    failures = run_failures + failures if campaign.per_run_first else failures + run_failures
    notes = dict(run_notes)
    if campaign.min_note:
        notes[campaign.min_note] = low
    if not campaign.trial:
        trials = 1
    # equivalences are decidable per instance; universally quantified
    # statements over functions are only ever fuzzed, never proved
    notes.setdefault("claim", "exact per-instance verdicts" if campaign.exact
                     else f"no violation in {trials} trials")
    failed += len(run_failures)
    return {
        "id": campaign_id,
        "trials": trials,
        "passed": trials - failed,
        "failed": failed,
        "failures": failures[:MAX_FAILURE_RECORDS],
        "notes": notes,
    }


def run_campaign(campaign_id: str, trials: int, seed: int, jobs: int = 1) -> dict:
    """Run trials ``[0, trials)`` of a campaign and return its report.

    With ``jobs`` > 1 the trials split into ``jobs`` contiguous ranges run
    in worker processes (at most one per CPU); the report is the serial one
    byte for byte.
    """
    if campaign_id not in CAMPAIGNS:
        raise DomainError(f"unknown campaign {campaign_id!r}; known: {sorted(CAMPAIGNS)}")
    campaign = CAMPAIGNS[campaign_id]
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    if jobs < 1:
        raise DomainError(f"jobs must be at least 1, got {jobs}")
    n = trials if campaign.trial else 0
    count = min(jobs, n)
    ranges = [(n * i // count, n * (i + 1) // count) for i in range(count)]
    if count < 2:
        return merge_report(campaign_id, trials, seed,
                            (run_trials(campaign_id, seed, lo, hi) for lo, hi in ranges))
    with ProcessPoolExecutor(max_workers=min(count, os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [pool.submit(run_trials, campaign_id, seed, lo, hi) for lo, hi in ranges]
        return merge_report(campaign_id, trials, seed, (f.result() for f in futures))
