"""Seeded fuzz campaigns, one per verifiable statement, shared by the
command line and the acceptance suite.

Each campaign draws ``trials`` deterministic instances satisfying its
statement's hypotheses (rejection sampling with a capped resample budget),
runs the checker, and aggregates a report dictionary:

    {"id", "trials", "passed", "failed", "failures": [...], "notes": {...}}

Universally quantified statements over functions are labelled as "no
violation in N trials"; equivalence statements get exact per-instance
verdicts because both sides are decidable on finite spaces.
"""

from __future__ import annotations

import math

from .conditions import check_condition, cond_mh_upper
from .core import EXTENDED, FiniteSpace, Fn, INF, NONNEG, UNIT, rng_for
from .integrals import (
    check_h_duality,
    check_sugeno_identity,
    lower_integral,
    sugeno_integral,
    upper_integral,
    upper_integral_subset_oracle,
)
from .measures import MonotoneMeasure, check_measure_property, generate_measure
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
from .results import DomainError

_MIN = minimum()
_PROD = product()
_JOIN = join()
_SUM = plain_sum()
_SL = lukasiewicz()
_BSUM = bounded_sum()
_PSUM = prob_sum()
_MO = marshall_olkin(0.5, 0.5)
_ID = phi_identity()


_EXACT_CAMPAIGNS = {"shilkret_maxitive", "sugeno_subadditive", "plus_assoc_comonotone",
                    "oracle_agreement", "sugeno_identity", "measure_properties",
                    "counterexample"}


def _report(cid: str, trials: int, failures: list, notes: dict | None = None) -> dict:
    notes = dict(notes or {})
    # equivalences are decidable per instance; universally quantified
    # statements over functions are only ever fuzzed, never proved
    notes.setdefault("claim", "exact per-instance verdicts" if cid in _EXACT_CAMPAIGNS
                     else f"no violation in {trials} trials")
    return {
        "id": cid,
        "trials": trials,
        "passed": trials - len(failures),
        "failed": len(failures),
        "failures": failures[:10],
        "notes": notes,
    }


# ---------------------------------------------------------------------------
# integral-layer campaigns
# ---------------------------------------------------------------------------

def campaign_oracle_agreement(trials: int, seed: int) -> dict:
    """Level form against the exhaustive subset form, across the operator
    catalog, exact to 1e-12."""
    ops = [_MIN, _PROD, _SL, _BSUM, _MO]
    failures = []
    for k in range(trials):
        rng = rng_for(seed, "oracle", k)
        n = 3 + k % 8
        mu = sampling.monotone_measure(seed * 7 + 1, k, n)
        f = sampling.random_fn(rng, n, UNIT)
        domain = (1 << n) - 1 if k % 3 else rng.randrange(1, 1 << n)
        for op in ops:
            direct = upper_integral(f, mu, op, domain)
            oracle = upper_integral_subset_oracle(f, mu, op, domain)
            if abs(direct - oracle) > 1e-12:
                failures.append({"trial": k, "op": op.name, "direct": direct,
                                 "oracle": oracle, "f": list(f.values)})
    return _report("oracle_agreement", trials, failures,
                   {"ops": [op.name for op in ops]})


def campaign_sugeno_identity(trials: int, seed: int) -> dict:
    """Lower-with-join equals upper-with-min, plus the classical threshold
    form, on every instance."""
    failures = []
    for k in range(trials):
        rng = rng_for(seed, "identity", k)
        n = 2 + k % 9
        mu = sampling.monotone_measure(seed * 5 + 3, k, n)
        f = sampling.random_fn(rng, n, UNIT)
        res = check_sugeno_identity(f, mu)
        classical = kyfan_classical(list(f.values), [0.0] * n, mu)
        agree = abs(classical - sugeno_integral(f, mu)) <= max(1e-12, mu.tolerance())
        if not res.holds or not agree:
            failures.append({"trial": k, "check": res.to_dict(),
                             "classical": classical})
    return _report("sugeno_identity", trials, failures)


def campaign_plus_assoc_comonotone(trials: int, seed: int) -> dict:
    """Sum-association decided exactly and compared with comonotonicity."""
    failures = []
    for k in range(trials):
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
        if assoc.mode != "exhaustive" or assoc.holds != como.holds:
            failures.append({"trial": k, "assoc": assoc.to_dict(),
                             "comonotone": como.to_dict()})
    return _report("plus_assoc_comonotone", trials, failures)


def campaign_h_duality(trials: int, seed: int, which: str = "one_minus") -> dict:
    """The conjugation identity between the two integral forms."""
    failures = []
    if which == "one_minus":
        h = one_minus()
        ops = [_JOIN, _MIN, _BSUM, _PSUM]
        scale = UNIT
        inf_rate = 0.0
    elif which == "reciprocal":
        h = reciprocal()
        ops = [_SUM, _JOIN, _MIN]
        scale = EXTENDED
        inf_rate = 0.1
    else:
        raise DomainError(f"unknown duality map {which!r}")
    for k in range(trials):
        rng = rng_for(seed, "h-duality", which, k)
        n = 2 + k % 7
        mu = sampling.monotone_measure(seed * 11 + 5, k, n)
        f = sampling.random_fn(rng, n, scale, zero_rate=0.4, inf_rate=inf_rate)
        res = check_h_duality(f, mu, ops[k % len(ops)], h)
        if not res.holds:
            failures.append({"trial": k, "check": res.to_dict()})
    return _report(f"h_duality_{which}", trials, failures)


# ---------------------------------------------------------------------------
# upper-integral inequality campaigns
# ---------------------------------------------------------------------------

def _upper_mh_tuples() -> list[dict]:
    """Catalog of operator tuples whose scalar condition holds, with the
    pair construction each star supports."""
    return [
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
    ]


def campaign_upper_mh(trials: int, seed: int) -> dict:
    """Sufficiency fuzz over condition-verified tuples and mixed
    star-associated pair constructions: zero inequality violations."""
    tuples = _upper_mh_tuples()
    for spec in tuples:
        ops = spec["ops"]
        cond = cond_mh_upper(ops.star, ops.combiner, ops.circs, ops.phis, spec["scale"])
        if not cond.holds:
            raise DomainError(f"tuple {spec['name']} unexpectedly fails its condition: "
                              f"{cond.witness}")
    failures = []
    for k in range(trials):
        spec = tuples[k % len(tuples)]
        rng = rng_for(seed, "upper-mh", k)
        n = 3 + k % 6
        mu = sampling.monotone_measure(seed * 13 + 7, k, n)
        f, g = sampling.star_associated_pair(rng, n, spec["ops"].star, spec["scale"],
                                             kind=spec["pair"])
        res = verify_upper_mh(spec["ops"], mu, f, g, direction="sufficiency",
                              condition_verified=True, seed=k)
        if not res.holds:
            failures.append({"trial": k, "tuple": spec["name"], "check": res.to_dict()})
    return _report("upper_mh", trials, failures,
                   {"tuples": [t["name"] for t in tuples]})


def campaign_upper_mh_necessity(trials: int, seed: int) -> dict:
    """Power-family tuples with the first exponent too large: the condition
    check must fail with a witness, and the witness indicator instance must
    violate the integral inequality."""
    failures = []
    for k in range(trials):
        rng = rng_for(seed, "mh-necessity", k)
        p1 = [1.5, 2.0, 3.0][k % 3]
        p2 = [0.5, 1.0][k % 2]
        p3 = [0.5, 1.0, 2.0][rng.randrange(3)]
        cond = check_condition("mh_product_power", p1=p1, p2=p2, p3=p3)
        if cond.holds:
            failures.append({"trial": k, "reason": "condition unexpectedly holds",
                             "p": [p1, p2, p3]})
            continue
        w = cond.witness
        a, b, c = w["a"], w["b"], w["c"]
        # realize the witness scalar as a one-point measure and check the
        # inequality itself breaks on the indicator pair
        space = FiniteSpace(1)
        mu = MonotoneMeasure.possibility(space, [c])
        ops = MHOperators(_PSUM, _PSUM, (_PROD,) * 3,
                          (phi_power(p1), phi_power(p2), phi_power(p3)))
        f = Fn([a], UNIT)
        g = Fn([b], UNIT)
        lhs = float(ops.phis[0].inverse(upper_integral(
            Fn([float(ops.phis[0].forward(float(_PSUM.fn(a, b))))], UNIT), mu, _PROD)))
        rf = float(ops.phis[1].inverse(upper_integral(
            Fn([float(ops.phis[1].forward(a))], UNIT), mu, _PROD)))
        rg = float(ops.phis[2].inverse(upper_integral(
            Fn([float(ops.phis[2].forward(b))], UNIT), mu, _PROD)))
        rhs = float(_PSUM.fn(rf, rg))
        if not lhs > rhs:
            failures.append({"trial": k, "p": [p1, p2, p3], "witness": w,
                             "lhs": lhs, "rhs": rhs})
    return _report("upper_mh_necessity", trials, failures)


def campaign_seminorm_minkowski(trials: int, seed: int) -> dict:
    """Power-form inequality for seminormed integrals on positive tuples,
    plus the expected condition failure on the refuted tuple."""
    tuples = [
        {"S": _MIN, "star": _JOIN, "p": 1.0},
        {"S": _MIN, "star": _JOIN, "p": 2.0},
        {"S": _MO, "star": _JOIN, "p": 1.0},
    ]
    failures = []
    for k in range(trials):
        spec = tuples[k % len(tuples)]
        rng = rng_for(seed, "seminorm", k)
        n = 3 + k % 5
        dens = [rng.randrange(0, 65) / 64.0 for _ in range(n)]
        dens[rng.randrange(n)] = 1.0  # pin the total to 1
        mu = MonotoneMeasure.possibility(FiniteSpace(n), dens)
        f, g = sampling.comonotone_pair(rng, n, UNIT)
        res = verify_seminorm_minkowski(spec["S"], spec["star"], spec["p"], mu, f, g)
        if not res.holds:
            failures.append({"trial": k, "check": res.to_dict()})
    refuted = check_condition("counterexample_premise", semicopula=_SL, star=_BSUM)
    power_cond = cond_mh_upper(_BSUM, _BSUM, (_SL,) * 3, (phi_power(1.0),) * 3, UNIT)
    notes = {"premise_holds": refuted.holds, "power_condition_holds": power_cond.holds}
    if not refuted.holds or power_cond.holds:
        failures.append({"reason": "refuted tuple misclassified", "notes": notes})
    return _report("seminorm_minkowski", trials, failures, notes)


def campaign_comonotone_subadditive(trials: int, seed: int) -> dict:
    failures = []
    for k in range(trials):
        rng = rng_for(seed, "como-subadd", k)
        n = 2 + k % 7
        op = (_MIN, _PROD)[k % 2]
        mu = sampling.monotone_measure(seed * 17 + 9, k, n)
        f, g = sampling.comonotone_pair(rng, n, UNIT, max_sum=1.0)
        res = verify_comonotone_subadditive(op, mu, f, g)
        if not res.holds:
            failures.append({"trial": k, "check": res.to_dict()})
    negative = check_condition("sum_split", op=_SL, scale=UNIT)
    if negative.holds:
        failures.append({"reason": "nilpotent operator unexpectedly passes sum_split"})
    return _report("comonotone_subadditive", trials, failures,
                   {"negative_condition_fails": not negative.holds})


def campaign_subadditive_minkowski(trials: int, seed: int) -> dict:
    combos = [
        {"op": _MIN, "q": 1.0, "r": 1.0, "p": 1.0},
        {"op": _MIN, "q": 1.0, "r": 1.0, "p": 2.0},
        {"op": _PROD, "q": 1.0, "r": 1.0, "p": 1.0},
        {"op": _PROD, "q": 1.0, "r": 1.0, "p": 2.0},
        {"op": power_product(0.5), "q": 0.5, "r": 1.0, "p": 2.0},
    ]
    for combo in combos:
        op, q, r = combo["op"], combo["q"], combo["r"]
        cond = cached_gate(op, ("distributive_scaling", q, r, EXTENDED.upper, EXTENDED.closed),
                           lambda: check_condition("distributive_scaling", op=op, q=q, r=r,
                                                   scale=EXTENDED))
        if not cond.holds:
            raise DomainError(f"combo {combo['op'].name} fails its scaling gate: "
                              f"{cond.witness}")
    failures = []
    for k in range(trials):
        combo = combos[k % len(combos)]
        rng = rng_for(seed, "minkowski-subadd", k)
        n = 2 + k % 7
        mu = sampling.subadditive_measure(seed * 19 + 11, k, n)
        f = sampling.signed_vector(rng, n)
        g = sampling.signed_vector(rng, n)
        res = verify_subadditive_minkowski(combo["op"], combo["q"], combo["r"],
                                           combo["p"], mu, f, g,
                                           condition_verified=True)
        if not res.holds:
            failures.append({"trial": k, "op": combo["op"].name, "check": res.to_dict()})
    return _report("subadditive_minkowski", trials, failures)


# ---------------------------------------------------------------------------
# equivalence campaigns
# ---------------------------------------------------------------------------

def campaign_shilkret_maxitive(trials: int, seed: int) -> dict:
    """Half maxitive (forward direction), half additive with positive atoms
    (backward witness construction); three-way consistency throughout."""
    failures = []
    min_margin = INF
    for k in range(trials):
        n = 3 + k % 6
        family = "possibility" if k % 2 == 0 else "non_maxitive"
        mu = generate_measure(rng_for(seed, "maxprod-equiv", k).randrange(1 << 30), family, n)
        res = verify_shilkret_maxitive(mu, trials=6, seed=seed + k)
        if not res.holds:
            failures.append({"trial": k, "family": family, "check": res.to_dict()})
        elif family == "non_maxitive":
            min_margin = min(min_margin, res.margin)
    return _report("shilkret_maxitive", trials, failures,
                   {"min_backward_margin": min_margin})


def campaign_sugeno_subadditive(trials: int, seed: int) -> dict:
    """Forward on subadditive mixes, indicator recovery on every instance,
    and the infinite-total boundary probe."""
    failures = []
    for k in range(trials):
        n = 2 + k % 7
        if k % 4 == 3:
            mu, _pair = sampling.non_subadditive_measure(seed + k, n)
        else:
            mu = sampling.subadditive_measure(seed * 23 + 13, k, n)
        res = verify_sugeno_subadditive(mu, trials=5, seed=seed + k)
        if not res.holds:
            failures.append({"trial": k, "check": res.to_dict()})
    boundary = verify_sugeno_subadditive_boundary()
    if not boundary.holds:
        failures.append({"reason": "boundary probe failed", "check": boundary.to_dict()})
    return _report("sugeno_subadditive", trials, failures,
                   {"boundary_violation_margin": boundary.margin})


# ---------------------------------------------------------------------------
# lower-integral and duality campaigns
# ---------------------------------------------------------------------------

def campaign_lower_mh(trials: int, seed: int) -> dict:
    """The three worked tuple families for the lower-integral inequality."""
    failures = []
    for k in range(trials):
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
        if not res.holds:
            failures.append({"trial": k, "family": family, "check": res.to_dict()})
    return _report("lower_mh", trials, failures)


def _reciprocal_pair_measure(seed: int, n: int) -> MonotoneMeasure:
    """Measure whose reciprocal conjugate is subadditive with infinite total:
    the conjugate is infinite on sets containing a pinned point and follows
    a subadditive finite part elsewhere."""
    rng = rng_for(seed, "reciprocal-measure", n)
    pin = rng.randrange(n)
    sub = sampling.subadditive_measure(seed, rng.randrange(4), n)
    tab_h = sub.table().copy()
    idx = [m for m in range(1 << n)]
    for m in idx:
        if m >> pin & 1:
            tab_h[m] = INF
    mu_h = MonotoneMeasure.explicit(FiniteSpace(n), tab_h, rounding=True)
    h = reciprocal()
    # the working measure is the conjugate of mu_h; conjugating again
    # recovers mu_h inside the verifier
    from .measures import dual_measure
    return dual_measure(mu_h, h)


def campaign_dual_minkowski(trials: int, seed: int) -> dict:
    """Single-kind conjugation fuzz on the unit scale, the harmonic
    instance on the extended scale, and the reciprocal pair-kind instance."""
    def gate(cond, star, inner, h, scale, **extra):
        # cached on the shared catalog operator; the conjugate is built on a miss
        key = (cond, inner, h.name, *extra.values(), scale.upper, scale.closed)
        return cached_gate(star, key, lambda: check_condition(
            cond, star=star, op_h=op_dual(inner, h), scale=scale, **extra))

    failures = []
    h1 = one_minus()
    hr = reciprocal()
    gates = [
        gate("dual_star_split", _JOIN, _BSUM, h1, UNIT),
        gate("dual_star_split", _SUM, _SUM, hr, EXTENDED),
        gate("dual_star_split_pair", _SUM, _MIN, hr, EXTENDED, boxplus=_SUM),
    ]
    for i, res in enumerate(gates):
        if not res.holds:
            raise DomainError(f"duality tuple {i} fails its condition: {res.witness}")
    for k in range(trials):
        rng = rng_for(seed, "dual-mink", k)
        n = 3 + k % 5
        style = k % 3
        if style == 0:
            mu = sampling.monotone_measure(seed * 31 + 17, k, n)
            f, g = sampling.comonotone_pair(rng, n, UNIT)
            res = verify_dual_minkowski("single", _JOIN, _BSUM, h1, mu, f, g, seed=k,
                                        condition_verified=True)
        elif style == 1:
            mu = sampling.monotone_measure(seed * 31 + 18, k, n)
            f, g = sampling.comonotone_pair(rng, n, EXTENDED)
            res = verify_dual_minkowski("single", _SUM, _SUM, hr, mu, f, g, seed=k,
                                        condition_verified=True)
        else:
            mu = _reciprocal_pair_measure(seed + k, n)
            f = sampling.random_fn(rng, n, EXTENDED, zero_rate=0.3)
            g = sampling.random_fn(rng, n, EXTENDED, zero_rate=0.3)
            res = verify_dual_minkowski("pair", _SUM, _MIN, hr, mu, f, g,
                                        boxplus=_SUM, seed=k, condition_verified=True)
        if not res.holds:
            failures.append({"trial": k, "style": style, "check": res.to_dict()})
    return _report("dual_minkowski", trials, failures)


# ---------------------------------------------------------------------------
# metric campaigns
# ---------------------------------------------------------------------------

def _metric_specs() -> list[MetricSpec]:
    specs = [MetricSpec("frechet"), MetricSpec("kyfan")]
    for p in (0.5, 1.0, 2.0):
        specs.append(MetricSpec("d_op_p", power_min(p, 1.0), p))
        specs.append(MetricSpec("d_op_p", power_prod(p, 1.0), p))
    return specs


def campaign_metric_axioms(trials: int, seed: int) -> dict:
    """Axiom suites for every metric kind under subadditive measures; the
    operator metrics also agree on the kyfan three-way identity."""
    specs = _metric_specs()
    failures = []
    per_spec = max(1, trials // len(specs))
    for i, spec in enumerate(specs):
        n = 3 + i % 4
        mu = sampling.subadditive_measure(seed * 37 + 19, i, n)
        res = check_metric_axioms(spec, mu, trials=per_spec, seed=seed + i)
        if not res.holds:
            failures.append({"spec": spec.describe(), "check": res.to_dict()})
    # three-way agreement of the convergence-in-measure metric
    for k in range(min(trials, 100)):
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
            failures.append({"trial": k, "threeway": [d1, d2, d3]})
    return _report("metric_axioms", trials, failures,
                   {"specs": [s.describe() for s in specs]})


def campaign_mean_convergence(trials: int, seed: int) -> dict:
    failures = []
    for k in range(trials):
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
        res = verify_mean_convergence(spec, mu, seq, limit)
        if not res.holds:
            failures.append({"trial": k, "check": res.to_dict()})
    return _report("mean_convergence", trials, failures)


def campaign_cauchy_probe(trials: int, seed: int) -> dict:
    failures = []
    for k in range(trials):
        p = (0.5, 1.0, 2.0)[k % 3]
        op = power_min(p, 1.0) if k % 2 == 0 else power_prod(p, 1.0)
        spec = MetricSpec("d_op_p", op, p)
        n = 3 + k % 5
        mu = sampling.subadditive_measure(seed * 43 + 23, k, n)
        res = cauchy_probe(spec, mu, seed=seed + k, levels=8)
        if not res.holds or res.status != "checked":
            failures.append({"trial": k, "check": res.to_dict()})
    return _report("cauchy_probe", trials, failures)


def campaign_convergence_lemmas(trials: int, seed: int) -> dict:
    """Monotone limits and the lower-bound lemma, with null-set disagreement
    planted on a zero-density atom."""
    failures = []
    for k in range(trials):
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
        res = check_convergence_lemmas(_MIN, mu, seq, limit, "monotone")
        if not res.holds:
            failures.append({"trial": k, "kind": "monotone", "check": res.to_dict()})
        osc = []
        for j in range(6):
            vals = [v * (0.5 if j % 2 else 1.0) for v in limit.values]
            osc.append(Fn(vals, NONNEG))
        limit_low = Fn([v * 0.5 for v in limit.values], NONNEG)
        res2 = check_convergence_lemmas(_MIN, mu, osc, limit_low, "fatou")
        if not res2.holds:
            failures.append({"trial": k, "kind": "fatou", "check": res2.to_dict()})
    return _report("convergence_lemmas", trials, failures)


def campaign_measure_properties(trials: int, seed: int) -> dict:
    """Generated families pass their defining checks and the implication
    chain (maxitive implies subadditive implies null-additive)."""
    failures = []
    for k in range(trials):
        n = 2 + k % 7
        kind = k % 4
        sub_seed = rng_for(seed, "measure-props", k).randrange(1 << 30)
        if kind == 0:
            mu = generate_measure(sub_seed, "possibility", n)
            checks = {"monotone": True, "maxitive": True, "subadditive": True,
                      "null_additive": True}
        elif kind == 1:
            mu = generate_measure(sub_seed, "monotonized_random", n)
            checks = {"monotone": True}
        elif kind == 2:
            mu = generate_measure(sub_seed, "distortion_concave", n)
            checks = {"monotone": True, "subadditive": True, "null_additive": True}
        else:
            mu = generate_measure(sub_seed, "non_maxitive", n)
            checks = {"monotone": True, "maxitive": False, "subadditive": True}
        for prop, expected in checks.items():
            res = check_measure_property(mu, prop)
            if res.holds != expected:
                failures.append({"trial": k, "family": kind, "prop": prop,
                                 "check": res.to_dict()})
            if prop == "maxitive" and not res.holds:
                w = res.witness
                a, b = int(w["set_a"]), int(w["set_b"])
                if not (a & b) == 0 or not mu(a | b) > max(mu(a), mu(b)):
                    failures.append({"trial": k, "reason": "witness does not replay"})
    return _report("measure_properties", trials, failures)


def campaign_counterexample(trials: int, seed: int) -> dict:
    rep = reproduce_counterexample()
    ok = (rep.violated and rep.premise.holds and not rep.power_condition.holds
          and abs(rep.lhs_grid.value - rep.lhs) <= 1e-3
          and abs(rep.rhs_each_grid.value - rep.rhs_each) <= 1e-3)
    failures = [] if ok else [{"report": rep.to_dict()}]
    return _report("counterexample", 1, failures, rep.to_dict())


CAMPAIGNS = {
    "counterexample": campaign_counterexample,
    "oracle_agreement": campaign_oracle_agreement,
    "sugeno_identity": campaign_sugeno_identity,
    "plus_assoc_comonotone": campaign_plus_assoc_comonotone,
    "h_duality_one_minus": lambda t, s: campaign_h_duality(t, s, "one_minus"),
    "h_duality_reciprocal": lambda t, s: campaign_h_duality(t, s, "reciprocal"),
    "upper_mh": campaign_upper_mh,
    "upper_mh_necessity": campaign_upper_mh_necessity,
    "seminorm_minkowski": campaign_seminorm_minkowski,
    "comonotone_subadditive": campaign_comonotone_subadditive,
    "subadditive_minkowski": campaign_subadditive_minkowski,
    "shilkret_maxitive": campaign_shilkret_maxitive,
    "sugeno_subadditive": campaign_sugeno_subadditive,
    "lower_mh": campaign_lower_mh,
    "dual_minkowski": campaign_dual_minkowski,
    "metric_axioms": campaign_metric_axioms,
    "mean_convergence": campaign_mean_convergence,
    "cauchy_probe": campaign_cauchy_probe,
    "convergence_lemmas": campaign_convergence_lemmas,
    "measure_properties": campaign_measure_properties,
}


def run_campaign(campaign_id: str, trials: int, seed: int) -> dict:
    try:
        fn = CAMPAIGNS[campaign_id]
    except KeyError:
        raise DomainError(f"unknown campaign {campaign_id!r}; known: "
                          f"{sorted(CAMPAIGNS)}") from None
    return fn(trials, seed)
