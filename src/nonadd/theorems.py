"""Executable verifiers for the library's integral inequalities and
equivalence statements, plus the exact reproduction of the refuting
counterexample.

Every verifier checks its hypotheses before evaluating anything and raises
:class:`HypothesisError` when they fail, so a vacuous confirmation is
structurally impossible.  Verdicts whose premise condition fails carry
``status="condition-failed"`` instead of pretending to decide the
inequality.

Sufficiency directions evaluate their scalar condition on the realized
chain triples (subset infima paired with the subset's measure), which is
the exact value set the finite-space proof chain consumes; the dense-grid
tuple-level checks live in :mod:`nonadd.conditions` and can be run
independently.

Shared pieces: ``_verdict`` decides the integral inequality of every
verifier but the two equivalences, reading gaps by ``core._rel_gap`` (0
between two infinities); ``_mh_sides`` gives both sides of the upper and the
lower inequality, ``_sum_split`` I(f + g) against I(f) + I(g).  The indicator
sweeps of both equivalences run ``measures._pair_kernel`` over all pairs, so
their witness follows the library's one pair rule: the largest violation,
and among equal ones the smallest ``(a << n) | b``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conditions import (
    cond_counterexample_premise,
    cond_distributive_scaling,
    cond_dual_star_split,
    cond_dual_star_split_pair,
    cond_mh_upper,
    cond_sum_split,
)
from .core import (
    EXTENDED,
    FiniteSpace,
    Fn,
    INF,
    NONNEG,
    SurvivalProfile,
    UNIT,
    ValueScale,
    _rel_gap,
    expand_masks,
    iter_submasks,
    level_mask_gt,
    rng_for,
    subset_infima,
)
from .integrals import (
    ProfileIntegralResult,
    abs_power,
    lower_integral,
    profile_integral,
    shilkret_integral,
    sugeno_integral,
    upper_integral,
)
from .measures import MonotoneMeasure, _pair_kernel, check_measure_property, dual_measure
from .operators import (
    BinaryOp,
    DualityMap,
    PhiMap,
    bounded_sum,
    cached_gate,
    check_top_absorbing,
    lukasiewicz,
    op_dual,
    phi_power,
    verify_flags,
)
from .relations import is_comonotone, is_mu_subadditive, is_star_associated
from .results import CheckResult, DomainError, HypothesisError


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _domain_mask(n: int, domain) -> int:
    full = (1 << n) - 1
    return full if domain is None else domain


def _domain_bits(n: int, domain: int) -> list[int]:
    return [i for i in range(n) if domain >> i & 1]


def _star_combine(f: Fn, g: Fn, star: BinaryOp, scale: ValueScale) -> Fn:
    vals = [float(star.fn(a, b)) for a, b in zip(f.values, g.values)]
    for v in vals:
        if not scale.contains(v):
            raise HypothesisError(
                f"star combination leaves the scale {scale.describe()} (value {v!r})"
            )
    return Fn(vals, scale)


def _apply_phi(f: Fn, phi: PhiMap) -> Fn:
    return Fn([float(phi.forward(v)) for v in f.values], f.scale)


_REALIZED_CAP = 1 << 16   # submasks realized_measure_values enumerates at most


def realized_measure_values(mu: MonotoneMeasure, domain: int) -> list[float]:
    """Distinct measure values over submasks of the domain (the set the
    necessity directions quantify over)."""
    bits = _domain_bits(mu.space.n, domain)
    if (1 << len(bits)) > _REALIZED_CAP:
        raise DomainError("too many submasks; restrict the domain")
    tab = mu.table()
    masks = expand_masks(bits)
    return sorted(set(float(v) for v in tab[masks]))


def _require(gate: CheckResult, message: str) -> None:
    if not gate.holds:
        raise HypothesisError(message, detail=gate)


def _condition_failed(cond: CheckResult, detail: dict) -> CheckResult:
    return CheckResult(False, cond.margin, cond.witness, status="condition-failed",
                       detail=detail)


def _verdict(lhs: float, rhs: float, tol: float, detail: dict | None, *,
             relative: bool = False, **witness) -> CheckResult:
    """``lhs <= rhs`` within ``tol`` (times ``max(1, |rhs|)`` when ``relative``
    and rhs is finite): a failure has the gap and witness ``{lhs, rhs,
    **witness}``, a success minus the gap (``INF`` if not finite).  ``detail``
    gains both sides; ``None`` leaves a failure without detail."""
    sides = {"lhs": lhs, "rhs": rhs}
    gap = _rel_gap(lhs, rhs)
    limit = tol * max(1.0, abs(rhs) if math.isfinite(rhs) else 1.0) if relative else tol
    if gap > limit:
        return CheckResult(False, gap, {**sides, **witness},
                           detail={} if detail is None else {**detail, **sides})
    return CheckResult(True, margin=-gap if math.isfinite(gap) else INF,
                       detail={**(detail or {}), **sides})


def _sum_split(integral, mu: MonotoneMeasure, f: Fn, g: Fn) -> tuple[float, float]:
    """I(f + g) and I(f) + I(g) for nonnegative f and g."""
    s = Fn([a + b for a, b in zip(f.values, g.values)], NONNEG)
    return integral(s, mu), integral(f, mu) + integral(g, mu)


def _random_pair_probe(integral, mu: MonotoneMeasure, trials: int, seed: int, key: str,
                       tol: float) -> tuple[list[dict], float]:
    """Seeded random pairs on {0, 1/8, ..., 4}: those with I(f + g) beyond
    I(f) + I(g) + tol, and the least finite slack of the others."""
    n = mu.space.n
    violations, slack = [], INF
    for k in range(trials):
        rng = rng_for(seed, key, k)
        fv = [rng.randrange(0, 33) / 8.0 for _ in range(n)]
        gv = [rng.randrange(0, 33) / 8.0 for _ in range(n)]
        lhs, rhs = _sum_split(integral, mu, Fn(fv, NONNEG), Fn(gv, NONNEG))
        gap = _rel_gap(lhs, rhs)
        if gap > tol:
            violations.append({"f": fv, "g": gv, "lhs": lhs, "rhs": rhs})
        elif math.isfinite(gap):
            slack = min(slack, -gap)
    return violations, slack


# ---------------------------------------------------------------------------
# upper-integral inequality (three maps, three operators)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MHOperators:
    """Operator bundle for the three-integral inequalities."""

    star: BinaryOp
    combiner: BinaryOp
    circs: tuple[BinaryOp, BinaryOp, BinaryOp]
    phis: tuple[PhiMap, PhiMap, PhiMap]


_ANNIHILATING = ("nondecreasing", "zero_left_annihilator", "zero_right_annihilator")


def _gate_mh(ops: MHOperators, scale: ValueScale, combiner_flags: Sequence[str],
             circ_flags: Sequence[str], *nondecreasing: BinaryOp):
    """Gates of the three-integral inequalities, in order: the combiner, the
    star and ``nondecreasing``, the circs, the rescalings."""
    verify_flags(ops.combiner, combiner_flags, scale)
    for op in (ops.star, *nondecreasing):
        verify_flags(op, ["nondecreasing"], scale)
    for c in ops.circs:
        verify_flags(c, circ_flags, scale)
    for p in ops.phis:
        p.validate_on(scale)


def _condition_sides(ops: MHOperators, a: float, b: float, c_ab: float, c_a: float,
                     c_b: float) -> tuple[float, float]:
    """Both sides of the scalar condition at heights (a, b), with measure
    value ``c_ab`` for a star b on the left, ``c_a`` and ``c_b`` on the right."""
    p1, p2, p3 = ops.phis
    c1, c2, c3 = ops.circs
    lhs = float(p1.inverse(c1.fn(float(p1.forward(float(ops.star.fn(a, b)))), c_ab)))
    return lhs, float(ops.combiner.fn(float(p2.inverse(c2.fn(float(p2.forward(a)), c_a))),
                                      float(p3.inverse(c3.fn(float(p3.forward(b)), c_b)))))


def _chain_condition_upper(ops: MHOperators, mu: MonotoneMeasure, f: Fn, g: Fn,
                           domain: int, tol: float) -> CheckResult:
    """The scalar condition evaluated on every realized chain triple
    (inf of f on A, inf of g on A, mu(A)) for nonempty A in the domain."""
    bits = _domain_bits(len(f), domain)
    if not bits:
        return CheckResult(True)
    inf_f = subset_infima([f[i] for i in bits])[1:]
    inf_g = subset_infima([g[i] for i in bits])[1:]
    mus = mu.table()[expand_masks(bits)[1:]]
    p1, p2, p3 = ops.phis
    c1, c2, c3 = ops.circs
    lhs = p1.inverse(c1.grid(p1.forward(ops.star.grid(inf_f, inf_g)), mus))
    rhs = ops.combiner.grid(p2.inverse(c2.grid(p2.forward(inf_f), mus)),
                            p3.inverse(c3.grid(p3.forward(inf_g), mus)))
    with np.errstate(invalid="ignore"):
        gap = lhs - rhs
    gap = np.where(np.isnan(gap), 0.0, gap)
    if (gap > tol).any():
        k = int(np.argmax(gap))
        return CheckResult(False, float(gap.max()),
                           {"a": float(inf_f[k]), "b": float(inf_g[k]),
                            "c": float(mus[k]), "lhs": float(lhs[k]),
                            "rhs": float(rhs[k])})
    finite = np.isfinite(gap)
    margin = float(-gap[finite].max()) if finite.any() else INF
    return CheckResult(True, margin=margin)


def _mh_sides(integral, ops: MHOperators, mu: MonotoneMeasure, f: Fn, g: Fn,
              domain: int, scale: ValueScale) -> tuple[float, float]:
    """Both sides of the three-integral inequality under ``integral``."""
    p1, p2, p3 = ops.phis
    c1, c2, c3 = ops.circs
    fg = _star_combine(f, g, ops.star, scale)
    lhs = float(p1.inverse(integral(_apply_phi(fg, p1), mu, c1, domain, scale)))
    rf = float(p2.inverse(integral(_apply_phi(f, p2), mu, c2, domain, scale)))
    rg = float(p3.inverse(integral(_apply_phi(g, p3), mu, c3, domain, scale)))
    return lhs, float(ops.combiner.fn(rf, rg))


def verify_upper_mh(ops: MHOperators, mu: MonotoneMeasure, f: Fn, g: Fn,
                    domain: int | None = None, direction: str = "sufficiency",
                    tol: float = 1e-12, seed: int = 0,
                    necessity_grid: Sequence[float] | None = None,
                    condition_verified: bool = False) -> CheckResult:
    """Bidirectional verifier for the upper-integral inequality.

    Sufficiency: when the chain condition holds on the realized triples
    (or the caller vouches for a tuple-level grid check with
    ``condition_verified=True``), assert the integral inequality exactly.
    Necessity: on indicator pairs, a condition failure at height pair
    (a, b) and subset A must surface as a violation of the integral
    inequality itself; any triple where the inequality survives while the
    condition fails refutes necessity and is reported.
    """
    if direction not in ("sufficiency", "necessity", "both"):
        raise DomainError(f"unknown direction {direction!r}")
    scale = f.scale
    _gate_mh(ops, scale, ["nondecreasing"], _ANNIHILATING)
    domain = _domain_mask(len(f), domain)
    assoc = is_star_associated(f, g, ops.star, domain)
    _require(assoc, "functions are not star-associated on the domain")

    detail: dict = {"association_mode": assoc.mode}
    result = CheckResult(True, margin=INF, detail=detail)

    if direction in ("sufficiency", "both"):
        cond = _chain_condition_upper(ops, mu, f, g, domain, tol)
        detail["condition_chain"] = cond
        if not cond.holds and not condition_verified:
            return _condition_failed(cond, detail)
        lhs, rhs = _mh_sides(upper_integral, ops, mu, f, g, domain, scale)
        result = _verdict(lhs, rhs, tol, detail, f=list(f.values), g=list(g.values))
        detail = result.detail        # the necessity entries extend this result

    if direction in ("necessity", "both"):
        heights = list(necessity_grid) if necessity_grid is not None else \
            [k / 8.0 for k in range(9) if scale.contains(k / 8.0)]
        subsets = [m for m in iter_submasks(domain) if m]
        if len(subsets) > 64:
            rng = rng_for(seed, "necessity-subsets")
            subsets = [subsets[rng.randrange(len(subsets))] for _ in range(64)]
        checked = 0
        failures = []
        triples = ((A, c, a, b) for A in subsets for c in (mu(A),)
                   for a in heights for b in heights)
        for A, c, a, b in triples:
            if (not scale.contains(float(ops.star.fn(a, b)))
                    or _rel_gap(*_condition_sides(ops, a, b, c, c, c)) <= tol):
                continue
            # condition fails here; the indicator instance must violate
            fa = Fn.indicator(len(f), A, a, scale)
            gb = Fn.indicator(len(f), A, b, scale)
            lhs_i, rhs_i = _mh_sides(upper_integral, ops, mu, fa, gb, domain, scale)
            checked += 1
            if _rel_gap(lhs_i, rhs_i) <= tol:
                failures.append({"a": a, "b": b, "set": A, "c": c,
                                 "lhs": lhs_i, "rhs": rhs_i})
            if checked >= 200:
                break
        detail["necessity_instances"] = checked
        detail["necessity_violations_confirmed"] = checked - len(failures)
        if failures:
            return CheckResult(False, 0.0, {"necessity_failures": failures[:5]},
                               detail=detail)
    return result


# ---------------------------------------------------------------------------
# seminormed power-map specialization
# ---------------------------------------------------------------------------

def verify_seminorm_minkowski(semicopula: BinaryOp, star: BinaryOp, p: float,
                              mu: MonotoneMeasure, f: Fn, g: Fn,
                              domain: int | None = None,
                              normalization: str = "total_one",
                              tol: float = 1e-12) -> CheckResult:
    """Power-map form of the inequality for seminormed integrals.

    ``normalization`` selects the reading of the measure restriction:
    ``total_one`` requires the full-set value to equal 1, ``values_unit``
    only requires it to stay below 1.
    """
    if p <= 0:
        raise DomainError("exponent must be positive")
    verify_flags(semicopula, ["nondecreasing", "neutral_one"], UNIT)
    total = mu.total
    if normalization == "total_one":
        if abs(total - 1.0) > 1e-9:
            raise HypothesisError(f"measure total must be 1, got {total}")
    elif normalization == "values_unit":
        if total > 1.0 + 1e-9:
            raise HypothesisError(f"measure values must stay within [0, 1], top is {total}")
    else:
        raise DomainError(f"unknown normalization reading {normalization!r}")
    phi = phi_power(p)
    ops = MHOperators(star, star, (semicopula,) * 3, (phi,) * 3)
    return verify_upper_mh(ops, mu, f, g, domain, "sufficiency", tol)


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleReport:
    lhs: float
    rhs_each: float
    rhs_sum: float
    violated: bool
    lhs_grid: ProfileIntegralResult
    rhs_each_grid: ProfileIntegralResult
    premise: CheckResult
    power_condition: CheckResult

    @property
    def reproduced(self) -> bool:
        """The inequality fails, the premise holds, the power condition fails,
        and both grid values lie within 1e-3 of their closed forms."""
        return (self.violated and self.premise.holds and not self.power_condition.holds
                and abs(self.lhs_grid.value - self.lhs) <= 1e-3
                and abs(self.rhs_each_grid.value - self.rhs_each) <= 1e-3)

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs_each": self.rhs_each,
            "rhs_sum": self.rhs_sum,
            "violated": self.violated,
            "lhs_grid": {"value": self.lhs_grid.value, "error": self.lhs_grid.error_bound},
            "rhs_each_grid": {"value": self.rhs_each_grid.value,
                              "error": self.rhs_each_grid.error_bound},
            "premise_holds": self.premise.holds,
            "power_condition_holds": self.power_condition.holds,
        }


def _quadratic_peak(k: float) -> float:
    """Exact supremum of (t - k t^2)_+ over [0, 1]: the vertex value 1/(4k)
    for k >= 1/2, else the endpoint value 1 - k."""
    if k >= 0.5:
        return 1.0 / (4.0 * k)
    return 1.0 - k

def reproduce_counterexample(resolution: float = 1e-4) -> CounterexampleReport:
    """The refutation instance: two identical concave-root factors on the
    unit interval under the length measure, combined with the bounded sum
    and integrated against the Lukasiewicz t-norm.

    Survival profiles: each factor has level-set measure (1 - 4 t^2)_+, the
    combination (1 - t^2)_+, so the seminormed integrals reduce to suprema
    of concave quadratics, computed both in closed form (exact vertex
    values) and on the evaluation grid (with certified error).  The premise
    condition holds for this operator pair while the power-form inequality
    fails, which is exactly what makes the instance a refutation.
    """
    S = lukasiewicz()
    star = bounded_sum()
    factor = SurvivalProfile(UNIT, fn=lambda t: np.maximum(1.0 - 4.0 * t * t, 0.0))
    combined = SurvivalProfile(UNIT, fn=lambda t: np.maximum(1.0 - t * t, 0.0))

    # S_L(t, G(t)) = (t + G(t) - 1)_+ collapses to (t - k t^2)_+
    lhs = _quadratic_peak(1.0)
    rhs_each = _quadratic_peak(4.0)
    rhs_sum = float(star.fn(rhs_each, rhs_each))
    lhs_grid = profile_integral(combined, S, resolution)
    rhs_each_grid = profile_integral(factor, S, resolution)

    premise = cond_counterexample_premise(S, star)
    power_condition = cond_mh_upper(star, star, (S, S, S),
                                    (phi_power(1.0),) * 3, UNIT)
    return CounterexampleReport(
        lhs=lhs, rhs_each=rhs_each, rhs_sum=rhs_sum,
        violated=lhs > rhs_sum,
        lhs_grid=lhs_grid, rhs_each_grid=rhs_each_grid,
        premise=premise, power_condition=power_condition,
    )


# ---------------------------------------------------------------------------
# comonotone subadditivity of the upper integral
# ---------------------------------------------------------------------------

def verify_comonotone_subadditive(op: BinaryOp, mu: MonotoneMeasure, f: Fn, g: Fn,
                                  domain: int | None = None,
                                  tol: float = 1e-12) -> CheckResult:
    """Sum-splitting condition implies subadditivity on comonotone pairs.

    The condition is reported both over the scale grid and over the realized
    measure values (two readings of the range the scalar variable runs
    over); the integral inequality is asserted when the grid form holds.
    """
    scale = f.scale
    verify_flags(op, _ANNIHILATING, scale)
    _require(is_comonotone(f, g, domain), "functions are not comonotone")
    sums = [a + b for a, b in zip(f.values, g.values)]
    for s in sums:
        if not scale.contains(s):
            raise HypothesisError(f"pointwise sum {s!r} leaves the scale")
    domain = _domain_mask(len(f), domain)

    grid_cond = cached_gate(op, ("sum_split_grid", scale.upper, scale.closed),
                            lambda: cond_sum_split(op, scale))
    realized = realized_measure_values(mu, domain)
    realized_cond = cond_sum_split(op, scale, c_values=realized)
    detail = {"condition_grid": grid_cond, "condition_realized": realized_cond}
    if not grid_cond.holds:
        return _condition_failed(grid_cond, detail)

    lhs = upper_integral(Fn(sums, scale), mu, op, domain, scale)
    rhs = upper_integral(f, mu, op, domain, scale) + upper_integral(g, mu, op, domain, scale)
    return _verdict(lhs, rhs, tol, detail, f=list(f.values), g=list(g.values))


# ---------------------------------------------------------------------------
# subadditive-measure power inequality
# ---------------------------------------------------------------------------

def verify_subadditive_minkowski(op: BinaryOp, q: float, r: float, p: float,
                                 mu: MonotoneMeasure,
                                 f: Sequence[float], g: Sequence[float],
                                 scale: ValueScale = EXTENDED,
                                 tol: float = 1e-12,
                                 condition_verified: bool = False) -> CheckResult:
    """Root-exponent triangle-type inequality for signed integrands under a
    subadditive measure.

    Hypotheses: the operator passes the distributive-scaling condition with
    exponents (q, r) on the grid, and the measure passes the exhaustive
    subadditivity check.  The integrands are |f|^p through an explicit
    absolute-power adapter, so the integral layer only ever sees scale
    values.
    """
    if p <= 0:
        raise DomainError("exponent must be positive")
    _require(check_measure_property(mu, "subadditive"), "measure is not subadditive")
    if not condition_verified:
        cond = cond_distributive_scaling(op, q, r, scale)
        if not cond.holds:
            return _condition_failed(cond, {"condition": cond})
    if len(f) != len(g):
        raise DomainError("vectors must have equal length")
    s = [a + b for a, b in zip(f, g)]
    e = 1.0 / (p * q + 1.0)
    i_sum = upper_integral(abs_power(s, p, scale), mu, op, None, scale)
    i_f = upper_integral(abs_power(f, p, scale), mu, op, None, scale)
    i_g = upper_integral(abs_power(g, p, scale), mu, op, None, scale)
    return _verdict(i_sum ** e, i_f ** (r * e) + i_g ** (r * e), tol, None, relative=True,
                    f=list(f), g=list(g), integrals=[i_sum, i_f, i_g])


# ---------------------------------------------------------------------------
# max-product subadditivity is maxitivity
# ---------------------------------------------------------------------------

def _max_product_indicator_sweep(mu: MonotoneMeasure, tol: float) -> dict | None:
    """All indicator pairs: max(mu(A|B), 2*mu(A&B)) <= mu(A)+mu(B)."""
    tab = mu.table()

    def excess(a, b):
        m = np.maximum(tab.take(a | b), 2.0 * tab.take(a & b))
        m -= tab.take(a) + tab.take(b)
        return m

    ok, pair, _ = _pair_kernel(tab, mu.space.n, excess, tol, disjoint=False)
    if ok:
        return None
    a, b = pair
    return {"set_a": a, "set_b": b, "lhs": float(np.maximum(tab[a | b], 2.0 * tab[a & b])),
            "rhs": float(tab[a] + tab[b])}


def verify_shilkret_maxitive(mu: MonotoneMeasure, *, trials: int = 8, seed: int = 0,
                             tol: float = 1e-12) -> CheckResult:
    """Equivalence: the max-product integral is subadditive for all
    nonnegative functions iff the measure is maxitive.

    Forward evidence on a maxitive measure: no violation over all indicator
    pairs plus seeded random pairs.  Backward on a non-maxitive measure: the
    proof's two-level witness pair built from a violating disjoint pair must
    violate subadditivity with strictly positive margin.  The result also
    records three-way consistency with the exhaustive maxitivity checker.
    """
    maxres = check_measure_property(mu, "maxitive")
    n = mu.space.n
    detail: dict = {"maxitive": maxres}

    if maxres.holds:
        wit = _max_product_indicator_sweep(mu, tol)
        if wit is not None:
            return CheckResult(False, 0.0, wit,
                               detail={**detail, "stage": "indicator sweep"})
        violations, min_slack = _random_pair_probe(shilkret_integral, mu, trials, seed,
                                                   "shilkret-pairs", tol)
        if violations:
            return CheckResult(False, 0.0, {"random_pair_violations": violations[:3]},
                               detail=detail)
        detail["consistency"] = "maxitive and no violation found"
        return CheckResult(True, margin=min_slack, detail=detail)

    # backward: build the strict witness from the violating disjoint pair
    w = maxres.witness
    A, B = int(w["set_a"]), int(w["set_b"])
    if A & B:
        raise DomainError("maxitivity witness pair must be disjoint")
    mu_union = mu(A | B)
    peak = max(mu(A), mu(B))
    if math.isinf(mu_union):
        lam = 0.5
    else:
        lam = (peak / mu_union + 1.0) / 2.0
    f = Fn([1.0 if A >> i & 1 else (lam if B >> i & 1 else 0.0) for i in range(n)], NONNEG)
    g = Fn([(1.0 - lam) if B >> i & 1 else 0.0 for i in range(n)], NONNEG)
    lhs, rhs = _sum_split(shilkret_integral, mu, f, g)
    margin = _rel_gap(lhs, rhs)
    detail.update({"witness_pair": {"set_a": A, "set_b": B, "lambda": lam},
                   "lhs": lhs, "rhs": rhs,
                   "consistency": "non-maxitive and witness violates"})
    if margin > 0.0:
        return CheckResult(True, margin=margin, detail=detail)
    return CheckResult(False, -margin,
                       {"set_a": A, "set_b": B, "lhs": lhs, "rhs": rhs,
                        "reason": "witness construction failed to violate"},
                       detail=detail)


# ---------------------------------------------------------------------------
# max-min subadditivity is measure subadditivity
# ---------------------------------------------------------------------------

def _subadditive_indicator_sweep(mu: MonotoneMeasure, tol: float) -> dict | None:
    """All indicator pairs at height mu(A|B): mu(A|B) <= mu(A)+mu(B).  A pair
    of infinite height has no admissible finite level and passes."""
    tab = mu.table()
    finite = bool(np.isfinite(tab).all())

    def excess(a, b):
        height = tab.take(a | b)
        m = height - (tab.take(a) + tab.take(b))
        if not finite:      # else no height is inf and no margin nan
            m[np.isnan(m) | np.isinf(height)] = -INF
        return m

    ok, pair, _ = _pair_kernel(tab, mu.space.n, excess, tol, disjoint=False)
    if ok:
        return None
    a, b = pair
    return {"set_a": a, "set_b": b, "mu_union": float(tab[a | b]), "mu_a": float(tab[a]),
            "mu_b": float(tab[b])}


def verify_sugeno_subadditive(mu: MonotoneMeasure, *, trials: int = 8, seed: int = 0,
                              spot_checks: int = 20) -> CheckResult:
    """Equivalence between subadditivity of the max-min integral and of the
    (finite) measure itself.

    Forward: on a subadditive measure, seeded random pairs must satisfy the
    integral inequality.  Backward: for every subset pair the two-level
    indicator instance at height mu(A|B) reduces the integral inequality to
    mu(A|B) <= mu(A) + mu(B) exactly, so sweeping all pairs recovers the
    subadditivity verdict; a sample of pairs is re-verified through the
    actual integral routine to keep the sweep honest.
    """
    tol = mu.tolerance()
    sub = check_measure_property(mu, "subadditive")
    fin = check_measure_property(mu, "finite")
    detail: dict = {"subadditive": sub, "finite": fin}
    n = mu.space.n
    tab = mu.table()
    size = tab.shape[0]

    # backward sweep over all pairs via the exact two-level reduction
    sweep_wit = _subadditive_indicator_sweep(mu, tol)
    recovered_subadditive = sweep_wit is None
    detail["indicator_recovery_matches"] = (recovered_subadditive == sub.holds) \
        if fin.holds else "skipped-infinite"

    # spot-check the reduction through the real integral evaluation
    rng = rng_for(seed, "sugeno-spot")
    spots_ok = True
    for _ in range(spot_checks):
        a_set = rng.randrange(size)
        b_set = rng.randrange(size)
        height = float(tab[a_set | b_set])
        if not math.isfinite(height):
            continue
        h = height if height > 0 else 1.0
        lhs, rhs = _sum_split(sugeno_integral, mu, Fn.indicator(n, a_set, h, NONNEG),
                              Fn.indicator(n, b_set, h, NONNEG))
        direct = height <= float(tab[a_set]) + float(tab[b_set]) + tol
        via_integral = _rel_gap(lhs, rhs) <= tol
        if direct != via_integral:
            spots_ok = False
            detail["spot_mismatch"] = {"set_a": a_set, "set_b": b_set,
                                       "lhs": lhs, "rhs": rhs}
            break
    detail["spot_checks_consistent"] = spots_ok

    if sub.holds:
        violations, _ = _random_pair_probe(sugeno_integral, mu, trials, seed,
                                           "sugeno-pairs", tol)
        if violations:
            return CheckResult(False, 0.0, {"forward_violations": violations[:3]},
                               detail=detail)

    if spots_ok and (not fin.holds or recovered_subadditive == sub.holds):
        return CheckResult(True, detail=detail)
    wit = sweep_wit or {"reason": "spot checks diverged"}
    return CheckResult(False, 0.0, wit, detail=detail)


def verify_sugeno_subadditive_boundary() -> CheckResult:
    """The finiteness hypothesis matters: with an infinite total and finite
    values on a two-set cover, the indicator pair at a level above the sum
    of the parts violates integral subadditivity."""
    mu = MonotoneMeasure.explicit(FiniteSpace(2), [0.0, 2.0, 3.0, INF])
    a = 6.0  # above mu(A) + mu(B), hence above both parts
    lhs, rhs = _sum_split(sugeno_integral, mu, Fn.indicator(2, 0b01, a, NONNEG),
                          Fn.indicator(2, 0b10, a, NONNEG))
    detail = {"lhs": lhs, "rhs": rhs, "level": a, "mu": [0.0, 2.0, 3.0, "inf"]}
    if lhs > rhs:
        return CheckResult(True, margin=lhs - rhs, detail=detail)
    return CheckResult(False, 0.0, {"lhs": lhs, "rhs": rhs,
                                    "reason": "expected violation did not occur"},
                       detail=detail)


# ---------------------------------------------------------------------------
# lower-integral inequality
# ---------------------------------------------------------------------------

def _chain_condition_lower(ops: MHOperators, boxplus: BinaryOp, mu: MonotoneMeasure,
                           f: Fn, g: Fn, domain: int, tol: float) -> CheckResult:
    """The four-variable condition on the realized chain quadruples
    (a, b, mu(D & {f > a}), mu(D & {g > b}))."""
    a_cands = sorted(set([0.0] + [f[i] for i in range(len(f)) if domain >> i & 1]))
    b_cands = sorted(set([0.0] + [g[i] for i in range(len(g)) if domain >> i & 1]))
    worst = None
    worst_gap = 0.0
    slack = INF
    for a in a_cands:
        c = mu(level_mask_gt(f.values, a, domain))
        for b in b_cands:
            d = mu(level_mask_gt(g.values, b, domain))
            lhs, rhs = _condition_sides(ops, a, b, float(boxplus.fn(c, d)), c, d)
            gap = _rel_gap(lhs, rhs)
            if gap > tol and gap > worst_gap:
                worst_gap = gap
                worst = {"a": a, "b": b, "c": c, "d": d, "lhs": lhs, "rhs": rhs}
            elif math.isfinite(gap):
                slack = min(slack, -gap)
    if worst is not None:
        return CheckResult(False, worst_gap, worst)
    return CheckResult(True, margin=slack)


def verify_lower_mh(ops: MHOperators, boxplus: BinaryOp, mu: MonotoneMeasure,
                    f: Fn, g: Fn, domain: int | None = None,
                    tol: float = 1e-12) -> CheckResult:
    """Lower-integral inequality for level-union-subadditive pairs.

    Gates: monotone operators (the combiner also right-continuous), valid
    rescalings, and the pair relation itself.  The chain condition is
    evaluated on the realized quadruples; when it holds the three-integral
    inequality is asserted exactly.
    """
    scale = f.scale
    _gate_mh(ops, scale, ["nondecreasing", "right_continuous"], ["nondecreasing"], boxplus)
    domain = _domain_mask(len(f), domain)
    _require(is_mu_subadditive(f, g, boxplus, mu, domain),
             "pair is not level-union subadditive for the combiner")

    cond = _chain_condition_lower(ops, boxplus, mu, f, g, domain, tol)
    detail = {"condition_chain": cond}
    if not cond.holds:
        return _condition_failed(cond, detail)
    lhs, rhs = _mh_sides(lower_integral, ops, mu, f, g, domain, scale)
    return _verdict(lhs, rhs, tol, detail, f=list(f.values), g=list(g.values))


# ---------------------------------------------------------------------------
# duality corollaries
# ---------------------------------------------------------------------------

def verify_dual_minkowski(kind: str, star: BinaryOp, op: BinaryOp, h: DualityMap,
                          mu: MonotoneMeasure, f: Fn, g: Fn,
                          boxplus: BinaryOp | None = None,
                          tol: float = 1e-12,
                          condition_verified: bool = False) -> CheckResult:
    """Order-reversing conjugation corollaries.

    ``single``: with a top-absorbing operator and a star-associated pair,
    the split condition for the conjugate operator implies the conjugated
    lower-integral inequality.  ``pair``: with a level-union-subadditive
    pair under the conjugate measure, the paired split condition implies
    the conjugated upper-integral inequality.
    """
    scale = f.scale
    if not scale.closed:
        raise DomainError("duality corollaries need a closed scale")
    h.validate_on(scale)
    verify_flags(op, ["nondecreasing"], scale)
    verify_flags(star, ["nondecreasing"], scale)
    op_h = op_dual(op, h)

    if kind == "single":
        _require(check_top_absorbing(op, scale), "operator must absorb the scale top")
        _require(is_star_associated(f, g, star), "functions are not star-associated")
        integral = lower_integral
        condition = functools.partial(cond_dual_star_split, star, op_h, scale)
    elif kind == "pair":
        if boxplus is None:
            raise DomainError("pair corollary needs the level combiner")
        verify_flags(star, ["nondecreasing", "right_continuous"], scale)
        _require(is_mu_subadditive(f, g, boxplus, dual_measure(mu, h)),
                 "pair is not level-union subadditive under the conjugate measure")
        integral = upper_integral
        condition = functools.partial(cond_dual_star_split_pair, star, op_h, boxplus,
                                      scale)
    else:
        raise DomainError(f"unknown duality corollary kind {kind!r}")

    if condition_verified:
        detail = {"condition": "verified-by-caller"}
    else:
        cond = condition()
        detail = {"condition": cond}
        if not cond.holds:
            return _condition_failed(cond, detail)

    def transform(x: Fn) -> float:
        hx = Fn([float(h.forward(v)) for v in x.values], scale)
        return float(h.inverse(integral(hx, mu, op, None, scale)))

    lhs = transform(_star_combine(f, g, star, scale))
    rhs = float(star.fn(transform(f), transform(g)))
    return _verdict(lhs, rhs, tol, detail, relative=True, f=list(f.values), g=list(g.values))
