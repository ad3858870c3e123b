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
independently.  A verifier that rests on a grid condition sweeps it through
``conditions.cached_condition``, once per process; no caller can vouch for
one.  Both chain conditions and the necessity cells evaluate the
one three-map formula of ``conditions._three_map_sides`` through ``op.grid``,
and both chains end in ``core._sweep``: the upper chain loops over the
realized triples, the lower chain is one slice over the f x g level grid of
``relations._level_grid``.  Their witness is the first violating cell and
their failing margin the largest violation; two infinite sides read as gap 0.
A nan cell follows the library's one nan rule: it never violates and never
sets a margin, in both chains and in the necessity cells alike, as a nan
candidate never wins the sup or inf of an integral.

Shared pieces: ``_verdict`` decides the integral inequality of every
verifier but the two equivalences, reading gaps by ``core._rel_gap`` (0
between two infinities); ``_mh_sides`` gives both sides of the upper and the
lower inequality and of the duality corollaries (h as all three maps),
``_sum_split`` I(f + g) against I(f) + I(g).  Every
integral reads its integrand on the ``Fn``'s own scale, so the verifiers of
a pair (f, g) refuse two scales (``core._one_scale``).  The max-product
indicator sweep runs ``measures._pair_kernel`` over all pairs, so its
witness follows the library's one pair rule: the largest violation, and
among equal ones the smallest ``(a << n) | b``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .conditions import (
    _three_map_sides,
    cached_condition,
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
    _TOL,
    _at_least_one,
    _check_length,
    _domain_mask,
    _domain_points,
    _one_scale,
    _rel_gap,
    _sweep,
    _sweep_cells,
    check_cells,
    expand_masks,
    rng_for,
    subset_infima,
)
from .integrals import (
    _MIN,
    _PROD,
    ProfileIntegralResult,
    _chunk_rows,
    _upper_rows,
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
    plain_sum,
    verify_flags,
)
from .relations import _level_grid, is_comonotone, is_mu_subadditive, is_star_associated
from .results import CheckResult, DomainError, HypothesisError


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _star_combine(f: Fn, g: Fn, star: BinaryOp, scale: ValueScale) -> Fn:
    vals = [float(star.fn(a, b)) for a, b in zip(f.values, g.values)]
    for v in vals:
        if not scale.contains(v):
            raise HypothesisError(
                f"star combination leaves the scale {scale.describe()} (value {v!r})"
            )
    return Fn(vals, scale)


def _apply_phi(f: Fn, phi: PhiMap) -> Fn:
    return Fn(phi.forward(np.array(f.values)).tolist(), f.scale)


def realized_measure_values(mu: MonotoneMeasure, domain: int) -> list[float]:
    """Distinct measure values over submasks of the domain (the set the
    necessity directions quantify over), ascending; each is the entry of
    its first submask in compact-mask order, which fixes the sign of a zero.
    Reads the domain's subsets only (``mu.subset_table``)."""
    vals = mu.subset_table(_domain_points(domain))
    return vals[np.unique(vals, return_index=True)[1]].tolist()


def _require(gate: CheckResult, message: str) -> None:
    if not gate.holds:
        raise HypothesisError(message, detail=gate)


def _condition_failed(cond: CheckResult, detail: dict) -> CheckResult:
    return CheckResult(False, cond.margin, cond.witness, status="condition-failed",
                       detail=detail)


def _verdict(lhs: float, rhs: float, detail: dict | None, *,
             relative: bool = False, **witness) -> CheckResult:
    """``lhs <= rhs`` within ``core._TOL`` (times ``max(1, |rhs|)`` when
    ``relative`` and rhs is finite): a failure has the gap and witness
    ``{lhs, rhs, **witness}``, a success minus the gap (``INF`` if not
    finite).  ``detail`` gains both sides; ``None`` leaves a failure without
    detail."""
    sides = {"lhs": lhs, "rhs": rhs}
    gap = _rel_gap(lhs, rhs)
    limit = _TOL * max(1.0, abs(rhs) if math.isfinite(rhs) else 1.0) if relative else _TOL
    if gap > limit:
        return CheckResult(False, gap, {**sides, **witness},
                           detail={} if detail is None else {**detail, **sides})
    return CheckResult(True, margin=-gap if math.isfinite(gap) else INF,
                       detail={**(detail or {}), **sides})


def _sum_split(integral, mu: MonotoneMeasure, f: Fn, g: Fn) -> tuple[float, float]:
    """I(f + g) and I(f) + I(g) for nonnegative f and g."""
    s = Fn([a + b for a, b in zip(f.values, g.values)], NONNEG)
    return integral(s, mu), integral(f, mu) + integral(g, mu)


def _random_pair_probe(op: BinaryOp, mu: MonotoneMeasure, trials: int, seed: int, key: str,
                       tol: float) -> tuple[list[dict], float]:
    """Seeded random pairs on {0, 1/8, ..., 4}: those with I(f + g) beyond
    I(f) + I(g) + tol under the upper integral with ``op``, and the least
    finite slack of the others.  The pairs are drawn a chunk at a time, in
    trial order, and each chunk's f + g, f and g rows are integrated in one
    batch (``integrals._upper_rows``)."""
    n = mu.space.n
    violations, slack = [], INF
    step = max(1, _chunk_rows(n, NONNEG) // 3)     # one kernel chunk per batch
    for start in range(0, trials, step):
        pairs = []
        for k in range(start, min(start + step, trials)):
            rng = rng_for(seed, key, k)
            pairs.append(([rng.randrange(0, 33) / 8.0 for _ in range(n)],
                          [rng.randrange(0, 33) / 8.0 for _ in range(n)]))
        fs, gs = np.array(pairs).transpose(1, 0, 2)
        values = [r.value for r in _upper_rows(np.concatenate([fs + gs, fs, gs]), NONNEG, mu, op)]
        m = len(pairs)
        for (fv, gv), lhs, i_f, i_g in zip(pairs, values, values[m:], values[2 * m:]):
            rhs = i_f + i_g
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
    """Operator bundle for the three-integral inequalities.  The maps may
    be one ``DualityMap`` three times: the duality corollaries read their
    sides through :func:`_mh_sides` so."""

    star: BinaryOp
    combiner: BinaryOp
    circs: tuple[BinaryOp, BinaryOp, BinaryOp]
    phis: tuple[PhiMap, PhiMap, PhiMap]


_SUM = plain_sum()
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


def _tied_sides(ops: MHOperators, a, b, c_ab, c_a, c_b):
    """Both sides of the three-map condition (``conditions._three_map_sides``)
    under ``ops``, with two infinite sides read as 0 against 0: the gap
    between two infinities is 0 (``core._rel_gap``).  Any other nan gap
    stays nan, and the cell drops out: it never violates."""
    with np.errstate(invalid="ignore", over="ignore"):
        lhs, rhs = _three_map_sides(ops.star, ops.combiner, ops.circs, ops.phis,
                                    a, b, c_ab, c_a, c_b)
    tie = np.isinf(lhs) & np.isinf(rhs)
    return np.where(tie, 0.0, lhs), np.where(tie, 0.0, rhs)


def _chain_condition_upper(ops: MHOperators, mu: MonotoneMeasure, f: Fn, g: Fn,
                           domain: int) -> CheckResult:
    """The condition on every realized chain triple (inf of f on A, inf of g
    on A, mu(A)), one cell per nonempty A in the domain in compact-mask
    order."""
    bits = _domain_points(domain)
    inf_f = subset_infima([f[i] for i in bits])[1:]
    inf_g = subset_infima([g[i] for i in bits])[1:]
    mus = mu.subset_table(bits)[1:]

    def body(i):
        a, b, c = inf_f[i], inf_g[i], mus[i]
        return (*_tied_sides(ops, a, b, c, c, c), None,
                {"a": a, "b": b, "c": c})

    return _sweep((), [(np.arange(len(mus)), body)], _TOL, "exhaustive")


def _mh_sides(integral, ops: MHOperators, mu: MonotoneMeasure, f: Fn, g: Fn,
              domain: int | None, scale: ValueScale) -> tuple[float, float]:
    """Both sides of the three-integral inequality under ``integral``."""
    p1, p2, p3 = ops.phis
    c1, c2, c3 = ops.circs
    fg = _star_combine(f, g, ops.star, scale)
    lhs = float(p1.inverse(integral(_apply_phi(fg, p1), mu, c1, domain)))
    rf = float(p2.inverse(integral(_apply_phi(f, p2), mu, c2, domain)))
    rg = float(p3.inverse(integral(_apply_phi(g, p3), mu, c3, domain)))
    return lhs, float(ops.combiner.fn(rf, rg))


def _two_level_upper(op: BinaryOp, v, w, c, mu_d: float, mu_e: float, scale: ValueScale):
    """The upper integral of h = v on A and w <= v on D minus A, where mu(A)
    = c, mu(D) = mu_d and mu(empty) = mu_e, over arrays that broadcast: the
    nan-ignoring max over the candidates 0, w and v (level sets D, D and A)
    and, on a closed scale, the top (level set D, A or empty).  An open
    scale adds no tail term when mu_e = 0 and ``op`` annihilates a right 0."""
    out = np.fmax(np.fmax(op.grid(0.0, mu_d), op.grid(w, mu_d)), op.grid(v, c))
    if scale.closed:
        top = scale.upper
        out = np.fmax(out, op.grid(top, np.where(w >= top, mu_d, np.where(v >= top, c, mu_e))))
    return out


def _necessity(ops: MHOperators, mu: MonotoneMeasure, domain: int,
               scale: ValueScale) -> tuple[list, list, np.ndarray, list]:
    """The necessity direction on indicator pairs f = a 1_A, g = b 1_A for
    nonempty A in the domain D: the distinct values c = mu(A), the heights,
    the failing condition cells over (c, a, b), and the failures among them
    (the integral inequality survives a failing cell) in (c, a, b) order.

    Each side of the inequality integrates a function with one value on A
    and one on D minus A, so it depends on A only through mu(A), given
    mu(D) and mu(empty) (:func:`_two_level_upper`).  One subset per distinct
    value, its smallest mask, stands for all; the heights are a, b = k/8 in
    the scale with a star b in the scale.  Cells and both sides are one
    broadcast over (c, a, b).
    """
    bits = _domain_points(domain)
    mus = mu.subset_table(bits)
    mu_d, mu_e = float(mus[-1]), float(mus[0])
    if not scale.closed and mu_e != 0.0:
        raise HypothesisError(f"the necessity direction on an open scale needs "
                              f"mu(empty) = 0, got {mu_e!r}")
    values, first = np.unique(mus[1:], return_index=True)
    masks = expand_masks(bits)[first + 1]
    heights = np.array([k / 8.0 for k in range(9) if scale.contains(k / 8.0)])
    check_cells(len(values) * len(heights) ** 2, "necessity sweep")
    c, a, b = values[:, None, None], heights[:, None], heights
    p1, p2, p3 = ops.phis
    c1, c2, c3 = ops.circs
    lhs, rhs = _tied_sides(ops, a, b, c, c, c)
    with np.errstate(invalid="ignore", over="ignore"):
        ab = ops.star.grid(a, b)
        failing = scale.contains_all(ab) & (lhs - rhs > _TOL)
        w1 = p1.forward(ops.star.grid(0.0, 0.0))
        lhs = p1.inverse(_two_level_upper(c1, p1.forward(ab), w1, c, mu_d, mu_e, scale))
        rhs = ops.combiner.grid(
            p2.inverse(_two_level_upper(c2, p2.forward(a), 0.0, c, mu_d, mu_e, scale)),
            p3.inverse(_two_level_upper(c3, p3.forward(b), 0.0, c, mu_d, mu_e, scale)))
        holds = ~(lhs - rhs > _TOL)    # two infinite sides and a nan gap never violate
    failures = [{"a": float(heights[i]), "b": float(heights[j]), "set": int(masks[s]),
                 "c": float(values[s]), "lhs": float(lhs[s, i, j]), "rhs": float(rhs[s, i, j])}
                for s, i, j in np.argwhere(failing & holds).tolist()]
    return values.tolist(), heights.tolist(), failing, failures


def verify_upper_mh(ops: MHOperators, mu: MonotoneMeasure, f: Fn, g: Fn,
                    domain: int | None = None, direction: str = "sufficiency") -> CheckResult:
    """Bidirectional verifier for the upper-integral inequality.

    Sufficiency: when the chain condition holds on the realized triples,
    assert the integral inequality exactly; when it fails, the result is
    ``condition-failed``.
    Necessity: on indicator pairs, a condition failure at height pair
    (a, b) and subset A must surface as a violation of the integral
    inequality itself; any cell where the inequality survives while the
    condition fails refutes necessity and is reported (see
    :func:`_necessity`).  Every subset is decided, through its measure
    value; the heights are the k/8 grid, so the result is ``grid``.
    """
    if direction not in ("sufficiency", "necessity", "both"):
        raise DomainError(f"unknown direction {direction!r}")
    scale = _one_scale(f, g)
    _gate_mh(ops, scale, ["nondecreasing"], _ANNIHILATING)
    _check_length(f.values, mu.space)
    domain = _domain_mask(len(f), domain)
    assoc = is_star_associated(f, g, ops.star, domain)
    _require(assoc, "functions are not star-associated on the domain")

    detail: dict = {"association_mode": assoc.mode}
    result = CheckResult(True, margin=INF, detail=detail)

    if direction in ("sufficiency", "both"):
        cond = _chain_condition_upper(ops, mu, f, g, domain)
        detail["condition_chain"] = cond
        if not cond.holds:
            return _condition_failed(cond, detail)
        lhs, rhs = _mh_sides(upper_integral, ops, mu, f, g, domain, scale)
        result = _verdict(lhs, rhs, detail, f=list(f.values), g=list(g.values))
        detail = result.detail        # the necessity entries extend this result

    if direction in ("necessity", "both"):
        values, heights, failing, failures = _necessity(ops, mu, domain, scale)
        instances = int(failing.sum())
        detail.update(necessity_values=len(values), necessity_heights=heights,
                      necessity_instances=instances,
                      necessity_violations_confirmed=instances - len(failures))
        if failures:
            return CheckResult(False, 0.0, {"necessity_failures": failures[:5]},
                               mode="grid", detail=detail)
        result = replace(result, mode="grid")
    return result


# ---------------------------------------------------------------------------
# seminormed power-map specialization
# ---------------------------------------------------------------------------

def verify_seminorm_minkowski(semicopula: BinaryOp, star: BinaryOp, p: float,
                              mu: MonotoneMeasure, f: Fn, g: Fn,
                              domain: int | None = None,
                              normalization: str = "total_one") -> CheckResult:
    """Power-map form of the inequality for seminormed integrals.

    ``normalization`` selects the reading of the measure restriction:
    ``total_one`` requires the full-set value to equal 1, ``values_unit``
    only requires it to stay below 1.
    """
    if not p > 0:
        raise DomainError("exponent must be positive")
    verify_flags(semicopula, ["nondecreasing", "neutral_one"], UNIT)
    total = mu.total
    if normalization == "total_one":
        if abs(total - 1.0) > _TOL:
            raise HypothesisError(f"measure total must be 1, got {total}")
    elif normalization == "values_unit":
        if total > 1.0 + _TOL:
            raise HypothesisError(f"measure values must stay within [0, 1], top is {total}")
    else:
        raise DomainError(f"unknown normalization reading {normalization!r}")
    phi = phi_power(p)
    ops = MHOperators(star, star, (semicopula,) * 3, (phi,) * 3)
    return verify_upper_mh(ops, mu, f, g, domain, "sufficiency")


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
    """Exact supremum of (t - k t^2)_+ over [0, 1] for k >= 1/2 (the
    callers pass 1 and 4): the vertex value 1/(4k), as the vertex 1/(2k)
    lies in the interval."""
    return 1.0 / (4.0 * k)


def _refuted_conditions() -> tuple[CheckResult, CheckResult]:
    """The refuted tuple's two conditions: the premise of the Lukasiewicz
    t-norm under the bounded sum, which holds, and its power-form
    condition (every map ``phi_power(1)``), which fails."""
    S, star = lukasiewicz(), bounded_sum()
    return (cached_condition(star, "counterexample_premise", semicopula=S, star=star),
            cached_condition(star, "mh_upper", star=star, combiner=star, circs=(S,) * 3,
                             phis=(phi_power(1.0),) * 3, scale=UNIT))


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

    premise, power_condition = _refuted_conditions()
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
                                  domain: int | None = None) -> CheckResult:
    """Sum-splitting condition implies subadditivity on comonotone pairs.

    The condition is reported both over the scale grid and over the realized
    measure values (two readings of the range the scalar variable runs
    over); the integral inequality is asserted when the grid form holds.
    """
    scale = _one_scale(f, g)
    verify_flags(op, _ANNIHILATING, scale)
    _require(is_comonotone(f, g, domain), "functions are not comonotone")
    fg = _star_combine(f, g, _SUM, scale)
    _check_length(f.values, mu.space)
    domain = _domain_mask(len(f), domain)

    grid_cond = cached_condition(op, "sum_split", op=op, scale=scale)
    realized = realized_measure_values(mu, domain)
    realized_cond = cond_sum_split(op, scale, c_values=realized)
    detail = {"condition_grid": grid_cond, "condition_realized": realized_cond}
    if not grid_cond.holds:
        return _condition_failed(grid_cond, detail)

    lhs = upper_integral(fg, mu, op, domain)
    rhs = upper_integral(f, mu, op, domain) + upper_integral(g, mu, op, domain)
    return _verdict(lhs, rhs, detail, f=list(f.values), g=list(g.values))


# ---------------------------------------------------------------------------
# subadditive-measure power inequality
# ---------------------------------------------------------------------------

def verify_subadditive_minkowski(op: BinaryOp, q: float, r: float, p: float,
                                 mu: MonotoneMeasure,
                                 f: Sequence[float], g: Sequence[float]) -> CheckResult:
    """Root-exponent triangle-type inequality for signed integrands under a
    subadditive measure, on the extended scale [0, inf].

    Hypotheses: the operator passes the distributive-scaling condition with
    exponents (q, r) on the grid, and the measure passes the exhaustive
    subadditivity check.  The integrands are |f|^p through an explicit
    absolute-power adapter, so the integral layer only ever sees scale
    values.
    """
    if not p > 0:
        raise DomainError("exponent must be positive")
    _require(check_measure_property(mu, "subadditive"), "measure is not subadditive")
    cond = cached_condition(op, "distributive_scaling", op=op, q=q, r=r, scale=EXTENDED)
    if not cond.holds:
        return _condition_failed(cond, {"condition": cond})
    if len(f) != len(g):
        raise DomainError("vectors must have equal length")
    s = [a + b for a, b in zip(f, g)]
    e = 1.0 / (p * q + 1.0)
    i_sum = upper_integral(abs_power(s, p), mu, op)
    i_f = upper_integral(abs_power(f, p), mu, op)
    i_g = upper_integral(abs_power(g, p), mu, op)
    return _verdict(i_sum ** e, i_f ** (r * e) + i_g ** (r * e), None, relative=True,
                    f=list(f), g=list(g), integrals=[i_sum, i_f, i_g])


# ---------------------------------------------------------------------------
# max-product subadditivity is maxitivity
# ---------------------------------------------------------------------------

def _max_product_indicator_sweep(mu: MonotoneMeasure) -> dict | None:
    """All indicator pairs: max(mu(A|B), 2*mu(A&B)) <= mu(A)+mu(B) within ``core._TOL``."""
    tab = mu.table()

    def excess(a, b):
        m = np.maximum(tab.take(a | b), 2.0 * tab.take(a & b))
        m -= tab.take(a) + tab.take(b)
        return m

    ok, pair, _ = _pair_kernel(tab, mu.space.n, excess, _TOL, "max-product sweep", disjoint=False)
    if ok:
        return None
    a, b = pair
    return {"set_a": a, "set_b": b, "lhs": float(np.maximum(tab[a | b], 2.0 * tab[a & b])),
            "rhs": float(tab[a] + tab[b])}


def verify_shilkret_maxitive(mu: MonotoneMeasure, *, trials: int = 8,
                             seed: int = 0) -> CheckResult:
    """Equivalence: the max-product integral is subadditive for all
    nonnegative functions iff the measure is maxitive.

    Forward evidence on a maxitive measure: no violation over all indicator
    pairs plus seeded random pairs, so the result is ``sampled`` unless the
    indicator sweep fails.  Backward on a non-maxitive measure: the proof's
    two-level witness pair built from a violating disjoint pair must
    violate subadditivity with strictly positive margin; a measure with no
    such pair, which fails only the derived all-pairs form, raises
    ``HypothesisError`` carrying the maxitivity result.  The result also
    records three-way consistency with the exhaustive maxitivity checker.
    """
    _at_least_one("trials", trials)
    maxres = check_measure_property(mu, "maxitive")
    n = mu.space.n
    detail: dict = {"maxitive": maxres}

    if maxres.holds:
        wit = _max_product_indicator_sweep(mu)
        if wit is not None:
            return CheckResult(False, 0.0, wit,
                               detail={**detail, "stage": "indicator sweep"})
        violations, min_slack = _random_pair_probe(_PROD, mu, trials, seed,
                                                   "shilkret-pairs", _TOL)
        detail["evidence"] = {"exhaustive": ["maxitivity check", "indicator pair sweep"],
                              "sampled": {"pairs": trials, "seed": seed}}
        if violations:
            return CheckResult(False, 0.0, {"random_pair_violations": violations[:3]},
                               mode="sampled", detail=detail)
        detail["consistency"] = "maxitive and no violation found"
        return CheckResult(True, margin=min_slack, mode="sampled", detail=detail)

    # backward: build the strict witness from the violating disjoint pair
    w = maxres.witness
    A, B = int(w["set_a"]), int(w["set_b"])
    if A & B:
        # no disjoint pair violates: only the derived all-pairs form fails,
        # which it can only do on a table that is not exactly monotone
        raise HypothesisError("the backward construction needs a disjoint pair that "
                              "violates maxitivity; the measure fails only the "
                              "derived all-pairs form", detail=maxres)
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

def verify_sugeno_subadditive(mu: MonotoneMeasure, *, trials: int = 8,
                              seed: int = 0) -> CheckResult:
    """Equivalence between subadditivity of the max-min integral and of the
    (finite) measure itself.

    Forward: on a subadditive measure, seeded random pairs must satisfy the
    integral inequality, and the result is ``sampled``.  Backward: for a
    subset pair (A, B), the two-level indicator instance f = h 1_A,
    g = h 1_B at height h = mu(A|B) reduces the integral inequality to
    mu(A|B) <= mu(A) + mu(B) exactly, so on a finite measure the
    subadditivity check decides every such instance.  On
    a finite measure that is not subadditive, the instance of the check's
    witness pair is replayed through the integral and must violate it;
    ``indicator_recovery_matches`` records the outcome (``True`` when the
    measure is subadditive, ``"skipped-infinite"`` on an infinite measure).
    """
    _at_least_one("trials", trials)
    tol = mu.tolerance()
    sub = check_measure_property(mu, "subadditive")
    fin = check_measure_property(mu, "finite")
    detail: dict = {"subadditive": sub, "finite": fin,
                    "indicator_recovery_matches": fin.holds or "skipped-infinite"}

    if fin.holds and not sub.holds:
        w = sub.witness
        f, g = (Fn.indicator(mu.space.n, w[s], w["mu_union"], NONNEG) for s in ("set_a", "set_b"))
        lhs, rhs = _sum_split(sugeno_integral, mu, f, g)
        if not _rel_gap(lhs, rhs) > tol:
            detail["indicator_recovery_matches"] = False
            return CheckResult(False, 0.0, {**w, "lhs": lhs, "rhs": rhs}, detail=detail)

    if not sub.holds:
        return CheckResult(True, detail=detail)
    violations, _ = _random_pair_probe(_MIN, mu, trials, seed, "sugeno-pairs", tol)
    detail["evidence"] = {"exhaustive": ["subadditivity check", "finiteness check"],
                          "sampled": {"pairs": trials, "seed": seed}}
    if violations:
        return CheckResult(False, 0.0, {"forward_violations": violations[:3]},
                           mode="sampled", detail=detail)
    return CheckResult(True, mode="sampled", detail=detail)


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
                           f: Fn, g: Fn, domain: int) -> CheckResult:
    """The four-variable condition on the realized chain quadruples
    (a, b, mu(D & {f > a}), mu(D & {g > b})), one cell per threshold pair:
    f's thresholds as rows, g's as columns."""
    a, mask_f, b, mask_g = _level_grid(f, g, mu, domain)
    c, d = mu.masses(mask_f), mu.masses(mask_g)
    with np.errstate(invalid="ignore", over="ignore"):
        c_ab = boxplus.grid(c, d)
    cells = (*_tied_sides(ops, a, b, c_ab, c, d), None, {"a": a, "b": b, "c": c, "d": d})
    return _sweep_cells((a.shape[0], b.shape[1]), [cells], _TOL, "exhaustive")


def verify_lower_mh(ops: MHOperators, boxplus: BinaryOp, mu: MonotoneMeasure,
                    f: Fn, g: Fn, domain: int | None = None) -> CheckResult:
    """Lower-integral inequality for level-union-subadditive pairs.

    Gates: monotone operators (the combiner also right-continuous), valid
    rescalings, and the pair relation itself.  The chain condition is
    evaluated on the realized quadruples; when it holds the three-integral
    inequality is asserted exactly.
    """
    scale = _one_scale(f, g)
    _gate_mh(ops, scale, ["nondecreasing", "right_continuous"], ["nondecreasing"], boxplus)
    domain = _domain_mask(len(f), domain)
    _require(is_mu_subadditive(f, g, boxplus, mu, domain),
             "pair is not level-union subadditive for the combiner")

    cond = _chain_condition_lower(ops, boxplus, mu, f, g, domain)
    detail = {"condition_chain": cond}
    if not cond.holds:
        return _condition_failed(cond, detail)
    lhs, rhs = _mh_sides(lower_integral, ops, mu, f, g, domain, scale)
    return _verdict(lhs, rhs, detail, f=list(f.values), g=list(g.values))


# ---------------------------------------------------------------------------
# duality corollaries
# ---------------------------------------------------------------------------

def verify_dual_minkowski(kind: str, star: BinaryOp, op: BinaryOp, h: DualityMap,
                          mu: MonotoneMeasure, f: Fn, g: Fn,
                          boxplus: BinaryOp | None = None) -> CheckResult:
    """Order-reversing conjugation corollaries.

    ``single``: with a top-absorbing operator and a star-associated pair,
    the split condition for the conjugate operator implies the conjugated
    lower-integral inequality.  ``pair``: with a level-union-subadditive
    pair under the conjugate measure, the paired split condition implies
    the conjugated upper-integral inequality.
    """
    scale = _one_scale(f, g)
    if not scale.closed:
        raise DomainError("duality corollaries need a closed scale")
    h.validate_on(scale)
    verify_flags(op, ["nondecreasing"], scale)
    verify_flags(star, ["nondecreasing"], scale)
    op_h = op_dual(op, h)

    if kind == "single":
        _require(cached_gate(op, ("top_absorbing", scale), lambda: check_top_absorbing(op, scale)),
                 "operator must absorb the scale top")
        _require(is_star_associated(f, g, star), "functions are not star-associated")
        integral = lower_integral
        cond = cached_condition(star, "dual_star_split", star=star, op_h=op_h, scale=scale)
    elif kind == "pair":
        if boxplus is None:
            raise DomainError("pair corollary needs the level combiner")
        verify_flags(star, ["right_continuous"], scale)
        _require(is_mu_subadditive(f, g, boxplus, dual_measure(mu, h)),
                 "pair is not level-union subadditive under the conjugate measure")
        integral = upper_integral
        cond = cached_condition(star, "dual_star_split_pair", star=star, op_h=op_h,
                                boxplus=boxplus, scale=scale)
    else:
        raise DomainError(f"unknown duality corollary kind {kind!r}")

    detail = {"condition": cond}
    if not cond.holds:
        return _condition_failed(cond, detail)

    lhs, rhs = _mh_sides(integral, MHOperators(star, star, (op,) * 3, (h,) * 3),
                         mu, f, g, None, scale)
    return _verdict(lhs, rhs, detail, relative=True, f=list(f.values), g=list(g.values))
