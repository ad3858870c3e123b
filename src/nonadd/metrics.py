"""Metrics on spaces of measurable functions built from the nonadditive
integrals, with axiom suites, the max-product norm, convergence lemmas, a
convergence-of-means bound, and a desk-scale probe of the completeness
argument's quantitative chain.

The three metric kinds:

* ``frechet`` -- inf over eps of eps + mu(|f-g| > eps), an additive
  level-penalty form (a lower integral with the plain sum);
* ``kyfan``   -- the max-min integral of |f-g|, which metrizes convergence
  in measure;
* ``d_op_p``  -- (upper integral of |f-g|^p)^(1/(p^2+1)) for an operator
  passing the distributive-scaling gate with exponents (q=p, r=1) and the
  unit-section order condition.

Identity of indiscernibles is tested as the equivalence-class statement
(the support of |f-g| is null), matching the quotient construction rather
than pointwise equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .conditions import cond_distributive_scaling, cond_unit_section_order
from .core import EXTENDED, Fn, INF, NONNEG, ValueScale, _rel_gap, level_mask_gt, rng_for
from .integrals import (
    abs_power,
    lower_integral,
    shilkret_integral,
    sugeno_integral,
    upper_integral,
)
from .measures import MonotoneMeasure, check_measure_property, null_union
from .operators import BinaryOp, cached_gate, minimum, plain_sum, power_min, verify_flags
from .results import CheckResult, DomainError, HypothesisError

_SUM = plain_sum()
_MIN = minimum()

METRIC_KINDS = ("frechet", "kyfan", "d_op_p")


@dataclass(frozen=True)
class MetricSpec:
    kind: str
    op: BinaryOp | None = None
    p: float | None = None

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise DomainError(f"unknown metric kind {self.kind!r}")
        if self.kind == "d_op_p":
            if self.op is None or self.p is None or self.p <= 0:
                raise DomainError("d_op_p needs an operator and a positive exponent")

    def describe(self) -> dict:
        out = {"kind": self.kind}
        if self.op is not None:
            out["op"] = self.op.describe()
        if self.p is not None:
            out["p"] = self.p
        return out


def _gate_metric_op(spec: MetricSpec):
    """Hypothesis gate for the operator-based metric, cached on the operator."""
    op, p = spec.op, spec.p
    scaling, section = cached_gate(
        op, ("metric_gate", p),
        lambda: (cond_distributive_scaling(op, q=p, r=1.0, scale=EXTENDED),
                 cond_unit_section_order(op, scale=EXTENDED)))
    if not scaling.holds:
        raise HypothesisError(
            f"operator {op.name!r} fails the distributive-scaling gate at p={p}",
            detail=scaling)
    if not section.holds:
        raise HypothesisError(
            f"operator {op.name!r} fails the unit-section order gate",
            detail=section)


def _abs_diff(f: Sequence[float], g: Sequence[float]) -> list[float]:
    fv = f.values if isinstance(f, Fn) else f
    gv = g.values if isinstance(g, Fn) else g
    if len(fv) != len(gv):
        raise DomainError("vectors must have equal length")
    return [abs(float(a) - float(b)) for a, b in zip(fv, gv)]


def metric_eval(spec: MetricSpec, f: Sequence[float], g: Sequence[float],
                mu: MonotoneMeasure) -> float:
    """Distance between two real vectors under the chosen metric kind."""
    diff = _abs_diff(f, g)
    if spec.kind == "frechet":
        return lower_integral(Fn(diff, EXTENDED), mu, _SUM, None, EXTENDED)
    if spec.kind == "kyfan":
        return upper_integral(Fn(diff, EXTENDED), mu, _MIN, None, EXTENDED)
    _gate_metric_op(spec)
    base = upper_integral(abs_power(diff, spec.p), mu, spec.op, None, EXTENDED)
    return float(base ** (1.0 / (spec.p ** 2 + 1.0)))


def kyfan_classical(f: Sequence[float], g: Sequence[float], mu: MonotoneMeasure) -> float:
    """The classical threshold form: least eps with mu(|f-g| > eps) <= eps.

    Equals the max-min integral of |f-g| on finite spaces; kept as an
    independent route for agreement tests.
    """
    diff = _abs_diff(f, g)
    candidates = sorted(set([0.0] + diff))
    full = (1 << len(diff)) - 1
    best = INF
    for eps in candidates:
        m = mu(level_mask_gt(diff, eps, full))
        best = min(best, max(eps, m))
    return best


def find_triangle_violation(mu: MonotoneMeasure, kinds: Sequence[str] = METRIC_KINDS,
                            tol: float = 1e-12) -> CheckResult:
    """Search for a concrete triangle-inequality breakdown on a measure that
    fails subadditivity.

    From a violating pair (A, B) the two-level construction f = a(1_A + 1_B)
    against the midpoint a 1_B at height a = mu(A|B) turns the measure gap
    into a metric gap; heights are also swept downward for the root-exponent
    metrics, whose triangle survives small gaps.  Holds means a violation
    was found; the witness replays it.
    """
    sub = check_measure_property(mu, "subadditive")
    if sub.holds:
        return CheckResult(False, 0.0, {"reason": "measure is subadditive"},
                           status="premise-failed")
    a_set, b_set = int(sub.witness["set_a"]), int(sub.witness["set_b"])
    n = mu.space.n
    height = mu(a_set | b_set)
    if not math.isfinite(height) or height <= 0:
        height = 1.0
    specs: list[MetricSpec] = []
    for kind in kinds:
        if kind == "d_op_p":
            specs.append(MetricSpec("d_op_p", power_min(1.0, 1.0), 1.0))
        else:
            specs.append(MetricSpec(kind))
    for spec in specs:
        for scale_factor in (1.0, 0.5, 0.25, 0.125):
            a = height * scale_factor
            f = [a * ((a_set >> i & 1) + (b_set >> i & 1)) for i in range(n)]
            mid = [a * (b_set >> i & 1) for i in range(n)]
            zero = [0.0] * n
            d_total = metric_eval(spec, f, zero, mu)
            d1 = metric_eval(spec, f, mid, mu)
            d2 = metric_eval(spec, mid, zero, mu)
            if d_total > d1 + d2 + tol:
                return CheckResult(True, d_total - (d1 + d2),
                                   detail={"metric": spec.describe(),
                                           "witness": {"set_a": a_set, "set_b": b_set,
                                                       "height": a, "d_total": d_total,
                                                       "d_parts": [d1, d2]}})
    return CheckResult(False, 0.0, {"reason": "no violation found",
                                    "pair": [a_set, b_set]})


def check_metric_axioms(spec: MetricSpec, mu: MonotoneMeasure, trials: int = 200,
                        seed: int = 0, tol: float = 1e-12) -> CheckResult:
    """Seeded axiom suite: symmetry (exact), identity up to the null-support
    equivalence (both directions), and the triangle inequality.

    Requires a subadditive measure (checked; on failure the raised gate
    error carries a concrete triangle breakdown when one exists); the
    operator metric additionally passes its hypothesis gates before
    anything is sampled.
    """
    sub = check_measure_property(mu, "subadditive")
    if not sub.holds:
        search = find_triangle_violation(mu, kinds=(spec.kind,))
        raise HypothesisError("metric axioms need a subadditive measure",
                              detail={"subadditive": sub,
                                      "triangle_violation": search})
    if spec.kind == "d_op_p":
        _gate_metric_op(spec)
    n = mu.space.n
    full = (1 << n) - 1
    tol_eff = max(tol, mu.tolerance())
    nulls = null_union(mu, tol_eff)
    min_slack = INF
    for k in range(trials):
        rng = rng_for(seed, "metric-triple", k)
        f = [rng.randrange(-32, 33) / 8.0 for _ in range(n)]
        g = [rng.randrange(-32, 33) / 8.0 for _ in range(n)]
        h = [rng.randrange(-32, 33) / 8.0 for _ in range(n)]
        dfg = metric_eval(spec, f, g, mu)
        dgf = metric_eval(spec, g, f, mu)
        if dfg != dgf:
            return CheckResult(False, abs(dfg - dgf),
                               {"axiom": "symmetry", "f": f, "g": g,
                                "d_fg": dfg, "d_gf": dgf}, mode="sampled")
        # identity of indiscernibles, as the null-support equivalence
        diff = _abs_diff(f, g)
        support = level_mask_gt(diff, 0.0, full)
        equivalent = mu(support) <= tol_eff
        dist_zero = dfg <= tol_eff
        if equivalent != dist_zero:
            return CheckResult(False, dfg,
                               {"axiom": "identity", "f": f, "g": g,
                                "support_measure": mu(support), "distance": dfg},
                               mode="sampled")
        # a genuinely equivalent perturbation must stay at distance zero
        if nulls and k % 7 == 0:
            g2 = [v + (1.0 if nulls >> i & 1 else 0.0) for i, v in enumerate(f)]
            d2 = metric_eval(spec, f, g2, mu)
            if d2 > tol_eff:
                return CheckResult(False, d2,
                                   {"axiom": "identity", "f": f, "g": g2,
                                    "null_set": nulls, "distance": d2},
                                   mode="sampled")
        dfh = metric_eval(spec, f, h, mu)
        dhg = metric_eval(spec, h, g, mu)
        gap = dfg - (dfh + dhg)
        if gap > tol_eff:
            return CheckResult(False, gap,
                               {"axiom": "triangle", "f": f, "g": g, "h": h,
                                "d_fg": dfg, "d_fh": dfh, "d_hg": dhg},
                               mode="sampled")
        if math.isfinite(gap):
            min_slack = min(min_slack, -gap)
    return CheckResult(True, margin=min_slack, mode="sampled",
                       detail={"trials": trials})


# ---------------------------------------------------------------------------
# the max-product norm
# ---------------------------------------------------------------------------

def shilkret_norm(f: Sequence[float], mu: MonotoneMeasure) -> float:
    """Norm candidate: the max-product integral of |f| (maxitive measures only)."""
    maxres = check_measure_property(mu, "maxitive")
    if not maxres.holds:
        raise HypothesisError("the norm requires a maxitive measure", detail=maxres)
    fv = f.values if isinstance(f, Fn) else f
    return shilkret_integral(Fn([abs(float(v)) for v in fv], EXTENDED), mu,
                             None, EXTENDED)


def check_shilkret_norm(mu: MonotoneMeasure, trials: int = 100, seed: int = 0,
                        tol: float = 1e-12) -> CheckResult:
    """Norm axioms: exact absolute homogeneity (power-of-two factors scale
    candidate-by-candidate), tolerance-level homogeneity for general
    factors, subadditivity, and vanishing at zero."""
    n = mu.space.n
    if shilkret_norm([0.0] * n, mu) != 0.0:
        return CheckResult(False, 0.0, {"axiom": "zero"})
    min_slack = INF
    for k in range(trials):
        rng = rng_for(seed, "norm", k)
        f = [rng.randrange(-32, 33) / 8.0 for _ in range(n)]
        g = [rng.randrange(-32, 33) / 8.0 for _ in range(n)]
        base = shilkret_norm(f, mu)
        for c in (2.0, 0.5, 4.0, -2.0):
            scaled = shilkret_norm([c * v for v in f], mu)
            if scaled != abs(c) * base:
                return CheckResult(False, abs(scaled - abs(c) * base),
                                   {"axiom": "homogeneity", "c": c, "f": f,
                                    "norm": base, "scaled": scaled}, mode="sampled")
        c = rng.randrange(1, 65) / 16.0
        scaled = shilkret_norm([c * v for v in f], mu)
        if abs(scaled - c * base) > tol * max(1.0, base):
            return CheckResult(False, abs(scaled - c * base),
                               {"axiom": "homogeneity", "c": c, "f": f}, mode="sampled")
        s = shilkret_norm([a + b for a, b in zip(f, g)], mu)
        gap = s - (shilkret_norm(f, mu) + shilkret_norm(g, mu))
        if gap > tol:
            return CheckResult(False, gap,
                               {"axiom": "subadditivity", "f": f, "g": g}, mode="sampled")
        if math.isfinite(gap):
            min_slack = min(min_slack, -gap)
    return CheckResult(True, margin=min_slack, mode="sampled")


# ---------------------------------------------------------------------------
# convergence lemmas
# ---------------------------------------------------------------------------

def check_convergence_lemmas(op: BinaryOp, mu: MonotoneMeasure,
                             sequence: Sequence[Fn], limit: Fn, kind: str,
                             tol: float = 1e-12) -> CheckResult:
    """Monotone-limit and lower-bound lemmas for the upper integral.

    ``monotone``: the sequence must be nondecreasing off a null set; the
    integral sequence must be nondecreasing and end at the integral of the
    limit (within ``tol``, exactly for stabilized sequences).  ``fatou``:
    the integral of the pointwise limit is at most the smallest integral in
    the stabilized tail.  Requires a null-additive measure and an operator
    declared and verified left-continuous in its second argument.
    """
    if kind not in ("monotone", "fatou"):
        raise DomainError(f"unknown lemma kind {kind!r}")
    if not sequence:
        raise DomainError("empty sequence")
    nulls = check_measure_property(mu, "null_additive")
    if not nulls.holds:
        raise HypothesisError("lemmas need a null-additive measure", detail=nulls)
    verify_flags(op, ["nondecreasing", "left_continuous_second"], limit.scale)

    exempt = null_union(mu, max(tol, mu.tolerance()))
    n = len(limit)
    live = [i for i in range(n) if not exempt >> i & 1]
    if kind == "monotone":
        for a, b in zip(sequence, sequence[1:]):
            if any(b[i] < a[i] - tol for i in live):
                raise DomainError("sequence is not nondecreasing off the null set")

    scale = limit.scale
    integrals = [upper_integral(fk, mu, op, None, scale) for fk in sequence]
    i_limit = upper_integral(limit, mu, op, None, scale)
    detail = {"integrals": integrals, "limit_integral": i_limit,
              "null_set": exempt}

    if kind == "monotone":
        for a, b in zip(integrals, integrals[1:]):
            if b < a - tol:
                return CheckResult(False, a - b,
                                   {"reason": "integral sequence decreased",
                                    "values": integrals}, detail=detail)
        gap = abs(_rel_gap(integrals[-1], i_limit))
        if gap > tol:
            return CheckResult(False, gap,
                               {"terminal": integrals[-1], "limit": i_limit},
                               detail=detail)
        return CheckResult(True, margin=gap, detail=detail)

    tail = integrals[len(integrals) // 2:]
    bound = min(tail)
    gap = _rel_gap(i_limit, bound)
    if gap > tol:
        return CheckResult(False, gap, {"limit_integral": i_limit,
                                        "tail_minimum": bound}, detail=detail)
    return CheckResult(True, margin=-gap if math.isfinite(gap) else INF, detail=detail)


# ---------------------------------------------------------------------------
# convergence of the means
# ---------------------------------------------------------------------------

def verify_mean_convergence(spec: MetricSpec, mu: MonotoneMeasure,
                            sequence: Sequence[Fn], limit: Fn,
                            tol: float = 1e-12) -> CheckResult:
    """Reverse-triangle bound: the gap between the root-exponent means of
    consecutive terms and of the limit never exceeds the metric distance."""
    if spec.kind != "d_op_p":
        raise DomainError("mean convergence is stated for the operator metric")
    _gate_metric_op(spec)
    sub = check_measure_property(mu, "subadditive")
    if not sub.holds:
        raise HypothesisError("requires a subadditive measure", detail=sub)
    e = 1.0 / (spec.p ** 2 + 1.0)
    dists = [metric_eval(spec, fk, limit, mu) for fk in sequence]
    if dists and dists[-1] > min(dists) + tol:
        return CheckResult(False, dists[-1] - min(dists),
                           {"reason": "distances do not settle", "distances": dists},
                           status="premise-failed")
    i_limit = upper_integral(abs_power(limit.values, spec.p), mu, spec.op,
                             None, EXTENDED) ** e
    worst = -INF
    for k, fk in enumerate(sequence):
        i_k = upper_integral(abs_power(fk.values, spec.p), mu, spec.op,
                             None, EXTENDED) ** e
        gap = abs(i_k - i_limit) - dists[k]
        if gap > tol:
            return CheckResult(False, gap,
                               {"index": k, "mean_gap": abs(i_k - i_limit),
                                "distance": dists[k]})
        worst = max(worst, gap)
    return CheckResult(True, margin=-worst if math.isfinite(worst) else INF,
                       detail={"distances": dists,
                               "scope": "finite-space probe; continuity classes of "
                                        "the measure are not distinguishable here"})


# ---------------------------------------------------------------------------
# completeness-argument probe
# ---------------------------------------------------------------------------

def cauchy_probe(spec: MetricSpec, mu: MonotoneMeasure, seed: int = 0,
                 levels: int = 8, sequence: Sequence[Fn] | None = None,
                 tol: float = 1e-12) -> CheckResult:
    """Desk-scale reproduction of the completeness argument's bound chain.

    Generates (or takes) a sequence whose consecutive distances decay like
    4^(-k/(p^2+1)) in metric terms, then verifies, per level k: the
    definitional bound op(2^-k, mu(A_k)) <= 4^(-kp) on the jump sets, the
    scaling step up to op(1, mu(A_k)) <= 2^(-kp), the unit-section
    conclusion mu(A_k) <= 2^(-kp), the subadditive tail bound on the union
    of the jump sets, and the pointwise geometric bound off that union.  A
    supplied sequence that fails the decay premise reports
    ``premise-failed`` rather than a chain failure.
    """
    if spec.kind != "d_op_p":
        raise DomainError("the probe is stated for the operator metric")
    _gate_metric_op(spec)
    sub = check_measure_property(mu, "subadditive")
    if not sub.holds:
        raise HypothesisError("requires a subadditive measure", detail=sub)
    p = spec.p
    n = mu.space.n
    exponent = p * p + 1.0

    if sequence is None:
        rng = rng_for(seed, "cauchy", n)
        base = [rng.randrange(0, 17) / 8.0 for _ in range(n)]
        deltas = []
        for k in range(1, levels + 1):
            eps = 4.0 ** (-k / p)
            u = [rng.randrange(0, 9) / 8.0 for _ in range(n)]
            for _ in range(60):
                trial = [eps * v for v in u]
                d = upper_integral(abs_power(trial, p), mu, spec.op, None, EXTENDED)
                if d <= 4.0 ** (-k * p):
                    break
                eps /= 2.0
            deltas.append([eps * v for v in u])
        seq = []
        acc = list(base)
        for delta in deltas:
            seq.append(Fn(list(acc), NONNEG))
            acc = [a + d for a, d in zip(acc, delta)]
        seq.append(Fn(acc, NONNEG))
        sequence = seq

    dists = [metric_eval(spec, a, b, mu) for a, b in zip(sequence, sequence[1:])]
    for k, d in enumerate(dists, start=1):
        if d ** exponent > 4.0 ** (-k * p) + tol:
            return CheckResult(False, d ** exponent - 4.0 ** (-k * p),
                               {"index": k, "distance": d},
                               status="premise-failed",
                               detail={"distances": dists})

    full = (1 << n) - 1
    jump_masks = []
    min_slack = INF
    for k in range(1, len(sequence)):
        prev, cur = sequence[k - 1], sequence[k]
        jump = [abs(a - b) ** p for a, b in zip(cur.values, prev.values)]
        mask = 0
        for i, v in enumerate(jump):
            if v >= 2.0 ** -k:
                mask |= 1 << i
        jump_masks.append(mask)
        mu_k = mu(mask)
        b1 = float(spec.op.fn(2.0 ** -k, mu_k))
        if b1 > 4.0 ** (-k * p) + tol:
            return CheckResult(False, b1 - 4.0 ** (-k * p),
                               {"stage": "definitional", "k": k, "mu": mu_k})
        b2 = float(spec.op.fn(1.0, mu_k))
        if b2 > (2.0 ** (p * k)) * b1 + tol:
            return CheckResult(False, b2 - (2.0 ** (p * k)) * b1,
                               {"stage": "scaling", "k": k, "mu": mu_k})
        if b2 > 2.0 ** (-k * p) + tol:
            return CheckResult(False, b2 - 2.0 ** (-k * p),
                               {"stage": "chain", "k": k, "mu": mu_k})
        if 2.0 ** (-k * p) < 1.0 and mu_k > 2.0 ** (-k * p) + tol:
            return CheckResult(False, mu_k - 2.0 ** (-k * p),
                               {"stage": "unit-section", "k": k, "mu": mu_k})
        min_slack = min(min_slack, 2.0 ** (-k * p) - mu_k)

    union = 0
    for m in jump_masks:
        union |= m
    geo = sum(2.0 ** (-k * p) for k in range(1, len(sequence)))
    if mu(union) > geo + tol:
        return CheckResult(False, mu(union) - geo,
                           {"stage": "tail-union", "mu_union": mu(union), "bound": geo})

    # pointwise geometric bound off the union of jump sets
    factor = 1.0 / (1.0 - 2.0 ** (-1.0 / p))
    for i in range(n):
        if union >> i & 1:
            continue
        for k in range(1, len(sequence)):
            bound = (2.0 ** (-k / p)) * factor
            spread = max(abs(sequence[r][i] - sequence[k][i])
                         for r in range(k, len(sequence)))
            if spread > bound + tol:
                return CheckResult(False, spread - bound,
                                   {"stage": "pointwise", "point": i, "k": k,
                                    "spread": spread, "bound": bound})
    return CheckResult(True, margin=min_slack,
                       detail={"levels": len(sequence) - 1,
                               "union_measure": mu(union),
                               "distances": dists,
                               "scope": "quantitative bound chain only; finite "
                                        "spaces make pointwise limits trivial"})
