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
than pointwise equality.  Every check compares within ``core._TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conditions import cached_condition
from .core import (EXTENDED, Fn, INF, NONNEG, _TOL, _abs_gap, _at_least_one,
                   _check_length, _level_sets, _one_scale, _rel_gap, rng_for)
from .integrals import (
    _chunk_rows,
    _upper_rows,
    abs_power,
    lower_integral,
    shilkret_integral,
    upper_integral,
)
from .measures import MonotoneMeasure, check_measure_property, null_union
from .operators import BinaryOp, minimum, plain_sum, power_min, verify_flags
from .results import CheckResult, DomainError, HypothesisError
from .sampling import signed_vector

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
            if self.op is None or self.p is None or not self.p > 0:
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
    scaling = cached_condition(op, "distributive_scaling", op=op, q=p, r=1.0, scale=EXTENDED)
    if not scaling.holds:
        raise HypothesisError(
            f"operator {op.name!r} fails the distributive-scaling gate at p={p}",
            detail=scaling)
    section = cached_condition(op, "unit_section_order", op=op, scale=EXTENDED)
    if not section.holds:
        raise HypothesisError(
            f"operator {op.name!r} fails the unit-section order gate",
            detail=section)


def _abs_diff(f: Sequence[float], g: Sequence[float]) -> list[float]:
    fv = f.values if isinstance(f, Fn) else f
    gv = g.values if isinstance(g, Fn) else g
    if len(fv) != len(gv):
        raise DomainError("vectors must have equal length")
    # equal values are at distance 0, two equal infinities included
    # (|inf - inf| is nan); a nan value stays nan and fails the scale check
    # of the integrand
    return [0.0 if a == b else abs(a - b) for a, b in zip(map(float, fv), map(float, gv))]


def metric_eval(spec: MetricSpec, f: Sequence[float], g: Sequence[float],
                mu: MonotoneMeasure) -> float:
    """Distance between two real vectors under the chosen metric kind."""
    if spec.kind == "d_op_p":
        _gate_metric_op(spec)
    diff = _abs_diff(f, g)
    if spec.kind == "frechet":
        return lower_integral(Fn(diff, EXTENDED), mu, _SUM)
    if spec.kind == "kyfan":
        return upper_integral(Fn(diff, EXTENDED), mu, _MIN)
    base = upper_integral(abs_power(diff, spec.p), mu, spec.op)
    return float(base ** (1.0 / (spec.p ** 2 + 1.0)))


def _power_integrals(rows: np.ndarray, p: float, mu: MonotoneMeasure, op: BinaryOp):
    """Yield ``upper_integral(abs_power(row, p), mu, op)`` for each row of
    ``rows``, bit for bit, in one batch (``integrals._upper_rows``):
    ``np.float_power`` calls the libm ``pow`` of Python's ``**``.  A row
    whose ``**`` overflows is refused by ``abs_power`` when it is reached,
    as the scalar loop would be."""
    with np.errstate(over="ignore"):
        powered = np.float_power(np.abs(rows), p)
    overflows = (np.isinf(powered) & np.isfinite(rows)).any(axis=1).tolist()
    results = _upper_rows(powered, EXTENDED, mu, op)
    for row, overflow in zip(rows, overflows):
        if overflow:
            abs_power(row.tolist(), p)
        yield next(results).value


def _distances(spec: MetricSpec, diffs: np.ndarray, mu: MonotoneMeasure):
    """Yield ``metric_eval(spec, f, g, mu)``, without its gate, for each
    row ``_abs_gap(fs, gs)`` of the (m, n) array ``diffs``, bit for bit,
    lazily: the upper-integral kinds integrate every row in one batch,
    ``frechet`` row by row."""
    if spec.kind == "frechet":
        for diff in diffs.tolist():
            yield lower_integral(Fn(diff, EXTENDED), mu, _SUM)
    elif spec.kind == "kyfan":
        for res in _upper_rows(diffs, EXTENDED, mu, _MIN):
            yield res.value
    else:
        e = 1.0 / (spec.p ** 2 + 1.0)
        for base in _power_integrals(diffs, spec.p, mu, spec.op):
            yield float(base ** e)


def kyfan_classical(f: Sequence[float], g: Sequence[float], mu: MonotoneMeasure) -> float:
    """The classical threshold form: least eps with mu(|f-g| > eps) <= eps.

    Equals the max-min integral of |f-g| on finite spaces; kept as an
    independent route for agreement tests.
    """
    diff = Fn(_abs_diff(f, g), EXTENDED).values   # metric_eval's scale check
    _check_length(diff, mu.space)
    best = INF
    for eps, mask in zip(*_level_sets(diff, (1 << len(diff)) - 1)):
        best = min(best, max(eps, mu(mask)))
    return best


def find_triangle_violation(mu: MonotoneMeasure,
                            kinds: Sequence[str] = METRIC_KINDS) -> CheckResult:
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
            if d_total > d1 + d2 + _TOL:
                return CheckResult(True, d_total - (d1 + d2),
                                   detail={"metric": spec.describe(),
                                           "witness": {"set_a": a_set, "set_b": b_set,
                                                       "height": a, "d_total": d_total,
                                                       "d_parts": [d1, d2]}})
    return CheckResult(False, 0.0, {"reason": "no violation found",
                                    "pair": [a_set, b_set]})


def check_metric_axioms(spec: MetricSpec, mu: MonotoneMeasure, trials: int = 200,
                        seed: int = 0) -> CheckResult:
    """Seeded axiom suite: identity up to the null-support equivalence
    (both directions) and the triangle inequality.  Symmetry holds by
    construction: ``_abs_diff`` is symmetric bit for bit (``a == b`` is, and
    IEEE gives ``abs(a - b) == abs(b - a)``), so d(g, f) integrates the very
    integrand of d(f, g) and is not integrated again.

    Requires a subadditive measure (checked; on failure the raised gate
    error carries a concrete triangle breakdown when one exists); the
    operator metric additionally passes its hypothesis gates before
    anything is sampled.
    """
    _at_least_one("trials", trials)
    sub = check_measure_property(mu, "subadditive")
    if not sub.holds:
        search = find_triangle_violation(mu, kinds=(spec.kind,))
        raise HypothesisError("metric axioms need a subadditive measure",
                              detail={"subadditive": sub,
                                      "triangle_violation": search})
    if spec.kind == "d_op_p":
        _gate_metric_op(spec)
    n = mu.space.n
    weights = 1 << np.arange(n, dtype=np.int64)
    nulls = null_union(mu, _TOL)
    min_slack = INF
    step = max(1, _chunk_rows(n, EXTENDED) // 4)    # up to four distances a trial
    for start in range(0, trials, step):
        # draw a chunk of trials, then read their distances and the supports
        # of their |f - g| (the points where it is > 0) from one batch of
        # rows, in the order the checks below take them
        trial = []
        for k in range(start, min(start + step, trials)):
            rng = rng_for(seed, "metric-triple", k)
            f, g, h = (signed_vector(rng, n) for _ in range(3))
            # a genuinely equivalent perturbation must stay at distance zero
            g2 = ([v + (1.0 if nulls >> i & 1 else 0.0) for i, v in enumerate(f)]
                  if nulls and k % 7 == 0 else None)
            trial.append((f, g, h, g2))
        pairs = []
        for f, g, h, g2 in trial:
            pairs += [(f, g)] + ([(f, g2)] if g2 else []) + [(f, h), (h, g)]
        diffs = _abs_gap(np.array([a for a, _ in pairs]), np.array([b for _, b in pairs]))
        rows = zip(_distances(spec, diffs, mu), (diffs > 0.0).dot(weights).tolist())
        for f, g, h, g2 in trial:
            dfg, support = next(rows)
            # identity of indiscernibles, as the null-support equivalence
            equivalent = mu(support) <= _TOL
            dist_zero = dfg <= _TOL
            if equivalent != dist_zero:
                return CheckResult(False, dfg,
                                   {"axiom": "identity", "f": f, "g": g,
                                    "support_measure": mu(support), "distance": dfg},
                                   mode="sampled")
            if g2:
                d2, _ = next(rows)
                if d2 > _TOL:
                    return CheckResult(False, d2,
                                       {"axiom": "identity", "f": f, "g": g2,
                                        "null_set": nulls, "distance": d2},
                                       mode="sampled")
            (dfh, _), (dhg, _) = next(rows), next(rows)
            gap = dfg - (dfh + dhg)
            if gap > _TOL:
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
    return _norm(f, mu)


def _norm(f: Sequence[float], mu: MonotoneMeasure) -> float:
    """:func:`shilkret_norm` without its maxitivity gate."""
    fv = f.values if isinstance(f, Fn) else f
    return shilkret_integral(Fn([abs(float(v)) for v in fv], EXTENDED), mu)


def check_shilkret_norm(mu: MonotoneMeasure, trials: int = 100, seed: int = 0) -> CheckResult:
    """Norm axioms: exact absolute homogeneity (power-of-two factors scale
    candidate-by-candidate), tolerance-level homogeneity for general
    factors, subadditivity, and vanishing at zero.  Maxitivity is gated once,
    by the first call."""
    _at_least_one("trials", trials)
    n = mu.space.n
    if shilkret_norm([0.0] * n, mu) != 0.0:
        return CheckResult(False, 0.0, {"axiom": "zero"})
    min_slack = INF
    for k in range(trials):
        rng = rng_for(seed, "norm", k)
        f, g = signed_vector(rng, n), signed_vector(rng, n)
        base = _norm(f, mu)
        for c in (2.0, 0.5, 4.0, -2.0):
            scaled = _norm([c * v for v in f], mu)
            if scaled != abs(c) * base:
                return CheckResult(False, abs(scaled - abs(c) * base),
                                   {"axiom": "homogeneity", "c": c, "f": f,
                                    "norm": base, "scaled": scaled}, mode="sampled")
        c = rng.randrange(1, 65) / 16.0
        scaled = _norm([c * v for v in f], mu)
        if abs(scaled - c * base) > _TOL * max(1.0, base):
            return CheckResult(False, abs(scaled - c * base),
                               {"axiom": "homogeneity", "c": c, "f": f}, mode="sampled")
        s = _norm([a + b for a, b in zip(f, g)], mu)
        gap = s - (base + _norm(g, mu))
        if gap > _TOL:
            return CheckResult(False, gap,
                               {"axiom": "subadditivity", "f": f, "g": g}, mode="sampled")
        if math.isfinite(gap):
            min_slack = min(min_slack, -gap)
    return CheckResult(True, margin=min_slack, mode="sampled")


# ---------------------------------------------------------------------------
# convergence lemmas
# ---------------------------------------------------------------------------

def check_convergence_lemmas(op: BinaryOp, mu: MonotoneMeasure,
                             sequence: Sequence[Fn], limit: Fn, kind: str) -> CheckResult:
    """Monotone-limit and lower-bound lemmas for the upper integral.

    ``monotone``: the sequence must be nondecreasing off a null set; the
    integral sequence must be nondecreasing and end at the integral of the
    limit (within ``core._TOL``, exactly for stabilized sequences).  ``fatou``:
    the integral of the pointwise limit is at most the smallest integral in
    the stabilized tail.  Requires a null-additive measure and an operator
    declared and verified left-continuous in its second argument, and terms
    on the limit's scale.
    """
    if kind not in ("monotone", "fatou"):
        raise DomainError(f"unknown lemma kind {kind!r}")
    if not sequence:
        raise DomainError("empty sequence")
    nulls = check_measure_property(mu, "null_additive")
    if not nulls.holds:
        raise HypothesisError("lemmas need a null-additive measure", detail=nulls)
    verify_flags(op, ["nondecreasing", "left_continuous_second"], _one_scale(limit, *sequence))

    exempt = null_union(mu, _TOL)
    n = len(limit)
    live = [i for i in range(n) if not exempt >> i & 1]
    if kind == "monotone":
        for a, b in zip(sequence, sequence[1:]):
            if any(b[i] < a[i] - _TOL for i in live):
                raise DomainError("sequence is not nondecreasing off the null set")

    for fk in (*sequence, limit):
        _check_length(fk.values, mu.space)
    *integrals, i_limit = (res.value for res in _upper_rows(
        np.array([fk.values for fk in (*sequence, limit)]), limit.scale, mu, op))
    detail = {"integrals": integrals, "limit_integral": i_limit,
              "null_set": exempt}

    if kind == "monotone":
        for a, b in zip(integrals, integrals[1:]):
            if b < a - _TOL:
                return CheckResult(False, a - b,
                                   {"reason": "integral sequence decreased",
                                    "values": integrals}, detail=detail)
        gap = abs(_rel_gap(integrals[-1], i_limit))
        if gap > _TOL:
            return CheckResult(False, gap,
                               {"terminal": integrals[-1], "limit": i_limit},
                               detail=detail)
        return CheckResult(True, margin=gap, detail=detail)

    tail = integrals[len(integrals) // 2:]
    bound = min(tail)
    gap = _rel_gap(i_limit, bound)
    if gap > _TOL:
        return CheckResult(False, gap, {"limit_integral": i_limit,
                                        "tail_minimum": bound}, detail=detail)
    return CheckResult(True, margin=-gap if math.isfinite(gap) else INF, detail=detail)


# ---------------------------------------------------------------------------
# convergence of the means
# ---------------------------------------------------------------------------

def verify_mean_convergence(spec: MetricSpec, mu: MonotoneMeasure,
                            sequence: Sequence[Fn], limit: Fn) -> CheckResult:
    """Reverse-triangle bound: the gap between the root-exponent means of
    consecutive terms and of the limit never exceeds the metric distance."""
    if not sequence:
        raise DomainError("empty sequence")
    if spec.kind != "d_op_p":
        raise DomainError("mean convergence is stated for the operator metric")
    _gate_metric_op(spec)
    sub = check_measure_property(mu, "subadditive")
    if not sub.holds:
        raise HypothesisError("requires a subadditive measure", detail=sub)
    e = 1.0 / (spec.p ** 2 + 1.0)
    if any(len(fk.values) != len(limit.values) for fk in sequence):
        raise DomainError("vectors must have equal length")
    terms, last = np.array([fk.values for fk in sequence]), np.array(limit.values)
    # one batch: the distances' |fk - limit|**p, then the means' |limit|**p
    # and |fk|**p, read in the order the checks below take them
    integrals = _power_integrals(np.vstack([_abs_gap(terms, last), last, terms]),
                                 spec.p, mu, spec.op)
    dists = [float(next(integrals) ** e) for _ in sequence]
    if dists[-1] > min(dists) + _TOL:
        return CheckResult(False, dists[-1] - min(dists),
                           {"reason": "distances do not settle", "distances": dists},
                           status="premise-failed")
    i_limit = next(integrals) ** e
    worst = -INF
    for k, i_k in enumerate(integrals):
        i_k **= e
        gap = abs(i_k - i_limit) - dists[k]
        if gap > _TOL:
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
                 levels: int = 8, sequence: Sequence[Fn] | None = None) -> CheckResult:
    """Desk-scale reproduction of the completeness argument's bound chain.

    Generates (or takes) a sequence whose consecutive distances decay like
    4^(-k/(p^2+1)) in metric terms, then verifies, per level k: the
    definitional bound op(2^-k, mu(A_k)) <= 4^(-kp) on the jump sets, the
    scaling step up to op(1, mu(A_k)) <= 2^(-kp), the unit-section
    conclusion mu(A_k) <= 2^(-kp), and the subadditive tail bound on the
    union of the jump sets.  A supplied sequence that fails the decay
    premise reports ``premise-failed`` rather than a chain failure.

    The pointwise geometric bound off that union is not read: it holds for
    every sequence.  Off the jump sets each step at level j is below
    2^(-j/p), so the spread after level k is below the sum over j > k,
    2^(-k/p) r / (1 - r) with r = 2^(-1/p), which is under the bound
    2^(-k/p) / (1 - r) by 2^(-k/p), far more than rounding.
    """
    if sequence is None:
        _at_least_one("levels", levels)
    elif len(sequence) < 2:
        raise DomainError("the probe needs a sequence of at least two terms")
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
        # the eps loop draws nothing, so every level's u is drawn first; its
        # first eps step is read in one batch, and a step too long halves
        # eps and is read again, up to 60 reads a level
        us = [[rng.randrange(0, 9) / 8.0 for _ in range(n)] for _ in range(levels)]
        firsts = _power_integrals(
            np.array([[4.0 ** (-k / p) * v for v in u] for k, u in enumerate(us, start=1)]),
            p, mu, spec.op)
        acc, sequence = base, [Fn(base, NONNEG)]
        for k, (u, d) in enumerate(zip(us, firsts), start=1):
            eps = 4.0 ** (-k / p)
            for read in range(60):
                if read:
                    d = upper_integral(abs_power([eps * v for v in u], p), mu, spec.op)
                if d <= 4.0 ** (-k * p):
                    break
                eps /= 2.0
            acc = [a + eps * v for a, v in zip(acc, u)]
            sequence.append(Fn(acc, NONNEG))

    # the consecutive distances in one batch, up to a pair of unequal
    # lengths, which is refused once the pairs before it were read
    values = [fk.values for fk in sequence]
    same = next((k for k in range(1, len(values)) if len(values[k]) != len(values[k - 1])),
                len(values))
    rows = np.array(values[:same])
    dists = list(_distances(spec, _abs_gap(rows[:-1], rows[1:]), mu))
    if same < len(values):
        _abs_diff(values[same - 1], values[same])
    for k, d in enumerate(dists, start=1):
        if d ** exponent > 4.0 ** (-k * p) + _TOL:
            return CheckResult(False, d ** exponent - 4.0 ** (-k * p),
                               {"index": k, "distance": d},
                               status="premise-failed",
                               detail={"distances": dists})

    union = 0
    min_slack = INF
    for k in range(1, len(sequence)):
        prev, cur = sequence[k - 1], sequence[k]
        jump = [abs(a - b) ** p for a, b in zip(cur.values, prev.values)]
        mask = 0
        for i, v in enumerate(jump):
            if v >= 2.0 ** -k:
                mask |= 1 << i
        union |= mask
        mu_k = mu(mask)
        b1 = float(spec.op.fn(2.0 ** -k, mu_k))
        if b1 > 4.0 ** (-k * p) + _TOL:
            return CheckResult(False, b1 - 4.0 ** (-k * p),
                               {"stage": "definitional", "k": k, "mu": mu_k})
        b2 = float(spec.op.fn(1.0, mu_k))
        if b2 > (2.0 ** (p * k)) * b1 + _TOL:
            return CheckResult(False, b2 - (2.0 ** (p * k)) * b1,
                               {"stage": "scaling", "k": k, "mu": mu_k})
        if b2 > 2.0 ** (-k * p) + _TOL:
            return CheckResult(False, b2 - 2.0 ** (-k * p),
                               {"stage": "chain", "k": k, "mu": mu_k})
        if 2.0 ** (-k * p) < 1.0 and mu_k > 2.0 ** (-k * p) + _TOL:
            return CheckResult(False, mu_k - 2.0 ** (-k * p),
                               {"stage": "unit-section", "k": k, "mu": mu_k})
        min_slack = min(min_slack, 2.0 ** (-k * p) - mu_k)

    geo = sum(2.0 ** (-k * p) for k in range(1, len(sequence)))
    if mu(union) > geo + _TOL:
        return CheckResult(False, mu(union) - geo,
                           {"stage": "tail-union", "mu_union": mu(union), "bound": geo})
    return CheckResult(True, margin=min_slack,
                       detail={"levels": len(sequence) - 1,
                               "union_measure": mu(union),
                               "distances": dists,
                               "scope": "quantitative bound chain only; finite "
                                        "spaces make pointwise limits trivial"})
