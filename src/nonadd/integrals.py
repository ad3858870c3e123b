"""Exact evaluation of the four nonadditive integral functionals on finite
spaces, grid evaluation on survival profiles, the brute-force subset-form
oracle, and the order-reversing duality identity.

The two functional forms are

    upper:  sup over t in Y of  t o mu(D intersect {f >= t})
    lower:  inf over t in Y of  t o mu(D intersect {f > t})

with a nondecreasing operator ``o``.  On a finite space the level measure is
a step function jumping only at realized values of f, and t -> t o c is
nondecreasing, so both extrema are attained on the candidate set {0} union
{realized values} (plus the scale top for a closed scale).  Candidate
evaluation is therefore exact; this is the library's central performance
decision.  The only inexact case is an upper integral over an *open* scale
with an operator whose second-argument zero is not annihilating: there the
tail sup is approximated on a geometric ladder and the result is flagged.

``min`` as the operator gives the classical max-min integral, ``product``
the max-product integral; a semicopula gives the seminormed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    EXTENDED,
    Fn,
    INF,
    SurvivalProfile,
    UNIT,
    ValueScale,
    _rel_gap,
    subset_infima,
)
from .measures import MonotoneMeasure, dual_measure
from .operators import BinaryOp, DualityMap, minimum, op_dual, product, join, verify_flags
from .results import CheckResult, DomainError

_ORACLE_CAP = 20

_MIN = minimum()
_PROD = product()
_JOIN = join()


class IntegralResult(NamedTuple):
    value: float
    exact: bool
    level: float           # candidate attaining the extremum


class ProfileIntegralResult(NamedTuple):
    value: float
    error_bound: float
    level: float
    truncated: bool


def _unpack(f, scale: ValueScale | None):
    if isinstance(f, Fn):
        return f.values, (scale or f.scale)
    if scale is None:
        raise DomainError("raw value vectors need an explicit scale")
    return tuple(float(v) for v in f), scale


def _domain_mask(values, domain) -> int:
    full = (1 << len(values)) - 1
    if domain is None:
        return full
    if not isinstance(domain, int) or not 0 <= domain <= full:
        raise DomainError(f"invalid domain bitmask {domain!r}")
    return domain


def _desc_levels(values, domain: int):
    """Distinct values on the domain, descending, with cumulative masks.

    Returns (vals_desc, ge_masks) where ge_masks[i] is the bitmask of
    domain points with value >= vals_desc[i].
    """
    pairs: dict[float, int] = {}
    for i, v in enumerate(values):
        if domain >> i & 1:
            pairs[v] = pairs.get(v, 0) | (1 << i)
    vals = sorted(pairs, reverse=True)
    masks = []
    m = 0
    for v in vals:
        m |= pairs[v]
        masks.append(m)
    return vals, masks


def _require_nondecreasing(op: BinaryOp, scale: ValueScale):
    verify_flags(op, ["nondecreasing"], scale)


# ---------------------------------------------------------------------------
# upper integral
# ---------------------------------------------------------------------------

_TAIL_LADDER_STEPS = 12


def upper_integral_result(f, mu: MonotoneMeasure, op: BinaryOp, domain: int | None = None,
                          scale: ValueScale | None = None) -> IntegralResult:
    """sup over t in the scale of op(t, mu(D intersect {f >= t})), with
    attained level and exactness flag."""
    values, scale = _unpack(f, scale)
    domain = _domain_mask(values, domain)
    _require_nondecreasing(op, scale)

    vals_desc, ge_masks = _desc_levels(values, domain)
    candidates: list[tuple[float, int]] = [(0.0, domain)]
    for v, m in zip(vals_desc, ge_masks):
        if scale.contains(v):
            candidates.append((v, m))
    if scale.closed:
        top = scale.upper
        m_top = 0
        for v, m in zip(vals_desc, ge_masks):
            if v >= top:
                m_top = m
        candidates.append((top, m_top))

    best = -INF
    best_level = 0.0
    for t, mask in candidates:
        val = float(op.fn(t, mu(mask)))
        if val > best:
            best = val
            best_level = t
    exact = True
    if not scale.closed:
        # tail piece above the largest in-scale value: level mass is the
        # measure of points at or above the open end (constant there)
        tail_mask = 0
        for v, m in zip(vals_desc, ge_masks):
            if v >= scale.upper:
                tail_mask = m
        tail_mu = mu(tail_mask)
        if tail_mu == 0.0 and "zero_right_annihilator" in op.flags:
            pass  # tail contributes op(t, 0) = 0 exactly
        else:
            lo = max((v for v in vals_desc if scale.contains(v)), default=0.0)
            if math.isinf(scale.upper):
                ladder = [max(lo, 1.0) * 2.0 ** k for k in range(1, _TAIL_LADDER_STEPS)]
            else:
                ladder = [scale.upper - (scale.upper - lo) * 2.0 ** -k
                          for k in range(1, _TAIL_LADDER_STEPS)]
            for t in ladder:
                if not scale.contains(t):
                    continue
                val = float(op.fn(t, tail_mu))
                if val > best:
                    best = val
                    best_level = t
            exact = False  # grid-bounded: the open-end sup is only approximated
    return IntegralResult(best, exact, best_level)


def upper_integral(f, mu: MonotoneMeasure, op: BinaryOp, domain: int | None = None,
                   scale: ValueScale | None = None) -> float:
    return upper_integral_result(f, mu, op, domain, scale).value


def upper_integral_subset_oracle(f, mu: MonotoneMeasure, op: BinaryOp,
                                 domain: int | None = None,
                                 scale: ValueScale | None = None) -> float:
    """Independent route: sup over subsets A of D of op(inf of f on A, mu(A)).

    The empty subset contributes with the lattice convention inf over the
    empty set = scale top, which makes the subset form agree with the level
    form also for operators without an annihilating zero.  Evaluates all
    2^|D| subsets at once: the infima come from ``subset_infima`` and the
    measures from ``mu.subset_table``, which folds only the domain's points
    when the measure has no cached table.  Capped at |D| <= 20.
    """
    values, scale = _unpack(f, scale)
    domain = _domain_mask(values, domain)
    _require_nondecreasing(op, scale)
    bits = [i for i in range(len(values)) if domain >> i & 1]
    if len(bits) > _ORACLE_CAP:
        raise DomainError(f"oracle domain capped at {_ORACLE_CAP} points, got {len(bits)}")

    mu.space.validate_mask(domain)  # the table read below does not check masks
    best = -INF
    if bits:
        infs = subset_infima([values[i] for i in bits])[1:]
        mus = mu.subset_table(bits)[1:]
        terms = op.grid(infs, mus)
        best = float(terms.max())
    # empty-subset term: matches the level form's behaviour above the top
    # realized value
    if scale.closed:
        best = max(best, float(op.fn(scale.upper, mu(0))))
    else:
        if not (mu(0) == 0.0 and "zero_right_annihilator" in op.flags):
            lo = max((values[i] for i in bits), default=1.0)
            if math.isinf(scale.upper):
                ladder = [max(lo, 1.0) * 2.0 ** k for k in range(1, _TAIL_LADDER_STEPS)]
            else:
                ladder = [scale.upper - (scale.upper - min(lo, scale.upper)) * 2.0 ** -k
                          for k in range(1, _TAIL_LADDER_STEPS)]
            for t in ladder:
                if scale.contains(t):
                    best = max(best, float(op.fn(t, mu(0))))
    best = max(best, float(op.fn(0.0, mu(domain))))
    return best


# ---------------------------------------------------------------------------
# lower integral
# ---------------------------------------------------------------------------

def lower_integral_result(f, mu: MonotoneMeasure, op: BinaryOp, domain: int | None = None,
                          scale: ValueScale | None = None) -> IntegralResult:
    """inf over t in the scale of op(t, mu(D intersect {f > t})).

    The strict level measure is constant on [v_k, v_{k+1}) between realized
    values and t -> op(t, c) is nondecreasing, so the infimum sits at the
    left end of a piece: always exact on finite spaces.
    """
    values, scale = _unpack(f, scale)
    domain = _domain_mask(values, domain)
    _require_nondecreasing(op, scale)

    vals_desc, ge_masks = _desc_levels(values, domain)
    candidates = [0.0] + [v for v in vals_desc if scale.contains(v)]
    best = INF
    best_level = 0.0
    for t in candidates:
        gt_mask = 0
        for v, m in zip(vals_desc, ge_masks):
            if v > t:
                gt_mask = m  # masks accumulate as v decreases toward t
        val = float(op.fn(t, mu(gt_mask)))
        if val < best:
            best = val
            best_level = t
    return IntegralResult(best, True, best_level)


def lower_integral(f, mu: MonotoneMeasure, op: BinaryOp, domain: int | None = None,
                   scale: ValueScale | None = None) -> float:
    return lower_integral_result(f, mu, op, domain, scale).value


# ---------------------------------------------------------------------------
# named integral kinds
# ---------------------------------------------------------------------------

INTEGRAL_KINDS = ("upper_generalized", "lower_generalized", "sugeno", "shilkret", "seminormed")


@dataclass(frozen=True)
class IntegralSpec:
    """A named integral: kind, operator (for the generalized kinds), domain."""

    kind: str                      # one of INTEGRAL_KINDS
    op: BinaryOp | None = None
    domain: int | None = None

    def __post_init__(self):
        if self.kind not in INTEGRAL_KINDS:
            raise DomainError(f"unknown integral kind {self.kind!r}")
        if self.kind in ("upper_generalized", "lower_generalized", "seminormed") and self.op is None:
            raise DomainError(f"{self.kind} integral needs an operator")


def integral_eval(spec: IntegralSpec, f, mu: MonotoneMeasure,
                  scale: ValueScale | None = None) -> float:
    if spec.kind == "sugeno":
        return upper_integral(f, mu, _MIN, spec.domain, scale)
    if spec.kind == "shilkret":
        return upper_integral(f, mu, _PROD, spec.domain, scale)
    if spec.kind == "seminormed":
        verify_flags(spec.op, ["nondecreasing", "neutral_one"], UNIT)
        return upper_integral(f, mu, spec.op, spec.domain, scale)
    if spec.kind == "upper_generalized":
        return upper_integral(f, mu, spec.op, spec.domain, scale)
    return lower_integral(f, mu, spec.op, spec.domain, scale)


def sugeno_integral(f, mu: MonotoneMeasure, domain: int | None = None,
                    scale: ValueScale | None = None) -> float:
    return upper_integral(f, mu, _MIN, domain, scale)


def shilkret_integral(f, mu: MonotoneMeasure, domain: int | None = None,
                      scale: ValueScale | None = None) -> float:
    return upper_integral(f, mu, _PROD, domain, scale)


def abs_power(values: Sequence[float], p: float, scale: ValueScale = EXTENDED) -> Fn:
    """Adapter from a signed real vector to the nonnegative integrand |v|^p."""
    if p <= 0:
        raise DomainError("exponent must be positive")
    return Fn([abs(float(v)) ** p for v in values], scale)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def check_sugeno_identity(f, mu: MonotoneMeasure, domain: int | None = None,
                          scale: ValueScale | None = None,
                          tol: float | None = None) -> CheckResult:
    """The lower integral with join equals the upper integral with min."""
    if tol is None:
        tol = mu.tolerance()
    lo = lower_integral_result(f, mu, _JOIN, domain, scale)
    hi = upper_integral_result(f, mu, _MIN, domain, scale)
    gap = abs(_rel_gap(lo.value, hi.value))
    if gap <= tol:
        return CheckResult(True, margin=gap)
    return CheckResult(False, gap, {"lower_join": lo.value, "upper_min": hi.value,
                                    "values": list(_unpack(f, scale)[0])})


def check_h_duality(f: Fn, mu: MonotoneMeasure, op: BinaryOp, h: DualityMap,
                    tol: float = 1e-12) -> CheckResult:
    """h-conjugation identity: h^-1 of the lower integral of h(f) under mu
    equals the upper integral of f under the conjugate operator and measure."""
    scale = f.scale
    if not scale.closed:
        raise DomainError("duality identity needs a closed scale")
    h.validate_on(scale)
    hf = Fn([float(h.forward(v)) for v in f.values], scale)
    left_inner = lower_integral(hf, mu, op, None, scale)
    left = float(h.inverse(left_inner))
    mu_h = dual_measure(mu, h)
    op_h = op_dual(op, h)
    right = upper_integral(f, mu_h, op_h, None, scale)
    gap = abs(_rel_gap(left, right)) / max(1.0, abs(left), abs(right))
    if gap <= tol:
        return CheckResult(True, margin=gap)
    return CheckResult(False, gap, {"lower_route": left, "upper_route": right,
                                    "values": list(f.values)})


# ---------------------------------------------------------------------------
# survival profiles
# ---------------------------------------------------------------------------

_PROFILE_CAP = 1024.0


def profile_integral(profile: SurvivalProfile, op: BinaryOp,
                     resolution: float = 1e-4) -> ProfileIntegralResult:
    """Grid supremum of op(t, G(t)) with one refinement pass and a certified
    error bound.

    Because op is nondecreasing and G nonincreasing, op(t_right, G(t_left))
    bounds the supremum over each grid cell, so the reported uncertainty is
    rigorous rather than heuristic.  Unbounded scales are truncated at
    2^10 and flagged.
    """
    if resolution <= 0:
        raise DomainError("resolution must be positive")
    _require_nondecreasing(op, profile.scale)
    scale = profile.scale
    truncated = False
    if math.isinf(scale.upper):
        top = _PROFILE_CAP
        truncated = True
    else:
        top = scale.upper
    ts = np.arange(0.0, top, resolution)
    if scale.closed or truncated:
        ts = np.append(ts, top)
    elif ts[-1] < top - resolution / 2:
        ts = np.append(ts, top - resolution / 2)
    gs = np.asarray(profile.evaluate(ts), dtype=float)
    vals = op.grid(ts, gs)
    k = int(np.argmax(vals))
    value = float(vals[k])
    level = float(ts[k])

    # refinement around the coarse argmax
    lo = float(ts[max(k - 1, 0)])
    hi = float(ts[min(k + 1, len(ts) - 1)])
    if hi > lo:
        fine = np.linspace(lo, hi, 257)
        fg = np.asarray(profile.evaluate(fine), dtype=float)
        fv = op.grid(fine, fg)
        j = int(np.argmax(fv))
        if float(fv[j]) > value:
            value = float(fv[j])
            level = float(fine[j])

    env = op.grid(ts[1:], gs[:-1])
    envelope = float(np.max(env)) if env.size else value
    error = max(envelope - value, 0.0)
    if truncated:
        error = INF if not ("zero_right_annihilator" in op.flags
                            and profile.evaluate(top) == 0.0) else error
    return ProfileIntegralResult(value, error, level, truncated)
