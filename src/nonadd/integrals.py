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
decision.  On an *open* scale the upper form's sup also runs over the levels
between the largest value and the open end, where the level mass is the
tail mass mu(D intersect {f >= top}); that tail is skipped only when it is
exactly 0 (zero tail mass and a declared zero right annihilator that passes
its gate, ``_zero_tail``).  Any other open-end tail is a limit that no
candidate attains, and both upper routes refuse it with ``HypothesisError``
(``_require_zero_tail``) rather than report an approximation.
A candidate at which the operator is nan never wins the sup or the inf: both
forms and the subset oracle skip it, and refuse an operator that is nan at
every candidate with a ``DomainError``.

Both forms read one level-set pass, ``core._level_sets``: at the thresholds
T = sorted({0} union {values on D}) it gives A[j] = D intersect {f > T[j]},
the lower form's sets, and D intersect {f >= T[j]} = A[j-1] (D itself for
j = 0), the upper form's.  One bisection of T finds the set at the scale top,
whose mass is the top candidate's on a closed scale and the tail mass on an
open one.

Every integrand is an ``Fn``, read on its own scale; anything else, or a
function of another length than the space, is refused, and the domain is
checked against the space once per call (``MonotoneMeasure.mass_reader``).
Every level set is a submask of the domain, so the level masses are then
read unchecked: from a table-less possibility measure's per-block max
folds, and from the measure's table, built if need be, otherwise.

Loops that integrate many integrands against one measure and operator over
the whole space take the batch route, ``_upper_rows``: an (m, n) array of
values on one scale, read in chunks of at most ``core._CHUNK_CELLS``
candidates (``_chunk_rows`` rows), which also sizes the callers' draws.  Per
row one stable descending argsort and one ``bitwise_or.accumulate`` give the
level sets, one ``mu.masses`` gather their masses and one ``op.grid`` call
the candidates, which ``test_fn_equals_grid_bit_for_bit`` holds equal to
``op.fn``.  The columns run in the scalar candidate order: 0 over the
space, one per point in descending value order, then the top of a closed
scale.  The columns of a run of equal values all read the set at its end,
and a zero run the whole space, so each repeats one scalar candidate
exactly; the first maximum of the row, nan skipped, then has the scalar
route's value and level (a strict ``>`` keeps the first of equal maxima).  The gates run once
per call, and a row that is nan at every candidate is refused when it is
reached.  Single integrals keep the scalar loop, the batch's reference.

``min`` as the operator gives the classical max-min integral, ``product``
the max-product integral; a semicopula gives the seminormed form.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    EXTENDED,
    Fn,
    INF,
    SurvivalProfile,
    UNIT,
    ValueScale,
    _CHUNK_CELLS,
    _TOL,
    _check_length,
    _domain_mask,
    _domain_points,
    _in_scale_values,
    _level_sets,
    _rel_gap,
    check_cells,
    subset_infima,
)
from .measures import MonotoneMeasure, dual_measure
from .operators import BinaryOp, DualityMap, minimum, op_dual, product, join, verify_flags
from .results import CheckResult, DomainError, HypothesisError

_MIN = minimum()
_PROD = product()
_JOIN = join()
_GATE = ("nondecreasing",)   # the flag every integral requires of its operator


class IntegralResult(NamedTuple):
    value: float
    exact: bool            # always True: an open-end tail that is not 0 raises
    level: float           # candidate attaining the extremum


class ProfileIntegralResult(NamedTuple):
    value: float
    error_bound: float
    level: float
    truncated: bool


def _unpack(f: Fn, mu: MonotoneMeasure, domain: int | None = None):
    """The values and scale of an integrand, which must be an ``Fn`` of the
    length of ``mu``'s space, and its checked domain mask."""
    if not isinstance(f, Fn):
        raise DomainError(f"an integrand is an Fn, which carries its scale; got "
                          f"{type(f).__name__}")
    _check_length(f.values, mu.space)
    return f.values, f.scale, _domain_mask(len(f.values), domain)


def _positive_levels(ts: list[float], scale: ValueScale) -> range:
    """Indices of the thresholds in the scale above 0, descending: the
    candidates after 0, in the order both integrals evaluate them."""
    end = bisect_right(ts, scale.upper) if scale.closed else bisect_left(ts, scale.upper)
    return range(end - 1, 0, -1)                 # ts[0] is 0.0 (``core._level_sets``)


def _refuse_all_nan(op: BinaryOp, vals) -> None:
    """Refuse an operator whose values at the candidates are all nan: no
    candidate is left to attain the extremum."""
    if np.isnan(vals).all():
        raise DomainError(f"operator {op.name!r} is nan at every candidate level")


# ---------------------------------------------------------------------------
# upper integral
# ---------------------------------------------------------------------------

def _zero_tail(op: BinaryOp, scale: ValueScale, tail_mu: float) -> bool:
    """Whether the open-end tail of an open scale adds exactly 0: no mass at
    or above the top and a zero right annihilator, declared and passing its
    gate (a false declaration raises ``HypothesisError``)."""
    if tail_mu == 0.0 and "zero_right_annihilator" in op.flags:
        verify_flags(op, ("zero_right_annihilator",), scale)
        return True
    return False


def _require_zero_tail(op: BinaryOp, scale: ValueScale, tail_mu: float) -> None:
    """Refuse an open-end tail that ``_zero_tail`` does not prove 0: its sup
    over the levels below the top is a limit that no candidate attains."""
    if not _zero_tail(op, scale, tail_mu):
        raise HypothesisError(
            f"operator {op.name!r} leaves the open end of {scale.describe()} at tail mass "
            f"{tail_mu!r}: the upper integral is exact only for tail mass 0 under a "
            f"declared 'zero_right_annihilator'")


def upper_integral_result(f: Fn, mu: MonotoneMeasure, op: BinaryOp,
                          domain: int | None = None) -> IntegralResult:
    """sup over t in f's scale of op(t, mu(D intersect {f >= t})), with the
    attained level; ``exact`` is always True.  An open scale whose tail is
    not exactly 0 raises ``HypothesisError``."""
    values, scale, domain = _unpack(f, mu, domain)
    verify_flags(op, _GATE, scale)
    mass = mu.mass_reader(domain)
    ts, above = _level_sets(values, domain)
    top = bisect_left(ts, scale.upper)  # above[top - 1] = D intersect {f >= scale top}
    tail_mu = mass(above[top - 1])
    if scale.closed:
        tail = (scale.upper,)
    else:
        _require_zero_tail(op, scale, tail_mu)
        tail = ()
    # candidates: 0 over D, each positive level ts[j] (descending) over
    # D intersect {f >= ts[j]} = above[j - 1], then the top of a closed scale
    fn = op.fn
    levels = _positive_levels(ts, scale)
    best, best_level = -INF, 0.0
    for j in chain((0,), levels):
        t, c = (ts[j], above[j - 1]) if j else (0.0, domain)
        val = float(fn(t, mass(c)))
        if val > best:
            best, best_level = val, t
    for t in tail:
        val = float(fn(t, tail_mu))
        if val > best:
            best, best_level = val, t
    if best == -INF:
        _refuse_all_nan(op, [fn(0.0, mass(domain)), *(fn(ts[j], mass(above[j - 1])) for j in levels),
                             *(fn(t, tail_mu) for t in tail)])
    return IntegralResult(best, True, best_level)


def upper_integral(f: Fn, mu: MonotoneMeasure, op: BinaryOp, domain: int | None = None) -> float:
    return upper_integral_result(f, mu, op, domain).value


def _chunk_rows(n: int, scale: ValueScale) -> int:
    """Rows of n points on ``scale`` in one chunk of the batch route: at
    most ``core._CHUNK_CELLS`` candidates of n + 1, or n + 2 on a closed
    scale."""
    return max(1, _CHUNK_CELLS // (n + 1 + scale.closed))


def _upper_rows(rows: np.ndarray, scale: ValueScale, mu: MonotoneMeasure, op: BinaryOp):
    """Yield ``upper_integral_result(Fn(row, scale), mu, op)`` for each row
    of the (m, n) float array ``rows``, in order and bit for bit (the batch
    route of the module docstring).

    On the first row it refuses what the scalar route refuses on the first
    call: the first entry outside ``scale``, in row order, with ``Fn``'s
    message, then a length, gate or open-tail refusal.  A row whose
    candidates are all nan raises when it is reached, after the rows before
    it were yielded."""
    m, n = rows.shape
    if not m:
        return
    closed, upper = scale.closed, scale.upper
    low, high = rows.min(), rows.max()                  # nan reads outside the scale
    if not (low >= 0.0 and (high <= upper if closed else high < upper)):
        inside = scale.contains_all(rows).all(axis=1)
        _in_scale_values(tuple(rows[int(np.argmin(inside))].tolist()), scale)
    _check_length(rows[0], mu.space)
    verify_flags(op, _GATE, scale)
    if not closed:
        _require_zero_tail(op, scale, mu(0))      # every value is below the open top
    full = mu.space.full
    weights = 1 << np.arange(n, dtype=np.int64)
    cols = n + 1 + closed          # 0, one column per point, the closed top
    step = _chunk_rows(n, scale)
    for start in range(0, m, step):
        neg = -rows[start:start + step]                 # ascending -x: descending x
        ts = np.empty((len(neg), cols))
        masks = np.empty((len(neg), cols), dtype=np.int64)
        ts[:, 0] = 0.0
        masks[:, 0] = full
        order = neg.argsort(axis=1, kind="stable")
        neg.sort(axis=1)
        sets = np.bitwise_or.accumulate(weights.take(order), axis=1)
        # a run of equal values takes the set at its end, {f >= t}, the
        # least set of the run ends after it: the run's other columns
        # repeat its candidate, and a zero run repeats (0, full set)
        np.copyto(sets[:, :-1], 1 << 62, where=neg[:, :-1] == neg[:, 1:])
        np.minimum.accumulate(sets[:, ::-1], axis=1, out=masks[:, n:0:-1])
        np.subtract(0.0, neg, out=ts[:, 1:n + 1])       # a -0.0 value is the level 0.0
        if closed:                                      # the top run's set holds the top
            ts[:, -1] = upper
            masks[:, -1] = np.where(neg[:, 0] <= -upper, masks[:, 1], 0)
        vals = op.grid(ts, mu.masses(masks))
        # nan never wins (fmax reads it as -inf); the first maximum is the
        # scalar route's, and with none above -inf it is (0, full set) at level 0.0
        at = np.fmax(vals, -INF).argmax(axis=1) + np.arange(0, vals.size, cols)
        for i, (value, level) in enumerate(zip(vals.take(at).tolist(), ts.take(at).tolist())):
            if value != value:            # a nan first maximum: -inf or nan everywhere
                _refuse_all_nan(op, vals[i])
                value = -INF
            yield IntegralResult(value, True, level)


def upper_integral_subset_oracle(f: Fn, mu: MonotoneMeasure, op: BinaryOp,
                                 domain: int | None = None) -> float:
    """Independent route: sup over subsets A of D of op(inf of f on A, mu(A)).

    The empty subset contributes with the lattice convention inf over the
    empty set = scale top, which makes the subset form agree with the level
    form also for operators without an annihilating zero; on an open scale
    the top is no level, and the empty set's mass mu(0), the level form's
    tail mass, must be an exactly zero tail or the oracle raises
    ``HypothesisError`` as the level form does.  Evaluates all 2^|D| subsets
    at once: the infima come from ``subset_infima`` and the measures from
    ``mu.subset_table``, which folds only the domain's points when the
    measure has no cached table; the space bounds its 2^|D| cells.
    """
    values, scale, domain = _unpack(f, mu, domain)
    verify_flags(op, _GATE, scale)
    bits = _domain_points(domain)
    if not scale.closed:
        _require_zero_tail(op, scale, mu(0))
    best = -INF
    terms = []
    if bits:
        infs = subset_infima([values[i] for i in bits])[1:]
        mus = mu.subset_table(bits)[1:]
        terms = op.grid(infs, mus)
        best = float(np.fmax.reduce(terms, initial=-INF))   # nan terms drop out
    # the empty-subset term on a closed scale, then the level-0 term
    scalar_terms = [float(op.fn(scale.upper, mu(0)))] if scale.closed else []
    scalar_terms.append(float(op.fn(0.0, mu(domain))))
    for val in scalar_terms:
        best = max(best, val)
    if best == -INF:
        _refuse_all_nan(op, np.append(terms, scalar_terms))
    return best


# ---------------------------------------------------------------------------
# lower integral
# ---------------------------------------------------------------------------

def lower_integral_result(f: Fn, mu: MonotoneMeasure, op: BinaryOp,
                          domain: int | None = None) -> IntegralResult:
    """inf over t in f's scale of op(t, mu(D intersect {f > t})).

    The strict level measure is constant on [v_k, v_{k+1}) between realized
    values and t -> op(t, c) is nondecreasing, so the infimum sits at the
    left end of a piece: always exact on finite spaces.  Candidates run
    from 0 and then down from the largest in-scale value.

    The candidate 0 reads op(0, mu(D intersect {f > 0})), so under an
    operator with op(0, c) = 0 for every c (``min``, ``product``,
    ``lukasiewicz``, every semicopula) the lower integral is 0 for every
    function and measure.
    """
    values, scale, domain = _unpack(f, mu, domain)
    verify_flags(op, _GATE, scale)
    mass = mu.mass_reader(domain)
    ts, above = _level_sets(values, domain)
    # candidates: 0, then the positive levels ts[j] descending, over above[j]
    fn = op.fn
    levels = _positive_levels(ts, scale)
    best, best_level = INF, 0.0
    for j in chain((0,), levels):
        t = ts[j]
        val = float(fn(t, mass(above[j])))
        if val < best:
            best, best_level = val, t
    if best == INF:
        _refuse_all_nan(op, [fn(ts[j], mass(above[j])) for j in chain((0,), levels)])
    return IntegralResult(best, True, best_level)


def lower_integral(f: Fn, mu: MonotoneMeasure, op: BinaryOp, domain: int | None = None) -> float:
    return lower_integral_result(f, mu, op, domain).value


# ---------------------------------------------------------------------------
# named integrals
# ---------------------------------------------------------------------------

def sugeno_integral(f: Fn, mu: MonotoneMeasure, domain: int | None = None) -> float:
    return upper_integral(f, mu, _MIN, domain)


def shilkret_integral(f: Fn, mu: MonotoneMeasure, domain: int | None = None) -> float:
    return upper_integral(f, mu, _PROD, domain)


def seminormed_integral(f: Fn, mu: MonotoneMeasure, semicopula: BinaryOp,
                        domain: int | None = None) -> float:
    """The upper integral under a semicopula: an operator that passes its
    ``nondecreasing`` and ``neutral_one`` gates on [0, 1]."""
    verify_flags(semicopula, ("nondecreasing", "neutral_one"), UNIT)
    return upper_integral(f, mu, semicopula, domain)


def abs_power(values: Sequence[float], p: float) -> Fn:
    """Adapter from a signed real vector to the nonnegative integrand |v|^p,
    on the extended scale [0, inf].  A finite |v|^p above the largest float
    is refused."""
    if not p > 0:
        raise DomainError("exponent must be positive")
    powered = []
    for v in map(float, values):
        try:
            powered.append(abs(v) ** p)
        except OverflowError:
            raise DomainError(f"|v|^p overflows a float at v={v!r}, p={p!r}") from None
    return Fn(powered, EXTENDED)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def check_sugeno_identity(f: Fn, mu: MonotoneMeasure, domain: int | None = None) -> CheckResult:
    """The lower integral with join equals the upper integral with min,
    within the measure's ``tolerance()``."""
    lo = lower_integral_result(f, mu, _JOIN, domain)
    hi = upper_integral_result(f, mu, _MIN, domain)
    gap = abs(_rel_gap(lo.value, hi.value))
    if gap <= mu.tolerance():
        return CheckResult(True, margin=gap)
    return CheckResult(False, gap, {"lower_join": lo.value, "upper_min": hi.value,
                                    "values": list(f.values)})


def check_h_duality(f: Fn, mu: MonotoneMeasure, op: BinaryOp, h: DualityMap) -> CheckResult:
    """h-conjugation identity: h^-1 of the lower integral of h(f) under mu
    equals the upper integral of f under the conjugate operator and measure,
    within ``core._TOL`` relative to the larger side."""
    scale = f.scale
    if not scale.closed:
        raise DomainError("duality identity needs a closed scale")
    h.validate_on(scale)
    hf = Fn(h.forward(np.array(f.values)).tolist(), scale)
    left_inner = lower_integral(hf, mu, op)
    left = float(h.inverse(left_inner))
    mu_h = dual_measure(mu, h)
    op_h = op_dual(op, h)
    right = upper_integral(f, mu_h, op_h)
    gap = abs(_rel_gap(left, right)) / max(1.0, abs(left), abs(right))
    if gap <= _TOL:
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
    2^10 and flagged.  A grid of more than ``core.MAX_CELLS`` points is
    refused before it is built.
    """
    if not resolution > 0:
        raise DomainError("resolution must be positive")
    verify_flags(op, _GATE, profile.scale)
    scale = profile.scale
    truncated = False
    if math.isinf(scale.upper):
        top = _PROFILE_CAP
        truncated = True
    else:
        top = scale.upper
    # np.arange's points, then the top; the cap keeps an infinite ratio an int
    check_cells(math.ceil(min(top / resolution, 2.0 ** 62)) + 1, "profile grid")
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
    if truncated and not _zero_tail(op, scale, profile.evaluate(top)):
        error = INF
    return ProfileIntegralResult(value, error, level, truncated)
