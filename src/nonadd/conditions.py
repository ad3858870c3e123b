"""Named operator-level inequality conditions, checked on grids or on
explicitly supplied value tuples.

Each condition is the scalar inequality that is equivalent to (or sufficient
for) one of the integral inequalities in :mod:`nonadd.theorems`.  A check
sweeps the scale's standard grid (spacing 1/64 for up to three free
variables, 1/16 when four variables are free) or evaluates exactly the
supplied values.

Every check is one broadcast sweep (:func:`_sweep`).  The looped variable
(``c`` or ``z``, the scale factors, or the index of a ``(c, d)`` pair) is the
leading axis and the grid variables follow, so the witness is the first
violating cell in C order: the smallest looped value, then the grid
variables in the order of their axes.  A violation is ``lhs > rhs + tol``.
A holding check reports the least finite slack ``rhs - lhs``; a failing one
reports the largest violation, reduced per leading slice: the largest finite
gap ``lhs - rhs`` of the slice, or ``inf`` when every violation of that slice
is non-finite.  ``distributive_scaling`` sweeps ``z`` first and the scale
factors second; ``unit_section_order`` is a single slice.

Registry ids:

====================== =========================================================
mh_upper               three-map condition for the upper-integral inequality
mh_sugeno              its min-based specialization with rescaling maps
mh_product_power       product-operator power-map family (params p1, p2, p3)
counterexample_premise the premise satisfied by the refuting counterexample
semicopula_sum_split   S(a+b, c) <= S(a, c) + S(b, c)
sum_split              (a+b) o c <= (a o c) + (b o c)
distributive_scaling   x o (y+z) <= x o y + x o z and (ax) o y <= a^q (x o y)^r
mh_lower               four-variable condition for the lower-integral inequality
mh_lower_join          its join-based specialization
dual_star_split        (a * b) o_h c <= (a o_h c) * (b o_h c)
dual_star_split_pair   (a * b) o_h (c [+] d) <= (a o_h c) * (b o_h d)
unit_section_order     1 o x <= y < 1 implies x <= y
====================== =========================================================
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import INF, ValueScale, UNIT, _CHUNK_CELLS
from .operators import BinaryOp, PhiMap
from .results import CheckResult, DomainError

_DEFAULT_SPACING = 1.0 / 64.0
_PAIR_SPACING = 1.0 / 16.0


def _sweep(shape: tuple, passes, tol: float, mode: str) -> CheckResult:
    """Evaluate ``lhs > rhs + tol`` over every leading slice of every pass.

    Each pass is ``(lead, body)``: ``lead`` is a 1-D array of looped values
    and ``body(L)`` receives a chunk of it shaped ``(k, 1, ..., 1)`` and
    returns ``(lhs, rhs, valid, coords)``, each broadcastable to
    ``(k,) + shape``; ``valid`` may be ``None`` and ``coords`` lists the
    witness coordinates in witness key order.  Chunks hold at most
    ``_CHUNK_CELLS`` cells.  Witness and margins follow the module docstring.
    """
    ndim = len(shape)
    step = max(1, _CHUNK_CELLS // max(1, math.prod(shape)))
    slice_axes = tuple(range(1, ndim + 1))
    min_slack, max_viol, witness = INF, 0.0, None
    for lead, body in passes:
        for i in range(0, len(lead), step):
            chunk = lead[i:i + step]
            full = (len(chunk),) + tuple(shape)
            lhs, rhs, valid, coords = body(chunk.reshape((-1,) + (1,) * ndim))
            with np.errstate(invalid="ignore"):
                slack = np.subtract(rhs, lhs, out=np.empty(full))
                if valid is not None:
                    slack += np.where(valid, 0.0, np.nan)  # invalid cells drop out
                least = float(np.fmin.reduce(slack, axis=None, initial=INF))
                # for tol >= 0, lhs > rhs + tol forces slack < 0 (never nan),
                # so a least slack >= 0 rules out every violation of the chunk
                if tol >= 0 and least >= 0:
                    min_slack = min(min_slack, least)
                    continue
                viol = np.greater(lhs, np.add(rhs, tol), out=np.empty(full, dtype=bool))
            if valid is not None:
                viol &= valid
            if least == -INF:
                finite = np.isfinite(slack)
                least = float(np.where(finite, slack, INF).min(initial=INF))
                viol_finite = viol & finite
            else:
                viol_finite = viol
            min_slack = min(min_slack, least)
            if not viol.any():
                continue
            max_viol = max(max_viol, -float(np.where(viol_finite, slack, 0.0).min()))
            if (viol_finite is not viol
                    and (viol.any(axis=slice_axes) & ~viol_finite.any(axis=slice_axes)).any()):
                max_viol = INF
            if witness is None:
                idx = np.unravel_index(int(viol.argmax()), full)
                witness = {name: float(np.broadcast_to(arr, full)[idx])
                           for name, arr in coords.items()}
                witness["lhs"] = float(np.broadcast_to(lhs, full)[idx])
                witness["rhs"] = float(np.broadcast_to(rhs, full)[idx])
    if witness is None:
        return CheckResult(True, margin=min_slack, mode=mode)
    return CheckResult(False, margin=max_viol, witness=witness, mode=mode)


def _as_values(scale: ValueScale, values, spacing: float) -> np.ndarray:
    if values is None:
        return scale.grid(spacing)
    arr = np.asarray([float(v) for v in values], dtype=float)
    for v in arr:
        if not scale.contains(float(v)):
            raise DomainError(f"supplied value {v!r} outside {scale.describe()}")
    return np.unique(arr)


def _as_pairs(scale: ValueScale, cd_values, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """The (c, d) pairs as two arrays: the grid's pairs with c outer, or the
    supplied pairs in their order."""
    if cd_values is None:
        g = scale.grid(spacing)
        return np.repeat(g, len(g)), np.tile(g, len(g))
    pairs = np.asarray([(float(c), float(d)) for c, d in cd_values], dtype=float).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def _combined(boxplus: BinaryOp, cs: np.ndarray, ds: np.ndarray) -> np.ndarray:
    return np.asarray([float(boxplus.fn(c, d)) for c, d in zip(cs.tolist(), ds.tolist())],
                      dtype=float)


def _in_scale(scale: ValueScale, arr) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    return arr <= scale.upper if scale.closed else arr < scale.upper


def _mode(*value_lists) -> str:
    return "explicit" if any(v is not None for v in value_lists) else "grid"


# ---------------------------------------------------------------------------
# individual conditions
# ---------------------------------------------------------------------------

def cond_mh_upper(star: BinaryOp, combiner: BinaryOp,
                  circs: Sequence[BinaryOp], phis: Sequence[PhiMap],
                  scale: ValueScale = UNIT, c_values=None,
                  a_values=None, b_values=None,
                  tol: float = 1e-12, spacing: float = _DEFAULT_SPACING) -> CheckResult:
    c1, c2, c3 = circs
    p1, p2, p3 = phis
    a = _as_values(scale, a_values, spacing)
    b = _as_values(scale, b_values, spacing)
    cs = _as_values(scale, c_values, spacing)
    A, B = a[:, None], b[None, :]
    sAB = star.grid(A, B)
    valid = _in_scale(scale, sAB)
    f1 = p1.forward(sAB)
    f2A = p2.forward(A)
    f3B = p3.forward(B)

    def body(C):
        lhs = p1.inverse(c1.grid(f1, C))
        rhs = combiner.grid(p2.inverse(c2.grid(f2A, C)), p3.inverse(c3.grid(f3B, C)))
        return lhs, rhs, valid, {"a": A, "b": B, "c": C}

    return _sweep((len(a), len(b)), [(cs, body)], tol, _mode(c_values, a_values, b_values))


def cond_mh_sugeno(star: BinaryOp, phis: Sequence[PhiMap],
                   scale: ValueScale = UNIT, c_values=None,
                   tol: float = 1e-12, spacing: float = _DEFAULT_SPACING) -> CheckResult:
    p1, p2, p3 = phis
    g = scale.grid(spacing)
    cs = _as_values(scale, c_values, spacing)
    A, B = g[:, None], g[None, :]
    sAB = star.grid(A, B)
    valid = _in_scale(scale, sAB)

    def body(C):
        lhs = np.minimum(sAB, p1.inverse(C))
        rhs = star.grid(np.minimum(A, p2.inverse(C)), np.minimum(B, p3.inverse(C)))
        return lhs, rhs, valid, {"a": A, "b": B, "c": C}

    return _sweep((len(g), len(g)), [(cs, body)], tol, _mode(c_values))


def cond_mh_product_power(p1: float, p2: float, p3: float, c_values=None,
                          tol: float = 1e-12,
                          spacing: float = _DEFAULT_SPACING) -> CheckResult:
    """Power-map family on the unit scale; holds iff p1 <= p2 and p1 <= p3."""
    for p in (p1, p2, p3):
        if p <= 0:
            raise DomainError("exponents must be positive")
    g = UNIT.grid(spacing)
    cs = _as_values(UNIT, c_values, spacing)
    A, B = g[:, None], g[None, :]
    AB = A * B
    # scalar powers: numpy's array power can round differently
    w1, w2, w3 = (np.asarray([c ** (1.0 / p) for c in cs], dtype=float)
                  for p in (p1, p2, p3))

    def body(i):
        W1, W2, W3 = w1[i], w2[i], w3[i]
        expr = A * (W2 - W1) + B * (W3 - W1)
        expr += AB * (W1 - W2 * W3)
        return np.negative(expr, out=expr), 0.0, None, {"a": A, "b": B, "c": cs[i]}

    return _sweep((len(g), len(g)), [(np.arange(len(cs)), body)], tol, _mode(c_values))


def cond_counterexample_premise(semicopula: BinaryOp, star: BinaryOp,
                                tol: float = 1e-12,
                                spacing: float = _DEFAULT_SPACING) -> CheckResult:
    S = semicopula
    g = UNIT.grid(spacing)
    A, B = g[:, None], g[None, :]
    sAB = star.grid(A, B)
    valid = _in_scale(UNIT, sAB)

    def body(C):
        lhs = S.grid(sAB, C)
        rhs = np.minimum(star.grid(S.grid(A, C), B), star.grid(A, S.grid(B, C)))
        return lhs, rhs, valid, {"a": A, "b": B, "c": C}

    return _sweep((len(g), len(g)), [(g, body)], tol, "grid")


def cond_semicopula_sum_split(semicopula: BinaryOp, tol: float = 1e-12,
                              spacing: float = _DEFAULT_SPACING) -> CheckResult:
    S = semicopula
    g = UNIT.grid(spacing)
    A, B = g[:, None], g[None, :]
    valid = A + B <= 1.0 + 1e-15
    capped = np.minimum(A + B, 1.0)

    def body(C):
        lhs = S.grid(capped, C)
        rhs = S.grid(A, C) + S.grid(B, C)
        return lhs, rhs, valid, {"a": A, "b": B, "c": C}

    return _sweep((len(g), len(g)), [(g, body)], tol, "grid")


def cond_sum_split(op: BinaryOp, scale: ValueScale = UNIT, c_values=None,
                   tol: float = 1e-12, spacing: float = _DEFAULT_SPACING) -> CheckResult:
    g = scale.grid(spacing)
    cs = _as_values(scale, c_values, spacing)
    A, B = g[:, None], g[None, :]
    s = A + B
    valid = _in_scale(scale, s)
    s = np.where(valid, s, 0.0)

    def body(C):
        lhs = op.grid(s, C)
        rhs = op.grid(A, C) + op.grid(B, C)
        return lhs, rhs, valid, {"a": A, "b": B, "c": C}

    return _sweep((len(g), len(g)), [(cs, body)], tol, _mode(c_values))


def cond_distributive_scaling(op: BinaryOp, q: float, r: float,
                              scale: ValueScale = UNIT, tol: float = 1e-12,
                              spacing: float = _DEFAULT_SPACING) -> CheckResult:
    """Subadditive second sections plus the power-scaling bound."""
    if q <= 0 or r <= 0:
        raise DomainError("scaling exponents must be positive")
    g = scale.grid(spacing)
    X, Y = g[:, None], g[None, :]
    opXY = op.grid(X, Y)
    factors = np.asarray([1.5, 2.0, 4.0, 16.0, 256.0])
    bounds = np.asarray([a ** q for a in factors.tolist()], dtype=float)
    with np.errstate(invalid="ignore"):
        powered = np.power(opXY, r)

    def by_z(Z):
        s = Y + Z
        valid = _in_scale(scale, s)
        lhs = op.grid(X, np.where(valid, s, 0.0))
        rhs = opXY + op.grid(X, Z)
        return lhs, rhs, valid, {"x": X, "y": Y, "z": Z}

    def by_factor(i):
        s = factors[i] * X
        valid = _in_scale(scale, s)
        lhs = op.grid(np.where(valid, s, 0.0), Y)
        return lhs, bounds[i] * powered, valid, {"scale_factor": factors[i], "x": X, "y": Y}

    return _sweep((len(g), len(g)), [(g, by_z), (np.arange(len(factors)), by_factor)],
                  tol, "grid")


def cond_mh_lower(star: BinaryOp, combiner: BinaryOp, boxplus: BinaryOp,
                  circs: Sequence[BinaryOp], phis: Sequence[PhiMap],
                  scale: ValueScale = UNIT, cd_values=None,
                  a_values=None, b_values=None,
                  tol: float = 1e-12, spacing: float = _PAIR_SPACING) -> CheckResult:
    c1, c2, c3 = circs
    p1, p2, p3 = phis
    a = _as_values(scale, a_values, spacing)
    b = _as_values(scale, b_values, spacing)
    cs, ds = _as_pairs(scale, cd_values, spacing)
    combined = _combined(boxplus, cs, ds)
    A, B = a[:, None], b[None, :]
    sAB = star.grid(A, B)
    valid = _in_scale(scale, sAB)
    f1 = p1.forward(sAB)
    f2A = p2.forward(A)
    f3B = p3.forward(B)

    def body(i):
        C, D = cs[i], ds[i]
        lhs = p1.inverse(c1.grid(f1, combined[i]))
        rhs = combiner.grid(p2.inverse(c2.grid(f2A, C)), p3.inverse(c3.grid(f3B, D)))
        return lhs, rhs, valid, {"a": A, "b": B, "c": C, "d": D}

    return _sweep((len(a), len(b)), [(np.arange(len(cs)), body)], tol,
                  _mode(cd_values, a_values, b_values))


def cond_mh_lower_join(star: BinaryOp, phis: Sequence[PhiMap],
                       scale: ValueScale = UNIT, cd_values=None,
                       tol: float = 1e-12, spacing: float = _PAIR_SPACING) -> CheckResult:
    p1, p2, p3 = phis
    g = scale.grid(spacing)
    cs, ds = _as_pairs(scale, cd_values, spacing)
    A, B = g[:, None], g[None, :]
    sAB = star.grid(A, B)
    valid = _in_scale(scale, sAB)

    def body(i):
        C, D = cs[i], ds[i]
        lhs = np.maximum(sAB, np.maximum(p1.inverse(C), p1.inverse(D)))
        rhs = star.grid(np.maximum(A, p2.inverse(C)), np.maximum(B, p3.inverse(D)))
        return lhs, rhs, valid, {"a": A, "b": B, "c": C, "d": D}

    return _sweep((len(g), len(g)), [(np.arange(len(cs)), body)], tol, _mode(cd_values))


def cond_dual_star_split(star: BinaryOp, op_h: BinaryOp,
                         scale: ValueScale = UNIT, c_values=None,
                         tol: float = 1e-12, spacing: float = _DEFAULT_SPACING) -> CheckResult:
    g = scale.grid(spacing)
    cs = _as_values(scale, c_values, spacing)
    A, B = g[:, None], g[None, :]
    sAB = star.grid(A, B)
    valid = _in_scale(scale, sAB)

    def body(C):
        lhs = op_h.grid(sAB, C)
        rhs = star.grid(op_h.grid(A, C), op_h.grid(B, C))
        return lhs, rhs, valid, {"a": A, "b": B, "c": C}

    return _sweep((len(g), len(g)), [(cs, body)], tol, _mode(c_values))


def cond_dual_star_split_pair(star: BinaryOp, op_h: BinaryOp, boxplus: BinaryOp,
                              scale: ValueScale = UNIT, cd_values=None,
                              tol: float = 1e-12, spacing: float = _PAIR_SPACING) -> CheckResult:
    g = scale.grid(spacing)
    cs, ds = _as_pairs(scale, cd_values, spacing)
    combined = _combined(boxplus, cs, ds)
    A, B = g[:, None], g[None, :]
    sAB = star.grid(A, B)
    valid = _in_scale(scale, sAB)

    def body(i):
        C, D = cs[i], ds[i]
        lhs = op_h.grid(sAB, combined[i])
        rhs = star.grid(op_h.grid(A, C), op_h.grid(B, D))
        return lhs, rhs, valid, {"a": A, "b": B, "c": C, "d": D}

    return _sweep((len(g), len(g)), [(np.arange(len(cs)), body)], tol, _mode(cd_values))


def cond_unit_section_order(op: BinaryOp, scale: ValueScale = UNIT,
                            tol: float = 1e-12,
                            spacing: float = _DEFAULT_SPACING) -> CheckResult:
    """1 o x <= y for y in (0, 1) must force x <= y."""
    if not scale.contains(1.0):
        raise DomainError("unit section condition needs 1 in the scale")
    xg = scale.grid(spacing)
    yg = UNIT.grid(spacing)
    yg = yg[(yg > 0.0) & (yg < 1.0)]
    X, Y = xg[:, None], yg[None, :]
    sect = op.grid(np.ones_like(X), X)

    def body(_):
        premise = sect <= Y + tol
        lhs = np.where(premise, X, 0.0)
        rhs = np.where(premise, Y, INF)
        return lhs, rhs, premise, {"x": X, "y": Y, "unit_section": sect}

    return _sweep((len(xg), len(yg)), [(np.zeros(1), body)], tol, "grid")


CONDITIONS = {
    "mh_upper": cond_mh_upper,
    "mh_sugeno": cond_mh_sugeno,
    "mh_product_power": cond_mh_product_power,
    "counterexample_premise": cond_counterexample_premise,
    "semicopula_sum_split": cond_semicopula_sum_split,
    "sum_split": cond_sum_split,
    "distributive_scaling": cond_distributive_scaling,
    "mh_lower": cond_mh_lower,
    "mh_lower_join": cond_mh_lower_join,
    "dual_star_split": cond_dual_star_split,
    "dual_star_split_pair": cond_dual_star_split_pair,
    "unit_section_order": cond_unit_section_order,
}


def check_condition(cond: str, **kwargs) -> CheckResult:
    """Dispatch a named condition check.  Unknown names raise DomainError."""
    try:
        fn = CONDITIONS[cond]
    except KeyError:
        raise DomainError(f"unknown condition {cond!r}; known: {sorted(CONDITIONS)}") from None
    return fn(**kwargs)
