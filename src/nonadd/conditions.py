"""Named operator-level inequality conditions, checked on grids or on
explicitly supplied values of c.

Each condition is the scalar inequality that is equivalent to (or sufficient
for) one of the integral inequalities in :mod:`nonadd.theorems`.  A check
sweeps the scale's standard grid (spacing 1/64 for up to three free
variables, 1/16 when four variables are free); a condition with a
``c_values`` keyword evaluates exactly the supplied values of c instead of
the grid's.

Every check is one broadcast sweep (:func:`core._sweep`, which also
decides the operator laws).  The looped variable (``c`` or ``z``, the scale
factors, or the index of a ``(c, d)`` pair) is the leading axis and the grid
variables follow, so the witness is the first violating cell in C order: the
smallest looped value, then the grid variables in the order of their axes.
A violation is ``lhs > rhs + core._TOL``.  A holding check reports the least
finite slack ``rhs - lhs``; a failing one reports the largest violation
``lhs - rhs`` over all violating cells, so ``inf`` as soon as one is
infinite.  ``distributive_scaling`` sweeps ``z`` first and the scale factors
second; ``unit_section_order`` is one slice.  The five conditions on a
``star`` with a body of their own take their cells (a, b), ``a star b`` and
the cells where it stays in the scale from :func:`_star_cells`.

``sum_split`` sweeps only the pairs a <= b, as one axis: per chunk of c
values it evaluates the operator once on the section table U x c, with U
the distinct values of the grid and of the sums a + b, and gathers both
sides from it.  Its cell is symmetric in a and b, so the first violating
cell of the full grid in C order has a <= b and the margins are those of
the full grid: the witness and the report bytes do not change.

The three-map condition is written once, in :func:`_three_map_sides`:
``mh_upper`` and ``mh_lower`` evaluate it here, and the chain conditions and
necessity cells of :mod:`nonadd.theorems` evaluate it on realized values
and end in the same :func:`core._sweep`.  Three ids restate a general form
and are one call to it: ``dual_star_split`` is ``mh_upper`` and
``dual_star_split_pair`` is ``mh_lower``, each with the star as combiner,
the conjugate ``op_h`` as every circ and identity maps, and
``semicopula_sum_split`` is ``sum_split`` on [0, 1].

Supplied values must be nonempty and lie in the scale (``DomainError``
otherwise).

:func:`cached_condition` is the one cached condition call: each verifier
runs its own grid conditions through it, and so do the campaigns' per-run
checks, so each (condition, arguments) is swept once per process.

Registry ids:

====================== =========================================================
mh_upper               three-map condition for the upper-integral inequality
mh_sugeno              its min-based specialization with rescaling maps
mh_product_power       product-operator power-map family (params p1, p2, p3)
counterexample_premise the premise satisfied by the refuting counterexample
semicopula_sum_split   S(a+b, c) <= S(a, c) + S(b, c): sum_split on [0, 1]
sum_split              (a+b) o c <= (a o c) + (b o c)
distributive_scaling   x o (y+z) <= x o y + x o z and (ax) o y <= a^q (x o y)^r
mh_lower               four-variable condition for the lower-integral inequality
mh_lower_join          its join-based specialization
dual_star_split        (a * b) o_h c <= (a o_h c) * (b o_h c): mh_upper
dual_star_split_pair   (a * b) o_h (c [+] d) <= (a o_h c) * (b o_h d): mh_lower
unit_section_order     1 o x <= y < 1 implies x <= y
====================== =========================================================
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .core import INF, ValueScale, UNIT, _TOL, _sweep, _sweep_cells, check_cells
from .operators import BinaryOp, PhiMap, cached_gate, minimum, phi_identity
from .results import CheckResult, DomainError

_DEFAULT_SPACING = 1.0 / 64.0
_PAIR_SPACING = 1.0 / 16.0


def _as_values(scale: ValueScale, values, grid: np.ndarray) -> np.ndarray:
    """The supplied values, refused when there are none or one lies outside
    the scale, or else the grid."""
    if values is None:
        return grid
    arr = np.asarray([float(v) for v in values], dtype=float)
    if not arr.size:
        raise DomainError("supplied values must not be empty")
    if not scale.contains_all(arr).all():
        for v in arr.tolist():          # only to name the first value outside
            if not scale.contains(v):
                raise DomainError(f"supplied value {v!r} outside {scale.describe()}")
    # realized values come distinct and ascending already; unsorted input
    # and -0.0 beside 0.0 (not strictly increasing) go through np.unique
    if (arr[1:] > arr[:-1]).all():
        return arr
    return np.unique(arr)


def _grid_pairs(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grid's (c, d) pairs as two arrays, c outer."""
    return np.repeat(grid, len(grid)), np.tile(grid, len(grid))


def _star_cells(star: BinaryOp, scale: ValueScale, a: np.ndarray):
    """The cells (a, b) of a star condition, both on ``a``: ``A`` as a
    column, ``B`` as a row, ``A star B``, and the cells where it stays in
    the scale."""
    A, B = a[:, None], a[None, :]
    sAB = star.grid(A, B)
    return A, B, sAB, scale.contains_all(sAB)


def _mode(c_values) -> str:
    return "grid" if c_values is None else "explicit"


def _three_map_sides(star: BinaryOp, combiner: BinaryOp, circs: Sequence[BinaryOp],
                     phis: Sequence[PhiMap], a, b, c_ab, c_a, c_b):
    """Both sides of the three-map condition at heights (a, b), on arrays
    that broadcast together: ``p1^-1(p1(a star b) o1 c_ab)`` on the left and
    ``p2^-1(p2(a) o2 c_a)`` combined with ``p3^-1(p3(b) o3 c_b)`` on the
    right, every operator through ``op.grid``."""
    c1, c2, c3 = circs
    p1, p2, p3 = phis
    lhs = p1.inverse(c1.grid(p1.forward(star.grid(a, b)), c_ab))
    rhs = combiner.grid(p2.inverse(c2.grid(p2.forward(a), c_a)),
                        p3.inverse(c3.grid(p3.forward(b), c_b)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# individual conditions
# ---------------------------------------------------------------------------

def cond_mh_upper(star: BinaryOp, combiner: BinaryOp,
                  circs: Sequence[BinaryOp], phis: Sequence[PhiMap],
                  scale: ValueScale = UNIT, c_values=None) -> CheckResult:
    g = scale.grid(_DEFAULT_SPACING)
    cs = _as_values(scale, c_values, g)
    A, B, _, valid = _star_cells(star, scale, g)

    def body(C):
        lhs, rhs = _three_map_sides(star, combiner, circs, phis, A, B, C, C, C)
        return lhs, rhs, valid, {"a": A, "b": B, "c": C}

    return _sweep((len(g), len(g)), [(cs, body)], _TOL, _mode(c_values))


def cond_mh_sugeno(star: BinaryOp, phis: Sequence[PhiMap],
                   scale: ValueScale = UNIT, c_values=None) -> CheckResult:
    p1, p2, p3 = phis
    g = scale.grid(_DEFAULT_SPACING)
    cs = _as_values(scale, c_values, g)
    A, B, sAB, valid = _star_cells(star, scale, g)

    def body(C):
        lhs = np.minimum(sAB, p1.inverse(C))
        rhs = star.grid(np.minimum(A, p2.inverse(C)), np.minimum(B, p3.inverse(C)))
        return lhs, rhs, valid, {"a": A, "b": B, "c": C}

    return _sweep((len(g), len(g)), [(cs, body)], _TOL, _mode(c_values))


@functools.lru_cache(maxsize=1)
def _product_power_cells() -> tuple[np.ndarray, ...]:
    """The unit grid g, its cells A (a column) and B (a row), and A * B:
    built once, read-only and shared by every :func:`cond_mh_product_power`."""
    g = UNIT.grid(_DEFAULT_SPACING)
    A, B = g[:, None], g[None, :]
    AB = A * B
    AB.flags.writeable = False
    return g, A, B, AB


def cond_mh_product_power(p1: float, p2: float, p3: float, c_values=None) -> CheckResult:
    """Power-map family on the unit scale; holds iff p1 <= p2 and p1 <= p3."""
    for p in (p1, p2, p3):
        if not p > 0:
            raise DomainError("exponents must be positive")
    g, A, B, AB = _product_power_cells()
    cs = _as_values(UNIT, c_values, g)
    w1, w2, w3 = (np.float_power(cs, 1.0 / p) for p in (p1, p2, p3))

    def body(i):
        W1, W2, W3 = w1[i], w2[i], w3[i]
        lhs = A * (W1 - W2) + B * (W1 - W3)
        lhs += AB * (W2 * W3 - W1)
        return lhs, 0.0, None, {"a": A, "b": B, "c": cs[i]}

    return _sweep((len(g), len(g)), [(np.arange(len(cs)), body)], _TOL, _mode(c_values))


def cond_counterexample_premise(semicopula: BinaryOp, star: BinaryOp) -> CheckResult:
    S = semicopula
    g = UNIT.grid(_DEFAULT_SPACING)
    A, B, sAB, valid = _star_cells(star, UNIT, g)

    def body(C):
        lhs = S.grid(sAB, C)
        rhs = np.minimum(star.grid(S.grid(A, C), B), star.grid(A, S.grid(B, C)))
        return lhs, rhs, valid, {"a": A, "b": B, "c": C}

    return _sweep((len(g), len(g)), [(g, body)], _TOL, "grid")


def cond_semicopula_sum_split(semicopula: BinaryOp) -> CheckResult:
    """:func:`cond_sum_split` on [0, 1]."""
    return cond_sum_split(semicopula, UNIT)


@functools.lru_cache(maxsize=32)
def _sum_split_cells(scale: ValueScale) -> tuple[np.ndarray, ...]:
    """The cells of :func:`cond_sum_split`, built once per scale: the grid,
    then the values of a and b over the pairs a <= b of it whose sum stays
    in the scale (in C order), the distinct values U = grid | {a + b}, and
    the indices into U of a, b and a + b.  Read-only: shared by every call."""
    g = scale.grid(_DEFAULT_SPACING)
    check_cells(len(g) ** 2, "condition sweep")   # one c value's cells, before the pairs
    i, j = np.triu_indices(len(g))
    s = g[i] + g[j]
    keep = scale.contains_all(s)
    i, j = i[keep], j[keep]
    values, index = np.unique(np.concatenate([g, s[keep]]), return_inverse=True)
    cells = (g, g[i], g[j], values, index[i], index[j], index[len(g):])
    for arr in cells:
        arr.flags.writeable = False
    return cells


def cond_sum_split(op: BinaryOp, scale: ValueScale = UNIT, c_values=None) -> CheckResult:
    """(a + b) o c <= (a o c) + (b o c) over the grid's pairs (a, b) with
    a + b in the scale, for every c of the grid or of ``c_values``.

    Each chunk of c values evaluates the operator once, on the sections
    U x c of the distinct values U = grid | {a + b}, and gathers both sides
    from that table for the pairs a <= b only.  The cell is symmetric in a
    and b (``a + b`` and the sum of the two sections commute in IEEE
    arithmetic), so a violating cell with a > b has its mirror earlier in
    C order: the witness and both margins are those of the full grid.  The
    cell budget counts the full grid per c value.

    The catalog ``minimum()`` holds by its kind, after the value and budget
    refusals, with the sweep's margin 0.0: for a, b, c >= 0 in IEEE doubles
    the slack ``(a min c) + (b min c) - ((a + b) min c)`` is >= 0 or nan
    (rounding is monotone, and the two sides are equal when c >= a + b),
    and the cell a = b = 0 reads exactly 0."""
    g, A, B, values, ia, ib, isum = _sum_split_cells(scale)
    cs = _as_values(scale, c_values, g)
    check_cells(len(cs) * len(g) ** 2, "condition sweep")
    if op is minimum():
        return CheckResult(True, margin=0.0, mode=_mode(c_values))

    def body(C):
        table = op.grid(values, C)
        rhs = table.take(ia, axis=1)
        rhs += table.take(ib, axis=1)
        return table.take(isum, axis=1), rhs, None, {"a": A, "b": B, "c": C}

    return _sweep((len(A),), [(cs, body)], _TOL, _mode(c_values))


def cond_distributive_scaling(op: BinaryOp, q: float, r: float,
                              scale: ValueScale = UNIT) -> CheckResult:
    """Subadditive second sections plus the power-scaling bound."""
    if not (q > 0 and r > 0):
        raise DomainError("scaling exponents must be positive")
    g = scale.grid(_DEFAULT_SPACING)
    X, Y = g[:, None], g[None, :]
    opXY = op.grid(X, Y)
    factors = np.asarray([1.5, 2.0, 4.0, 16.0, 256.0])
    with np.errstate(over="ignore", invalid="ignore"):   # a large q gives inf bounds
        bounds = np.float_power(factors, q)
        powered = np.float_power(opXY, r)

    def by_z(Z):
        s = Y + Z
        valid = scale.contains_all(s)
        lhs = op.grid(X, np.where(valid, s, 0.0))
        rhs = opXY + op.grid(X, Z)
        return lhs, rhs, valid, {"x": X, "y": Y, "z": Z}

    def by_factor(i):
        s = factors[i] * X
        valid = scale.contains_all(s)
        lhs = op.grid(np.where(valid, s, 0.0), Y)
        with np.errstate(invalid="ignore"):              # an inf bound times 0 is nan
            rhs = bounds[i] * powered
        return lhs, rhs, valid, {"scale_factor": factors[i], "x": X, "y": Y}

    return _sweep((len(g), len(g)), [(g, by_z), (np.arange(len(factors)), by_factor)],
                  _TOL, "grid")


def cond_mh_lower(star: BinaryOp, combiner: BinaryOp, boxplus: BinaryOp,
                  circs: Sequence[BinaryOp], phis: Sequence[PhiMap],
                  scale: ValueScale = UNIT) -> CheckResult:
    g = scale.grid(_PAIR_SPACING)
    cs, ds = _grid_pairs(g)
    with np.errstate(invalid="ignore", over="ignore"):   # c [+] d through op.grid, like the chain
        combined = boxplus.grid(cs, ds)
    A, B, _, valid = _star_cells(star, scale, g)

    def body(i):
        C, D = cs[i], ds[i]
        lhs, rhs = _three_map_sides(star, combiner, circs, phis, A, B, combined[i], C, D)
        return lhs, rhs, valid, {"a": A, "b": B, "c": C, "d": D}

    return _sweep((len(g), len(g)), [(np.arange(len(cs)), body)], _TOL, "grid")


def cond_mh_lower_join(star: BinaryOp, phis: Sequence[PhiMap],
                       scale: ValueScale = UNIT) -> CheckResult:
    p1, p2, p3 = phis
    g = scale.grid(_PAIR_SPACING)
    cs, ds = _grid_pairs(g)
    A, B, sAB, valid = _star_cells(star, scale, g)

    def body(i):
        C, D = cs[i], ds[i]
        lhs = np.maximum(sAB, np.maximum(p1.inverse(C), p1.inverse(D)))
        rhs = star.grid(np.maximum(A, p2.inverse(C)), np.maximum(B, p3.inverse(D)))
        return lhs, rhs, valid, {"a": A, "b": B, "c": C, "d": D}

    return _sweep((len(g), len(g)), [(np.arange(len(cs)), body)], _TOL, "grid")


def cond_dual_star_split(star: BinaryOp, op_h: BinaryOp,
                         scale: ValueScale = UNIT, c_values=None) -> CheckResult:
    """:func:`cond_mh_upper` with the star as combiner, ``op_h`` as every
    circ and identity maps."""
    return cond_mh_upper(star, star, (op_h,) * 3, (phi_identity(),) * 3, scale, c_values)


def cond_dual_star_split_pair(star: BinaryOp, op_h: BinaryOp, boxplus: BinaryOp,
                              scale: ValueScale = UNIT) -> CheckResult:
    """:func:`cond_mh_lower` with the star as combiner, ``op_h`` as every
    circ and identity maps."""
    return cond_mh_lower(star, star, boxplus, (op_h,) * 3, (phi_identity(),) * 3, scale)


def cond_unit_section_order(op: BinaryOp, scale: ValueScale = UNIT) -> CheckResult:
    """1 o x <= y for y in (0, 1) must force x <= y."""
    if not scale.contains(1.0):
        raise DomainError("unit section condition needs 1 in the scale")
    xg = scale.grid(_DEFAULT_SPACING)
    yg = UNIT.grid(_DEFAULT_SPACING)
    yg = yg[(yg > 0.0) & (yg < 1.0)]
    X, Y = xg[:, None], yg[None, :]
    sect = op.grid(np.ones_like(X), X)
    premise = sect <= Y + _TOL
    cells = (np.where(premise, X, 0.0), np.where(premise, Y, INF), premise,
             {"x": X, "y": Y, "unit_section": sect})
    return _sweep_cells((len(xg), len(yg)), [cells], _TOL, "grid")


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


def cached_condition(anchor: BinaryOp, cond: str, **kwargs) -> CheckResult:
    """``check_condition(cond, **kwargs)``, run once per process: cached on
    the operator ``anchor`` under the condition id and the arguments
    (operators and maps by identity, numbers and scales by value)."""
    return cached_gate(anchor, (cond, *sorted(kwargs.items())),
                       lambda: check_condition(cond, **kwargs))
