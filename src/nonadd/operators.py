"""Binary operators on a value scale, their algebraic-law checkers, the
increasing rescaling maps, and decreasing duality maps.

Operators carry *declared* flags (nondecreasing, annihilators, neutral
element, continuity).  A declaration is only trusted after
:func:`check_operator_property` verifies it on the scale's standard grid;
theorem verifiers call :func:`verify_flags` so that an operator with a
false declaration can never support a vacuous confirmation.

Every law follows one rule: cells of :func:`core._sweep`, each the pair
(a, b) at which the operator is read, a violation ``lhs > rhs + core._TOL``.
Monotonicity compares op(a, b) with the value one grid step on in a
(``a_next``) or b (``b_next``); the zero annihilators, the neutral 1 and
top absorption read |op(a, b) - target| through the section point 0, 1 or
the top.  A failing law names its first violating cell, with the
operator's values there, and its largest violation; a holding one its
least slack.  A nan cell never violates, and two infinities tie.
Continuity is probed on a coarse grid at a shift of 2**-26, the gap
against max(1e-7, 1e-7 |op(a, b)|) with no tolerance, where a gap below
half the one at a shift of 2**-13 is a continuous rise and reads 0:
sampled evidence, not a proof; every verdict records its mode.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import ValueScale, UNIT, _TOL, _abs_gap, _sweep_cells, vinv, vmul, xmul
from .results import CheckResult, DomainError, HypothesisError

OPERATOR_FLAGS = (
    "nondecreasing",
    "right_continuous",
    "left_continuous_second",
    "zero_left_annihilator",
    "zero_right_annihilator",
    "neutral_one",
)


@dataclass(frozen=True, eq=False)
class BinaryOp:
    """An evaluable binary operator with declared algebraic flags.

    ``fn`` is the scalar evaluation; ``grid_fn`` (optional) must accept
    numpy arrays and is used by grid sweeps.  The two are one arithmetic:
    ``grid_fn`` equals ``fn`` bit for bit on every cell, so a catalog body
    computes powers through ``np.float_power``, which calls the same libm
    ``pow`` as Python's ``**`` (``np.power`` may take a SIMD route that
    rounds apart).  ``_verified`` caches gate results (see
    :func:`cached_gate`).
    """

    name: str
    fn: Callable[[float, float], float]
    flags: frozenset
    grid_fn: Callable | None = None
    params: dict = field(default_factory=dict)
    _verified: dict = field(default_factory=dict, repr=False)

    def grid(self, a, b):
        if self.grid_fn is not None:
            return np.asarray(self.grid_fn(a, b), dtype=float)
        ufn = np.frompyfunc(self.fn, 2, 1)
        return np.asarray(ufn(a, b), dtype=float)

    def describe(self) -> dict:
        out = {"name": self.name}
        if self.params:
            out.update(self.params)
        return out


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _shared(factory):
    """Make a catalog factory return one shared instance (an operator, a
    rescaling map or a duality map) per argument tuple.

    Arguments are bound to the signature with defaults applied and keyed by
    ``(type, repr)``, so ``power_min(0.5)`` and ``power_min(p=0.5, u=1.0)``
    share an instance (and its gate caches), while ``1`` and ``1.0``, or
    ``0.0`` and ``-0.0``, which name different operators, do not.  A call
    with positional arguments only is answered, after its first bound call,
    from ``by_args``, keyed the same way by the arguments as given.
    """
    sig = inspect.signature(factory)
    instances: dict[tuple, object] = {}
    by_args: dict[tuple, object] = {}

    @functools.wraps(factory)
    def shared(*args, **kwargs):
        if not kwargs:
            args_key = tuple((type(a), repr(a)) for a in args)
            op = by_args.get(args_key)
            if op is not None:
                return op
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError:
            return factory(*args, **kwargs)  # raises the factory's own error
        bound.apply_defaults()
        key = tuple((type(v), repr(v)) for v in bound.arguments.values())
        op = instances.get(key)
        if op is None:
            op = instances.setdefault(key, factory(*args, **kwargs))
        if not kwargs:
            by_args[args_key] = op
        return op

    return shared


_CONTINUOUS = frozenset({"nondecreasing", "right_continuous", "left_continuous_second"})


# the scalar forms of np.minimum and np.maximum: a nan argument is the result
# (the first one when both are nan); the a <= b test comes first, as min is
# the hottest operator body

def _min(a: float, b: float) -> float:
    return a if a <= b or a != a else b


def _max(a: float, b: float) -> float:
    return a if a >= b or a != a else b


@_shared
def minimum() -> BinaryOp:
    return BinaryOp(
        "min",
        _min,
        _CONTINUOUS | {"zero_left_annihilator", "zero_right_annihilator", "neutral_one"},
        grid_fn=np.minimum,
    )


@_shared
def join() -> BinaryOp:
    return BinaryOp(
        "max",
        _max,
        _CONTINUOUS,
        grid_fn=np.maximum,
    )


@_shared
def product() -> BinaryOp:
    return BinaryOp(
        "product",
        xmul,
        _CONTINUOUS | {"zero_left_annihilator", "zero_right_annihilator", "neutral_one"},
        grid_fn=vmul,
    )


@_shared
def lukasiewicz() -> BinaryOp:
    """The Lukasiewicz t-norm (a + b - 1)_+ on the unit scale."""
    return BinaryOp(
        "lukasiewicz",
        lambda a, b: max(a + b - 1.0, 0.0),
        _CONTINUOUS | {"zero_left_annihilator", "zero_right_annihilator", "neutral_one"},
        grid_fn=lambda a, b: np.maximum(np.asarray(a) + np.asarray(b) - 1.0, 0.0),
    )


@_shared
def bounded_sum() -> BinaryOp:
    """(a + b) clipped at 1; the standard nilpotent join on the unit scale."""
    return BinaryOp(
        "bounded_sum",
        lambda a, b: min(a + b, 1.0),
        _CONTINUOUS,
        grid_fn=lambda a, b: np.minimum(np.asarray(a) + np.asarray(b), 1.0),
    )


@_shared
def plain_sum() -> BinaryOp:
    return BinaryOp(
        "sum",
        lambda a, b: a + b,
        _CONTINUOUS,
        grid_fn=lambda a, b: np.asarray(a, dtype=float) + np.asarray(b, dtype=float),
    )


@_shared
def prob_sum() -> BinaryOp:
    """a + b - ab on the unit scale, evaluated as a + b(1 - a) so that a 1 on
    either side gives exactly 1."""
    return BinaryOp(
        "prob_sum",
        lambda a, b: a + b * (1.0 - a),
        _CONTINUOUS,
        grid_fn=_prob_sum_grid,
    )


def _prob_sum_grid(a, b):
    a = np.asarray(a)
    with np.errstate(invalid="ignore"):     # inf - inf and 0 * inf: nan, silently as in fn
        return a + np.asarray(b) * (1.0 - a)


@_shared
def marshall_olkin(alpha: float, beta: float) -> BinaryOp:
    """The two-parameter family min(x^(1-alpha) y, x y^(1-beta)), with
    0 * inf = 0 in both products.

    Reduces to the product at alpha = beta = 0 and to min at alpha = beta = 1.
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise DomainError("marshall_olkin parameters must lie in [0, 1]")
    return BinaryOp(
        f"marshall_olkin({alpha},{beta})",
        lambda a, b: _min(xmul(a ** (1.0 - alpha), b), xmul(a, b ** (1.0 - beta))),
        _CONTINUOUS | {"zero_left_annihilator", "zero_right_annihilator", "neutral_one"},
        grid_fn=lambda a, b: np.minimum(vmul(np.float_power(a, 1.0 - alpha), b),
                                        vmul(a, np.float_power(b, 1.0 - beta))),
        params={"alpha": alpha, "beta": beta},
    )


@_shared
def power_product(q: float) -> BinaryOp:
    """(ab)^q; for 0 < q < 1 a modified product with subadditive sections."""
    if not q > 0:
        raise DomainError("power_product exponent must be positive")
    flags = _CONTINUOUS | {"zero_left_annihilator", "zero_right_annihilator"}
    if q == 1.0:
        flags = flags | {"neutral_one"}
    return BinaryOp(
        f"power_product({q})",
        lambda a, b: xmul(a, b) ** q,
        flags,
        grid_fn=lambda a, b: np.float_power(vmul(a, b), q),
        params={"q": q},
    )


@_shared
def power_min(p: float, u: float = 1.0) -> BinaryOp:
    """min(a^p, b^u); the min-type metric combiner family."""
    if not (p > 0 and u > 0):
        raise DomainError("exponents must be positive")
    return BinaryOp(
        f"power_min({p},{u})",
        lambda a, b: _min(a ** p, b ** u),
        _CONTINUOUS | {"zero_left_annihilator", "zero_right_annihilator"},
        grid_fn=lambda a, b: np.minimum(np.float_power(a, p), np.float_power(b, u)),
        params={"p": p, "u": u},
    )


@_shared
def power_prod(p: float, u: float = 1.0) -> BinaryOp:
    """a^p * b^u; the product-type metric combiner family."""
    if not (p > 0 and u > 0):
        raise DomainError("exponents must be positive")
    return BinaryOp(
        f"power_prod({p},{u})",
        lambda a, b: xmul(a ** p, b ** u),
        _CONTINUOUS | {"zero_left_annihilator", "zero_right_annihilator"},
        grid_fn=lambda a, b: vmul(np.float_power(a, p), np.float_power(b, u)),
        params={"p": p, "u": u},
    )


def from_callable(name: str, fn: Callable, flags=(), grid_fn=None) -> BinaryOp:
    return BinaryOp(name, fn, frozenset(flags), grid_fn=grid_fn)


OPERATOR_FACTORIES: dict[str, Callable[..., BinaryOp]] = {
    "min": minimum,
    "max": join,
    "product": product,
    "lukasiewicz": lukasiewicz,
    "bounded_sum": bounded_sum,
    "sum": plain_sum,
    "prob_sum": prob_sum,
    "marshall_olkin": marshall_olkin,
    "power_product": power_product,
    "power_min": power_min,
    "power_prod": power_prod,
}


# ---------------------------------------------------------------------------
# increasing rescalings and decreasing duality maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PhiMap:
    """An increasing bijection of the scale onto itself (array-safe).

    ``validate_on`` passes are cached per scale (see :func:`cached_gate`);
    a failing map raises on every call.  The round trip and h(0) compare
    within ``core._TOL``.
    """

    name: str
    forward: Callable
    inverse: Callable
    _verified: dict = field(default_factory=dict, repr=False)

    def validate_on(self, scale: ValueScale) -> None:
        cached_gate(self, scale, lambda: self._validate(scale))

    def _validate(self, scale: ValueScale) -> bool:
        g = scale.grid()
        fwd = np.asarray(self.forward(g), dtype=float)
        back = np.asarray(self.inverse(fwd), dtype=float)
        finite = np.isfinite(g)
        err = np.abs(back[finite] - g[finite])
        rel = err / np.maximum(1.0, np.abs(g[finite]))
        if rel.size and rel.max() > _TOL:
            raise DomainError(f"{self.name}: inverse(forward) drifts by {rel.max():.3e}")
        if (np.isinf(g) != np.isinf(fwd)).any() or (np.isinf(g) != np.isinf(back)).any():
            raise DomainError(f"{self.name}: must fix the infinite endpoint")
        d = np.diff(fwd[finite])
        if d.size and d.min() <= 0:
            raise DomainError(f"{self.name}: forward map is not strictly increasing")
        if abs(float(self.forward(0.0))) > _TOL:
            raise DomainError(f"{self.name}: must map 0 to 0")
        return True


@_shared
def phi_identity() -> PhiMap:
    return PhiMap("identity", lambda x: np.asarray(x, dtype=float),
                  lambda x: np.asarray(x, dtype=float))


@_shared
def phi_power(p: float) -> PhiMap:
    if not p > 0:
        raise DomainError("power map exponent must be positive")
    return PhiMap(
        f"power({p})",
        lambda x: np.float_power(x, p),
        lambda x: np.float_power(x, 1.0 / p),
    )


PHI_FACTORIES = {"identity": phi_identity, "power": phi_power}


@dataclass(frozen=True, eq=False)
class DualityMap:
    """A decreasing bijection h of a closed scale with h(0) > 0 and h(m) = 0.

    ``validate_on`` passes are cached per scale, as for :class:`PhiMap`;
    the round trip compares within ``core._TOL``.
    """

    name: str
    forward: Callable
    inverse: Callable
    _verified: dict = field(default_factory=dict, repr=False)

    def validate_on(self, scale: ValueScale) -> None:
        cached_gate(self, scale, lambda: self._validate(scale))

    def _validate(self, scale: ValueScale) -> bool:
        if not scale.closed:
            raise DomainError("duality maps need a closed scale")
        g = scale.grid()
        fwd = np.asarray(self.forward(g), dtype=float)
        back = np.asarray(self.inverse(fwd), dtype=float)
        # decreasing, endpoint exchange, and round trip
        order = np.argsort(g)
        fo = fwd[order]
        finite_pairs = np.isfinite(fo[:-1]) & np.isfinite(fo[1:])
        if (np.diff(fo)[finite_pairs] >= 0).any():
            raise DomainError(f"{self.name}: must be strictly decreasing")
        if float(self.forward(0.0)) <= 0:
            raise DomainError(f"{self.name}: h(0) must be positive")
        if float(self.forward(scale.upper)) != 0.0:
            raise DomainError(f"{self.name}: h(upper) must be 0")
        both = np.isfinite(g) & np.isfinite(back)
        err = np.abs(back[both] - g[both]) / np.maximum(1.0, np.abs(g[both]))
        if err.size and err.max() > _TOL:
            raise DomainError(f"{self.name}: inverse round trip drifts by {err.max():.3e}")
        return True


@_shared
def one_minus() -> DualityMap:
    def fn(x):   # a Python float takes the scalar route, equal bit for bit
        return 1.0 - x if type(x) is float else 1.0 - np.asarray(x, dtype=float)
    return DualityMap("one_minus", fn, fn)


@_shared
def reciprocal() -> DualityMap:
    return DualityMap("reciprocal", vinv, vinv)


DUALITY_FACTORIES = {"one_minus": one_minus, "reciprocal": reciprocal}


def op_dual(op: BinaryOp, h: DualityMap) -> BinaryOp:
    """The conjugate operator a, b -> h_inverse(h(a) op h(b)).

    Monotonicity survives conjugation by a decreasing bijection; the cheap
    exact flags (annihilators, neutral element) are probed on a coarse grid
    and declared only when they hold there.  Applying an
    involutive h twice yields an operator grid-equal to the original.  The
    conjugate is built once per (op, h) and cached on ``op``, so its flag
    gates also run once per process.
    """
    return cached_gate(op, ("dual", h), lambda: _conjugate(op, h))


def _conjugate(op: BinaryOp, h: DualityMap) -> BinaryOp:
    def fn(a: float, b: float) -> float:
        return float(h.inverse(op.fn(float(h.forward(a)), float(h.forward(b)))))

    def grid_fn(a, b):
        return np.asarray(h.inverse(op.grid(h.forward(a), h.forward(b))), dtype=float)

    flags = {"nondecreasing"} if "nondecreasing" in op.flags else set()
    probe = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    with np.errstate(invalid="ignore", over="ignore"):   # e.g. inf * (1 - inf) under reciprocal
        vals = grid_fn(probe[:, None], probe[None, :])
    if np.allclose(vals[0, :], 0.0, atol=_TOL):
        flags.add("zero_left_annihilator")
    if np.allclose(vals[:, 0], 0.0, atol=_TOL):
        flags.add("zero_right_annihilator")
    if np.allclose(vals[4, :], probe, atol=_TOL) and np.allclose(vals[:, 4], probe, atol=_TOL):
        flags.add("neutral_one")
    return BinaryOp(f"{op.name}_dual_{h.name}", fn, frozenset(flags), grid_fn=grid_fn,
                    params={"base": op.name, "h": h.name})


# ---------------------------------------------------------------------------
# flag verification
# ---------------------------------------------------------------------------

def _section_law(op: BinaryOp, g: np.ndarray, x: float, target, sides: str) -> CheckResult:
    """``|op(a, b) - target| <= core._TOL`` through the section point x, for
    y on the grid g: (a, b) = (x, y) on side ``"l"``, (y, x) on side ``"r"``."""
    X = np.full_like(g, x)
    cells = []
    for a, b in [(X, g) if side == "l" else (g, X) for side in sides]:
        vals = op.grid(a, b)
        cells.append((_abs_gap(vals, target), 0.0, None, {"a": a, "b": b, "value": vals}))
    return _sweep_cells(g.shape, cells, _TOL, "grid")


def check_operator_property(op: BinaryOp, flag: str, scale: ValueScale = UNIT) -> CheckResult:
    """Verify one algebraic flag on the scale's standard grid by the one
    law rule of the module docstring; continuity verdicts are ``sampled``."""
    if flag not in OPERATOR_FLAGS:
        raise DomainError(f"unknown operator flag {flag!r}")
    g = scale.grid()
    if flag == "zero_left_annihilator":
        return _section_law(op, g, 0.0, 0.0, "l")
    if flag == "zero_right_annihilator":
        return _section_law(op, g, 0.0, 0.0, "r")
    if flag == "neutral_one":
        if not scale.contains(1.0):
            raise DomainError("neutral_one needs 1 in the scale")
        return _section_law(op, g, 1.0, g, "lr")
    if flag in ("right_continuous", "left_continuous_second"):
        c = g[np.isfinite(g)]
        c = c[:: max(1, len(c) // 9)]
        A, B = c[:, None], c[None, :]
        if flag == "right_continuous":
            ok = scale.contains_all(A + 2.0 ** -8) & scale.contains_all(B + 2.0 ** -8)
            near, far = (op.grid(np.where(ok, A + d, A), np.where(ok, B + d, B))
                         for d in (2.0 ** -26, 2.0 ** -13))
        else:
            ok = B >= 2.0 ** -8
            near, far = (op.grid(A, np.where(ok, B - d, B)) for d in (2.0 ** -26, 2.0 ** -13))
        base = op.grid(A, B)
        fine = _abs_gap(near, base)
        # a jump keeps its gap at the coarser shift; a gap that shrinks below
        # half of it is a continuous rise and reads 0
        gap = (np.where(fine < _abs_gap(far, base) / 2, 0.0, fine),
               np.maximum(1e-7, 1e-7 * np.abs(base)), ok,
               {"a": A, "b": B, "value": base, "limit": near})
        return _sweep_cells(base.shape, [gap], 0.0, "sampled")
    col, row = g[:, None], g[None, :]
    vals = op.grid(col, row)
    # nondecreasing: a step of the first argument, then one of the second
    lo, hi = col[:-1], col[1:]
    cells = [(vals[:-1], vals[1:], None, {"a": lo, "b": row, "a_next": hi}),
             (vals.T[:-1], vals.T[1:], None, {"a": row, "b": lo, "b_next": hi})]
    return _sweep_cells((len(g) - 1, len(g)), cells, _TOL, "grid")


def cached_gate(op, key, compute: Callable):
    """The gate result stored on ``op`` (an operator or a map) under
    ``key``; ``compute()`` runs only until it returns a result, so a gate
    that raises runs again on the next request.  Catalog operators and maps
    are shared by argument tuple, so their gates are computed once per
    process."""
    res = op._verified.get(key)
    if res is None:
        res = op._verified[key] = compute()
    return res


def verify_flags(op: BinaryOp, required, scale: ValueScale = UNIT) -> None:
    """Admission gate: every required flag must be declared and must pass.

    Results are cached per (flag, scale).  Raises :class:`HypothesisError`
    on a missing declaration or a failed check.
    """
    for flag in required:
        if flag not in op.flags:
            raise HypothesisError(f"operator {op.name!r} does not declare {flag!r}")
        res = cached_gate(op, (flag, scale.upper, scale.closed),
                          lambda: check_operator_property(op, flag, scale))
        if not res.holds:
            raise HypothesisError(
                f"operator {op.name!r} fails declared flag {flag!r} on {scale.describe()}",
                detail=res,
            )


def check_top_absorbing(op: BinaryOp, scale: ValueScale) -> CheckResult:
    """Grid check of m op y = y op m = m at the scale's top element m."""
    if not scale.closed:
        raise DomainError("top absorption needs a closed scale")
    return _section_law(op, scale.grid(), scale.upper, scale.upper, "lr")
