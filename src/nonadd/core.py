"""Foundations: extended nonnegative reals, value scales, finite spaces,
measurable functions, and survival profiles.

The numeric kernel works on plain floats with ``math.inf`` as the infinity
marker, under conventions that keep every operation total:

    0 * inf = 0        inf + x = inf
    1 / 0   = inf      1 / inf = 0

The convention ``0 * inf = 0`` (``xmul``, ``vmul``) is the one that makes
operators with an annihilating zero compose with extended values without
special cases; ``vinv`` is the reciprocal.

One nan rule holds everywhere: a nan value, such as an operator undefined
at a cell, never wins a sup or an inf and never violates a check; it drops
out.  Two infinite sides of a comparison tie, at gap 0 (``_rel_gap``).
Every grid check (the named conditions, the chain conditions and the
operator laws) is one broadcast sweep, ``_sweep``.

Finite spaces carry subsets as bitmask integers; ``check_cells`` bounds every
exhaustive check by the cells it enumerates, ``MAX_CELLS`` = 2**24 at most.
Every table indexed by all subsets (measure tables, subset infima, mask
expansion) comes from the one doubling pass ``_subset_fold``.  Every level
set of a function on a domain comes from the one pass ``_level_sets``: the
strict sets ``{f > t}`` at the thresholds t in {0} and the realized values,
from which the sets ``{f >= t}`` are read one threshold lower.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .results import CheckResult, DomainError

INF = math.inf
_TOL = 1e-12   # the comparison tolerance of every check but a measure's own tolerance()


def rng_for(seed, *indices) -> random.Random:
    """Deterministic per-instance RNG derived from a seed and index path.

    Hash-based so results are stable across processes and platforms
    (builtin ``hash`` is salted and unusable here).
    """
    key = repr((seed,) + tuple(indices)).encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))

MAX_CELLS = 1 << 24       # cells one check may enumerate: the largest table's entries
_MAX_BITS = MAX_CELLS.bit_length() - 1   # most points whose 2**n subsets fit the budget
_CHUNK_CELLS = 1 << 15    # cells per evaluated chunk of a broadcast sweep

_ONE_SLICE = np.zeros(1)  # the lead of a pass with one slice
_LADDER = tuple(float(2 ** k) for k in range(1, 11))  # grid tail for unbounded scales


def check_cells(cells: int, what: str) -> None:
    """Refuse ``what`` when it would enumerate more than ``MAX_CELLS`` cells."""
    if cells > MAX_CELLS:
        raise DomainError(f"{what} enumerates {cells:,} cells, over the budget of {MAX_CELLS:,}")


def _at_least_one(name: str, count: int) -> None:
    """Refuse a count of draws, levels or workers below 1: a check over none
    of them would hold having checked nothing."""
    if count < 1:
        raise DomainError(f"{name} must be at least 1, got {count}")


# ---------------------------------------------------------------------------
# extended-real arithmetic
# ---------------------------------------------------------------------------

def is_xreal(v: float) -> bool:
    """True for a nonnegative float or the infinity marker (NaN rejected)."""
    return isinstance(v, (int, float)) and not math.isnan(v) and v >= 0


def xmul(a: float, b: float) -> float:
    """Product with 0 * inf = 0."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def _rel_gap(lhs: float, rhs: float) -> float:
    """The gap lhs - rhs, and 0 when both sides are infinite: the one rule
    every check comparing two extended values reads a gap by."""
    if math.isinf(lhs) and math.isinf(rhs):
        return 0.0
    return lhs - rhs


# array-safe variants for grid sweeps

def vmul(a, b):
    """Elementwise product with the 0 * inf = 0 convention (numpy friendly)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        r = a * b
    return np.where((a == 0.0) | (b == 0.0), 0.0, r)


def vinv(a):
    """Elementwise reciprocal with 1/0 = inf and 1/inf = 0 (a float stays a float)."""
    if type(a) is float:
        return INF if a == 0.0 else 0.0 if math.isinf(a) else 1.0 / a
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore"):
        r = np.where(a == 0.0, INF, 1.0 / np.where(a == 0.0, 1.0, a))
    return np.where(np.isinf(a), 0.0, r)


def _abs_gap(u, v):
    """Elementwise ``|u - v|``, and 0 where both are equal, so two equal
    infinities tie (inf - inf is nan)."""
    with np.errstate(invalid="ignore"):
        return np.where(u == v, 0.0, np.abs(np.subtract(u, v)))


# ---------------------------------------------------------------------------
# broadcast sweeps
# ---------------------------------------------------------------------------

def _sweep(shape: tuple, passes, tol: float, mode: str) -> CheckResult:
    """Evaluate ``lhs > rhs + tol`` over every leading slice of every pass,
    for ``tol`` = ``_TOL`` (0 for the continuity probe).

    Each pass is ``(lead, body)``: ``lead`` is a 1-D array of looped values
    and ``body(L)`` receives a chunk of it shaped ``(k, 1, ..., 1)`` and
    returns ``(lhs, rhs, valid, coords)``, each broadcastable to
    ``(k,) + shape``; ``valid`` may be ``None`` and ``coords`` lists the
    witness coordinates in witness key order.  Chunks hold at most
    ``_CHUNK_CELLS`` cells and the whole sweep at most ``MAX_CELLS``, checked
    first.

    The witness is the first violating cell in C order over the passes in
    turn (the leading axis, then the axes of ``shape``), with its
    coordinates, ``lhs`` and ``rhs``.  A holding sweep reports the least
    finite slack ``rhs - lhs``; a failing one the largest violation
    ``lhs - rhs`` over all violating cells, so ``inf`` as soon as one is
    infinite.  A nan or invalid cell never violates and sets no margin.
    """
    ndim = len(shape)
    check_cells(sum(len(lead) for lead, _ in passes) * math.prod(shape), "condition sweep")
    step = max(1, _CHUNK_CELLS // max(1, math.prod(shape)))
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
                # lhs > rhs + tol forces slack < 0 (never nan), so a least
                # slack >= 0 rules out every violation of the chunk
                if least >= 0:
                    min_slack = min(min_slack, least)
                    continue
                viol = np.greater(lhs, np.add(rhs, tol), out=np.empty(full, dtype=bool))
            if valid is not None:
                viol &= valid
            min_slack = min(min_slack, least)       # -inf only beside a violation
            if not viol.any():
                continue
            max_viol = max(max_viol, -float(np.where(viol, slack, INF).min()))
            if witness is None:
                idx = np.unravel_index(int(viol.argmax()), full)
                witness = {name: float(np.broadcast_to(arr, full)[idx])
                           for name, arr in coords.items()}
                witness["lhs"] = float(np.broadcast_to(lhs, full)[idx])
                witness["rhs"] = float(np.broadcast_to(rhs, full)[idx])
    if witness is None:
        return CheckResult(True, margin=min_slack, mode=mode)
    return CheckResult(False, margin=max_viol, witness=witness, mode=mode)


def _sweep_cells(shape: tuple, cells, tol: float, mode: str) -> CheckResult:
    """``_sweep`` over fixed cells: one slice per ``(lhs, rhs, valid,
    coords)`` entry of ``cells``, each broadcastable to ``shape``."""
    return _sweep(shape, [(_ONE_SLICE, lambda _, c=c: c) for c in cells], tol, mode)


# ---------------------------------------------------------------------------
# value scales
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueScale:
    """The range of function values: [0, upper] when closed, else [0, upper).

    ``upper`` may be ``inf``; a closed infinite scale admits the infinity
    marker as a value.
    """

    upper: float
    closed: bool

    def __post_init__(self):
        if not is_xreal(self.upper) or self.upper <= 0:
            raise DomainError(f"scale upper bound must be positive, got {self.upper!r}")

    def contains(self, y: float) -> bool:
        if not is_xreal(y):
            return False
        if self.closed:
            return y <= self.upper
        return y < self.upper

    def contains_all(self, ys: np.ndarray) -> np.ndarray:
        """``contains`` elementwise on a float array: nan fails, -0.0 passes."""
        return (ys >= 0.0) & ((ys <= self.upper) if self.closed else (ys < self.upper))

    def grid(self, spacing: float = 1.0 / 64.0) -> np.ndarray:
        """Standard verification grid: multiples of ``spacing`` within the
        scale plus endpoints; unbounded scales add a geometric ladder up to
        2**10 (and inf when closed)."""
        if math.isinf(self.upper):
            pts = list(np.arange(0.0, 1.0 + spacing / 2, spacing)) + list(_LADDER)
            if self.closed:
                pts.append(INF)
        else:
            pts = list(np.arange(0.0, self.upper, spacing))
            if self.closed:
                pts.append(self.upper)
            elif pts and pts[-1] < self.upper - spacing / 2:
                # approach the open end without touching it
                pts.append(self.upper - spacing / 2)
        return np.array(sorted(set(float(p) for p in pts)))

    def describe(self) -> str:
        upper = "inf" if math.isinf(self.upper) else repr(self.upper)
        return f"[0,{upper}{']' if self.closed else ')'}"


UNIT = ValueScale(1.0, True)           # [0, 1]
UNIT_OPEN = ValueScale(1.0, False)     # [0, 1)
NONNEG = ValueScale(INF, False)        # [0, inf)
EXTENDED = ValueScale(INF, True)       # [0, inf]


# ---------------------------------------------------------------------------
# finite spaces and bitmask subsets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteSpace:
    """A ground set of n points; subsets are bitmasks over n bits."""

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= _MAX_BITS:   # n, not 2**n: a huge n forms no huge integer
            raise DomainError(f"space size must be in [1, {_MAX_BITS}] (2**n cells), got {self.n}")

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def validate_mask(self, mask: int) -> int:
        if not isinstance(mask, int) or not 0 <= mask <= self.full:
            raise DomainError(f"invalid subset bitmask {mask!r} for {self.n}-point space")
        return mask


def _check_length(values, space: FiniteSpace) -> None:
    """Refuse a function whose length is not the number of points of ``space``."""
    if len(values) != space.n:
        raise DomainError(f"function of length {len(values)} on a {space.n}-point space")


def _domain_points(domain: int) -> list[int]:
    """The points of a domain bitmask, increasing."""
    return [i for i in range(domain.bit_length()) if domain >> i & 1]


# --- subset-lattice doubling ------------------------------------------------

def _subset_fold(xs, op, empty, dtype=float) -> np.ndarray:
    """Fold ``op`` over every subset of a k-point universe, k = len(xs).

    Entry 0 is ``empty``; entry m is ``op`` applied to the entry of m minus
    its highest bit and ``xs`` at that bit, so the bits of m are combined
    from low to high.  Built by doubling: for bit b with h = 2**b, the upper
    half ``tab[h:2h]`` is ``op(tab[:h], xs[b])``.
    """
    tab = np.empty(1 << len(xs), dtype=dtype)
    tab[0] = empty
    for b, x in enumerate(xs):
        h = 1 << b
        op(tab[:h], x, out=tab[h:2 * h])
    return tab


def subset_infima(values: Sequence[float]) -> np.ndarray:
    """Infimum of ``values`` over every subset of a k-point universe.

    Entry at mask m is min(values[i] for i in m); entry 0 is +inf (the
    empty infimum).  Built by one subset-lattice doubling pass.
    """
    return _subset_fold([float(v) for v in values], np.minimum, INF)


def expand_masks(domain_bits: Sequence[int]) -> np.ndarray:
    """Map compact k-bit masks to masks over the original space.

    ``domain_bits`` lists the original bit positions in increasing order;
    the result has one entry per compact mask.
    """
    return _subset_fold([1 << b for b in domain_bits], np.bitwise_or, 0, np.int64)


# ---------------------------------------------------------------------------
# measurable functions
# ---------------------------------------------------------------------------

def _in_scale_values(values: tuple[float, ...], scale: ValueScale) -> tuple[float, ...]:
    """``values``, after refusing the first one outside ``scale``."""
    # ValueScale.contains as one chain per value (NaN fails it); the
    # per-point loop runs only to name the first value outside the scale
    upper = scale.upper
    if not (all(0.0 <= v <= upper for v in values) if scale.closed
            else all(0.0 <= v < upper for v in values)):
        for i, v in enumerate(values):
            if not scale.contains(v):
                raise DomainError(
                    f"value {v!r} at point {i} lies outside the scale {scale.describe()}"
                )
    return values


@dataclass(frozen=True)
class Fn:
    """A measurable function on a finite space: one value per point.

    Every value must belong to the scale.  Instances are immutable; all
    level-set and integral machinery treats them as read-only vectors.
    """

    values: tuple[float, ...]
    scale: ValueScale = UNIT

    def __init__(self, values: Sequence[float], scale: ValueScale = UNIT):
        values = tuple(map(float, values))
        if not 1 <= len(values) <= _MAX_BITS:
            raise DomainError(f"function length must be in [1, {_MAX_BITS}] (2**n cells)")
        object.__setattr__(self, "values", _in_scale_values(values, scale))
        object.__setattr__(self, "scale", scale)

    @classmethod
    def indicator(cls, n: int, mask: int, height: float = 1.0,
                  scale: ValueScale = UNIT) -> "Fn":
        return cls([height if mask >> i & 1 else 0.0 for i in range(n)], scale)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


def _one_scale(*fns: Fn) -> ValueScale:
    """The one scale of ``fns``, refusing functions on two: each integral
    reads its integrand on the ``Fn``'s own scale, and the sides of one
    statement must read one."""
    scale = fns[0].scale
    for f in fns[1:]:
        if f.scale != scale:
            raise DomainError(f"functions on two scales: {scale.describe()} and "
                              f"{f.scale.describe()}")
    return scale


def _domain_mask(n: int, domain: int | None) -> int:
    """The domain bitmask over n points: every point for ``None``."""
    full = (1 << n) - 1
    if domain is None:
        return full
    if not isinstance(domain, int) or not 0 <= domain <= full:
        raise DomainError(f"invalid domain bitmask {domain!r}")
    return domain


def _level_sets(values: Sequence[float], domain: int) -> tuple[list[float], list[int]]:
    """Thresholds T = sorted({0} | {values on the domain}) and, for each
    T[j], the bitmask A[j] of domain points whose value is above T[j].
    On nonnegative values, every ``Fn``'s, T[0] is 0.0 (-0.0 joins its key).

    ``{f >= T[j]}`` on the domain is A[j-1], and the whole domain for j = 0.
    One pass over the distinct values, from the top down.
    """
    at: dict[float, int] = {0.0: 0}  # value -> domain points holding it
    bit = 1
    for v in values:
        if domain & bit:
            at[v] = at.get(v, 0) | bit
        bit <<= 1
    ts = sorted(at)
    above, m = [], 0
    for t in reversed(ts):
        above.append(m)
        m |= at[t]
    above.reverse()
    return ts, above


# ---------------------------------------------------------------------------
# survival profiles
# ---------------------------------------------------------------------------

class SurvivalProfile:
    """A nonincreasing map t -> measure of the level set at height t.

    Carries either a closed-form callable (must accept numpy arrays) or a
    sorted knot table evaluated with right-continuous step interpolation,
    matching how level-set measures behave on finite spaces.  Construction
    samples the profile on a grid and rejects descriptors that increase by
    more than ``_TOL``.
    """

    def __init__(self, scale: ValueScale, fn: Callable | None = None,
                 knots: Sequence[tuple[float, float]] | None = None):
        if (fn is None) == (knots is None):
            raise DomainError("provide exactly one of fn= or knots=")
        self.scale = scale
        self.fn = fn
        if knots is not None:
            ts = [float(t) for t, _ in knots]
            gs = [float(g) for _, g in knots]
            if sorted(ts) != ts:
                raise DomainError("knots must be sorted by t")
            if any(not scale.contains(t) for t in ts):
                raise DomainError("knot abscissae must lie in the scale")
            self._knot_t = np.array(ts)
            self._knot_g = np.array(gs)
        else:
            self._knot_t = None
            self._knot_g = None
        sample = self._grid_sample()
        diffs = np.diff(sample)
        if diffs.size and diffs.max() > _TOL:
            raise DomainError("survival profile must be nonincreasing")

    def _grid_sample(self) -> np.ndarray:
        ts = self.scale.grid(1.0 / 256.0)
        ts = ts[np.isfinite(ts)]
        return np.asarray(self.evaluate(ts), dtype=float)

    def evaluate(self, t):
        """Profile value at t (t must lie in the scale; arrays accepted)."""
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        pts = np.atleast_1d(arr)
        for v in pts[~self.scale.contains_all(pts)][:1]:   # the first level outside
            raise DomainError(f"level {float(v)!r} outside the scale {self.scale.describe()}")
        if self.fn is not None:
            out = np.asarray(self.fn(pts), dtype=float)
        else:
            # right-continuous step: value at the greatest knot <= t
            idx = np.searchsorted(self._knot_t, pts, side="right") - 1
            if (idx < 0).any():
                raise DomainError("profile evaluated below the first knot")
            out = self._knot_g[idx]
        return float(out[0]) if scalar else out
