"""Foundations: extended nonnegative reals, value scales, finite spaces,
measurable functions, and survival profiles.

The numeric kernel works on plain floats with ``math.inf`` as the infinity
marker, under conventions that keep every operation total:

    0 * inf = 0        inf + x = inf
    1 / 0   = inf      1 / inf = 0

The convention ``0 * inf = 0`` is the one that makes operators with an
annihilating zero compose with extended values without special cases.

Division is derived from multiplication by the reciprocal, so the corner
cases ``0/0`` and ``inf/inf`` both evaluate to 0.  That choice is arbitrary
but total and deterministic, which is what the rest of the library needs.

Finite spaces carry subsets as bitmask integers; exhaustive subset work is
capped at 24 points (and 12 for anything that enumerates subset pairs).
Every table indexed by all subsets (measure tables, subset infima, mask
expansion) comes from the one doubling pass ``_subset_fold``.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .results import DomainError

INF = math.inf


def rng_for(seed, *indices) -> random.Random:
    """Deterministic per-instance RNG derived from a seed and index path.

    Hash-based so results are stable across processes and platforms
    (builtin ``hash`` is salted and unusable here).
    """
    key = repr((seed,) + tuple(indices)).encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))

MAX_POINTS = 24          # exhaustive single-subset enumeration cap
MAX_PAIRWISE_POINTS = 12  # cap for anything enumerating subset pairs
_CHUNK_CELLS = 1 << 15    # cells per evaluated chunk of a broadcast sweep

_LADDER = tuple(float(2 ** k) for k in range(1, 11))  # grid tail for unbounded scales


# ---------------------------------------------------------------------------
# extended-real arithmetic
# ---------------------------------------------------------------------------

def is_xreal(v: float) -> bool:
    """True for a nonnegative float or the infinity marker (NaN rejected)."""
    return isinstance(v, (int, float)) and not math.isnan(v) and v >= 0


def xadd(a: float, b: float) -> float:
    return a + b


def xmul(a: float, b: float) -> float:
    """Product with 0 * inf = 0."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def xinv(a: float) -> float:
    """Reciprocal with 1/0 = inf and 1/inf = 0."""
    if a == 0.0:
        return INF
    if math.isinf(a):
        return 0.0
    return 1.0 / a


def xdiv(a: float, b: float) -> float:
    """a / b via a * (1/b); hence 0/0 = inf*... = 0 and inf/inf = 0."""
    return xmul(a, xinv(b))


def xmin(a: float, b: float) -> float:
    return a if a <= b else b


def xmax(a: float, b: float) -> float:
    return a if a >= b else b


def _rel_gap(lhs: float, rhs: float) -> float:
    """The gap lhs - rhs, and 0 when both sides are infinite: the one rule
    every check comparing two extended values reads a gap by."""
    if math.isinf(lhs) and math.isinf(rhs):
        return 0.0
    return lhs - rhs


_COMBINERS: dict[str, Callable[[float, float], float]] = {
    "add": xadd,
    "mul": xmul,
    "div": xdiv,
    "min": xmin,
    "max": xmax,
}


def combine(a: float, b: float, kind: str) -> float:
    """Total binary combination of extended nonnegative reals.

    ``kind`` is one of ``add, mul, div, min, max``.  All kinds are total and
    deterministic; add, mul, min, and max are commutative.
    """
    if not is_xreal(a) or not is_xreal(b):
        raise DomainError(f"arguments must be extended nonnegative reals, got {a!r}, {b!r}")
    try:
        fn = _COMBINERS[kind]
    except KeyError:
        raise DomainError(f"unknown combination kind {kind!r}") from None
    return fn(float(a), float(b))


# array-safe variants for grid sweeps

def vmul(a, b):
    """Elementwise product with the 0 * inf = 0 convention (numpy friendly)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        r = a * b
    return np.where((a == 0.0) | (b == 0.0), 0.0, r)


def vinv(a):
    """Elementwise reciprocal with 1/0 = inf and 1/inf = 0."""
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore"):
        r = np.where(a == 0.0, INF, 1.0 / np.where(a == 0.0, 1.0, a))
    return np.where(np.isinf(a), 0.0, r)


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


def scale_contains(scale: ValueScale, y: float) -> bool:
    """Membership test for a value in a scale."""
    return scale.contains(y)


# ---------------------------------------------------------------------------
# finite spaces and bitmask subsets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteSpace:
    """A ground set of n points; subsets are bitmasks over n bits."""

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_POINTS:
            raise DomainError(f"space size must be in [1, {MAX_POINTS}], got {self.n}")

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def validate_mask(self, mask: int) -> int:
        if not isinstance(mask, int) or not 0 <= mask <= self.full:
            raise DomainError(f"invalid subset bitmask {mask!r} for {self.n}-point space")
        return mask

    def subsets(self) -> range:
        return range(1 << self.n)


def iter_submasks(mask: int):
    """All submasks of ``mask`` including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


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

@dataclass(frozen=True)
class Fn:
    """A measurable function on a finite space: one value per point.

    Every value must belong to the scale.  Instances are immutable; all
    level-set and integral machinery treats them as read-only vectors.
    """

    values: tuple[float, ...]
    scale: ValueScale = UNIT

    def __init__(self, values: Sequence[float], scale: ValueScale = UNIT):
        values = tuple(float(v) for v in values)
        if not 1 <= len(values) <= MAX_POINTS:
            raise DomainError(f"function length must be in [1, {MAX_POINTS}]")
        for i, v in enumerate(values):
            if not scale.contains(v):
                raise DomainError(
                    f"value {v!r} at point {i} lies outside the scale {scale.describe()}"
                )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "scale", scale)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def space(self) -> FiniteSpace:
        return FiniteSpace(len(self.values))

    @classmethod
    def indicator(cls, n: int, mask: int, height: float = 1.0,
                  scale: ValueScale = UNIT) -> "Fn":
        return cls([height if mask >> i & 1 else 0.0 for i in range(n)], scale)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return self.values[i]


def level_mask_ge(values: Sequence[float], t: float, domain: int) -> int:
    """Bitmask of domain points where the value is >= t."""
    m = 0
    for i, v in enumerate(values):
        if domain >> i & 1 and v >= t:
            m |= 1 << i
    return m


def level_mask_gt(values: Sequence[float], t: float, domain: int) -> int:
    """Bitmask of domain points where the value is > t."""
    m = 0
    for i, v in enumerate(values):
        if domain >> i & 1 and v > t:
            m |= 1 << i
    return m


# ---------------------------------------------------------------------------
# survival profiles
# ---------------------------------------------------------------------------

class SurvivalProfile:
    """A nonincreasing map t -> measure of the level set at height t.

    Carries either a closed-form callable (must accept numpy arrays) or a
    sorted knot table evaluated with right-continuous step interpolation,
    matching how level-set measures behave on finite spaces.  Construction
    samples the profile on a grid and rejects descriptors that increase by
    more than 1e-12.
    """

    def __init__(self, scale: ValueScale, fn: Callable | None = None,
                 knots: Sequence[tuple[float, float]] | None = None,
                 domain_measure: float | None = None,
                 lipschitz: float | None = None):
        if (fn is None) == (knots is None):
            raise DomainError("provide exactly one of fn= or knots=")
        self.scale = scale
        self.fn = fn
        self.lipschitz = lipschitz
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
        if diffs.size and diffs.max() > 1e-12:
            raise DomainError("survival profile must be nonincreasing")
        g0 = float(self.evaluate(0.0))
        self.domain_measure = g0 if domain_measure is None else float(domain_measure)
        if g0 > self.domain_measure + 1e-12:
            raise DomainError("profile at 0 exceeds the declared domain measure")

    def _grid_sample(self) -> np.ndarray:
        ts = self.scale.grid(1.0 / 256.0)
        ts = ts[np.isfinite(ts)]
        return np.asarray(self.evaluate(ts), dtype=float)

    def evaluate(self, t):
        """Profile value at t (t must lie in the scale; arrays accepted)."""
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        pts = np.atleast_1d(arr)
        for v in pts:
            if not self.scale.contains(float(v)):
                raise DomainError(f"level {v!r} outside the scale {self.scale.describe()}")
        if self.fn is not None:
            out = np.asarray(self.fn(pts), dtype=float)
        else:
            # right-continuous step: value at the greatest knot <= t
            idx = np.searchsorted(self._knot_t, pts, side="right") - 1
            if (idx < 0).any():
                raise DomainError("profile evaluated below the first knot")
            out = self._knot_g[idx]
        return float(out[0]) if scalar else out


def profile_eval(profile: SurvivalProfile, t: float) -> float:
    """Evaluate a survival profile at a single level."""
    return float(profile.evaluate(float(t)))
