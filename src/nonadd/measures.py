"""Monotone measures on finite spaces.

A measure is a set function over bitmask subsets with value 0 on the empty
set, nondecreasing under inclusion.  Four representations are supported:

* ``explicit``      -- a table indexed by bitmask,
* ``possibility``   -- max of a point density over the subset,
* ``distortion``    -- a monotone distortion of an additive probability,
* ``lambda_sugeno`` -- the multiplicative lambda family built from a density.

Property checkers are exhaustive and vectorized.  ``monotone`` and
``null_additive`` read single subsets and run up to the 24-point space cap;
the checks that enumerate subset *pairs* (subadditive, maxitive, submodular)
are capped at 12 points.  Margins use exact table arithmetic; a 1e-12
tolerance applies only to the representations whose evaluation involves
rounding (distortion, lambda, h-duals).

The two single-subset checks read the table through per-bit half views
(:func:`_bit_halves`): for point i, the sets without i and the same sets
with it.

* ``monotone`` subtracts the halves of one bit at a time into one reused
  2**(n-1) buffer and takes its min; an inf - inf difference (nan) reads as
  0, so only a bit with a nan takes a second, nan-ignoring min.  A failure
  reports the first difference below ``-tol`` of the first failing bit and
  minus the largest such difference; a success reports the least finite
  difference, floored at 0.  These are the values of a gather of each bit's
  finite differences, which runs only where the min alone cannot decide the
  value: a zero minimum on a table holding -0.0 (the sign of the zero is
  the one the gather's min gives), and a -inf difference under an infinite
  ``tol``.
* ``null_additive`` tests the points of the null union U, the union of the
  sets with value at most ``tol`` (:func:`null_union`).  If ``tol >= 0`` and
  adding any one point of U leaves every value unchanged, then every null
  set N is a subset of U and ``tab[a | N] == tab[a]`` for every a, by
  adding the points of N one at a time.  Every difference the per-null-set
  sweep would read is then 0 (inf against inf reads as 0), so the check
  holds with margin 0.0 without it.  Any other table runs that sweep, one
  2**n pass per null set, which also gives a failure's witness.

The pairwise checks share one chunked kernel (:func:`_pair_kernel`).  A
failure reports the largest violation; its witness is the pair with the
smallest key ``(a << n) | b`` among the equal largest violations, which is
the first one in (a, b) order.  A success reports minus the largest finite
margin.  The kernel sweeps one of two pair sets:

* *disjoint pairs* (3**n): maxitivity is decided on them by definition (the
  pair of empty sets has margin 0, so they also hold the first largest
  violation for a negative ``tol``).  Subadditivity is decided on them when
  the table is *exactly monotone* (every ``tab[a | bit] >= tab[a]``, no
  tolerance): then mu(B - A) <= mu(B), and float rounding is monotone, so
  (A, B - A) has a margin at least as large as (A, B) and a smaller key.
  Largest violation, witness and success margin are therefore those of all
  pairs, bit for bit.  The derived all-pairs maxitive form cannot fail on
  such a table either, so it runs only on tables that are not exactly
  monotone (possible for ``explicit(validate=False)`` tables, tables
  validated only up to 1e-12, and user distortions);
* *all pairs* (4**n), in row chunks: subadditivity on other tables, and
  submodularity always.  Its success margin is the largest rounding residue
  over every pair, which no local (A, i, j) test reproduces.

Continuity from below is trivially true on a finite space (every increasing
chain stabilizes), so no separate check exists for it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .core import (
    INF,
    FiniteSpace,
    MAX_PAIRWISE_POINTS,
    ValueScale,
    UNIT,
    _CHUNK_CELLS,
    _subset_fold,
    expand_masks,
    is_xreal,
    rng_for,
)
from .results import CheckResult, DomainError

MEASURE_PROPERTIES = ("monotone", "subadditive", "maxitive", "submodular",
                      "null_additive", "finite")

GENERATOR_FAMILIES = ("monotonized_random", "possibility", "distortion_concave",
                      "non_maxitive")


class MonotoneMeasure:
    """A set function on a finite space, evaluable on any subset bitmask."""

    def __init__(self, space: FiniteSpace, kind: str, *,
                 table: np.ndarray | None = None,
                 density: tuple[float, ...] | None = None,
                 probs: tuple[float, ...] | None = None,
                 distortion: Callable | None = None,
                 distortion_name: str = "",
                 lam: float | None = None,
                 rounding: bool = False,
                 empty_value: float = 0.0,
                 params: dict | None = None):
        self.space = space
        self.kind = kind
        self.density = density
        self.probs = probs
        self.distortion = distortion
        self.distortion_name = distortion_name
        self.lam = lam
        self.rounding = rounding          # True when evaluation involves float rounding
        self.empty_value = empty_value
        self.params = params or {}
        self._table = table

    # -- constructors -------------------------------------------------------

    @classmethod
    def explicit(cls, space: FiniteSpace, table: Sequence[float], *,
                 allow_nonzero_empty: bool = False,
                 validate: bool = True,
                 rounding: bool = False) -> "MonotoneMeasure":
        tab = np.asarray([float(v) for v in table], dtype=float)
        if tab.shape != (1 << space.n,):
            raise DomainError(
                f"explicit table needs {1 << space.n} entries, got {tab.shape[0]}"
            )
        if np.isnan(tab).any() or (tab < 0).any():
            raise DomainError("table entries must be extended nonnegative reals")
        mu = cls(space, "explicit", table=tab, rounding=rounding,
                 empty_value=float(tab[0]))
        if validate:
            if not allow_nonzero_empty and tab[0] != 0.0:
                raise DomainError("measure of the empty set must be 0")
            res = check_measure_property(mu, "monotone", _skip_empty=allow_nonzero_empty)
            if not res.holds:
                raise DomainError(f"table is not monotone: {res.witness}")
        return mu

    @classmethod
    def possibility(cls, space: FiniteSpace, density: Sequence[float]) -> "MonotoneMeasure":
        dens = tuple(float(v) for v in density)
        if len(dens) != space.n:
            raise DomainError("density length must equal the space size")
        if any(not is_xreal(v) for v in dens):
            raise DomainError("density values must be extended nonnegative reals")
        return cls(space, "possibility", density=dens)

    @classmethod
    def distortion(cls, space: FiniteSpace, probs: Sequence[float], g: Callable,
                   name: str = "g") -> "MonotoneMeasure":
        p = tuple(float(v) for v in probs)
        if len(p) != space.n:
            raise DomainError("probability vector length must equal the space size")
        if any(v < 0 for v in p) or abs(sum(p) - 1.0) > 1e-9:
            raise DomainError("probabilities must be nonnegative and sum to 1")
        if abs(float(g(0.0))) > 1e-12:
            raise DomainError("distortion must map 0 to 0")
        return cls(space, "distortion", probs=p, distortion=g,
                   distortion_name=name, rounding=True)

    @classmethod
    def lambda_sugeno(cls, space: FiniteSpace, lam: float,
                      density: Sequence[float]) -> "MonotoneMeasure":
        dens = tuple(float(v) for v in density)
        if len(dens) != space.n:
            raise DomainError("density length must equal the space size")
        if any(v < 0 or math.isinf(v) for v in dens):
            raise DomainError("lambda family needs finite nonnegative densities")
        if any(1.0 + lam * v <= 0.0 for v in dens):
            raise DomainError("1 + lambda*density must stay positive")
        return cls(space, "lambda_sugeno", density=dens, lam=float(lam), rounding=True)

    # -- evaluation ----------------------------------------------------------

    def table(self) -> np.ndarray:
        """Full value table indexed by bitmask (built lazily, cached)."""
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def subset_table(self, bits: Sequence[int]) -> np.ndarray:
        """Values on every subset of the points ``bits`` (increasing),
        indexed by compact mask.  Without a cached table, a proper subset of
        the space folds only its own points; the values are bit-identical to
        the full table's."""
        if self._table is None and len(bits) < self.space.n:
            return self._build_table(bits)
        return self.table()[expand_masks(bits)]

    def _build_table(self, bits: Sequence[int] | None = None) -> np.ndarray:
        """The table over all subsets, or over the subsets of ``bits``
        (increasing) indexed by compact mask."""
        def at(xs):
            return xs if bits is None else [xs[b] for b in bits]

        if self.kind == "possibility":
            return _subset_fold(at(self.density), np.maximum, 0.0)
        if self.kind == "distortion":
            p = _subset_fold(at(self.probs), np.add, 0.0)
            tab = np.asarray(self.distortion(np.clip(p, 0.0, 1.0)), dtype=float)
            tab[0] = 0.0
            return tab
        if self.kind == "lambda_sugeno":
            if self.lam == 0.0:
                return _subset_fold(at(self.density), np.add, 0.0)
            pr = _subset_fold([1.0 + self.lam * d for d in at(self.density)], np.multiply, 1.0)
            tab = (pr - 1.0) / self.lam
            tab[0] = 0.0
            np.clip(tab, 0.0, None, out=tab)
            return tab
        raise DomainError(f"cannot build table for kind {self.kind!r}")

    def __call__(self, mask: int) -> float:
        self.space.validate_mask(mask)
        if self._table is not None:
            return float(self._table[mask])
        if self.kind == "possibility":
            best = 0.0
            m = mask
            while m:
                low = m & -m
                best = max(best, self.density[low.bit_length() - 1])
                m ^= low
            return best
        return float(self.table()[mask])

    @property
    def total(self) -> float:
        return self(self.space.full)

    def tolerance(self) -> float:
        return 1e-12 if self.rounding else 0.0

    def describe(self) -> dict:
        """Scenario-format description: parametric families by name and
        parameters, explicit measures by their bitmask-indexed table."""
        out = {"kind": self.kind, "n": self.space.n}
        if self.kind == "possibility":
            out["density"] = list(self.density)
        elif self.kind == "distortion":
            out["distortion"] = self.distortion_name
            out["probs"] = list(self.probs)
        elif self.kind == "lambda_sugeno":
            out["lambda"] = self.lam
            out["density"] = list(self.density)
        elif self.kind == "explicit":
            out["table"] = [float(v) for v in self.table()]
        return out


def measure_eval(mu: MonotoneMeasure, mask: int) -> float:
    """Value of the set function on a subset."""
    return mu(mask)


# ---------------------------------------------------------------------------
# exhaustive property checks
# ---------------------------------------------------------------------------

def _require_pairwise(space: FiniteSpace, prop: str):
    if space.n > MAX_PAIRWISE_POINTS:
        raise DomainError(
            f"{prop} check enumerates subset pairs; space size {space.n} exceeds "
            f"the cap of {MAX_PAIRWISE_POINTS}"
        )


_LOW_BITS = 8   # the disjoint pairs of the low bits form one cached block (6,561 cells)


@functools.lru_cache(maxsize=None)
def _disjoint_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The 3**k pairs (a, b) of disjoint subsets of k points, as two arrays."""
    a = b = np.zeros(1, dtype=np.int64)
    for bit in range(k):
        h = 1 << bit
        a, b = np.concatenate([a, a + h, a]), np.concatenate([b, b, b + h])
    a.flags.writeable = b.flags.writeable = False   # shared by every caller
    return a, b


def _pair_blocks(n: int, disjoint: bool):
    """Index arrays (a, b) covering every pair of subsets of n points once,
    or every disjoint pair.  All pairs come as row chunks ``a[:, None]`` by
    ``arange(2**n)`` of at most ``_CHUNK_CELLS`` cells; disjoint pairs as the
    cached block of the low k = min(n, _LOW_BITS) bits lifted by each
    disjoint pair of the high bits."""
    if disjoint:
        k = min(n, _LOW_BITS)
        lo_a, lo_b = _disjoint_pairs(k)
        hi_a, hi_b = _disjoint_pairs(n - k)
        for ha, hb in zip((hi_a << k).tolist(), (hi_b << k).tolist()):
            yield lo_a + ha, lo_b + hb
        return
    idx = np.arange(1 << n, dtype=np.int64)
    step = max(1, _CHUNK_CELLS >> n)
    for i in range(0, 1 << n, step):
        yield idx[i:i + step, None], idx


def _pair_kernel(tab: np.ndarray, n: int, margin, tol: float, disjoint: bool):
    """Reduce ``margin(a, b)`` (nan read as 0) over the pairs of
    :func:`_pair_blocks`; returns (ok, witness_pair, extreme).

    A violation is ``margin > tol``.  The witness has the largest violation
    and, among equal ones, the smallest key ``(a << n) | b``, so it does not
    depend on the block order.  On success the extreme is minus the largest
    finite margin, or ``INF`` when no margin is finite.
    """
    best, key, top = -INF, None, -INF
    with np.errstate(invalid="ignore"):
        for a, b in _pair_blocks(n, disjoint):
            m = margin(a, b)
            hi = float(m.max())
            if hi != hi:         # the max is nan exactly when some margin is
                m[np.isnan(m)] = 0.0
                hi = float(m.max())
            if hi > tol:
                if hi >= best:
                    hits = np.flatnonzero(m == hi)
                    keys = ((np.broadcast_to(a, m.shape).ravel()[hits] << n)
                            | np.broadcast_to(b, m.shape).ravel()[hits])
                    k = int(keys.min())
                    if hi > best or k < key:
                        best, key = hi, k
            elif hi > top:
                top = hi
    if key is not None:
        return False, (key >> n, key & ((1 << n) - 1)), best
    return True, None, INF if top == -INF else -top


def _bit_halves(tab: np.ndarray, bit: int) -> tuple[np.ndarray, np.ndarray]:
    """Views (low, high) of ``tab`` for point ``bit``: ``low`` holds the sets
    without the point and ``high`` the same sets with it, entry for entry."""
    halves = tab.reshape(-1, 2, 1 << bit)
    return halves[:, 0], halves[:, 1]


def _exactly_monotone(tab: np.ndarray, n: int) -> bool:
    """Every ``tab[a | bit] >= tab[a]``, with no tolerance."""
    for bit in range(n):
        low, high = _bit_halves(tab, bit)
        if not (high >= low).all():
            return False
    return True


def null_union(mu: MonotoneMeasure, tol: float) -> int:
    """Bitmask union of the null sets of ``mu`` (value at most ``tol``)."""
    return int(np.bitwise_or.reduce(np.flatnonzero(mu.table() <= tol)))


def _finite_min(diff: np.ndarray) -> float:
    """Least finite entry, nan read as 0 (``INF`` when none is finite)."""
    diff = np.where(np.isnan(diff), 0.0, diff)
    finite = diff[np.isfinite(diff)]
    return float(finite.min()) if finite.size else INF


def check_measure_property(mu: MonotoneMeasure, prop: str, *,
                           tol: float | None = None,
                           _skip_empty: bool = False) -> CheckResult:
    """Exhaustive verdict for a measure property, with a witness on failure.

    Pairwise properties (subadditive, maxitive, submodular) require at most
    12 points; monotone and null_additive run up to the 24-point cap.
    ``monotone`` is one buffer pass per bit; ``null_additive`` first tests
    the points of the null union, which decides every table whose null sets
    change no value, and sweeps null set by null set otherwise (see the
    module docstring for why both give the same bytes as full sweeps).
    """
    if prop not in MEASURE_PROPERTIES:
        raise DomainError(f"unknown measure property {prop!r}")
    if tol is None:
        tol = mu.tolerance()
    tab = mu.table()
    n = mu.space.n
    size = 1 << n

    if prop == "finite":
        total = float(tab[-1])
        if math.isinf(total):
            return CheckResult(False, INF, {"set": int(size - 1), "value": "inf"})
        return CheckResult(True, margin=total)

    if prop == "monotone":
        if not _skip_empty and tab[0] != 0.0:
            return CheckResult(False, float(tab[0]), {"set": 0, "value": float(tab[0]),
                                                      "reason": "empty set has nonzero measure"})
        diff = np.empty(size >> 1)
        signed = None        # whether an entry carries a sign bit, read on a zero minimum
        slack = INF
        for bit in range(n):
            low, high = _bit_halves(tab, bit)
            out = diff.reshape(low.shape)
            # numpy steps slowly through rows two entries wide: at bit 1,
            # subtract the two strided columns instead
            parts = zip(low.T, high.T, out.T) if bit == 1 else [(low, high, out)]
            with np.errstate(invalid="ignore"):          # inf - inf
                for lo, hi, o in parts:
                    np.subtract(hi, lo, out=o)
            least = float(diff.min())
            has_nan = least != least
            if has_nan:
                least = float(np.fmin.reduce(diff))     # nan only when every entry is
            if least < -tol or (has_nan and 0.0 < -tol):
                if has_nan:
                    diff = np.where(np.isnan(diff), 0.0, diff)
                bad = diff < -tol
                j = int(np.argmax(bad))
                a = (j >> bit << (bit + 1)) | (j & ((1 << bit) - 1))
                return CheckResult(False, float(-(diff[bad]).max()),
                                   {"set": a, "point": bit, "value": float(tab[a]),
                                    "value_with_point": float(tab[a | 1 << bit])})
            if least == 0.0 and signed is None:
                signed = bool(np.signbit(tab).any())
            if least == -INF or (least == 0.0 and signed):
                least = _finite_min(diff)
            elif has_nan and not least < 0.0:
                least = 0.0                              # a nan difference reads as 0
            slack = min(slack, least)
        return CheckResult(True, margin=max(slack, 0.0))

    if prop == "null_additive":
        union = null_union(mu, tol)
        if tol >= 0 and all(np.array_equal(*_bit_halves(tab, bit))
                            for bit in range(n) if union >> bit & 1):
            return CheckResult(True, margin=0.0)
        null_sets = np.arange(size, dtype=np.int64)[tab <= tol]
        idx = np.arange(size, dtype=np.int64)
        worst = 0.0
        for a in null_sets:
            with np.errstate(invalid="ignore"):
                diff = np.abs(tab[idx | int(a)] - tab[idx])
            diff = np.where(np.isnan(diff), 0.0, diff)  # inf vs inf agrees
            if (diff > tol).any():
                b = int(idx[diff > tol][0])
                return CheckResult(False, float(diff.max()),
                                   {"null_set": int(a), "set": b,
                                    "value_union": float(tab[b | int(a)]),
                                    "value": float(tab[b])})
            worst = max(worst, float(diff[np.isfinite(diff)].max()) if diff.size else 0.0)
        return CheckResult(True, margin=worst)

    _require_pairwise(mu.space, prop)

    if prop == "subadditive":
        # on an exactly monotone table, (A, B - A) violates at least as much
        # as (A, B) and comes first, so the disjoint pairs decide everything
        def subadd(a, b):
            m = tab.take(a | b)
            m -= tab.take(a) + tab.take(b)
            return m

        ok, pair, extreme = _pair_kernel(tab, n, subadd, tol,
                                         disjoint=_exactly_monotone(tab, n))
        if ok:
            return CheckResult(True, margin=extreme)
        a, b = pair
        return CheckResult(False, extreme,
                           {"set_a": a, "set_b": b, "mu_a": float(tab[a]),
                            "mu_b": float(tab[b]), "mu_union": float(tab[a | b])})

    if prop == "maxitive":
        def maxi(a, b):
            m = tab.take(a | b)
            m -= np.maximum(tab.take(a), tab.take(b))
            return m

        # disjoint pairs decide the property; the all-pairs form must follow,
        # and it can only fail on a table that is not exactly monotone
        ok, pair, extreme = _pair_kernel(tab, n, maxi, tol, disjoint=True)
        if not ok:
            a, b = pair
            return CheckResult(False, extreme,
                               {"set_a": a, "set_b": b, "mu_a": float(tab[a]),
                                "mu_b": float(tab[b]), "mu_union": float(tab[a | b]),
                                "disjoint": True})
        if not _exactly_monotone(tab, n):
            ok_all, pair_all, extreme_all = _pair_kernel(tab, n, maxi, tol, disjoint=False)
            if not ok_all:
                a, b = pair_all
                return CheckResult(False, extreme_all,
                                   {"set_a": a, "set_b": b, "disjoint": False,
                                    "reason": "derived all-pairs form failed"})
        return CheckResult(True, margin=0.0, detail={"all_pairs_asserted": True})

    # submodular
    def submod(a, b):
        m = tab.take(a | b)
        m += tab.take(a & b)
        m -= tab.take(a)
        m -= tab.take(b)
        return m

    ok, pair, extreme = _pair_kernel(tab, n, submod, tol, disjoint=False)
    if ok:
        return CheckResult(True, margin=extreme)
    a, b = pair
    return CheckResult(False, extreme,
                       {"set_a": a, "set_b": b, "mu_union": float(tab[a | b]),
                        "mu_inter": float(tab[a & b]), "mu_a": float(tab[a]),
                        "mu_b": float(tab[b])})


# ---------------------------------------------------------------------------
# h-duality
# ---------------------------------------------------------------------------

def dual_measure(mu: MonotoneMeasure, h, scale: ValueScale | None = None) -> MonotoneMeasure:
    """The conjugate measure A -> h_inverse(mu(complement of A)).

    Monotone whenever the input is.  The empty set maps to
    h_inverse(mu(X)), which is 0 exactly when mu(X) equals h(0); the
    constructed table keeps whatever value arises so that applying an
    involutive h twice recovers the original measure exactly.  Passing the
    value scale additionally validates the map as a decreasing bijection on
    the standard grid.
    """
    if scale is not None:
        h.validate_on(scale)
    tab = mu.table()
    full = mu.space.full
    comp = tab[full - np.arange(tab.shape[0], dtype=np.int64)]
    dual_tab = np.asarray(h.inverse(comp), dtype=float)
    # rounding in h can push an exact 0 a few ulps below zero
    dual_tab = np.where((dual_tab < 0.0) & (dual_tab > -1e-9), 0.0, dual_tab)
    out = MonotoneMeasure.explicit(mu.space, dual_tab, allow_nonzero_empty=True,
                                   rounding=True)
    return out


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def generate_measure(seed: int, family: str, n: int = 6) -> MonotoneMeasure:
    """Deterministic random measure from one of the generator families.

    ``monotonized_random`` draws raw subset scores on the 1/64 grid and takes
    running maxima over subsets; ``possibility`` draws a density;
    ``distortion_concave`` composes a concave power map with a random
    probability, hence is subadditive; ``non_maxitive`` returns an additive
    probability with two singletons of positive weight, which always
    violates maxitivity on that planted disjoint pair.
    """
    if family not in GENERATOR_FAMILIES:
        raise DomainError(f"unknown generator family {family!r}")
    if n > MAX_PAIRWISE_POINTS:
        raise DomainError(f"generator space size capped at {MAX_PAIRWISE_POINTS}")
    rng = rng_for(seed, family, n)
    space = FiniteSpace(n)
    size = 1 << n

    if family == "monotonized_random":
        tab = np.array([0.0] + [rng.randrange(0, 65) / 64.0 for _ in range(size - 1)])
        # running max over subsets: each set takes the max over its submasks
        for bit in range(n):
            low, high = _bit_halves(tab, bit)
            np.maximum(high, low, out=high)
        return MonotoneMeasure.explicit(space, tab)

    if family == "possibility":
        dens = [rng.randrange(1, 65) / 64.0 for _ in range(n)]
        return MonotoneMeasure.possibility(space, dens)

    if family == "distortion_concave":
        gamma = rng.choice([0.25, 0.5, 0.75, 1.0])
        weights = [rng.randrange(1, 17) for _ in range(n)]
        s = sum(weights)
        probs = [w / s for w in weights]

        def g(x, _gamma=gamma):
            return np.power(x, _gamma)

        return MonotoneMeasure.distortion(space, probs, g, name=f"power({gamma})")

    # non_maxitive: additive with at least two strictly positive atoms
    weights = [rng.randrange(1, 11) for _ in range(n)]
    s = float(sum(weights))
    tab = _subset_fold([w / s for w in weights], np.add, 0.0)
    tab = np.clip(tab / tab[-1], 0.0, 1.0)  # pin the total to exactly 1
    return MonotoneMeasure.explicit(space, tab, rounding=True)


def lambda_sugeno_random(seed: int, n: int = 6) -> MonotoneMeasure:
    """Random lambda-family measure normalized to total mass 1.

    The parameter is drawn from the strictly negative range where the family
    is subadditive; the density is rescaled by bisection so the full-set
    value is exactly 1 (which pins the admissible parameter range to
    (-1, 0)).
    """
    rng = rng_for(seed, "lambda_sugeno", n)
    space = FiniteSpace(n)
    lam = -rng.randrange(5, 96) / 100.0
    raw = [rng.randrange(1, 65) / 64.0 for _ in range(n)]

    def total(scale: float) -> float:
        prod = 1.0
        for r in raw:
            prod *= 1.0 + lam * scale * r
        return (prod - 1.0) / lam

    lo, hi = 0.0, 1.0 / (-lam * max(raw)) * 0.999999
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if total(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    dens = [((lo + hi) / 2.0) * r for r in raw]
    return MonotoneMeasure.lambda_sugeno(space, lam, dens)
