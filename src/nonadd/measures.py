"""Monotone measures on finite spaces.

A measure is a set function over bitmask subsets with value 0 on the empty
set, nondecreasing under inclusion.  Four representations are supported:

* ``explicit``      -- a table indexed by bitmask,
* ``possibility``   -- max of a point density over the subset,
* ``distortion``    -- a monotone distortion of an additive probability,
* ``lambda_sugeno`` -- the multiplicative lambda family built from a density.

The parametric tables are built by one subset-lattice doubling
(``core._subset_fold``); the distortion and lambda builds finish in the
fold's own array, so a build makes no table-sized temporary of its own (a
user distortion receives that array, clipped to [0, 1]).  A possibility
measure without a cached table reads a mass as the max over blocks of
``_FOLD_BITS`` = 8 points of each block's max fold at the mask's bits in
it (built once, at most 3 * 256 floats): max over nonnegative floats is
exact and order-free, and a -0.0 density reads as 0.0, so these reads,
the bit loop they replace and the full table give the same bits.

Property checkers are exhaustive and vectorized.  ``monotone`` and
``null_additive`` read single subsets; the pairwise checks run while their
cells fit ``core.MAX_CELLS`` (15 points on 3**n, 12 on 4**n, 18 on the local
cells).  Margins use exact table arithmetic; every check compares within
``tol = mu.tolerance()``, ``core._TOL`` for the representations whose
evaluation involves rounding (distortion, lambda, h-duals), else 0.

A possibility measure's table is the max fold of its density by
construction: ``tab[0] == 0.0`` and ``tab[h + x] == max(tab[x], tab[h])``
for every point b, h = 2**b and x < h (a -0.0 density reads 0.0, and no
density is nan).  So its holding ``monotone``, ``subadditive``,
``submodular``, ``maxitive`` and ``null_additive`` checks are decided by
its kind, first, with no budget refusal and no table: each holds with
margin 0.0, the bytes of its sweep, since every margin the sweep reads is
at most 0 (an inf - inf margin reads 0) and one of them reads 0.  With
a = tab[A] and x, y the values of the singletons {i}, {j}:

* ``monotone`` (n >= 2): tab[A + i] - tab[A] = max(a, x) - a >= 0, and 0
  where A is one largest point and i another point;
* ``subadditive``: a disjoint pair (A, B) reads max(a, tab[B]) -
  (a + tab[B]) <= 0, since the sum rounds to at least the max, and a pair
  with an empty side reads 0;
* ``submodular`` (n >= 3): a local cell reads (max(a, x, y) - max(a, y)) -
  (max(a, x) - a).  It is 0 where a >= x, y, as where A holds a largest
  point; where y is largest it is 0 minus a difference >= 0; where x is,
  x - max(a, y) rounds to at most x - a;
* ``maxitive``: mu(A | B) = max(mu(A), mu(B)) for all A, B, empty or not;
* ``null_additive`` (n >= 1): the null points are those of density 0, and
  adding one leaves every value max(a, 0.0) = a, so the null-union test
  below holds with margin 0.0 on every possibility table.

Every other measure takes the sweeps below.  ``monotone``, and the
exact-monotonicity test that picks a pair sweep, read the table point by
point: for point i, the values of the sets without i and
of the same sets with it, entry for entry (:func:`_bit_sides`).  Up to
``_GATHER_BITS`` = 11 points all n points come from one ``take`` per side
through index pairs cached per n (:func:`_bit_pairs`, read-only,
n * 2**(n-1) entries each, 0.33 MB for every n up to 11); above, from the
two half views of each point (:func:`_bit_halves`), since at 12 points the
gather falls out of cache and runs about twice as slow as the per-point
passes.  ``null_additive`` reads the half views of the null union's points
only, usually one or none, where two views cost less than two gathers.

* ``monotone`` takes the differences of the two sides: for n <= 11 one
  (n, 2**(n-1)) array whose row b is point b, on which one min decides
  first: with no nan and nothing below ``-tol`` it is the success margin.
  Above 11 points no table-sized temporary is made: each point's
  differences come in chunks of at most ``core._CHUNK_CELLS`` through one
  reused buffer (:func:`_difference_chunks`), and the chunk minima decide
  the point under the same two conditions (:func:`_chunk_least`); a zero
  minimum's sign may then depend on the chunk order, which the margin's
  floor at 0 and ``CheckResult`` hide.  A row the minima leave open, on
  either route, is read whole (above 11 points it is rebuilt), in point
  order, one min each; an inf - inf difference (nan) reads as 0, so only a
  row with a nan takes a second, nan-ignoring min.  A failure reports the
  first difference below ``-tol`` of the first failing point and minus the
  largest such difference; a success reports the least difference, floored
  at 0.
* ``null_additive`` tests the points of the null union U, the union of the
  sets with value at most ``tol`` (:func:`null_union`).  If adding any one
  point of U leaves every value unchanged, then every null set N is a
  subset of U and ``tab[a | N] == tab[a]`` for every a, by adding the
  points of N one at a time.  Every difference the per-null-set sweep
  would read is then 0 (inf against inf reads as 0), so the check holds
  with margin 0.0 without it.  Otherwise let u be the lowest point of U
  that moves a value.  A null set below {u} holds only points below u, which
  move nothing, so on an exact table (``tol`` = 0) whose {u} is null, as on
  every monotone one, the sweep's first failing null set is {u}, and its
  one pass gives the sweep's witness and margin.  Any other table (a
  rounding one, or {u} not null) runs the whole sweep, one 2**n pass per
  null set, refused up front when its null sets times 2**n pass the cell
  budget.

The pairwise checks share one reduction (:func:`_reduce_blocks`).  A
failure reports the largest violation; its witness is the pair with the
smallest key ``(a << n) | b`` among the equal largest violations, which is
the first one in (a, b) order.  A success reports minus the largest finite
margin.  The chunked pair kernel (:func:`_pair_kernel`) sweeps one of two
pair sets:

* *disjoint pairs* (3**n): maxitivity is decided on them by definition.
  Subadditivity is decided on them when the table is *exactly monotone*
  (every ``tab[a | bit] >= tab[a]``, no tolerance): then mu(B - A) <=
  mu(B), and float rounding is monotone, so (A, B - A) has a margin at least
  as large as (A, B) and a smaller key.  Largest violation, witness and
  success margin are therefore those of all pairs, bit for bit.  The
  derived all-pairs maxitive form cannot fail on such a table either, so it
  runs only on tables that are not exactly monotone (possible for tables
  handed to the constructor unchecked, tables validated only up to
  ``core._TOL``, and user distortions);
* *all pairs* (4**n), in row chunks: subadditivity on other tables, and
  submodularity on the tables below that the local cells cannot decide.

Submodularity is decided on the local cells (:func:`_local_cells`): a real
set function on a Boolean lattice is submodular iff
mu(A+i) + mu(A+j) >= mu(A+i+j) + mu(A) for all i < j not in A, so the
C(n,2) * 2**(n-2) differences ``(mu(A+i+j) - mu(A+j)) - (mu(A+i) - mu(A))``
go through the same reduction, ``tol`` applying per cell.  The witness of
a violating cell is the pair (A+i, A+j), whose union is A+i+j and whose
intersection is A.  Comparable pairs, which hold with equality, are never
read, so a success margin is the least local slack rather than a rounding
residue.  The cells decide the property whenever no cell reads a nan
that hides a violation: on an exactly monotone table, whose infinite
entries form an up-set (a pair violating between finite values has only
finite sets in its interval, and one whose union is +inf has a cell whose
top alone is +inf), and on a finite table with entries of magnitude at
most a quarter of the largest float, where no difference overflows.  Any
other table, such as a non-monotone one with infinite entries, where an
inf - inf cell read as 0 could hide a violation between finite values,
sweeps all pairs.

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
    _CHUNK_CELLS,
    _TOL,
    _subset_fold,
    check_cells,
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
                 rounding: bool = False):
        self.space = space
        self.kind = kind
        self.density = density
        self.probs = probs
        self.distortion = distortion
        self.distortion_name = distortion_name
        self.lam = lam
        self.rounding = rounding          # True when evaluation involves float rounding
        self._table = table
        self._folds = None                # a table-less possibility's block folds
        self._fold_read = None            # and its mass reader over them

    # -- constructors -------------------------------------------------------

    @classmethod
    def explicit(cls, space: FiniteSpace, table: Sequence[float], *,
                 allow_nonzero_empty: bool = False,
                 rounding: bool = False) -> "MonotoneMeasure":
        try:
            tab = np.array(table, dtype=float)      # one copy: the caller keeps its own
        except (TypeError, ValueError, OverflowError) as exc:   # ragged, or not numbers
            raise DomainError(f"explicit table entries must be numbers: {exc}") from None
        if tab.shape != (1 << space.n,):
            raise DomainError(
                f"explicit table needs {1 << space.n} entries, got shape {tab.shape}"
            )
        if np.isnan(tab).any() or (tab < 0).any():
            raise DomainError("table entries must be extended nonnegative reals")
        mu = cls(space, "explicit", table=tab, rounding=rounding)
        if not allow_nonzero_empty and tab[0] != 0.0:
            raise DomainError("measure of the empty set must be 0")
        res = _check_monotone(tab, space.n, mu.tolerance())
        if not res.holds:
            raise DomainError(f"table is not monotone: {res.witness}")
        return mu

    @classmethod
    def possibility(cls, space: FiniteSpace, density: Sequence[float]) -> "MonotoneMeasure":
        # + 0.0 reads -0.0 as 0.0: np.maximum(0.0, -0.0) is -0.0, Python's max 0.0
        dens = tuple(float(v) + 0.0 for v in density)
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
        if not (all(v >= 0 for v in p) and abs(sum(p) - 1.0) <= _TOL):
            raise DomainError("probabilities must be nonnegative and sum to 1")
        if abs(float(g(0.0))) > _TOL:
            raise DomainError("distortion must map 0 to 0")
        return cls(space, "distortion", probs=p, distortion=g,
                   distortion_name=name, rounding=True)

    @classmethod
    def lambda_sugeno(cls, space: FiniteSpace, lam: float,
                      density: Sequence[float]) -> "MonotoneMeasure":
        dens = tuple(float(v) for v in density)
        if len(dens) != space.n:
            raise DomainError("density length must equal the space size")
        if not all(0.0 <= v < math.inf for v in dens):
            raise DomainError("lambda family needs finite nonnegative densities")
        if math.isnan(lam) or any(1.0 + lam * v <= 0.0 for v in dens):
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
        the full table's.  All the points give a read-only view of the table
        itself, built and cached if need be."""
        if len(bits) == self.space.n:
            view = self.table().view()
            view.flags.writeable = False
            return view
        if self._table is None:
            return self._build_table(bits)
        return self.table()[expand_masks(bits)]

    def _build_table(self, bits: Sequence[int] | None = None) -> np.ndarray:
        """The table over all subsets, or over the subsets of ``bits``
        (increasing) indexed by compact mask."""
        def at(xs):
            return xs if bits is None else [xs[b] for b in bits]

        if self.kind == "possibility":
            return _subset_fold(at(self.density), np.maximum, 0.0)
        # the fold's own array is finished in place: a fresh table-sized
        # temporary costs more in first-touch page faults than its arithmetic
        if self.kind == "distortion":
            p = _subset_fold(at(self.probs), np.add, 0.0)
            tab = np.asarray(self.distortion(np.clip(p, 0.0, 1.0, out=p)), dtype=float)
            tab[0] = 0.0
            return tab
        if self.kind == "lambda_sugeno":
            if self.lam == 0.0:
                return _subset_fold(at(self.density), np.add, 0.0)
            tab = _subset_fold([1.0 + self.lam * d for d in at(self.density)], np.multiply, 1.0)
            tab -= 1.0
            tab /= self.lam
            tab[0] = 0.0
            np.clip(tab, 0.0, None, out=tab)
            return tab
        raise DomainError(f"cannot build table for kind {self.kind!r}")

    def __call__(self, mask: int) -> float:
        return self.mass_reader(mask)(mask)

    def _fold_tables(self) -> list[np.ndarray]:
        """A table-less possibility measure's per-block max folds (module
        docstring), built once."""
        if self._folds is None:
            self._folds = [_subset_fold(self.density[i:i + _FOLD_BITS], np.maximum, 0.0)
                           for i in range(0, self.space.n, _FOLD_BITS)]
        return self._folds

    def _fold_reader(self):
        """The unchecked mass reader of a table-less possibility measure,
        built once: the max over the per-block max folds (module docstring)."""
        if self._fold_read is None:
            folds = [fold.tolist() for fold in self._fold_tables()]
            low = (1 << _FOLD_BITS) - 1

            def read(mask: int) -> float:
                best = 0.0
                for fold in folds:
                    v = fold[mask & low]
                    if v > best:
                        best = v
                    mask >>= _FOLD_BITS
                return best

            self._fold_read = read
        return self._fold_read

    def mass_reader(self, domain: int):
        """Check ``domain`` against the space once and return a reader of
        the masses of its submasks, unchecked: a table-less possibility
        measure's fold reader, else the ``item`` of ``table()``."""
        self.space.validate_mask(domain)
        if self._table is not None:
            return self._table.item
        return self._fold_reader() if self.kind == "possibility" else self.table().item

    def masses(self, masks: np.ndarray) -> np.ndarray:
        """The masses of an integer array of masks, in its shape, unchecked:
        for a table-less possibility measure the max over its block folds,
        one gather per block (the fold reads' bits), else a gather from
        ``table()``."""
        if self._table is None and self.kind == "possibility":
            low = (1 << _FOLD_BITS) - 1
            first, *rest = self._fold_tables()
            out = first[masks & low]
            for block, fold in enumerate(rest, 1):
                np.maximum(out, fold[masks >> block * _FOLD_BITS & low], out=out)
            return out
        return self.table()[masks]

    @property
    def total(self) -> float:
        return self(self.space.full)

    def tolerance(self) -> float:
        return _TOL if self.rounding else 0.0


# ---------------------------------------------------------------------------
# exhaustive property checks
# ---------------------------------------------------------------------------

_FOLD_BITS = 8   # a table-less possibility measure reads one max fold per block of 8 points
_LOW_BITS = 8   # the disjoint pairs of the low bits form one cached block (6,561 cells)
_GATHER_BITS = 11   # up to here one gather of every point's sets beats a pass per point
_NO_OVERFLOW = float(np.finfo(float).max) / 4   # no difference of differences overflows
# the least n from which a possibility measure holds each property by its kind
_FOLD_HOLDS = {"monotone": 2, "subadditive": 1, "submodular": 3, "maxitive": 1,
               "null_additive": 1}


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


def _reduce_blocks(blocks, n: int, tol: float):
    """Reduce margin blocks (nan read as 0); returns (ok, witness_pair, extreme).

    ``blocks`` yields (m, keys): an array of margins and a function giving
    the pair keys ``(a << n) | b`` of flat positions of ``m``.  A violation
    is ``margin > tol``.  The witness has the largest violation and, among
    equal ones, the smallest key, so it does not depend on the block order.
    On success the extreme is minus the largest finite margin, or ``INF``
    when no margin is finite.
    """
    best, key, top = -INF, None, -INF
    with np.errstate(invalid="ignore", over="ignore"):  # overflow to inf is intended
        for m, keys in blocks:
            hi = float(m.max())
            if hi != hi:         # the max is nan exactly when some margin is
                m[np.isnan(m)] = 0.0
                hi = float(m.max())
            if hi > tol:
                if hi >= best:
                    k = int(keys(np.flatnonzero(m == hi)).min())
                    if hi > best or k < key:
                        best, key = hi, k
            elif hi > top:
                top = hi
    if key is not None:
        return False, (key >> n, key & ((1 << n) - 1)), best
    return True, None, INF if top == -INF else -top


def _pair_kernel(tab: np.ndarray, n: int, margin, tol: float, what: str, disjoint: bool):
    """:func:`_reduce_blocks` of ``margin(a, b)`` over the pairs of
    :func:`_pair_blocks`, refused as ``what`` when they exceed the budget."""
    check_cells((3 if disjoint else 4) ** n,
                f"{what} over {'disjoint' if disjoint else 'all'} pairs")

    def blocks():
        for a, b in _pair_blocks(n, disjoint):
            m = margin(a, b)

            def keys(hits, a=a, b=b, shape=m.shape):
                return ((np.broadcast_to(a, shape).ravel()[hits] << n)
                        | np.broadcast_to(b, shape).ravel()[hits])

            yield m, keys

    return _reduce_blocks(blocks(), n, tol)


def _insert_zero(x: np.ndarray, bit: int) -> np.ndarray:
    """``x`` with a zero bit inserted at position ``bit``."""
    return (x >> bit << (bit + 1)) | (x & ((1 << bit) - 1))


def _local_cells(tab: np.ndarray, n: int):
    """The submodularity differences of :func:`_reduce_blocks`, one block
    per point pair i < j: ``d = (mu(A+i+j) - mu(A+j)) - (mu(A+i) - mu(A))``
    over the sets A without i and j, keyed by the pair (A+i, A+j).

    The bit-i differences ``mu(A+i) - mu(A)`` are taken once per i, indexed
    by the sets without i, where point j sits at bit j - 1; each j > i then
    subtracts their two half views for that bit.
    """
    for i in range(n - 1):
        low, high = _bit_halves(tab, i)
        di = high - low
        for j in range(i + 1, n):
            without_j, with_j = _bit_halves(di, j - 1)
            d = with_j - without_j

            def keys(hits, i=i, j=j):
                a = _insert_zero(_insert_zero(hits, j - 1), i)
                return ((a | 1 << i) << n) | a | 1 << j

            yield d, keys


def _bit_halves(tab: np.ndarray, bit: int) -> tuple[np.ndarray, np.ndarray]:
    """Views (low, high) of ``tab`` for point ``bit``: ``low`` holds the sets
    without the point and ``high`` the same sets with it, entry for entry."""
    halves = tab.reshape(-1, 2, 1 << bit)
    return halves[:, 0], halves[:, 1]


@functools.lru_cache(maxsize=None)
def _bit_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (low, high) of shape (n, 2**(n-1)): row b holds the sets
    without point b in increasing order, and the same sets with it."""
    sets = np.arange(1 << n >> 1, dtype=np.intp)
    low = np.stack([_insert_zero(sets, bit) for bit in range(n)])
    high = low | (1 << np.arange(n, dtype=np.intp))[:, None]
    low.flags.writeable = high.flags.writeable = False   # shared by every caller
    return low, high


def _bit_sides(tab: np.ndarray, n: int):
    """Pairs (low, high) of ``tab``'s values on the sets without a point and
    on the same sets with it, entry for entry, point by point.  Up to
    ``_GATHER_BITS`` points this is one pair of (n, 2**(n-1)) arrays, taken
    through the cached :func:`_bit_pairs`; above, the two half views of
    each point."""
    if n <= _GATHER_BITS:
        low, high = _bit_pairs(n)
        return [(tab.take(low), tab.take(high))]
    return (_bit_halves(tab, bit) for bit in range(n))


def _difference_chunks(tab: np.ndarray, bit: int, buf: np.ndarray):
    """The differences ``tab[A | {bit}] - tab[A]`` over the sets A without
    the point, in increasing order, as consecutive chunks of at most
    ``buf.size`` entries written into ``buf`` (each chunk is a view that
    the next one overwrites; inf - inf gives nan).

    Points 1 to 3, whose halves are rows of 2 to 8 entries through which
    numpy steps slowly, read a C-contiguous table as complex128: one element
    per two adjacent entries, so point b is the complex table's point b - 1,
    whose rows of 1 to 4 elements are subtracted column by column; one
    complex subtraction is the two float ones.
    """
    flat, cells = buf, buf.size
    narrow = bit in (1, 2, 3) and tab.flags.c_contiguous
    if narrow:
        tab, buf = tab.view(np.complex128), buf.view(np.complex128)
        bit, cells = bit - 1, cells >> 1
    low, high = _bit_halves(tab, bit)
    rows, width = low.shape
    step, span = max(1, cells // width), min(width, cells)   # rows per chunk, entries per row
    for i in range(0, rows, step):
        for j in range(0, width, span):
            lo, hi = low[i:i + step, j:j + span], high[i:i + step, j:j + span]
            out = buf[:lo.size].reshape(lo.shape)
            for a, b, o in (zip(lo.T, hi.T, out.T) if narrow else [(lo, hi, out)]):
                np.subtract(b, a, out=o)
            yield flat[:out.nbytes // flat.itemsize]


def _chunk_least(tab: np.ndarray, bit: int, buf: np.ndarray, tol: float) -> float | None:
    """The least difference of point ``bit`` from its chunk minima when they
    decide it, that is when none is nan or below ``-tol``; otherwise None.
    (Python's ``min`` would drop a nan: the test below fails on it.)"""
    least = INF
    for chunk in _difference_chunks(tab, bit, buf):
        m = float(chunk.min())
        if not m >= -tol:
            return None
        least = min(least, m)
    return least


def _exactly_monotone(tab: np.ndarray, n: int) -> bool:
    """Every ``tab[a | bit] >= tab[a]``, with no tolerance."""
    return all((high >= low).all() for low, high in _bit_sides(tab, n))


def null_union(mu: MonotoneMeasure, tol: float) -> int:
    """Bitmask union of the null sets of ``mu`` (value at most ``tol``)."""
    return int(np.bitwise_or.reduce(np.flatnonzero(mu.table() <= tol)))


@np.errstate(invalid="ignore")          # inf - inf
def _check_monotone(tab: np.ndarray, n: int, tol: float) -> CheckResult:
    """``monotone`` past the empty set (see the module docstring)."""
    if n <= _GATHER_BITS:
        [(low, diffs)] = _bit_sides(tab, n)
        diffs -= low
        # with no nan and no failing difference, the least one is the
        # least of the rows' minima (a zero margin is 0.0 either way)
        least = float(diffs.min())
        if least >= -tol:
            return CheckResult(True, margin=max(least, 0.0))
    else:
        buf = np.empty(min(_CHUNK_CELLS, 1 << n >> 1))
    slack = INF
    for bit in range(n):
        if n <= _GATHER_BITS:
            diff = diffs[bit]
        else:
            least = _chunk_least(tab, bit, buf, tol)
            if least is not None:
                slack = min(slack, least)
                continue
            low, high = _bit_halves(tab, bit)
            diff = (high - low).ravel()                  # the row the chunks left open
        least = float(diff.min())
        has_nan = least != least
        if has_nan:
            least = float(np.fmin.reduce(diff))         # nan only when every entry is
        if least < -tol:
            bad = diff < -tol                            # a nan difference is never below
            a = _insert_zero(int(np.argmax(bad)), bit)
            return CheckResult(False, float(-(diff[bad]).max()),
                               {"set": a, "point": bit, "value": float(tab[a]),
                                "value_with_point": float(tab[a | 1 << bit])})
        if has_nan and not least < 0.0:
            least = 0.0                                  # a nan difference reads as 0
        slack = min(slack, least)
    return CheckResult(True, margin=max(slack, 0.0))


def check_measure_property(mu: MonotoneMeasure, prop: str) -> CheckResult:
    """Exhaustive verdict for a measure property, with a witness on failure,
    within the measure's ``tolerance()``.

    A possibility measure holds ``monotone`` (n >= 2), ``subadditive``,
    ``submodular`` (n >= 3), ``maxitive`` and ``null_additive`` by its kind,
    with margin 0.0, before any budget refusal and without its table (see
    the module docstring).  Otherwise pairwise properties over the cell
    budget are refused: before the table is built for their cheapest sweep,
    after it for the 4**n pairs.
    ``monotone`` reads one difference row per point, gathered at once up to
    11 points and in bounded chunks above (see the module docstring);
    ``null_additive`` first tests the points of the null union, which
    decides every table whose null sets change no value, and sweeps null
    set by null set otherwise: on an exact table from the singleton of the
    lowest point that moves a value alone (see the module docstring for why
    these give the same bytes as full sweeps).
    ``submodular`` reads the local cells (A, i, j) rather than the subset
    pairs wherever they decide it.
    """
    if prop not in MEASURE_PROPERTIES:
        raise DomainError(f"unknown measure property {prop!r}")
    n = mu.space.n
    if mu.kind == "possibility" and n >= _FOLD_HOLDS.get(prop, n + 1):
        return CheckResult(True, margin=0.0,
                           detail={"all_pairs_asserted": True} if prop == "maxitive" else {})
    if prop == "submodular":        # before the table is built
        check_cells(math.comb(n, 2) << n >> 2, "submodular check over local cells")
    elif prop in ("subadditive", "maxitive"):
        check_cells(3 ** n, f"{prop} check over disjoint pairs")
    tol = mu.tolerance()
    tab = mu.table()
    size = 1 << n

    if prop == "finite":
        total = float(tab[-1])
        if math.isinf(total):
            return CheckResult(False, INF, {"set": int(size - 1), "value": "inf"})
        return CheckResult(True, margin=total)

    if prop == "monotone":
        if tab[0] != 0.0:
            return CheckResult(False, float(tab[0]), {"set": 0, "value": float(tab[0]),
                                                      "reason": "empty set has nonzero measure"})
        return _check_monotone(tab, n, tol)

    if prop == "null_additive":
        union = null_union(mu, tol)
        moving = (bit for bit in range(n)
                  if union >> bit & 1 and not np.array_equal(*_bit_halves(tab, bit)))
        u = next(moving, None)
        if u is None:
            return CheckResult(True, margin=0.0)
        if tol == 0.0 and tab[1 << u] <= tol:
            null_sets = [1 << u]      # the sweep's first failing null set
        else:
            null_sets = np.arange(size, dtype=np.int64)[tab <= tol]
            check_cells(len(null_sets) << n, "null-additive sweep over null sets")
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
            worst = max(worst, float(diff.max()))      # every entry is at most tol
        return CheckResult(True, margin=worst)

    if prop == "subadditive":
        # on an exactly monotone table, (A, B - A) violates at least as much
        # as (A, B) and comes first, so the disjoint pairs decide everything
        def subadd(a, b):
            m = tab.take(a | b)
            m -= tab.take(a) + tab.take(b)
            return m

        ok, pair, extreme = _pair_kernel(tab, n, subadd, tol,
                                         "subadditive check", disjoint=_exactly_monotone(tab, n))
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
        ok, pair, extreme = _pair_kernel(tab, n, maxi, tol, "maxitive check", disjoint=True)
        if not ok:
            a, b = pair
            return CheckResult(False, extreme,
                               {"set_a": a, "set_b": b, "mu_a": float(tab[a]),
                                "mu_b": float(tab[b]), "mu_union": float(tab[a | b]),
                                "disjoint": True})
        if not _exactly_monotone(tab, n):
            ok, pair, extreme = _pair_kernel(tab, n, maxi, tol, "maxitive check", disjoint=False)
            if not ok:
                a, b = pair
                return CheckResult(False, extreme,
                                   {"set_a": a, "set_b": b, "disjoint": False,
                                    "reason": "derived all-pairs form failed"})
        return CheckResult(True, margin=0.0, detail={"all_pairs_asserted": True})

    # submodular: decided on the local cells (A, i, j), whose pair (A+i, A+j)
    # has union A+i+j and intersection A, where they decide it (module
    # docstring); elsewhere on all pairs
    if float(np.abs(tab).max()) <= _NO_OVERFLOW or _exactly_monotone(tab, n):
        ok, pair, extreme = _reduce_blocks(_local_cells(tab, n), n, tol)
    else:
        def submod(a, b):
            m = tab.take(a | b)
            m += tab.take(a & b)
            m -= tab.take(a)
            m -= tab.take(b)
            return m

        ok, pair, extreme = _pair_kernel(tab, n, submod, tol, "submodular check", disjoint=False)
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

def dual_measure(mu: MonotoneMeasure, h) -> MonotoneMeasure:
    """The conjugate measure A -> h_inverse(mu(complement of A)).

    Monotone whenever the input is.  The empty set maps to
    h_inverse(mu(X)), which is 0 exactly when mu(X) equals h(0); the
    constructed table keeps whatever value arises so that applying an
    involutive h twice recovers the original measure exactly.
    """
    tab = mu.table()
    full = mu.space.full
    comp = tab[full - np.arange(tab.shape[0], dtype=np.int64)]
    dual_tab = np.asarray(h.inverse(comp), dtype=float)
    # rounding in h can push an exact 0 a few ulps below zero
    dual_tab = np.where((dual_tab < 0.0) & (dual_tab > -_TOL), 0.0, dual_tab)
    out = MonotoneMeasure.explicit(mu.space, dual_tab, allow_nonzero_empty=True,
                                   rounding=True)
    return out


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _grid_scores(rng, m: int) -> np.ndarray:
    """m draws of ``rng.randrange(0, 65)``: the top 7 bits of one 32-bit word, drawn
    again while >= 65; ``getrandbits(32 * k)`` holds the next k words little-endian."""
    chunks, got = [], 0
    while got < m:
        k = min(2 * (m - got) + 16, 1 << 16)   # about m accepted; at most 256 KB a draw
        words = np.frombuffer(rng.getrandbits(32 * k).to_bytes(4 * k, "little"), "<u4") >> 25
        chunks.append(words[words < 65])
        got += len(chunks[-1])
    return np.concatenate(chunks)[:m]


def generate_measure(seed: int, family: str, n: int) -> MonotoneMeasure:
    """Deterministic random measure from one of the generator families.

    ``monotonized_random`` draws raw subset scores on the 1/64 grid and takes
    running maxima over subsets; ``possibility`` draws a density;
    ``distortion_concave`` composes a concave power map with a random
    probability, hence is subadditive; ``non_maxitive`` returns an additive
    probability with two singletons of positive weight, which always
    violates maxitivity on that planted disjoint pair.

    The two table families are built monotone, so their tables are wrapped
    without the checks of :meth:`MonotoneMeasure.explicit`.  A running max
    is exact.  The additive table folds positive weights in bit order: a set
    with one more point adds one more positive term to the same partial
    sums, and float addition, division by the positive total and clipping
    are all monotone.  Both read 0 at the empty set and hold no nan.
    """
    if family not in GENERATOR_FAMILIES:
        raise DomainError(f"unknown generator family {family!r}")
    rng = rng_for(seed, family, n)
    space = FiniteSpace(n)
    size = 1 << n

    if family == "monotonized_random":
        tab = np.concatenate(([0.0], _grid_scores(rng, size - 1) / 64.0))
        # running max over subsets: each set takes the max over its submasks
        for bit in range(n):
            low, high = _bit_halves(tab, bit)
            np.maximum(high, low, out=high)
        return MonotoneMeasure(space, "explicit", table=tab)

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
    return MonotoneMeasure(space, "explicit", table=tab, rounding=True)


def lambda_sugeno_random(seed: int, n: int) -> MonotoneMeasure:
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
