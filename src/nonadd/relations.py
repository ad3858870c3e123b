"""Decidable relation classes for pairs of functions on a finite space.

Every relation here is decided exactly, so every verdict has mode
``exhaustive``.  ``comonotone`` compares all point pairs and the level-set
relations sweep the realized threshold grid in one broadcast over
:func:`_level_grid` (f's levels as rows, g's as columns; the witness is the
first failing pair in that order).  Star-association quantifies
over all nonempty subsets, but subsets of at most three points already
decide it (see ``is_star_associated``), so it checks C(k+2, 3) index
triples on k points, at most 2,600 at 24 points.  Values compare within
``core._TOL``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .core import Fn, _TOL, _check_length, _domain_mask, _domain_points, _level_sets
from .measures import MonotoneMeasure
from .operators import BinaryOp
from .results import DomainError, RelationVerdict


def _pair_domain(f: Fn, g: Fn, domain: int | None) -> int:
    if len(f) != len(g):
        raise DomainError("functions must live on the same space")
    return _domain_mask(len(f), domain)


def is_comonotone(f: Fn, g: Fn, domain: int | None = None) -> RelationVerdict:
    """No point pair on which f and g move in opposite directions."""
    domain = _pair_domain(f, g, domain)
    pts = _domain_points(domain)
    fv = np.array([f[i] for i in pts])
    gv = np.array([g[i] for i in pts])
    df = fv[:, None] - fv[None, :]
    dg = gv[:, None] - gv[None, :]
    with np.errstate(invalid="ignore"):
        bad = df * dg < 0
    bad &= ~np.isnan(df * dg)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return RelationVerdict("comonotone", False,
                               {"point_x": pts[int(i)], "point_y": pts[int(j)],
                                "f": [float(fv[i]), float(fv[j])],
                                "g": [float(gv[i]), float(gv[j])]})
    return RelationVerdict("comonotone", True)


@lru_cache(maxsize=None)
def _triples(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every multiset of three of k local indices, with its local bitmask."""
    idx = np.array(list(combinations_with_replacement(range(k), 3)), dtype=np.int64)
    masks = np.bitwise_or.reduce(np.left_shift(1, idx), axis=1)
    return idx, masks


def is_star_associated(f: Fn, g: Fn, star: BinaryOp,
                       domain: int | None = None) -> RelationVerdict:
    """Subset infima of the pointwise star-combination must factor through
    the star of the two subset infima, for every nonempty subset.

    A violating subset keeps its three infima, and so its violation, on the
    at most three points where f, g and the star-combination are least, and
    that subset's bitmask is no larger.  So the subsets of at most three
    points decide the relation exactly, and the witness is the violating
    subset with the smallest bitmask among all subsets.
    """
    domain = _pair_domain(f, g, domain)
    pts = _domain_points(domain)
    if not pts:
        return RelationVerdict("star_associated", True)
    fv = np.array(f.values)[pts]
    gv = np.array(g.values)[pts]
    sv = np.array([float(star.fn(f[i], g[i])) for i in pts])

    idx, masks = _triples(len(pts))
    inf_s = sv[idx].min(axis=1)
    combined = star.grid(fv[idx].min(axis=1), gv[idx].min(axis=1))
    with np.errstate(invalid="ignore"):  # both infinite: NaN, never above the tolerance
        bad = np.flatnonzero(np.abs(combined - inf_s) > _TOL)
    if bad.size:
        j = int(bad[masks[bad].argmin()])
        orig = 0
        for i in idx[j]:
            orig |= 1 << pts[i]
        return RelationVerdict("star_associated", False,
                               {"subset": orig,
                                "inf_combined": float(inf_s[j]),
                                "star_of_infs": float(combined[j])})
    return RelationVerdict("star_associated", True)


def _level_grid(f: Fn, g: Fn, mu: MonotoneMeasure, domain: int):
    """f's thresholds and strict level masks on the domain as the rows of a
    grid, g's as its columns (``core._level_sets``), after checking f's
    length against the measure's space: the domain, which the caller has
    checked against f's length, then lies in the space, and ``mu.masses``
    reads any array of its submasks unchecked."""
    _check_length(f.values, mu.space)
    (tf, mf), (tg, mg) = _level_sets(f.values, domain), _level_sets(g.values, domain)
    return (np.array(tf)[:, None], np.array(mf, dtype=np.int64)[:, None],
            np.array(tg)[None, :], np.array(mg, dtype=np.int64)[None, :])


def _first(bad: np.ndarray) -> tuple[int, int] | None:
    """The first true cell of a grid in row-major order, or ``None``."""
    return np.unravel_index(int(bad.argmax()), bad.shape) if bad.any() else None


def is_mu_subadditive(f: Fn, g: Fn, boxplus: BinaryOp, mu: MonotoneMeasure,
                      domain: int | None = None) -> RelationVerdict:
    """Union level-set measure dominated by the boxplus-combination (through
    ``boxplus.grid``) of the individual level-set measures, at every
    threshold pair.

    Level sets only change at realized values, so the realized grid plus 0
    decides the relation exactly.  The witness is the first violating pair,
    f's threshold first.
    """
    a, mf, b, mg = _level_grid(f, g, mu, _pair_domain(f, g, domain))
    union = mu.masses(mf | mg)
    with np.errstate(invalid="ignore"):
        bound = np.broadcast_to(boxplus.grid(mu.masses(mf), mu.masses(mg)), union.shape)
        cell = _first(union > bound + _TOL)
    if cell is not None:
        i, j = cell
        return RelationVerdict("mu_subadditive", False,
                               {"a": float(a[i, 0]), "b": float(b[0, j]),
                                "mu_union": float(union[i, j]), "bound": float(bound[i, j])})
    return RelationVerdict("mu_subadditive", True)


def is_pqd(f: Fn, g: Fn, mu: MonotoneMeasure) -> RelationVerdict:
    """Positive quadrant dependence: joint strict level sets dominate the
    product of the marginal ones on the realized threshold grid.  The
    witness is the first failing pair, f's threshold first."""
    t, mf, s, mg = _level_grid(f, g, mu, _pair_domain(f, g, None))
    joint = mu.masses(mf & mg)
    with np.errstate(invalid="ignore"):          # 0 * inf
        prod = mu.masses(mf) * mu.masses(mg)
        cell = _first(joint < prod - _TOL)
    if cell is not None:
        i, j = cell
        return RelationVerdict("pqd", False,
                               {"t": float(t[i, 0]), "s": float(s[0, j]),
                                "mu_joint": float(joint[i, j]), "mu_product": float(prod[i, j])})
    return RelationVerdict("pqd", True)
