"""Decidable relation classes for pairs of functions on a finite space.

Every relation here is decided exactly, so every verdict has mode
``exhaustive``.  ``comonotone`` compares all point pairs and the level-set
relations sweep the realized threshold grid.  Star-association quantifies
over all nonempty subsets, but subsets of at most three points already
decide it (see ``is_star_associated``), so it checks C(k+2, 3) index
triples on k points, at most 2,600 at 24 points.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .core import Fn, _domain_mask, _level_sets
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
    pts = [i for i in range(len(f)) if domain >> i & 1]
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


def is_star_associated(f: Fn, g: Fn, star: BinaryOp, domain: int | None = None,
                       *, tol: float = 1e-12) -> RelationVerdict:
    """Subset infima of the pointwise star-combination must factor through
    the star of the two subset infima, for every nonempty subset.

    A violating subset keeps its three infima, and so its violation, on the
    at most three points where f, g and the star-combination are least, and
    that subset's bitmask is no larger.  So the subsets of at most three
    points decide the relation exactly, and the witness is the violating
    subset with the smallest bitmask among all subsets.
    """
    domain = _pair_domain(f, g, domain)
    pts = [i for i in range(len(f)) if domain >> i & 1]
    if not pts:
        return RelationVerdict("star_associated", True)
    fv = np.array(f.values)[pts]
    gv = np.array(g.values)[pts]
    sv = np.array([float(star.fn(f[i], g[i])) for i in pts])

    idx, masks = _triples(len(pts))
    inf_s = sv[idx].min(axis=1)
    combined = star.grid(fv[idx].min(axis=1), gv[idx].min(axis=1))
    with np.errstate(invalid="ignore"):  # both infinite: NaN, never above tol
        bad = np.flatnonzero(np.abs(combined - inf_s) > tol)
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


def is_mu_subadditive(f: Fn, g: Fn, boxplus: BinaryOp, mu: MonotoneMeasure,
                      domain: int | None = None, tol: float = 1e-12) -> RelationVerdict:
    """Union level-set measure dominated by the boxplus-combination of the
    individual level-set measures, at every threshold pair.

    Level sets only change at realized values, so the realized grid plus 0
    decides the relation exactly.
    """
    domain = _pair_domain(f, g, domain)
    g_levels = list(zip(*_level_sets(g.values, domain)))
    for a, mask_f in zip(*_level_sets(f.values, domain)):
        mu_f = mu(mask_f)
        for b, mask_g in g_levels:
            union = mu(mask_f | mask_g)
            bound = float(boxplus.fn(mu_f, mu(mask_g)))
            if union > bound + tol:
                return RelationVerdict("mu_subadditive", False,
                                       {"a": a, "b": b, "mu_union": union,
                                        "bound": bound})
    return RelationVerdict("mu_subadditive", True)


def is_pqd(f: Fn, g: Fn, mu: MonotoneMeasure, tol: float = 1e-12) -> RelationVerdict:
    """Positive quadrant dependence: joint strict level sets dominate the
    product of the marginal ones on the realized threshold grid."""
    if len(f) != len(g):
        raise DomainError("functions must live on the same space")
    domain = (1 << len(f)) - 1
    g_levels = list(zip(*_level_sets(g.values, domain)))
    for t, mask_f in zip(*_level_sets(f.values, domain)):
        mu_f = mu(mask_f)
        for s, mask_g in g_levels:
            joint = mu(mask_f & mask_g)
            prod = mu_f * mu(mask_g)
            if joint < prod - tol:
                return RelationVerdict("pqd", False,
                                       {"t": t, "s": s, "mu_joint": joint,
                                        "mu_product": prod})
    return RelationVerdict("pqd", True)
