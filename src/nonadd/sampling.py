"""Deterministic random instances for fuzz campaigns and tests.

Values are drawn from dyadic grids (k/64 and friends) so that exact
comparisons stay exact; tolerance paths are exercised by the measure
families whose evaluation genuinely rounds (distortion, lambda).
Everything is keyed by (seed, index) through the stable hash in
:func:`nonadd.core.rng_for`.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .core import FiniteSpace, Fn, INF, UNIT, ValueScale, rng_for
from .measures import MonotoneMeasure, generate_measure, lambda_sugeno_random
from .operators import BinaryOp
from .relations import is_star_associated
from .results import DomainError


def random_values(rng: random.Random, n: int, scale: ValueScale = UNIT, *,
                  zero_rate: float = 0.15, inf_rate: float = 0.0) -> list[float]:
    """Values on the 1/64 grid inside the scale (up to 4 on an infinite
    one), with optional planted zeros and (on a closed infinite scale)
    infinities."""
    out = []
    top = scale.upper
    for _ in range(n):
        u = rng.random()
        if u < zero_rate:
            out.append(0.0)
        elif inf_rate and math.isinf(top) and scale.closed and u < zero_rate + inf_rate:
            out.append(INF)
        elif math.isinf(top):
            out.append(rng.randrange(0, 4 * 64 + 1) / 64)
        else:
            v = top * rng.randrange(0, 65) / 64
            if not scale.closed and v >= top:
                v = top * 63 / 64
            out.append(v)
    return out


def random_fn(rng: random.Random, n: int, scale: ValueScale = UNIT, **kw) -> Fn:
    return Fn(random_values(rng, n, scale, **kw), scale)


def comonotone_pair(rng: random.Random, n: int, scale: ValueScale = UNIT, *,
                    max_sum: float | None = None) -> tuple[Fn, Fn]:
    """Two nondecreasing reparametrizations of one six-level rank vector (ties kept).

    With ``max_sum`` the two level ladders are scaled so every pointwise sum
    stays at or below it.
    """
    ranks = [rng.randrange(0, 6) for _ in range(n)]
    top = scale.upper if not math.isinf(scale.upper) else 4.0

    def ladder() -> list[float]:
        incs = [rng.randrange(0, 9) for _ in range(6)]
        tot = sum(incs) or 1
        cap = top if max_sum is None else max_sum / 2.0
        acc, out = 0.0, []
        for inc in incs:
            acc += inc / tot * cap
            out.append(min(acc, cap))
        return out

    la, lb = ladder(), ladder()
    f = Fn([la[r] for r in ranks], scale)
    g = Fn([lb[r] for r in ranks], scale)
    return f, g


def anti_monotone_pair(rng: random.Random, n: int, scale: ValueScale = UNIT) -> tuple[Fn, Fn]:
    f = sorted(random_values(rng, n, scale))
    g = sorted(random_values(rng, n, scale), reverse=True)
    return Fn(f, scale), Fn(g, scale)


def star_associated_pair(rng: random.Random, n: int, star: BinaryOp,
                         kind: str = "comonotone") -> tuple[Fn, Fn]:
    """A pair on [0, 1] satisfying the subset-infimum factorization for
    ``star``.

    ``comonotone`` works for any nondecreasing operator: on every subset
    some point minimises both f and g, so both sides read the star at one
    pair.  ``two_block`` is star-associated under a star with both zero
    annihilators, without being comonotone: on the middle block f > 0 = g,
    on the remainder f = 0 < g.  ``any`` draws unconstrained pairs (valid
    when star is min: the inf of a pointwise min is the min of the infs).
    The construction is checked once; a star it does not admit raises.
    """
    local = random.Random(rng.randrange(1 << 62))
    if kind == "any":
        f, g = random_fn(local, n), random_fn(local, n)
    elif kind == "comonotone":
        f, g = comonotone_pair(local, n)
    elif kind == "two_block":
        # two disjoint blocks plus a free remainder, none of them empty
        if n < 3:
            raise DomainError("two_block construction needs at least 3 points")
        pts = list(range(n))
        local.shuffle(pts)
        cut1 = 1 + local.randrange(n - 2)
        cut2 = cut1 + 1 + local.randrange(n - cut1 - 1)
        B, C = pts[:cut1], pts[cut1:cut2]
        b = local.randrange(1, 33) / 32.0
        c = local.randrange(1, 33) / 32.0
        fv = [0.0] * n
        gv = [0.0] * n
        for i in B:
            fv[i] = b
            gv[i] = b
        for i in C:
            fv[i] = c
        for i in pts[cut2:]:
            gv[i] = c
        f, g = Fn(fv, UNIT), Fn(gv, UNIT)
    else:
        raise DomainError(f"unknown construction kind {kind!r}")
    if not is_star_associated(f, g, star).holds:
        raise DomainError(f"the {kind!r} construction is not star-associated "
                          f"under {star.name!r}")
    return f, g


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

_SUBADDITIVE_FAMILIES = ("possibility", "distortion_concave", "lambda", "additive")


def subadditive_measure(seed: int, index: int, n: int) -> MonotoneMeasure:
    """Rotating mix of subadditive families, deterministic per (seed, index)."""
    family = _SUBADDITIVE_FAMILIES[index % len(_SUBADDITIVE_FAMILIES)]
    sub_seed = rng_for(seed, "subadditive", index).randrange(1 << 30)
    if family == "possibility":
        return generate_measure(sub_seed, "possibility", n)
    if family == "distortion_concave":
        return generate_measure(sub_seed, "distortion_concave", n)
    if family == "lambda":
        return lambda_sugeno_random(sub_seed, n)
    return generate_measure(sub_seed, "non_maxitive", n)  # additive, hence subadditive


def monotone_measure(seed: int, index: int, n: int) -> MonotoneMeasure:
    """Rotating mix of general monotone families (not necessarily subadditive)."""
    fams = ("monotonized_random", "possibility", "distortion_concave", "non_maxitive")
    family = fams[index % len(fams)]
    sub_seed = rng_for(seed, "monotone", index).randrange(1 << 30)
    return generate_measure(sub_seed, family, n)


def non_subadditive_measure(seed: int, n: int) -> tuple[MonotoneMeasure, tuple[int, int]]:
    """Monotone measure with a planted pair violating subadditivity.

    A small monotonized base (at most 0.3) is raised to 1 on every superset
    of a planted disjoint union, so the union exceeds the sum of its parts.
    """
    rng = rng_for(seed, "non-subadditive", n)
    if n < 2:
        raise DomainError("need at least two points")
    pts = list(range(n))
    rng.shuffle(pts)
    # cut lies in [1, n - 1]: both masks are nonempty, and disjoint as pts
    # is a permutation
    cut = 1 + rng.randrange(n - 1)
    a_mask = sum(1 << i for i in pts[:cut])
    b_mask = sum(1 << i for i in pts[cut:])
    base = generate_measure(rng.randrange(1 << 30), "monotonized_random", n)
    tab = base.table() * 0.3
    union = a_mask | b_mask
    idx = np.arange(1 << n, dtype=np.int64)
    covers = (idx & union) == union
    tab = np.where(covers, 1.0, tab)
    mu = MonotoneMeasure.explicit(FiniteSpace(n), tab, rounding=True)
    return mu, (a_mask, b_mask)


def measure_with_null_atoms(seed: int, n: int) -> MonotoneMeasure:
    """Subadditive possibility measure with one zero-density point if n > 1."""
    rng = rng_for(seed, "null-atoms", n)
    dens = [rng.randrange(1, 65) / 64.0 for _ in range(n)]
    pts = list(range(n))
    rng.shuffle(pts)
    if n > 1:
        dens[pts[0]] = 0.0
    return MonotoneMeasure.possibility(FiniteSpace(n), dens)


def signed_vector(rng: random.Random, n: int) -> list[float]:
    """Values on the 1/8 grid in [-4, 4]."""
    return [rng.randrange(-32, 33) / 8 for _ in range(n)]
