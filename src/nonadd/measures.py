"""Monotone measures on finite spaces.

A measure is a set function over bitmask subsets with value 0 on the empty
set, nondecreasing under inclusion.  Four representations are supported:

* ``explicit``      -- a table indexed by bitmask,
* ``possibility``   -- max of a point density over the subset,
* ``distortion``    -- a monotone distortion of an additive probability,
* ``lambda_sugeno`` -- the multiplicative lambda family built from a density.

Property checkers are exhaustive and vectorized; anything that enumerates
subset *pairs* (subadditive, maxitive, submodular) is capped at 12 points.
Margins use exact table arithmetic; a 1e-12 tolerance applies only to the
representations whose evaluation involves rounding (distortion, lambda,
h-duals).

Continuity from below is trivially true on a finite space (every increasing
chain stabilizes), so no separate check exists for it.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .core import (
    INF,
    FiniteSpace,
    MAX_PAIRWISE_POINTS,
    ValueScale,
    UNIT,
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


def _pair_sweep(tab: np.ndarray, predicate, reducer):
    """Loop A, vectorize B; returns (ok, witness_pair, extreme)."""
    size = tab.shape[0]
    idx = np.arange(size, dtype=np.int64)
    worst = None
    worst_val = -INF
    slack = INF
    for a in range(size):
        viol, margin_arr = predicate(a, idx)
        if viol.any():
            b = int(idx[viol][np.argmax(margin_arr[viol])])
            v = float(margin_arr[viol].max())
            if v > worst_val:
                worst_val = v
                worst = (a, b)
        else:
            s = reducer(margin_arr)
            if s < slack:
                slack = s
    if worst is not None:
        return False, worst, worst_val
    return True, None, slack


def check_measure_property(mu: MonotoneMeasure, prop: str, *,
                           tol: float | None = None,
                           _skip_empty: bool = False) -> CheckResult:
    """Exhaustive verdict for a measure property, with a witness on failure.

    Pairwise properties (subadditive, maxitive, submodular) require at most
    12 points; monotone and null_additive run up to the 24-point cap.
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
        slack = INF
        for bit in range(n):
            step = 1 << bit
            # rows of the view: [sets without the point, the same sets with it]
            halves = tab.reshape(-1, 2, step)
            with np.errstate(invalid="ignore"):
                diff = (halves[:, 1] - halves[:, 0]).ravel()
            diff = np.where(np.isnan(diff), 0.0, diff)  # inf to inf
            bad = diff < -tol
            if bad.any():
                j = int(np.argmax(bad))
                a = (j >> bit << (bit + 1)) | (j & (step - 1))
                return CheckResult(False, float(-(diff[bad]).max()),
                                   {"set": a, "point": bit,
                                    "value": float(tab[a]), "value_with_point": float(tab[a | step])})
            finite = diff[np.isfinite(diff)]
            if finite.size:
                slack = min(slack, float(finite.min()))
        return CheckResult(True, margin=max(slack, 0.0))

    if prop == "null_additive":
        null_sets = np.arange(size, dtype=np.int64)[tab <= tol]
        idx = np.arange(size, dtype=np.int64)
        worst = 0.0
        for a in null_sets:
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
        def pred(a, idx):
            with np.errstate(invalid="ignore"):
                margin = tab[np.bitwise_or(idx, a)] - (tab[a] + tab[idx])
            margin = np.where(np.isnan(margin), 0.0, margin)  # inf <= inf + x
            return margin > tol, margin

        ok, pair, extreme = _pair_sweep(tab, pred, lambda m: float(-m[np.isfinite(m)].max())
                                        if np.isfinite(m).any() else INF)
        if ok:
            return CheckResult(True, margin=extreme)
        a, b = pair
        return CheckResult(False, extreme,
                           {"set_a": a, "set_b": b, "mu_a": float(tab[a]),
                            "mu_b": float(tab[b]), "mu_union": float(tab[a | b])})

    if prop == "maxitive":
        # disjoint pairs decide the property; the all-pairs form must follow
        def pred_disjoint(a, idx):
            free = (idx & a) == 0
            margin = np.where(free, tab[np.bitwise_or(idx, a)] - np.maximum(tab[a], tab[idx]), 0.0)
            margin = np.where(np.isnan(margin), 0.0, margin)
            return margin > tol, margin

        ok, pair, extreme = _pair_sweep(tab, pred_disjoint, lambda m: 0.0)
        if not ok:
            a, b = pair
            return CheckResult(False, extreme,
                               {"set_a": a, "set_b": b, "mu_a": float(tab[a]),
                                "mu_b": float(tab[b]), "mu_union": float(tab[a | b]),
                                "disjoint": True})

        def pred_all(a, idx):
            margin = tab[np.bitwise_or(idx, a)] - np.maximum(tab[a], tab[idx])
            margin = np.where(np.isnan(margin), 0.0, margin)
            return margin > tol, margin

        ok_all, pair_all, extreme_all = _pair_sweep(tab, pred_all, lambda m: 0.0)
        if not ok_all:
            a, b = pair_all
            return CheckResult(False, extreme_all,
                               {"set_a": a, "set_b": b, "disjoint": False,
                                "reason": "derived all-pairs form failed"})
        return CheckResult(True, margin=0.0, detail={"all_pairs_asserted": True})

    # submodular
    def pred_sub(a, idx):
        with np.errstate(invalid="ignore"):
            margin = (tab[np.bitwise_or(idx, a)] + tab[np.bitwise_and(idx, a)]
                      - tab[a] - tab[idx])
        margin = np.where(np.isnan(margin), 0.0, margin)
        return margin > tol, margin

    ok, pair, extreme = _pair_sweep(tab, pred_sub, lambda m: float(-m[np.isfinite(m)].max())
                                    if np.isfinite(m).any() else INF)
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
            halves = tab.reshape(-1, 2, 1 << bit)
            np.maximum(halves[:, 1], halves[:, 0], out=halves[:, 1])
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
