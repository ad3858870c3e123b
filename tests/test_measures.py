"""Monotone measures: evaluation, exhaustive property checks, duality, and
the generator families."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonadd.core import EXTENDED, FiniteSpace, INF, UNIT, expand_masks, rng_for
from nonadd.measures import (
    MonotoneMeasure,
    check_measure_property,
    dual_measure,
    generate_measure,
    lambda_sugeno_random,
    measure_eval,
)
from nonadd.operators import one_minus, reciprocal
from nonadd.results import DomainError


def brute_property(mu, prop):
    """Independent oracle: plain double loops over subset pairs."""
    n = mu.space.n
    size = 1 << n
    tol = mu.tolerance()
    if prop == "monotone":
        if mu(0) != 0:
            return False
        return all(mu(m) <= mu(m | 1 << b) + tol
                   for m in range(size) for b in range(n))
    if prop == "subadditive":
        return all(mu(a | b) <= mu(a) + mu(b) + tol
                   for a in range(size) for b in range(size))
    if prop == "maxitive":
        return all(mu(a | b) <= max(mu(a), mu(b)) + tol
                   for a in range(size) for b in range(size) if a & b == 0)
    if prop == "submodular":
        return all(mu(a | b) + mu(a & b) <= mu(a) + mu(b) + tol
                   for a in range(size) for b in range(size))
    if prop == "null_additive":
        nulls = [a for a in range(size) if mu(a) <= tol]
        return all(mu(a | b) == pytest.approx(mu(b), abs=max(tol, 1e-12))
                   for a in nulls for b in range(size)
                   if not (math.isinf(mu(a | b)) and math.isinf(mu(b))))
    raise ValueError(prop)


# --- per-bit reference kernels ------------------------------------------------
# The library builds subset tables by doubling on contiguous slices; these are
# the fancy-index passes it replaced, kept as oracles that must agree bit for
# bit (max, min and OR are exact, and sums and products combine the bits in
# the same low-to-high order).

def ref_build_table(mu):
    n = mu.space.n
    size = 1 << n
    tab = np.zeros(size)
    if mu.kind == "possibility":
        for bit in range(n):
            step = 1 << bit
            idx = np.arange(size)
            has = (idx & step) != 0
            tab[idx[has]] = np.maximum(tab[idx[has] ^ step], mu.density[bit])
    elif mu.kind == "distortion":
        p = np.zeros(size)
        for bit in range(n):
            step = 1 << bit
            idx = np.arange(size)
            has = (idx & step) != 0
            p[idx[has]] = p[idx[has] ^ step] + mu.probs[bit]
        tab = np.asarray(mu.distortion(np.clip(p, 0.0, 1.0)), dtype=float)
        tab[0] = 0.0
    elif mu.kind == "lambda_sugeno":
        pr = np.ones(size)
        for bit in range(n):
            step = 1 << bit
            idx = np.arange(size)
            has = (idx & step) != 0
            pr[idx[has]] = pr[idx[has] ^ step] * (1.0 + mu.lam * mu.density[bit])
        if mu.lam == 0.0:
            for bit in range(n):
                step = 1 << bit
                idx = np.arange(size)
                has = (idx & step) != 0
                tab[idx[has]] = tab[idx[has] ^ step] + mu.density[bit]
        else:
            tab = (pr - 1.0) / mu.lam
            tab[0] = 0.0
            np.clip(tab, 0.0, None, out=tab)
    return tab


def ref_monotonized_random(seed, n):
    """Table of ``generate_measure(seed, "monotonized_random", n)`` by a
    Python running max over the subsets that drop one point."""
    rng = rng_for(seed, "monotonized_random", n)
    size = 1 << n
    raw = [0.0] + [rng.randrange(0, 65) / 64.0 for _ in range(size - 1)]
    tab = np.zeros(size)
    for mask in range(1, size):
        best = raw[mask]
        m = mask
        while m:
            low = m & -m
            best = max(best, tab[mask ^ low])
            m ^= low
        tab[mask] = best
    return tab


def ref_non_maxitive(seed, n):
    """Table of ``generate_measure(seed, "non_maxitive", n)`` by per-bit passes."""
    rng = rng_for(seed, "non_maxitive", n)
    weights = [rng.randrange(1, 11) for _ in range(n)]
    s = float(sum(weights))
    size = 1 << n
    tab = np.zeros(size)
    idx = np.arange(size, dtype=np.int64)
    for bit in range(n):
        step = 1 << bit
        has = (idx & step) != 0
        tab[idx[has]] = tab[idx[has] ^ step] + weights[bit] / s
    return np.clip(tab / tab[-1], 0.0, 1.0)


def ref_monotone(tab, tol, skip_empty=False):
    """Per-bit monotone check: (holds, margin, witness) as the library reports."""
    size = tab.shape[0]
    n = size.bit_length() - 1
    if not skip_empty and tab[0] != 0.0:
        return False, float(tab[0]), {"set": 0, "value": float(tab[0]),
                                      "reason": "empty set has nonzero measure"}
    idx = np.arange(size, dtype=np.int64)
    slack = INF
    for bit in range(n):
        step = 1 << bit
        lower = idx[(idx & step) == 0]
        with np.errstate(invalid="ignore"):
            diff = tab[lower | step] - tab[lower]
        diff = np.where(np.isnan(diff), 0.0, diff)
        bad = diff < -tol
        if bad.any():
            a = int(lower[bad][0])
            return False, float(-(diff[bad]).max()), {
                "set": a, "point": bit, "value": float(tab[a]),
                "value_with_point": float(tab[a | step])}
        finite = diff[np.isfinite(diff)]
        if finite.size:
            slack = min(slack, float(finite.min()))
    return True, max(slack, 0.0), None


SP2 = FiniteSpace(2)
SP3 = FiniteSpace(3)


class TestEvaluation:
    def test_possibility_is_max_of_density(self):
        mu = MonotoneMeasure.possibility(SP2, [0.2, 0.9])
        assert measure_eval(mu, 0b11) == 0.9
        assert measure_eval(mu, 0b01) == 0.2

    def test_empty_set_is_zero(self):
        for mu in (MonotoneMeasure.possibility(SP2, [0.2, 0.9]),
                   MonotoneMeasure.explicit(SP2, [0, 0.1, 0.3, 0.7]),
                   lambda_sugeno_random(3, 4)):
            assert measure_eval(mu, 0) == 0.0

    def test_distortion_square_root(self):
        mu = MonotoneMeasure.distortion(SP2, [0.25, 0.75], lambda x: np.sqrt(x),
                                        name="sqrt")
        assert measure_eval(mu, 0b01) == 0.5

    def test_lambda_family_multiplicative_composition(self):
        lam = -0.5
        dens = [0.4, 0.8]
        mu = MonotoneMeasure.lambda_sugeno(SP2, lam, dens)
        # mu(A) = (prod(1 + lam d_i) - 1) / lam computed by hand
        expect_full = ((1 + lam * 0.4) * (1 + lam * 0.8) - 1) / lam
        assert measure_eval(mu, 0b11) == pytest.approx(expect_full, abs=1e-15)
        assert measure_eval(mu, 0b01) == pytest.approx(0.4, abs=1e-15)

    def test_invalid_mask_rejected(self):
        mu = MonotoneMeasure.possibility(SP2, [0.2, 0.9])
        with pytest.raises(DomainError):
            mu(4)

    def test_explicit_validation(self):
        with pytest.raises(DomainError):
            MonotoneMeasure.explicit(SP2, [0.1, 0.2, 0.3, 0.4])  # empty set not 0
        with pytest.raises(DomainError):
            MonotoneMeasure.explicit(SP2, [0.0, 0.5, 0.3, 0.4])  # not monotone


grid_values = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 3.0, INF])


@st.composite
def raw_tables(draw):
    """Tables for ``explicit(validate=False)``: often non-monotone, sometimes
    with inf entries or a nonzero empty set, and half of them made monotone."""
    n = draw(st.integers(1, 7))
    tab = draw(st.lists(grid_values, min_size=1 << n, max_size=1 << n))
    if draw(st.booleans()):
        for mask in range(1, 1 << n):
            tab[mask] = max([tab[mask]] + [tab[mask & ~(1 << b)]
                                           for b in range(n) if mask >> b & 1])
    if draw(st.integers(0, 4)):
        tab[0] = 0.0
    return n, tab


class TestTableBuilds:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 10), data=st.data())
    def test_tables_match_per_bit_reference(self, n, data):
        space = FiniteSpace(n)
        dens = data.draw(st.lists(grid_values, min_size=n, max_size=n))
        weights = data.draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
        finite = data.draw(st.lists(st.integers(0, 64), min_size=n, max_size=n))
        lam = data.draw(st.sampled_from([-0.9, -0.25, 0.0, 0.5, 3.0]))
        gamma = data.draw(st.sampled_from([0.25, 0.5, 1.0]))
        probs = [w / sum(weights) for w in weights]
        measures = [
            MonotoneMeasure.possibility(space, dens),
            MonotoneMeasure.distortion(space, probs, lambda x: np.power(x, gamma)),
            MonotoneMeasure.lambda_sugeno(space, lam, [v / 64.0 for v in finite]),
        ]
        for mu in measures:
            assert mu.table().tobytes() == ref_build_table(mu).tobytes(), mu.kind

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 12), data=st.data())
    def test_subset_table_matches_full_table_read(self, n, data):
        # without a cached table a proper subset folds only its own points;
        # its values are the full table's, bit for bit
        space = FiniteSpace(n)
        dens = data.draw(st.lists(grid_values, min_size=n, max_size=n))
        weights = data.draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
        finite = data.draw(st.lists(st.integers(0, 64), min_size=n, max_size=n))
        lam = data.draw(st.sampled_from([-0.9, -0.25, 0.0, 0.5, 3.0]))
        probs = [w / sum(weights) for w in weights]
        bits = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        builders = [
            lambda: MonotoneMeasure.possibility(space, dens),
            lambda: MonotoneMeasure.distortion(space, probs, lambda x: np.sqrt(x)),
            lambda: MonotoneMeasure.lambda_sugeno(space, lam, [v / 64.0 for v in finite]),
        ]
        for build in builders:
            fresh, full = build(), build()
            got = fresh.subset_table(bits)
            assert (fresh._table is None) == (len(bits) < n)
            want = full.table()[expand_masks(bits)]
            assert got.tobytes() == want.tobytes(), fresh.kind
            assert full.subset_table(bits).tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(1, 10))
    def test_generators_match_reference(self, seed, n):
        got = generate_measure(seed, "monotonized_random", n).table()
        assert got.tobytes() == ref_monotonized_random(seed, n).tobytes()
        got = generate_measure(seed, "non_maxitive", n).table()
        assert got.tobytes() == ref_non_maxitive(seed, n).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(raw=raw_tables(), tol=st.sampled_from([0.0, 1e-12, 0.3]),
           skip_empty=st.booleans())
    def test_monotone_check_matches_reference(self, raw, tol, skip_empty):
        n, tab = raw
        mu = MonotoneMeasure.explicit(FiniteSpace(n), tab, validate=False)
        res = check_measure_property(mu, "monotone", tol=tol, _skip_empty=skip_empty)
        holds, margin, witness = ref_monotone(np.asarray(tab, dtype=float), tol, skip_empty)
        assert res.holds == holds
        assert res.margin == margin
        assert res.witness == witness


class TestPropertyChecks:
    def test_possibility_is_maxitive(self):
        mu = MonotoneMeasure.possibility(SP3, [0.25, 0.5, 1.0])
        assert check_measure_property(mu, "maxitive").holds

    def test_planted_subadditivity_violation_with_witness(self):
        mu = MonotoneMeasure.explicit(SP2, [0.0, 0.1, 0.1, 0.9])
        res = check_measure_property(mu, "subadditive")
        assert not res.holds
        w = res.witness
        assert mu(w["set_a"] | w["set_b"]) > mu(w["set_a"]) + mu(w["set_b"])
        assert res.margin == pytest.approx(0.7)

    def test_maxitive_implies_subadditive_on_generated(self):
        for seed in range(25):
            mu = generate_measure(seed, "possibility", 5)
            assert check_measure_property(mu, "maxitive").holds
            assert check_measure_property(mu, "subadditive").holds

    def test_subadditive_implies_null_additive_on_generated(self):
        for seed in range(25):
            mu = generate_measure(seed, "distortion_concave", 5)
            if check_measure_property(mu, "subadditive").holds:
                assert check_measure_property(mu, "null_additive").holds

    @pytest.mark.parametrize("family", ["monotonized_random", "possibility",
                                        "distortion_concave", "non_maxitive"])
    @pytest.mark.parametrize("prop", ["monotone", "subadditive", "maxitive",
                                      "submodular", "null_additive"])
    def test_vectorized_checker_agrees_with_bruteforce(self, family, prop):
        for seed in range(6):
            mu = generate_measure(seed, family, 4)
            got = check_measure_property(mu, prop).holds
            assert got == brute_property(mu, prop), (family, prop, seed)

    def test_additive_probability_is_submodular(self):
        mu = generate_measure(11, "non_maxitive", 5)
        assert check_measure_property(mu, "submodular").holds

    def test_finite_check(self):
        mu = MonotoneMeasure.explicit(SP2, [0, 1.0, 2.0, INF])
        assert not check_measure_property(mu, "finite").holds
        assert check_measure_property(mu, "monotone").holds

    def test_pairwise_cap(self):
        mu = MonotoneMeasure.possibility(FiniteSpace(13), [0.5] * 13)
        with pytest.raises(DomainError):
            check_measure_property(mu, "subadditive")

    def test_witness_replays(self):
        mu = generate_measure(3, "non_maxitive", 5)
        res = check_measure_property(mu, "maxitive")
        assert not res.holds
        w = res.witness
        a, b = w["set_a"], w["set_b"]
        assert a & b == 0
        assert mu(a | b) > max(mu(a), mu(b))


class TestDuality:
    def test_full_set_maps_to_inverse_at_zero(self):
        mu = MonotoneMeasure.possibility(SP2, [0.2, 0.9])
        d = dual_measure(mu, one_minus())
        assert d(0b11) == 1.0  # h^{-1}(mu(empty)) = 1 - 0

    def test_involution_recovers_original(self):
        mu = MonotoneMeasure.possibility(SP2, [0.2, 0.9])
        dd = dual_measure(dual_measure(mu, one_minus()), one_minus())
        for mask in range(4):
            assert dd(mask) == pytest.approx(mu(mask), abs=1e-12)

    def test_reciprocal_null_complement_gives_infinity(self):
        mu = MonotoneMeasure.explicit(SP2, [0.0, 0.0, 2.0, 3.0], rounding=True)
        d = dual_measure(mu, reciprocal())
        # complement of {1} is {0}, which is null, so the dual is infinite
        assert d(0b10) == INF

    def test_dual_stays_monotone(self):
        for seed in range(10):
            mu = generate_measure(seed, "monotonized_random", 4)
            d = dual_measure(mu, one_minus())
            assert check_measure_property(d, "monotone", _skip_empty=True).holds


class TestGenerators:
    def test_deterministic_per_seed(self):
        a = generate_measure(9, "monotonized_random", 4)
        b = generate_measure(9, "monotonized_random", 4)
        assert (a.table() == b.table()).all()

    def test_families_pass_their_checks(self):
        for seed in range(10):
            assert check_measure_property(
                generate_measure(seed, "monotonized_random", 4), "monotone").holds
            assert check_measure_property(
                generate_measure(seed, "possibility", 4), "maxitive").holds
            nm = generate_measure(seed, "non_maxitive", 4)
            assert not check_measure_property(nm, "maxitive").holds

    def test_lambda_generator_is_subadditive_with_unit_total(self):
        for seed in range(10):
            mu = lambda_sugeno_random(seed, 4)
            assert mu.total == pytest.approx(1.0, abs=1e-9)
            assert mu.lam < 0
            assert check_measure_property(mu, "subadditive").holds

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            generate_measure(0, "bogus", 4)
