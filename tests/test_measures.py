"""Monotone measures: evaluation, exhaustive property checks, duality, and
the generator families."""

import json
import math
import sys
import tracemalloc
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonadd import measures
from nonadd.core import FiniteSpace, INF, _subset_fold, expand_masks, rng_for
from nonadd.measures import (
    GENERATOR_FAMILIES,
    MEASURE_PROPERTIES,
    MonotoneMeasure,
    _pair_blocks,
    check_measure_property,
    dual_measure,
    generate_measure,
    lambda_sugeno_random,
)
from nonadd.operators import one_minus, reciprocal
from nonadd.results import CheckResult, DomainError


def unchecked(space, table, rounding=False):
    """An explicit measure on ``table``, built without ``explicit``'s
    monotone and empty-set checks, for the routes that must also read
    tables failing them."""
    return MonotoneMeasure(space, "explicit", table=np.array(table, dtype=float),
                           rounding=rounding)


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
    """Per-bit monotone check with a gather of the finite differences, as
    the library reports it."""
    size = tab.shape[0]
    n = size.bit_length() - 1
    if not skip_empty and tab[0] != 0.0:
        return CheckResult(False, float(tab[0]), {"set": 0, "value": float(tab[0]),
                                                  "reason": "empty set has nonzero measure"})
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
            return CheckResult(False, float(-(diff[bad]).max()), {
                "set": a, "point": bit, "value": float(tab[a]),
                "value_with_point": float(tab[a | step])})
        finite = diff[np.isfinite(diff)]
        if finite.size:
            slack = min(slack, float(finite.min()))
    return CheckResult(True, margin=max(slack, 0.0))


def read_monotone(mu, skip_empty=False):
    """``monotone`` as ``check_measure_property`` reads it, or past the
    empty set, as ``MonotoneMeasure.explicit`` reads it when it allows a
    nonzero empty entry."""
    if skip_empty:
        return measures._check_monotone(mu.table(), mu.space.n, mu.tolerance())
    return check_measure_property(mu, "monotone")


def ref_null_additive(tab, tol):
    """One full pass per null set: the check the library replaced by a test
    of the null union's points, kept as an oracle that must agree byte for
    byte."""
    size = tab.shape[0]
    idx = np.arange(size, dtype=np.int64)
    worst = 0.0
    for a in idx[tab <= tol]:
        with np.errstate(invalid="ignore"):
            diff = np.abs(tab[idx | int(a)] - tab[idx])
        diff = np.where(np.isnan(diff), 0.0, diff)  # inf vs inf agrees
        if (diff > tol).any():
            b = int(idx[diff > tol][0])
            return CheckResult(False, float(diff.max()),
                               {"null_set": int(a), "set": b,
                                "value_union": float(tab[b | int(a)]),
                                "value": float(tab[b])})
        worst = max(worst, float(diff[np.isfinite(diff)].max()))
    return CheckResult(True, margin=worst)


# --- pairwise reference sweeps ------------------------------------------------
# The library reduces the pairwise checks in chunks, over the disjoint pairs
# where they decide the result; these row-by-row sweeps over all 4**n pairs
# are the forms it replaced, kept as oracles that must agree byte for byte.

def ref_pair_sweep(tab, predicate, reducer):
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


def _least_slack(m):
    return float(-m[np.isfinite(m)].max()) if np.isfinite(m).any() else INF


def ref_pairwise(tab, prop, tol):
    """The pairwise checks as row-by-row sweeps over all 4**n pairs: the
    subadditive, disjoint maxitive, all-pairs maxitive and all-pairs
    submodular forms the library's pair kernel must reproduce byte for
    byte."""
    def sweep(margin_of, reducer):
        def pred(a, idx):
            with np.errstate(invalid="ignore", over="ignore"):  # as the kernel
                margin = margin_of(a, idx)
            margin = np.where(np.isnan(margin), 0.0, margin)
            return margin > tol, margin
        return ref_pair_sweep(tab, pred, reducer)

    if prop == "subadditive":
        ok, pair, extreme = sweep(lambda a, idx: tab[idx | a] - (tab[a] + tab[idx]),
                                  _least_slack)
        if ok:
            return CheckResult(True, margin=extreme)
        a, b = pair
        return CheckResult(False, extreme,
                           {"set_a": a, "set_b": b, "mu_a": float(tab[a]),
                            "mu_b": float(tab[b]), "mu_union": float(tab[a | b])})
    if prop == "maxitive":
        ok, pair, extreme = sweep(
            lambda a, idx: np.where((idx & a) == 0,
                                    tab[idx | a] - np.maximum(tab[a], tab[idx]), 0.0),
            lambda m: 0.0)
        if not ok:
            a, b = pair
            return CheckResult(False, extreme,
                               {"set_a": a, "set_b": b, "mu_a": float(tab[a]),
                                "mu_b": float(tab[b]), "mu_union": float(tab[a | b]),
                                "disjoint": True})
        ok, pair, extreme = sweep(lambda a, idx: tab[idx | a] - np.maximum(tab[a], tab[idx]),
                                  lambda m: 0.0)
        if not ok:
            a, b = pair
            return CheckResult(False, extreme,
                               {"set_a": a, "set_b": b, "disjoint": False,
                                "reason": "derived all-pairs form failed"})
        return CheckResult(True, margin=0.0, detail={"all_pairs_asserted": True})
    assert prop == "submodular"
    ok, pair, extreme = sweep(
        lambda a, idx: tab[idx | a] + tab[idx & a] - tab[a] - tab[idx], _least_slack)
    if ok:
        return CheckResult(True, margin=extreme)
    a, b = pair
    return CheckResult(False, extreme,
                       {"set_a": a, "set_b": b, "mu_union": float(tab[a | b]),
                        "mu_inter": float(tab[a & b]), "mu_a": float(tab[a]),
                        "mu_b": float(tab[b])})


def ref_local_submodular(tab, tol):
    """Submodularity as a plain loop over the local cells (A, i < j) in the
    difference form (mu(A+i+j) - mu(A+j)) - (mu(A+i) - mu(A)), nan read as
    0: the check the library's per-pair-of-points views must reproduce byte
    for byte.  The witness is the pair (A+i, A+j) of the largest violation
    with the smallest key ``(a << n) | b``."""
    tab = [float(v) for v in tab]
    n = len(tab).bit_length() - 1
    best, key, top = -INF, None, -INF
    for s in range(1 << n):
        for i in range(n):
            for j in range(i + 1, n):
                if s >> i & 1 or s >> j & 1:
                    continue
                a, b = s | 1 << i, s | 1 << j
                d = (tab[a | b] - tab[b]) - (tab[a] - tab[s])
                if d != d:
                    d = 0.0
                if d > tol:
                    k = (a << n) | b
                    if d > best or (d == best and k < key):
                        best, key = d, k
                elif d > top:
                    top = d
    if key is None:
        return CheckResult(True, margin=INF if top == -INF else -top)
    a, b = key >> n, key & ((1 << n) - 1)
    return CheckResult(False, best,
                       {"set_a": a, "set_b": b, "mu_union": tab[a | b],
                        "mu_inter": tab[a & b], "mu_a": tab[a], "mu_b": tab[b]})


def local_cells_decide(tab):
    """Whether submodularity is read on the local cells: an exactly monotone
    table, or a finite one whose differences of differences cannot overflow."""
    tab = [float(v) for v in tab]
    n = len(tab).bit_length() - 1
    if all(abs(v) <= sys.float_info.max / 4 for v in tab):
        return True
    return all(tab[m | 1 << b] >= tab[m] for m in range(1 << n) for b in range(n))


def ref_check(tab, prop, tol):
    if prop == "submodular" and local_cells_decide(tab):
        return ref_local_submodular(tab, tol)
    return ref_pairwise(np.asarray(tab, dtype=float), prop, tol)


SP2 = FiniteSpace(2)
SP3 = FiniteSpace(3)


class TestEvaluation:
    def test_possibility_is_max_of_density(self):
        mu = MonotoneMeasure.possibility(SP2, [0.2, 0.9])
        assert mu(0b11) == 0.9
        assert mu(0b01) == 0.2

    def test_empty_set_is_zero(self):
        for mu in (MonotoneMeasure.possibility(SP2, [0.2, 0.9]),
                   MonotoneMeasure.explicit(SP2, [0, 0.1, 0.3, 0.7]),
                   lambda_sugeno_random(3, 4)):
            assert mu(0) == 0.0

    def test_distortion_square_root(self):
        mu = MonotoneMeasure.distortion(SP2, [0.25, 0.75], lambda x: np.sqrt(x),
                                        name="sqrt")
        assert mu(0b01) == 0.5

    def test_lambda_family_multiplicative_composition(self):
        lam = -0.5
        dens = [0.4, 0.8]
        mu = MonotoneMeasure.lambda_sugeno(SP2, lam, dens)
        # mu(A) = (prod(1 + lam d_i) - 1) / lam computed by hand
        expect_full = ((1 + lam * 0.4) * (1 + lam * 0.8) - 1) / lam
        assert mu(0b11) == pytest.approx(expect_full, abs=1e-15)
        assert mu(0b01) == pytest.approx(0.4, abs=1e-15)

    def test_invalid_mask_rejected(self):
        mu = MonotoneMeasure.possibility(SP2, [0.2, 0.9])
        with pytest.raises(DomainError):
            mu(4)

    def test_explicit_validation(self):
        with pytest.raises(DomainError):
            MonotoneMeasure.explicit(SP2, [0.1, 0.2, 0.3, 0.4])  # empty set not 0
        with pytest.raises(DomainError):
            MonotoneMeasure.explicit(SP2, [0.0, 0.5, 0.3, 0.4])  # not monotone

    def test_explicit_allowing_a_nonzero_empty_entry_checks_monotone_past_it(self):
        mu = MonotoneMeasure.explicit(SP2, [0.5, 0.5, 0.75, 1.0], allow_nonzero_empty=True)
        assert mu(0) == 0.5
        with pytest.raises(DomainError, match="not monotone"):
            MonotoneMeasure.explicit(SP2, [0.5, 0.25, 0.75, 1.0], allow_nonzero_empty=True)

    @pytest.mark.parametrize("route", ["call", "mass_reader", "masses"])
    def test_table_less_reads_give_the_table_bits(self, route):
        # a table-less possibility measure reads its folds, every other one
        # table(): each route gives the entries of a separately built table
        for n in (1, 3, 6, 9):
            for seed in range(4):
                for make in (lambda: generate_measure(seed, "distortion_concave", n),
                             lambda: lambda_sugeno_random(seed, n),
                             lambda: MonotoneMeasure.lambda_sugeno(
                                 FiniteSpace(n), 0.0, [(k + 1) / (4 * n) for k in range(n)]),
                             lambda: generate_measure(seed, "possibility", n)):
                    want = make().table()
                    mu = make()
                    masks = np.arange(1 << n, dtype=np.int64)
                    if route == "call":
                        got = np.array([mu(m) for m in masks.tolist()])
                    elif route == "mass_reader":
                        read = mu.mass_reader(mu.space.full)
                        got = np.array([read(m) for m in masks.tolist()])
                    else:
                        shaped = mu.masses(masks.reshape(-1, 1))
                        assert shaped.shape == (1 << n, 1)
                        got = shaped.ravel()
                    assert got.tobytes() == want.tobytes(), (route, n, seed, mu.kind)


grid_values = st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 3.0, INF])


@st.composite
def raw_tables(draw):
    """Tables for :func:`unchecked`: often non-monotone, sometimes
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


@st.composite
def pairwise_measures(draw):
    """Measures for the pair-kernel oracle (n <= 8): raw tables, monotonized
    tables with inf entries, the generator families, the lambda family and
    h-duals (the reciprocal dual of a table with null sets holds inf)."""
    kind = draw(st.sampled_from(["raw", "inf", "family", "lambda", "dual"]))
    if kind == "raw":
        n, tab = draw(raw_tables())
        return unchecked(FiniteSpace(n), tab, rounding=draw(st.booleans()))
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 10 ** 6))
    if kind == "inf":
        tab = generate_measure(seed, "monotonized_random", n).table().copy()
        pin = draw(st.integers(1, (1 << n) - 1))
        tab[[m for m in range(1 << n) if m & pin == pin]] = INF
        return MonotoneMeasure.explicit(FiniteSpace(n), tab,
                                        rounding=draw(st.booleans()))
    if kind == "lambda":
        return lambda_sugeno_random(seed, n)
    mu = generate_measure(seed, draw(st.sampled_from(GENERATOR_FAMILIES)), n)
    if kind == "dual":
        return dual_measure(mu, draw(st.sampled_from([one_minus(), reciprocal()])))
    return mu


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

    @pytest.mark.parametrize("n", [11, 12, 13, 14])
    def test_large_tables_match_per_bit_reference(self, n):
        # the builds finish in the fold's own array; a distortion that
        # returns its argument gets that array itself
        rng = rng_for(n, "large_tables")
        space = FiniteSpace(n)
        weights = [rng.randrange(1, 17) for _ in range(n)]
        probs = [w / sum(weights) for w in weights]
        dens = [rng.randrange(0, 65) / 64.0 for _ in range(n)]
        mus = [MonotoneMeasure.possibility(space, dens),
               MonotoneMeasure.distortion(space, probs, lambda x: np.power(x, 0.5)),
               MonotoneMeasure.distortion(space, probs, lambda x: x, name="identity")]
        mus += [MonotoneMeasure.lambda_sugeno(space, lam, dens) for lam in (-0.9, 0.0, 3.0)]
        for mu in mus:
            assert mu.table().tobytes() == ref_build_table(mu).tobytes(), mu.kind

    def test_subset_table_of_every_point_is_the_table_read_only(self):
        mu = generate_measure(2, "distortion_concave", 6)
        tab = mu.table()
        want = tab.copy()
        got = mu.subset_table(list(range(6)))
        assert got.tobytes() == tab[expand_masks(range(6))].tobytes()
        assert np.shares_memory(got, tab) and not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[1] = 0.5
        assert mu._table is tab and tab.flags.writeable
        assert tab.tobytes() == want.tobytes()
        # with no table cached, the table is built and cached first
        fresh = generate_measure(2, "distortion_concave", 6)
        assert fresh.subset_table(list(range(6))).tobytes() == want.tobytes()
        assert fresh._table is not None

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

    def test_bulk_scores_are_per_subset_randrange_draws(self):
        """The scores come from bulk ``getrandbits`` words; they are the
        per-subset ``randrange(0, 65)`` draws, which a change in CPython's
        ``randrange`` would break.  The tables match the reference for
        every n <= 12, on 60 seeds up to 8 points and 20 above."""
        for n in range(1, 13):
            for seed in range(60 if n <= 8 else 20):
                got = generate_measure(seed, "monotonized_random", n).table()
                assert got.tobytes() == ref_monotonized_random(seed, n).tobytes(), (seed, n)
        # more scores than one bulk draw of words yields
        for m in (1, 3, 7, 255, 4095, 40000):
            for seed in range(40 if m < 4095 else 2):
                want = rng_for(seed, "scores", m)
                want = [want.randrange(0, 65) for _ in range(m)]
                assert measures._grid_scores(rng_for(seed, "scores", m), m).tolist() == want

    @settings(max_examples=200, deadline=None)
    @given(raw=raw_tables(), rounding=st.booleans(),
           skip_empty=st.booleans(), signs=st.integers(0, (1 << 128) - 1))
    # a zero minimum whose sign the gather gives; inf - inf read as 0; a
    # -inf difference, which fails by inf
    @example(raw=(2, [0.0, 0.0, 0.0, 0.0]), rounding=False, skip_empty=False, signs=0b0010)
    @example(raw=(2, [0.0, INF, INF, INF]), rounding=False, skip_empty=False, signs=0)
    @example(raw=(2, [0.0, INF, 2.0, 3.0]), rounding=True, skip_empty=False, signs=0)
    def test_monotone_check_matches_reference(self, raw, rounding, skip_empty, signs):
        n, tab = raw
        # zeros whose bit is set in signs become -0.0, whose sign a holding
        # check's margin may carry
        tab = [-0.0 if v == 0.0 and signs >> i & 1 else v for i, v in enumerate(tab)]
        mu = unchecked(FiniteSpace(n), tab, rounding=rounding)
        got = read_monotone(mu, skip_empty)
        want = ref_monotone(np.asarray(tab, dtype=float), mu.tolerance(), skip_empty)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        assert repr(got.margin) == repr(want.margin)


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
        # the cheapest sweep is checked against the cell budget before the
        # 2**n table is built: 3**16 disjoint pairs, C(19,2) * 2**17 local
        # cells; a possibility measure of the same size holds by its kind
        for n, props, cells in ((16, ("subadditive", "maxitive"), 3 ** 16),
                                (19, ("submodular",), math.comb(19, 2) << 17)):
            mu = MonotoneMeasure.lambda_sugeno(FiniteSpace(n), -0.5, [0.5] * n)
            poss = MonotoneMeasure.possibility(FiniteSpace(n), [0.5] * n)
            for prop in props:
                with pytest.raises(DomainError, match=f"{cells:,} cells"):
                    check_measure_property(mu, prop)
                assert check_measure_property(poss, prop).margin == 0.0
            assert mu._table is None and poss._table is None

    def test_all_pairs_refused_after_the_table(self):
        # not exactly monotone, so subadditivity needs all 4**13 pairs, which
        # only the built table can tell
        tab = generate_measure(0, "possibility", 13).table().copy()
        tab[-1] = 0.0
        mu = unchecked(FiniteSpace(13), tab)
        with pytest.raises(DomainError, match=f"{4 ** 13:,} cells"):
            check_measure_property(mu, "subadditive")

    @pytest.mark.parametrize("n", [13, 14, 15])
    def test_lifted_disjoint_pair_sizes(self, n):
        poss = generate_measure(n, "possibility", n)
        assert check_measure_property(poss, "subadditive").holds
        assert check_measure_property(poss, "maxitive").holds
        additive = generate_measure(n, "non_maxitive", n)
        res = check_measure_property(additive, "maxitive")
        w = res.witness
        a, b = w["set_a"], w["set_b"]
        assert not res.holds and w["disjoint"] and a & b == 0
        assert (w["mu_a"], w["mu_b"], w["mu_union"]) == (additive(a), additive(b),
                                                         additive(a | b))
        assert res.margin == additive(a | b) - max(additive(a), additive(b)) > 0

    @pytest.mark.parametrize("n", [16, 17, 18])
    def test_lifted_local_cell_sizes(self, n):
        for family in ("distortion_concave", "non_maxitive"):
            assert check_measure_property(generate_measure(n, family, n), "submodular").holds

    def test_generator_cap(self):
        # no generator limit of its own: the space's 24 points bound it
        assert generate_measure(0, "possibility", 24).space.n == 24
        with pytest.raises(DomainError, match="space size"):
            generate_measure(0, "possibility", 25)

    def test_zero_margins_are_positive_zero(self):
        # minus the largest margin 0 of the pair kernel was -0.0
        mu = MonotoneMeasure.explicit(SP2, [0, INF, INF, INF])
        for prop in MEASURE_PROPERTIES:
            res = check_measure_property(mu, prop)
            assert math.copysign(1.0, res.margin) == 1.0, prop
        assert repr(CheckResult(True, margin=-0.0).margin) == "0.0"

    def test_witness_replays(self):
        mu = generate_measure(3, "non_maxitive", 5)
        res = check_measure_property(mu, "maxitive")
        assert not res.holds
        w = res.witness
        a, b = w["set_a"], w["set_b"]
        assert a & b == 0
        assert mu(a | b) > max(mu(a), mu(b))


@st.composite
def null_additive_measures(draw):
    """Raw tables (often non-monotone, with inf), possibility measures with
    zero-density points, and lambda and distortion measures with null atoms."""
    kind = draw(st.sampled_from(["raw", "possibility", "lambda", "distortion"]))
    if kind == "raw":
        n, tab = draw(raw_tables())
        return unchecked(FiniteSpace(n), tab, rounding=draw(st.booleans()))
    n = draw(st.integers(1, 10))
    space = FiniteSpace(n)
    zero = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if kind == "possibility":
        dens = draw(st.lists(grid_values, min_size=n, max_size=n))
        return MonotoneMeasure.possibility(space, [0.0 if z else d
                                                   for z, d in zip(zero, dens)])
    weights = [0 if z else w for z, w in
               zip(zero, draw(st.lists(st.integers(1, 16), min_size=n, max_size=n)))]
    if kind == "lambda":
        lam = draw(st.sampled_from([-0.9, -0.25, 0.0, 0.5, 3.0]))
        return MonotoneMeasure.lambda_sugeno(space, lam, [w / 64.0 for w in weights])
    weights[-1] += 1
    gamma = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    return MonotoneMeasure.distortion(space, [w / sum(weights) for w in weights],
                                      lambda x: np.power(x, gamma))


@st.composite
def exact_null_tables(draw):
    """Exact monotone tables (``tolerance()`` 0) whose sets within a drawn
    set Z of points are 0, so that Z's points are null and usually move a
    value: a monotonized table of grid values, inf included, then 0 on the
    subsets of Z."""
    n = draw(st.integers(1, 8))
    tab = np.array(draw(st.lists(grid_values, min_size=1 << n, max_size=1 << n)))
    for bit in range(n):
        halves = tab.reshape(-1, 2, 1 << bit)
        np.maximum(halves[:, 1], halves[:, 0], out=halves[:, 1])
    zero = draw(st.integers(0, (1 << n) - 1))
    tab[(np.arange(1 << n) & ~zero) == 0] = 0.0
    return MonotoneMeasure.explicit(FiniteSpace(n), tab)


def moving_null_table(n: int, k: int) -> np.ndarray:
    """Points 0 to k - 1 null; only point k - 1 moves a value, by 1/64, on
    every set that meets the n - k other points."""
    idx = np.arange(1 << n)
    high = idx >> k << k
    count = sum((high >> b) & 1 for b in range(k, n))
    return count / (n - k) + np.where((high != 0) & (idx >> (k - 1) & 1 == 1), 1 / 64, 0.0)


class TestNullAdditive:
    @settings(max_examples=300, deadline=None)
    @given(mu=exact_null_tables())
    def test_null_point_route_matches_the_sweep_on_exact_tables(self, mu):
        # the first failing null set of the sweep is the singleton of the
        # lowest null point that moves a value
        got = check_measure_property(mu, "null_additive")
        want = ref_null_additive(mu.table(), 0.0)
        assert mu.tolerance() == 0.0
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        assert repr(got.margin) == repr(want.margin)

    def test_exact_table_decided_by_its_null_points(self):
        # 1,024 null sets: the sweep made 512 passes of 2**18 entries
        mu = MonotoneMeasure.explicit(FiniteSpace(18), moving_null_table(18, 10))
        res = check_measure_property(mu, "null_additive")
        assert not res.holds and res.margin == 1 / 64
        assert res.witness == {"null_set": 512, "set": 1024,
                               "value_union": 0.125 + 1 / 64, "value": 0.125}

    def test_rounding_sweep_within_the_cell_budget(self):
        # 2**8 null sets times 2**16 cells fit the budget; 2**9 do not
        fits = MonotoneMeasure.explicit(FiniteSpace(16), moving_null_table(16, 8),
                                        rounding=True)
        res = check_measure_property(fits, "null_additive")
        assert res.to_dict() == ref_null_additive(fits.table(), 1e-12).to_dict()
        assert res.witness["null_set"] == 128
        over = MonotoneMeasure.explicit(FiniteSpace(16), moving_null_table(16, 9),
                                        rounding=True)
        with pytest.raises(DomainError, match="enumerates 33,554,432 cells"):
            check_measure_property(over, "null_additive")

    @settings(max_examples=300, deadline=None)
    @given(mu=null_additive_measures())
    def test_matches_per_null_set_reference(self, mu):
        got = check_measure_property(mu, "null_additive")
        want = ref_null_additive(mu.table(), mu.tolerance())
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        assert repr(got.margin) == repr(want.margin)

    def test_rounding_table_whose_null_point_moves_a_value(self):
        # point 0 is null within 1e-12 and moves mu({1}) by 1e-13: the
        # per-null-set sweep runs, and holds with that margin
        tab = [0.0, 1e-13, 0.5, 0.5 + 1e-13]
        mu = MonotoneMeasure.explicit(SP2, tab, rounding=True)
        got = check_measure_property(mu, "null_additive")
        assert got.holds and 0.0 < got.margin < 1e-12
        assert got.to_dict() == ref_null_additive(np.array(tab), 1e-12).to_dict()

    def test_possibility_with_ten_null_atoms_at_twenty_points(self):
        # 2**10 null sets; one full pass each took 26 s
        dens = [0.0] * 10 + [(i + 1) / 16.0 for i in range(10)]
        res = check_measure_property(MonotoneMeasure.possibility(FiniteSpace(20), dens),
                                     "null_additive")
        assert res.holds
        assert repr(res.margin) == "0.0"


ROUTE_TOLS = [0.0, 1e-12]   # a measure's two tolerances: exact, and rounding
route_values = st.sampled_from([0.0, -0.0, 0.125, 0.5, 1.0, 3.0, INF])


def with_tolerance(tab, tol):
    """``tab`` as an unvalidated explicit measure whose ``tolerance()`` is
    ``tol``, one of ``ROUTE_TOLS``."""
    mu = unchecked(FiniteSpace(len(tab).bit_length() - 1), tab, rounding=tol > 0)
    assert mu.tolerance() == tol
    return mu


def by_route(mu, gather_bits, props):
    """``_exactly_monotone`` and each property's ``to_dict()`` JSON and
    ``repr(margin)``, with the point-by-point reads gathered up to
    ``gather_bits`` points: 0 reads every table per bit, 24 gathers all."""
    tab = mu.table()
    with unittest.mock.patch.object(measures, "_GATHER_BITS", gather_bits):
        out = [measures._exactly_monotone(tab, mu.space.n)]
        for prop in props:
            res = check_measure_property(mu, prop)
            out.append((prop, json.dumps(res.to_dict()), repr(res.margin)))
    return out


def route_table(seed, n, kind):
    """A table of n points: monotone with zeros of both signs, with an up-set
    of inf entries (inf - inf differences), or either of these perturbed out
    of monotonicity."""
    rng = np.random.default_rng(seed)
    tab = rng.integers(0, 9, 1 << n) / 8.0
    for bit in range(n):
        low, high = measures._bit_halves(tab, bit)
        np.maximum(high, low, out=high)
    tab[(tab == 0.0) & (rng.random(1 << n) < 0.5)] = -0.0
    tab[0] = -0.0 if seed % 2 else 0.0
    if kind in ("inf", "inf_broken"):
        pin = int(rng.integers(1, 1 << n))
        tab[[m for m in range(1 << n) if m & pin == pin]] = INF
    if kind.endswith("broken"):
        tab[int(rng.integers(1, 1 << n))] = 0.0
    return tab


class TestGatherRoute:
    """Up to ``_GATHER_BITS`` points ``monotone`` and the exact-monotonicity
    test gather every point's sets at once; above, they read the table per
    point.  Both routes give the same bytes, and the same choice of pair
    sweep."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 7), data=st.data(), tol=st.sampled_from(ROUTE_TOLS))
    # a -inf difference, beside finite ones above 0
    @example(n=2, data=[0.0, INF, 2.0, 3.0], tol=1e-12)
    def test_small_tables_match_the_per_bit_route(self, n, data, tol):
        if isinstance(data, list):
            tab = data
        else:
            tab = data.draw(st.lists(route_values, min_size=1 << n, max_size=1 << n))
            if data.draw(st.booleans()):
                for mask in range(1, 1 << n):
                    tab[mask] = max([tab[mask]] + [tab[mask & ~(1 << b)]
                                                   for b in range(n) if mask >> b & 1])
        mu = with_tolerance(tab, tol)
        props = ("monotone", "null_additive", "subadditive", "maxitive", "submodular")
        assert by_route(mu, 24, props) == by_route(mu, 0, props)

    @pytest.mark.parametrize("n", [11, 12])
    @pytest.mark.parametrize("kind", ["monotone", "inf", "broken", "inf_broken"])
    def test_large_tables_match_the_per_bit_route(self, n, kind):
        for seed in range(2):
            tab = route_table(seed, n, kind)
            # pair sweeps only where they read 3**n pairs or the local cells,
            # not 4**n pairs
            props = ["monotone", "null_additive"]
            if measures._exactly_monotone(tab, n):
                props += ["subadditive", "maxitive", "submodular"]
            elif np.isfinite(tab).all():
                props += ["submodular"]
            for tol in ROUTE_TOLS:
                mu = with_tolerance(tab, tol)
                assert by_route(mu, 24, props) == by_route(mu, 0, props), tol

    def test_generated_measures_match_the_per_bit_route(self):
        mus = [generate_measure(seed, family, n) for seed in range(3) for n in (2, 6, 11)
               for family in GENERATOR_FAMILIES]
        props = ("monotone", "null_additive", "subadditive", "maxitive", "submodular")
        for mu in mus + [lambda_sugeno_random(seed, 11) for seed in range(3)]:
            assert by_route(mu, 24, props) == by_route(mu, 0, props)

    def test_cached_index_arrays_are_read_only(self):
        pairs = measures._bit_pairs(5)
        assert measures._bit_pairs(5) is pairs
        for arr in pairs:
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1

    def test_explicit_table_is_one_copy_and_rejects_ragged_input(self):
        source = np.array([0.0, 0.25, 0.5, 1.0])
        mu = MonotoneMeasure.explicit(SP2, source)
        source[1] = 0.75
        assert mu.table().tolist() == [0.0, 0.25, 0.5, 1.0]
        for bad in ([0.0, [0.25, 0.5], 1.0], [[0.0, 0.25], [0.5, 1.0]], [0.0, "x", 0.5, 1.0]):
            with pytest.raises(DomainError):
                MonotoneMeasure.explicit(SP2, bad)


ROUTE_KINDS = ["monotone", "inf", "broken", "inf_broken"]


def chunked_monotone(tab, tol, skip_empty, chunk_cells):
    """``monotone``'s ``to_dict()`` JSON and ``repr(margin)`` on the chunked
    route: no gather, chunks of ``chunk_cells`` differences.  ``tab`` is a
    table, read with tolerance ``tol``, or a measure whose table is read as
    it is."""
    mu = with_tolerance(tab, tol) if isinstance(tab, np.ndarray) else tab
    with unittest.mock.patch.object(measures, "_GATHER_BITS", 0), \
            unittest.mock.patch.object(measures, "_CHUNK_CELLS", chunk_cells):
        res = read_monotone(mu, skip_empty)
    return json.dumps(res.to_dict()), repr(res.margin)


def ref_bytes(tab, tol, skip_empty):
    want = ref_monotone(tab, tol, skip_empty)
    return json.dumps(want.to_dict()), repr(want.margin)


class TestChunkedRoute:
    """Above ``_GATHER_BITS`` points ``monotone`` takes each point's least
    difference from chunk minima through one reused buffer, reads points 1
    to 3 through a complex view, and rebuilds the whole row of a point the
    minima leave open; chunks of 2, 4 and 16 cells split rows and the
    complex-view points."""

    @pytest.mark.parametrize("chunk_cells", [2, 4, 16])
    @pytest.mark.parametrize("n", range(2, 14))
    def test_route_tables_match_reference(self, n, chunk_cells):
        for seed, kind in enumerate(ROUTE_KINDS):
            base = route_table(seed, n, kind)
            # the same table with the sign of every zero flipped
            for tab in (base, np.where(base == 0.0, -base, base)):
                for tol in ROUTE_TOLS:
                    for skip_empty in (False, True):
                        got = chunked_monotone(tab, tol, skip_empty, chunk_cells)
                        assert got == ref_bytes(tab, tol, skip_empty), (kind, tol, skip_empty)

    @settings(max_examples=200, deadline=None)
    @given(raw=raw_tables(), tol=st.sampled_from(ROUTE_TOLS), skip_empty=st.booleans(),
           chunk_cells=st.sampled_from([2, 4, 16, 1 << 15]),
           signs=st.integers(0, (1 << 128) - 1))
    def test_raw_tables_match_reference(self, raw, tol, skip_empty, chunk_cells, signs):
        n, tab = raw
        tab = np.array([-0.0 if v == 0.0 and signs >> i & 1 else v for i, v in enumerate(tab)])
        want = ref_bytes(tab, tol, skip_empty)
        assert chunked_monotone(tab, tol, skip_empty, chunk_cells) == want

    @pytest.mark.parametrize("kind", ROUTE_KINDS)
    def test_strided_table_takes_the_float_view(self, kind):
        tab = route_table(1, 9, kind)
        strided = np.empty(2 * tab.size)
        strided[::2] = tab
        for tol in ROUTE_TOLS:
            mu = MonotoneMeasure(FiniteSpace(9), "explicit", table=strided[::2],
                                 rounding=tol > 0)
            assert not mu.table().flags.c_contiguous
            assert chunked_monotone(mu, tol, False, 4) == ref_bytes(tab, tol, False)

    def test_one_buffer_of_chunk_size(self, monkeypatch):
        # no table-sized temporary: every chunk is a view of one buffer of
        # _CHUNK_CELLS entries (a lambda table is no max fold, so it takes
        # the per-point route)
        mu = lambda_sugeno_random(0, 17)
        buffers = set()
        chunks = measures._difference_chunks

        def spy(tab, bit, buf):
            buffers.add(id(buf))
            assert buf.size == measures._CHUNK_CELLS
            for chunk in chunks(tab, bit, buf):
                assert chunk.base is buf
                yield chunk

        monkeypatch.setattr(measures, "_difference_chunks", spy)
        assert check_measure_property(mu, "monotone").holds
        assert len(buffers) == 1


class TestPairKernel:
    @settings(max_examples=300, deadline=None)
    @given(mu=pairwise_measures())
    def test_matches_reference_sweeps(self, mu):
        for prop in ("subadditive", "maxitive", "submodular"):
            got = check_measure_property(mu, prop)
            want = ref_check(mu.table(), prop, mu.tolerance())
            assert json.dumps(got.to_dict()) == json.dumps(want.to_dict()), prop
            assert repr(got.margin) == repr(want.margin), prop

    @pytest.mark.parametrize("n", [1, 3, 8, 10])
    def test_disjoint_blocks_cover_each_disjoint_pair_once(self, n):
        keys = np.concatenate([(a << n) | b for a, b in _pair_blocks(n, disjoint=True)])
        assert sorted(keys.tolist()) == [(a << n) | b for a in range(1 << n)
                                         for b in range(1 << n) if a & b == 0]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference_sweeps_across_blocks(self, seed):
        # n = 10 lifts the low-bit block over the disjoint pairs of the high bits
        tab = generate_measure(seed, "monotonized_random", 10).table().copy()
        tab[[m for m in range(1 << 10) if m & 0b1000000001 == 0b1000000001]] = INF
        mus = [generate_measure(seed, family, 10) for family in GENERATOR_FAMILIES]
        mus += [lambda_sugeno_random(seed, 10), MonotoneMeasure.explicit(FiniteSpace(10), tab)]
        for mu in mus:
            for prop in ("subadditive", "maxitive", "submodular"):
                got = check_measure_property(mu, prop)
                want = ref_check(mu.table(), prop, mu.tolerance())
                assert json.dumps(got.to_dict()) == json.dumps(want.to_dict()), prop
                assert repr(got.margin) == repr(want.margin), prop

    def test_overlapping_only_violation_on_non_monotone_table(self):
        # every disjoint pair holds; only ({0,1}, {1,2}) breaks subadditivity
        tab = [0, 1, 0.5, 0.3, 1, 0.5, 0.3, 1]
        mu = unchecked(SP3, tab)
        assert all(tab[a | b] <= tab[a] + tab[b]
                   for a in range(8) for b in range(8) if a & b == 0)
        res = check_measure_property(mu, "subadditive")
        assert not res.holds
        assert (res.witness["set_a"], res.witness["set_b"]) == (3, 6)
        assert repr(res.margin) == "0.4"
        assert res.to_dict() == ref_pairwise(np.asarray(tab, dtype=float),
                                             "subadditive", 0.0).to_dict()

    def test_overlapping_only_maxitive_violation_on_non_monotone_table(self):
        # every disjoint pair holds; ({0,1}, {0,2}) breaks the all-pairs form
        tab = [0, 0, 0.5, 0, 0.5, 0, 0.5, 0.5]
        mu = unchecked(SP3, tab)
        res = check_measure_property(mu, "maxitive")
        assert res.to_dict() == {"holds": False, "margin": 0.5, "mode": "exhaustive",
                                 "status": "checked",
                                 "witness": {"set_a": 3, "set_b": 5, "disjoint": False,
                                             "reason": "derived all-pairs form failed"}}
        assert res.to_dict() == ref_pairwise(np.asarray(tab, dtype=float),
                                             "maxitive", 0.0).to_dict()

    def test_every_property_is_warning_free_on_inf_table(self):
        mu = MonotoneMeasure.explicit(SP2, [0, INF, INF, INF])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = {prop: check_measure_property(mu, prop).holds
                        for prop in MEASURE_PROPERTIES}
        assert verdicts == {"monotone": True, "subadditive": True, "maxitive": True,
                            "submodular": True, "null_additive": True, "finite": False}


def ref_possibility_mass(density, mask):
    """A possibility mass by the bit loop that read table-less measures
    before the per-block folds: Python's max over the mask's points, from
    0.0 (which keeps 0.0 against a -0.0 density)."""
    best = 0.0
    while mask:
        low = mask & -mask
        best = max(best, density[low.bit_length() - 1])
        mask ^= low
    return best


@st.composite
def possibility_reads(draw):
    """A density on n <= 24 points over few distinct values (0.0, -0.0, inf
    and repeats among them), and masks to read, edge masks included."""
    n = draw(st.integers(1, 24))
    pool = draw(st.lists(st.sampled_from([0.0, -0.0, INF, 0.25, 0.5, 1.0, 3.0])
                         | st.integers(1, 64).map(lambda v: v / 64.0), min_size=1, max_size=4))
    dens = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=16))
    return dens, [0, (1 << n) - 1, *(1 << b for b in range(n)), *masks]


class TestPossibilityFolds:
    """A possibility measure without a cached table reads its masses from
    per-block max folds; they must give the bit loop's and the table's bits."""

    @settings(max_examples=200, deadline=None)
    @given(case=possibility_reads())
    def test_fold_reads_match_bit_loop_and_table(self, case):
        dens, masks = case
        space = FiniteSpace(len(dens))
        mu = MonotoneMeasure.possibility(space, dens)
        read = mu.mass_reader(space.full)
        want = [ref_possibility_mass(dens, m).hex() for m in masks]
        assert [mu(m).hex() for m in masks] == want
        assert [read(m).hex() for m in masks] == want
        assert mu._table is None
        if len(dens) <= 16:
            mu.table()
            assert [mu(m).hex() for m in masks] == want
            assert [mu.mass_reader(space.full)(m).hex() for m in masks] == want

    def test_full_table_at_24_points(self):
        rng = rng_for(7, "folds", 24)
        dens = [rng.choice([0.0, -0.0, INF, 0.5, 0.5, 0.75]) for _ in range(24)]
        masks = [rng.randrange(1 << 24) for _ in range(2000)] + [0, (1 << 24) - 1]
        mu = MonotoneMeasure.possibility(FiniteSpace(24), dens)
        before = [mu(m).hex() for m in masks]
        tab = MonotoneMeasure.possibility(FiniteSpace(24), dens).table()
        assert before == [ref_possibility_mass(dens, m).hex() for m in masks]
        assert before == [float(tab[m]).hex() for m in masks]

    def test_negative_zero_density_reads_as_zero(self):
        mu = MonotoneMeasure.possibility(SP2, [-0.0, 0.0])
        assert mu.density == (0.0, 0.0)
        assert math.copysign(1.0, mu(1)) == 1.0
        mu.table()
        assert math.copysign(1.0, mu(1)) == 1.0
        assert [math.copysign(1.0, v) for v in mu.table()] == [1.0] * 4

    def test_reader_is_unchecked_and_built_once(self):
        mu = MonotoneMeasure.possibility(FiniteSpace(20), [(i % 7) / 8 for i in range(20)])
        read = mu.mass_reader(0b1011)
        assert read is mu.mass_reader(mu.space.full) and read is not mu
        assert read(0b1011) == mu(0b1011) == 0.375
        with pytest.raises(DomainError):
            mu.mass_reader(1 << 20)


def ref_maxitive(mu):
    """``maxitive`` by the pair kernel alone, as decided before the singleton
    fold: the disjoint pairs, then all pairs on a table that is not exactly
    monotone."""
    tab, n, tol = mu.table(), mu.space.n, mu.tolerance()

    def maxi(a, b):
        m = tab.take(a | b)
        m -= np.maximum(tab.take(a), tab.take(b))
        return m

    ok, pair, extreme = measures._pair_kernel(tab, n, maxi, tol, "maxitive check", disjoint=True)
    if not ok:
        a, b = pair
        return CheckResult(False, extreme,
                           {"set_a": a, "set_b": b, "mu_a": float(tab[a]),
                            "mu_b": float(tab[b]), "mu_union": float(tab[a | b]),
                            "disjoint": True})
    if not measures._exactly_monotone(tab, n):
        ok, pair, extreme = measures._pair_kernel(tab, n, maxi, tol, "maxitive check",
                                                  disjoint=False)
        if not ok:
            a, b = pair
            return CheckResult(False, extreme,
                               {"set_a": a, "set_b": b, "disjoint": False,
                                "reason": "derived all-pairs form failed"})
    return CheckResult(True, margin=0.0, detail={"all_pairs_asserted": True})


FOLD_DENSITY = [0.0, -0.0, 5e-324, 2.5e-308, 0.25, 0.5, 1.0, INF]   # subnormals among them


@st.composite
def maxitive_cases(draw):
    """Measures on n <= 8 points around max folds: possibility measures and
    explicit max-fold tables (densities with 0, -0.0, subnormals and inf;
    the np.maximum fold keeps a -0.0 entry), exact or rounding, and copies
    of the explicit ones raised or lowered at some sets (monotone again or
    not), nudged by 1e-13 (within a rounding table's tolerance or not), or
    with a nonzero empty set."""
    n = draw(st.integers(1, 8))
    dens = draw(st.lists(st.sampled_from(FOLD_DENSITY), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["possibility", "maxitive", "raised", "lowered", "raw",
                                 "nudged", "empty"]))
    if kind == "possibility":
        return MonotoneMeasure.possibility(FiniteSpace(n), dens)
    if draw(st.booleans()):
        tab = _subset_fold(dens, np.maximum, 0.0).tolist()
    else:
        tab = [ref_possibility_mass(dens, m) for m in range(1 << n)]
    moved = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=4))
    if kind in ("raised", "raw"):
        for m in moved:
            tab[m] = draw(st.sampled_from([0.0, 0.125, 0.75, 2.0, INF]))
        if kind == "raised":          # monotone again: each set the max over its subsets
            for m in range(1, 1 << n):
                tab[m] = max([tab[m]] + [tab[m & ~(1 << b)] for b in range(n) if m >> b & 1])
    if kind == "lowered":
        for m in moved:
            below = [v for v in (0.0, 0.125, float(np.nextafter(tab[m], 0.0)), 2.0) if v < tab[m]]
            if below:
                tab[m] = draw(st.sampled_from(below))
    if kind == "nudged":
        for m in moved:
            if 0.25 <= tab[m] < INF:          # a subnormal would turn negative
                tab[m] += draw(st.sampled_from([-1e-13, 1e-13]))
    if kind == "empty":
        tab[0] = draw(st.sampled_from([0.0, -0.0, 0.125, 0.5, INF]))
    return unchecked(FiniteSpace(n), tab, rounding=draw(st.booleans()))


def result_bytes(res):
    return json.dumps(res.to_dict()), repr(res.margin)


class TestMaxitiveBySingletons:
    """A possibility measure holds ``monotone`` (n >= 2), ``subadditive``,
    ``submodular`` (n >= 3), ``maxitive`` and ``null_additive`` with margin
    0.0 by its kind,
    and an explicit table is maxitive by the fold of its singletons; every
    verdict keeps the sweeps' bytes."""

    @settings(max_examples=400, deadline=None)
    @given(mu=maxitive_cases())
    def test_matches_kernel_branch(self, mu):
        got, want = check_measure_property(mu, "maxitive"), ref_maxitive(mu)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        assert repr(got.margin) == repr(want.margin)

    @settings(max_examples=200, deadline=None)
    @given(mu=maxitive_cases())
    def test_fold_decisions_match_sweep_references(self, mu):
        tab, tol = mu.table(), mu.tolerance()
        assert result_bytes(check_measure_property(mu, "monotone")) == \
            result_bytes(ref_monotone(tab, tol))
        assert result_bytes(read_monotone(mu, skip_empty=True)) == \
            result_bytes(ref_monotone(tab, tol, skip_empty=True))
        for prop in ("subadditive", "submodular"):
            assert result_bytes(check_measure_property(mu, prop)) == \
                result_bytes(ref_check(tab, prop, tol)), prop
        got = result_bytes(check_measure_property(mu, "maxitive"))
        assert got == result_bytes(ref_pairwise(np.asarray(tab), "maxitive", tol))
        assert got == result_bytes(ref_maxitive(mu))
        assert result_bytes(check_measure_property(mu, "null_additive")) == \
            result_bytes(ref_null_additive(tab, tol))
        if mu.kind == "possibility":     # the kind decides what the sweeps read
            swept = unchecked(mu.space, tab)
            for prop in ("monotone", "subadditive", "submodular", "maxitive", "null_additive"):
                assert result_bytes(check_measure_property(mu, prop)) == \
                    result_bytes(check_measure_property(swept, prop)), prop

    def test_holding_table_skips_the_kernel(self):
        with unittest.mock.patch.object(measures, "_pair_kernel",
                                        wraps=measures._pair_kernel) as spy:
            assert check_measure_property(generate_measure(0, "possibility", 12),
                                          "maxitive").holds
            assert spy.call_count == 0
            res = check_measure_property(generate_measure(0, "non_maxitive", 12), "maxitive")
            assert not res.holds and res.witness["disjoint"]
            assert spy.call_count == 1

    def test_large_possibility_monotone_skips_the_per_point_pass(self):
        mu = MonotoneMeasure.possibility(FiniteSpace(20),
                                         [(k % 7) / 8 for k in range(19)] + [INF])
        with unittest.mock.patch.object(measures, "_chunk_least",
                                        wraps=measures._chunk_least) as spy:
            res = check_measure_property(mu, "monotone")
            assert res.to_dict() == {"holds": True, "margin": 0.0, "mode": "exhaustive",
                                     "status": "checked"}
            assert spy.call_count == 0
            # one entry lowered below a subset's value: the per-point sweep fails
            tab = mu.table().copy()
            tab[0b1011_0110_0000_1010_0110] = 0.0625
            lowered = unchecked(mu.space, tab)
            res = check_measure_property(lowered, "monotone")
            assert spy.call_count > 0
        assert not res.holds
        assert result_bytes(res) == result_bytes(ref_monotone(tab, 0.0))
        with pytest.raises(DomainError, match="table is not monotone"):
            MonotoneMeasure.explicit(mu.space, tab)

    def test_kind_decision_allocates_nothing(self):
        # past the table build, no scratch: peak_rss_mb cannot move
        mu = generate_measure(0, "possibility", 20)
        mu.table()
        tracemalloc.start()
        try:
            assert check_measure_property(mu, "monotone").holds
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4096


@st.composite
def dyadic_tables(draw):
    """k/64 entries, sometimes inf, with 0 on the empty set; monotone or not."""
    n = draw(st.integers(1, 5))
    entry = st.integers(0, 64).map(lambda v: v / 64.0)
    if draw(st.booleans()):
        entry = st.one_of(entry, st.just(INF))
    tab = draw(st.lists(entry, min_size=1 << n, max_size=1 << n))
    tab[0] = 0.0
    if draw(st.booleans()):
        for mask in range(1, 1 << n):
            tab[mask] = max([tab[mask]] + [tab[mask & ~(1 << b)]
                                           for b in range(n) if mask >> b & 1])
    return tab


class TestLocalSubmodular:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 6), data=st.data(), tol=st.sampled_from(ROUTE_TOLS))
    # a non-monotone table with a -0.0 entry whose difference overflows to inf
    @example(n=2, data=[1e308, -0.0, 0.0, 1e308], tol=0.0)
    # non-monotone with inf entries: four cells are inf - inf, and the pair
    # ({0}, {1, 2}) violates between finite values
    @example(n=3, data=[0.0, 0.0, INF, INF, INF, INF, 0.0, 1.0], tol=0.0)
    def test_matches_reference_loops(self, n, data, tol):
        # the local-cell loop where the cells decide, all 4**n pairs elsewhere
        if isinstance(data, list):
            tab = data
        else:
            values = st.sampled_from([0.0, -0.0, 0.125, 0.3, 0.5, 1.0, 3.0, 4e307, 5e307,
                                      1e308, INF])
            tab = data.draw(st.lists(values, min_size=1 << n, max_size=1 << n))
            if data.draw(st.booleans()):
                for mask in range(1, 1 << n):
                    tab[mask] = max([tab[mask]] + [tab[mask & ~(1 << b)]
                                                   for b in range(n) if mask >> b & 1])
        got = check_measure_property(with_tolerance(tab, tol), "submodular")
        want = ref_check(tab, "submodular", tol)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        assert repr(got.margin) == repr(want.margin)

    @settings(max_examples=200, deadline=None)
    @given(tab=dyadic_tables())
    @example(tab=[0.0, 0.0, INF, INF, INF, INF, 0.0, 1.0])
    def test_dyadic_verdict_matches_all_pairs(self, tab):
        # k/64 entries make every finite sum and difference exact, so the
        # submodular check and all 4**n pairs must agree on the verdict, on
        # monotone and non-monotone tables, with or without inf entries
        mu = unchecked(FiniteSpace(len(tab).bit_length() - 1), tab)
        res = check_measure_property(mu, "submodular")
        assert res.holds == brute_property(mu, "submodular")
        if not res.holds:
            w = res.witness
            a, b = w["set_a"], w["set_b"]
            assert mu(a | b) + mu(a & b) > mu(a) + mu(b)
            assert res.margin == mu(a | b) + mu(a & b) - mu(a) - mu(b)
            assert (w["mu_union"], w["mu_inter"], w["mu_a"], w["mu_b"]) == \
                (mu(a | b), mu(a & b), mu(a), mu(b))

    @pytest.mark.parametrize("table, margin", [
        # the all-pairs sum overflowed: a spurious failure at (1, 1), margin inf
        ([0, 1e308, 1e308, 1e308], 1e308),
        # the comparable pair (1, 3) failed on a rounding residue of 5.55e-17
        ([0, 0.1, 0.2, 0.3], 2.7755575615628914e-17),
        ([0, INF, INF, INF], 0.0),
    ])
    def test_regression_tables_hold(self, table, margin):
        res = check_measure_property(MonotoneMeasure.explicit(SP2, table), "submodular")
        assert res.to_dict() == {"holds": True, "margin": margin, "mode": "exhaustive",
                                 "status": "checked"}
        assert repr(res.margin) == repr(float(margin))

    def test_non_monotone_table_with_inf_fails_on_finite_pair(self):
        # read on the local cells, its four inf - inf cells would count as 0
        # and the check would hold with margin 0.0
        mu = unchecked(SP3, [0, 0, INF, INF, INF, INF, 0, 1])
        res = check_measure_property(mu, "submodular")
        assert res.to_dict() == {
            "holds": False, "margin": 1.0, "mode": "exhaustive", "status": "checked",
            "witness": {"set_a": 1, "set_b": 6, "mu_union": 1.0, "mu_inter": 0.0,
                        "mu_a": 0.0, "mu_b": 0.0}}

    def test_pair_kernel_runs_only_where_cells_cannot_decide(self, monkeypatch):
        calls = []
        real = measures._pair_kernel
        monkeypatch.setattr(measures, "_pair_kernel",
                            lambda *args, **kw: calls.append(args) or real(*args, **kw))
        for mu in (generate_measure(4, "distortion_concave", 10),
                   generate_measure(4, "monotonized_random", 6),
                   unchecked(SP2, [0, 0.5, 0.25, 0.125]),
                   MonotoneMeasure.explicit(SP2, [0, 1e308, INF, INF])):
            check_measure_property(mu, "submodular")
        assert calls == []
        for table in ([0, 0, INF, INF, INF, INF, 0, 1], [0, 1e308, 0, 5e307]):
            mu = unchecked(FiniteSpace(len(table).bit_length() - 1), table)
            check_measure_property(mu, "submodular")
        assert len(calls) == 2


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
            assert read_monotone(d, skip_empty=True).holds


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
