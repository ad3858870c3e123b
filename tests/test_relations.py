"""Relation classes: comonotonicity, star-association, level-union
subadditivity, and positive quadrant dependence."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonadd.core import (
    EXTENDED,
    INF,
    NONNEG,
    UNIT,
    FiniteSpace,
    Fn,
    expand_masks,
    rng_for,
    subset_infima,
)
from nonadd.campaigns import _UPPER_MH
from nonadd.measures import GENERATOR_FAMILIES, MonotoneMeasure, generate_measure
from nonadd.operators import (
    OPERATOR_FACTORIES,
    bounded_sum,
    from_callable,
    join,
    lukasiewicz,
    minimum,
    plain_sum,
    power_min,
    prob_sum,
    product,
)
from nonadd.relations import is_comonotone, is_mu_subadditive, is_pqd, is_star_associated
from nonadd.results import DomainError, RelationVerdict
from nonadd import sampling
from test_integrals import ref_level_mask_gt

unit_vals = st.lists(st.sampled_from([k / 8.0 for k in range(9)]),
                     min_size=2, max_size=6)


class TestComonotone:
    def test_same_order_holds(self):
        f = Fn([0.1, 0.4, 0.8])
        g = Fn([0.2, 0.3, 0.9])
        assert is_comonotone(f, g).holds

    def test_opposite_order_fails_with_pair(self):
        f = Fn([1.0, 0.0])
        g = Fn([0.0, 1.0])
        res = is_comonotone(f, g)
        assert not res.holds
        assert {res.witness["point_x"], res.witness["point_y"]} == {0, 1}

    def test_constant_partner_always_holds(self):
        f = Fn([0.9, 0.1, 0.5])
        g = Fn([0.3, 0.3, 0.3])
        assert is_comonotone(f, g).holds

    def test_restricted_domain(self):
        f = Fn([1.0, 0.0, 0.5])
        g = Fn([0.0, 1.0, 0.0])
        assert not is_comonotone(f, g).holds
        # dropping the crossing point restores the relation
        assert is_comonotone(f, g, domain=0b101).holds


class TestStarAssociated:
    @given(fv=unit_vals, gv=unit_vals)
    @settings(max_examples=100, deadline=None)
    def test_min_star_all_pairs(self, fv, gv):
        n = min(len(fv), len(gv))
        f, g = Fn(fv[:n]), Fn(gv[:n])
        assert is_star_associated(f, g, minimum()).holds

    def test_plus_star_iff_comonotone_seeded(self):
        for k in range(200):
            rng = rng_for(67, "plus-star", k)
            n = 2 + k % 7
            if k % 2:
                f, g = sampling.comonotone_pair(rng, n, UNIT)
            else:
                f = sampling.random_fn(rng, n, UNIT)
                g = sampling.random_fn(rng, n, UNIT)
            assert is_star_associated(f, g, plain_sum()).holds == \
                is_comonotone(f, g).holds

    def test_comonotone_implies_associated_for_catalog(self):
        stars = [minimum(), product(), lukasiewicz(), bounded_sum(), prob_sum(), join()]
        for k in range(60):
            rng = rng_for(71, "como-star", k)
            f, g = sampling.comonotone_pair(rng, 2 + k % 6, UNIT)
            star = stars[k % len(stars)]
            assert is_star_associated(f, g, star).holds, (star.name, f.values, g.values)

    def test_two_block_construction_not_comonotone(self):
        # two shared-height blocks and disjoint tails: associated for any
        # operator annihilated by zero on both sides, never comonotone
        f = Fn([0.5, 0.25, 0.0, 0.0])
        g = Fn([0.5, 0.0, 0.25, 0.25])
        assert not is_comonotone(f, g).holds
        for star in (product(), minimum(), lukasiewicz()):
            assert is_star_associated(f, g, star).holds

    def test_indicator_construction(self):
        # single-block second factor whose height level set straddles the
        # block: associated for a right-annihilating star, not comonotone
        f = Fn([0.9, 0.4, 0.7])
        g = Fn.indicator(3, 0b011, 0.5)
        assert not is_comonotone(f, g).holds
        assert is_star_associated(f, g, product()).holds
        # hand check on the straddling subset {1, 2}
        assert min(0.4 * 0.5, 0.7 * 0.0) == min(0.4, 0.7) * min(0.5, 0.0)

    def test_witness_replays(self):
        f = Fn([1.0, 0.0])
        g = Fn([0.0, 1.0])
        res = is_star_associated(f, g, plain_sum())
        assert not res.holds
        mask = res.witness["subset"]
        pts = [i for i in range(2) if mask >> i & 1]
        inf_comb = min(f[i] + g[i] for i in pts)
        star_infs = min(f[i] for i in pts) + min(g[i] for i in pts)
        assert abs(inf_comb - star_infs) > 1e-12

    def test_exhaustive_at_every_size(self):
        for n in (16, 24):
            rng = rng_for(73, "big", n)
            f, g = sampling.comonotone_pair(rng, n, UNIT)
            res = is_star_associated(f, g, minimum())
            assert res.holds and res.mode == "exhaustive"
        rng = rng_for(73, "big-violating", 24)
        f = sampling.random_fn(rng, 24, UNIT)
        g = sampling.random_fn(rng, 24, UNIT)
        res = is_star_associated(f, g, plain_sum())
        assert not res.holds and res.mode == "exhaustive"
        pts = [i for i in range(24) if res.witness["subset"] >> i & 1]
        assert 1 <= len(pts) <= 3
        inf_comb = min(f[i] + g[i] for i in pts)
        star_infs = min(f[i] for i in pts) + min(g[i] for i in pts)
        assert inf_comb == res.witness["inf_combined"]
        assert star_infs == res.witness["star_of_infs"]
        assert abs(inf_comb - star_infs) > 1e-12


def _star_reference(f, g, star, domain):
    """Star-association by sweeping all 2^k subsets of the domain, with the
    first violating subset in bitmask order as the witness."""
    pts = [i for i in range(len(f)) if domain is None or domain >> i & 1]
    if not pts:
        return RelationVerdict("star_associated", True)
    inf_f = subset_infima([f[i] for i in pts])[1:]
    inf_g = subset_infima([g[i] for i in pts])[1:]
    inf_s = subset_infima([float(star.fn(f[i], g[i])) for i in pts])[1:]
    combined = star.grid(inf_f, inf_g)
    with np.errstate(invalid="ignore"):
        bad = np.abs(combined - inf_s) > 1e-12
    if not bad.any():
        return RelationVerdict("star_associated", True)
    j = int(np.argmax(bad))
    return RelationVerdict("star_associated", False,
                           {"subset": int(expand_masks(pts)[j + 1]),
                            "inf_combined": float(inf_s[j]),
                            "star_of_infs": float(combined[j])})


_UNIT_STARS = [minimum(), product(), lukasiewicz(), bounded_sum(), prob_sum(), join(),
               plain_sum(), power_min(0.5)]
_unit_value = st.one_of(st.sampled_from([k / 8.0 for k in range(9)]),
                        st.floats(0.0, 1.0))
_ext_value = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, INF]),
                       st.floats(0.0, 4.0))


@st.composite
def _star_case(draw):
    k = draw(st.integers(1, 12))
    extended = draw(st.booleans())
    star = plain_sum() if extended else draw(st.sampled_from(_UNIT_STARS))
    scale, value = (EXTENDED, _ext_value) if extended else (UNIT, _unit_value)
    f = Fn(draw(st.lists(value, min_size=k, max_size=k)), scale)
    g = Fn(draw(st.lists(value, min_size=k, max_size=k)), scale)
    domain = draw(st.one_of(st.none(), st.integers(0, (1 << k) - 1)))
    return f, g, star, domain


class TestStarAssociatedOracle:
    @given(case=_star_case())
    @settings(max_examples=300, deadline=None)
    def test_report_bytes_match_subset_sweep(self, case):
        f, g, star, domain = case
        got = json.dumps(is_star_associated(f, g, star, domain).to_dict(), sort_keys=True)
        want = json.dumps(_star_reference(f, g, star, domain).to_dict(), sort_keys=True)
        assert got == want


# min outside the catalog: the same arithmetic, so it takes the triple sweep
_MIN_SWEPT = from_callable("min", minimum().fn, flags=minimum().flags, grid_fn=np.minimum)


@st.composite
def _min_case(draw):
    """Pairs on [0, 1] or on [0, inf] (with inf), with -0.0, on every
    domain or a partial one."""
    k = draw(st.integers(1, 12))
    scale, value = draw(st.sampled_from([(UNIT, _unit_value), (EXTENDED, _ext_value)]))
    value = value | st.just(-0.0)
    f = Fn(draw(st.lists(value, min_size=k, max_size=k)), scale)
    g = Fn(draw(st.lists(value, min_size=k, max_size=k)), scale)
    domain = draw(st.one_of(st.none(), st.integers(0, (1 << k) - 1)))
    return f, g, domain


class TestStarAssociatedUnderMinByKind:
    """The catalog min is star-associated with every pair by its kind: the
    verdict equals the triple sweep of a clone of min and the subset sweep,
    and the length and domain refusals come first."""

    @given(case=_min_case())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_sweeps(self, case):
        f, g, domain = case
        got = is_star_associated(f, g, minimum(), domain)
        assert got.holds
        swept = is_star_associated(f, g, _MIN_SWEPT, domain)
        assert got.to_dict() == swept.to_dict() == \
            _star_reference(f, g, minimum(), domain).to_dict()

    def test_refusals_keep_their_text(self):
        pair = Fn([0.5, 0.25]), Fn([0.0, 1.0])
        for star in (minimum(), _MIN_SWEPT):
            with pytest.raises(DomainError) as err:
                is_star_associated(pair[0], Fn([0.5]), star)
            assert str(err.value) == "functions must live on the same space"
            for domain in (4, -1, 1.0):
                with pytest.raises(DomainError) as err:
                    is_star_associated(*pair, star, domain)
                assert str(err.value) == f"invalid domain bitmask {domain!r}"


def _attempt_zero(rng, n, kind):
    """The first construction ``star_associated_pair`` drew when it resampled
    up to 40 times: one sub-seed, then the kind's draws on the unit scale."""
    local = random.Random(rng.randrange(1 << 62) + 0)
    if kind == "any":
        return sampling.random_fn(local, n, UNIT), sampling.random_fn(local, n, UNIT)
    if kind == "comonotone":
        return sampling.comonotone_pair(local, n, UNIT)
    pts = list(range(n))
    local.shuffle(pts)
    cut1 = 1 + local.randrange(n - 2)
    cut2 = cut1 + 1 + local.randrange(n - cut1 - 1)
    b, c = local.randrange(1, 33) / 32.0, local.randrange(1, 33) / 32.0
    f, g = [0.0] * n, [0.0] * n
    for i in pts[:cut1]:
        f[i] = g[i] = b
    for i in pts[cut1:cut2]:
        f[i] = c
    for i in pts[cut2:]:
        g[i] = c
    return Fn(f, UNIT), Fn(g, UNIT)


# the catalog at sample parameters; star_associated_pair admits min for
# "any", every nondecreasing star for "comonotone", and every star with both
# zero annihilators for "two_block"
_PARAMS = {"marshall_olkin": (0.5, 0.25), "power_product": (0.5,), "power_min": (0.5, 2.0),
           "power_prod": (2.0, 0.5)}
_CATALOG = [factory(*_PARAMS.get(name, ())) for name, factory in OPERATOR_FACTORIES.items()]
_ADMITTED = [("any", minimum())] \
    + [("comonotone", op) for op in _CATALOG if "nondecreasing" in op.flags] \
    + [("two_block", op) for op in _CATALOG
       if {"zero_left_annihilator", "zero_right_annihilator"} <= op.flags]


class TestStarAssociatedPair:
    """One construction, checked once: every kind is star-associated under
    every star it admits, so the 40-attempt resample loop never ran a second
    attempt and the pair is the first one it drew."""

    def check(self, seed, n, star, kind):
        f, g = sampling.star_associated_pair(random.Random(seed), n, star, kind=kind)
        assert is_star_associated(f, g, star).holds
        if kind == "two_block":
            assert not is_comonotone(f, g).holds
        want = _attempt_zero(random.Random(seed), n, kind)
        assert [v.values for v in (f, g)] == [v.values for v in want]

    @pytest.mark.parametrize("kind, star", _ADMITTED,
                             ids=[f"{kind}-{star.name}" for kind, star in _ADMITTED])
    @given(seed=st.integers(0, 1 << 32), n=st.integers(3, 10))
    @settings(max_examples=40, deadline=None)
    def test_catalog_star(self, kind, star, seed, n):
        self.check(seed, n, star, kind)

    @pytest.mark.parametrize("spec", _UPPER_MH, ids=lambda spec: spec["name"])
    @given(seed=st.integers(0, 1 << 32), n=st.integers(3, 8))
    @settings(max_examples=60, deadline=None)
    def test_upper_mh_spec(self, spec, seed, n):
        self.check(seed, n, spec["ops"].star, spec["pair"])

    def test_a_star_the_kind_does_not_admit_raises(self):
        # sum is star-associated only on comonotone pairs: some unconstrained
        # draws are refused, naming the kind and the star
        outcomes = set()
        for seed in range(20):
            try:
                sampling.star_associated_pair(random.Random(seed), 4, plain_sum(), kind="any")
                outcomes.add("pair")
            except DomainError as e:
                assert str(e) == "the 'any' construction is not star-associated under 'sum'"
                outcomes.add("refused")
        assert outcomes == {"pair", "refused"}


class TestMuSubadditive:
    def test_any_pair_under_subadditive_measure_with_sum(self):
        for k in range(40):
            rng = rng_for(79, "musub", k)
            n = 2 + k % 6
            mu = sampling.subadditive_measure(83, k, n)
            f = sampling.random_fn(rng, n, UNIT)
            g = sampling.random_fn(rng, n, UNIT)
            assert is_mu_subadditive(f, g, plain_sum(), mu).holds

    def test_comonotone_with_join_any_measure(self):
        for k in range(40):
            rng = rng_for(89, "musub-join", k)
            n = 2 + k % 6
            mu = sampling.monotone_measure(97, k, n)
            f, g = sampling.comonotone_pair(rng, n, UNIT)
            assert is_mu_subadditive(f, g, join(), mu).holds

    def test_non_maxitive_indicators_fail_with_join(self):
        mu = generate_measure(5, "non_maxitive", 4)
        from nonadd.measures import check_measure_property
        w = check_measure_property(mu, "maxitive").witness
        a_set, b_set = w["set_a"], w["set_b"]
        f = Fn.indicator(4, a_set, 1.0)
        g = Fn.indicator(4, b_set, 1.0)
        res = is_mu_subadditive(f, g, join(), mu)
        assert not res.holds
        # witness replays by direct evaluation
        wr = res.witness
        assert wr["mu_union"] > wr["bound"] + 1e-12


class TestPQD:
    def test_self_pair_under_unit_total(self):
        for k in range(30):
            rng = rng_for(101, "pqd", k)
            n = 2 + k % 6
            mu = sampling.monotone_measure(103, k, n)
            if mu.total > 1.0:
                continue
            f = sampling.random_fn(rng, n, UNIT)
            assert is_pqd(f, f, mu).holds

    def test_product_measure_independent_coordinates(self):
        # explicit product table on two points: independence balances exactly
        space = FiniteSpace(2)
        p, q = 0.25, 0.5
        mu = MonotoneMeasure.explicit(space, [0.0, p * q + p * (1 - q),
                                              p * q + (1 - p) * q, 1.0],
                                      rounding=True)
        f = Fn([1.0, 0.0])
        g = Fn([1.0, 0.0])
        assert is_pqd(f, g, mu).holds

    def test_planted_negative_dependence_fails(self):
        # two disjoint blocks that never co-occur
        space = FiniteSpace(2)
        mu = MonotoneMeasure.explicit(space, [0.0, 0.5, 0.5, 1.0], rounding=True)
        f = Fn([1.0, 0.0])
        g = Fn([0.0, 1.0])
        res = is_pqd(f, g, mu)
        assert not res.holds
        assert res.witness["mu_joint"] < res.witness["mu_product"]


# ---------------------------------------------------------------------------
# The per-threshold loops that ``core._level_sets`` replaced, kept as
# references that must agree byte for byte.
# ---------------------------------------------------------------------------

def _ref_threshold_grid(values):
    return sorted(set([0.0] + [float(v) for v in values]))


def ref_is_mu_subadditive(f, g, boxplus, mu, domain=None, tol=1e-12):
    if len(f) != len(g):
        raise DomainError("functions must live on the same space")
    full = (1 << len(f)) - 1
    if domain is None:
        domain = full
    if not isinstance(domain, int) or not 0 <= domain <= full:
        raise DomainError(f"invalid domain bitmask {domain!r}")
    fa = _ref_threshold_grid([f[i] for i in range(len(f)) if domain >> i & 1])
    gb = _ref_threshold_grid([g[i] for i in range(len(g)) if domain >> i & 1])
    for a in fa:
        mask_f = ref_level_mask_gt(f.values, a, domain)
        mu_f = mu(mask_f)
        for b in gb:
            mask_g = ref_level_mask_gt(g.values, b, domain)
            union = mu(mask_f | mask_g)
            bound = float(boxplus.fn(mu_f, mu(mask_g)))
            if union > bound + tol:
                return RelationVerdict("mu_subadditive", False,
                                       {"a": a, "b": b, "mu_union": union, "bound": bound})
    return RelationVerdict("mu_subadditive", True)


def ref_is_pqd(f, g, mu, tol=1e-12):
    domain = (1 << len(f)) - 1
    for t in _ref_threshold_grid(f.values):
        mask_f = ref_level_mask_gt(f.values, t, domain)
        mu_f = mu(mask_f)
        for s in _ref_threshold_grid(g.values):
            mask_g = ref_level_mask_gt(g.values, s, domain)
            joint = mu(mask_f & mask_g)
            prod = mu_f * mu(mask_g)
            if joint < prod - tol:
                return RelationVerdict("pqd", False,
                                       {"t": t, "s": s, "mu_joint": joint, "mu_product": prod})
    return RelationVerdict("pqd", True)


@st.composite
def _level_case(draw):
    """Two functions with zeros, ties and (on EXTENDED) inf, a generated or
    possibility measure (possibly with infinite mass) and a domain that may
    be empty."""
    n = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([UNIT, NONNEG, EXTENDED]))
    pool = [v for v in (0.0, 0.25, 0.5, 1.0, 2.0, INF) if scale.contains(v)]
    value = st.one_of(st.sampled_from(pool), st.floats(0.0, 1.0))
    f = Fn(draw(st.lists(value, min_size=n, max_size=n)), scale)
    g = Fn(draw(st.lists(value, min_size=n, max_size=n)), scale)
    if draw(st.booleans()):
        mu = generate_measure(draw(st.integers(0, 10 ** 6)),
                              draw(st.sampled_from(GENERATOR_FAMILIES)), n)
    else:
        density = st.sampled_from([0.0, 0.25, 0.5, 1.0, INF])
        mu = MonotoneMeasure.possibility(FiniteSpace(n),
                                         draw(st.lists(density, min_size=n, max_size=n)))
    boxplus = draw(st.sampled_from([plain_sum(), join(), bounded_sum(), product()]))
    domain = draw(st.one_of(st.none(), st.just(0), st.integers(0, (1 << n) - 1)))
    return f, g, boxplus, mu, domain


def _bytes(verdict):
    return json.dumps(verdict.to_dict(), sort_keys=True)


class TestLevelRelationsMatchReference:
    @given(case=_level_case())
    @settings(max_examples=300, deadline=None)
    def test_mu_subadditive_bytes(self, case):
        f, g, boxplus, mu, domain = case
        assert (_bytes(is_mu_subadditive(f, g, boxplus, mu, domain))
                == _bytes(ref_is_mu_subadditive(f, g, boxplus, mu, domain)))

    @given(case=_level_case())
    @settings(max_examples=300, deadline=None)
    def test_pqd_bytes(self, case):
        f, g, _, mu, _ = case
        assert _bytes(is_pqd(f, g, mu)) == _bytes(ref_is_pqd(f, g, mu))

    def test_functions_shorter_than_the_space_are_refused(self):
        # both functions on point 0 alone were read as the whole space
        mu = MonotoneMeasure.possibility(FiniteSpace(3), [0.25, 0.5, 1.0])
        f, g = Fn([0.9]), Fn([0.5])
        with pytest.raises(DomainError, match=r"^function of length 1 on a 3-point space$"):
            is_mu_subadditive(f, g, plain_sum(), mu)
        with pytest.raises(DomainError, match=r"^function of length 1 on a 3-point space$"):
            is_pqd(f, g, mu)
