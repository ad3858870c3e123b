"""Integral functionals: worked values, the subset-form oracle, exactness,
identities, and survival-profile evaluation."""

import json
import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonadd.core import (
    EXTENDED,
    _CHUNK_CELLS,
    FiniteSpace,
    Fn,
    INF,
    NONNEG,
    SurvivalProfile,
    UNIT,
    UNIT_OPEN,
    ValueScale,
    _level_sets,
    _rel_gap,
    rng_for,
)
from nonadd.integrals import (
    IntegralResult,
    _positive_levels,
    _refuse_all_nan,
    _upper_rows,
    _unpack,
    _zero_tail,
    abs_power,
    check_h_duality,
    check_sugeno_identity,
    lower_integral,
    lower_integral_result,
    profile_integral,
    seminormed_integral,
    shilkret_integral,
    sugeno_integral,
    upper_integral,
    upper_integral_result,
    upper_integral_subset_oracle,
)
from nonadd.measures import GENERATOR_FAMILIES, MonotoneMeasure, dual_measure, generate_measure
from nonadd.operators import (
    bounded_sum,
    from_callable,
    join,
    lukasiewicz,
    marshall_olkin,
    minimum,
    one_minus,
    op_dual,
    plain_sum,
    power_min,
    power_prod,
    power_product,
    prob_sum,
    product,
    reciprocal,
    verify_flags,
)
from nonadd.results import CheckResult, DomainError, HypothesisError
from nonadd import sampling
from test_measures import unchecked

SP2 = FiniteSpace(2)
MU2 = MonotoneMeasure.explicit(SP2, [0.0, 0.3, 0.6, 0.8])
F2 = Fn([0.5, 0.2])


def brute_upper(f, mu, op, domain, ts):
    """Independent oracle: dense sweep over a supplied level grid."""
    best = -INF
    for t in ts:
        mask = 0
        for i, v in enumerate(f.values):
            if domain >> i & 1 and v >= t:
                mask |= 1 << i
        best = max(best, float(op.fn(t, mu(mask))))
    return best


# ---------------------------------------------------------------------------
# References: the level-set scans that ``core._level_sets`` replaced, kept so
# that the integrals (and, in test_relations, the level-set relations) must
# match them byte for byte.
# ---------------------------------------------------------------------------

def ref_level_mask_ge(values, t, domain):
    """Bitmask of domain points where the value is >= t."""
    m = 0
    for i, v in enumerate(values):
        if domain >> i & 1 and v >= t:
            m |= 1 << i
    return m


def ref_level_mask_gt(values, t, domain):
    """Bitmask of domain points where the value is > t."""
    m = 0
    for i, v in enumerate(values):
        if domain >> i & 1 and v > t:
            m |= 1 << i
    return m


def _ref_inputs(f, domain, op):
    values, scale = f.values, f.scale
    full = (1 << len(values)) - 1
    if domain is None:
        domain = full
    if not isinstance(domain, int) or not 0 <= domain <= full:
        raise DomainError(f"invalid domain bitmask {domain!r}")
    verify_flags(op, ["nondecreasing"], scale)
    return values, scale, domain


def _ref_desc_levels(values, domain):
    """Distinct values on the domain, descending, with their >= masks."""
    pairs = {}
    for i, v in enumerate(values):
        if domain >> i & 1:
            pairs[v] = pairs.get(v, 0) | (1 << i)
    vals = sorted(pairs, reverse=True)
    masks, m = [], 0
    for v in vals:
        m |= pairs[v]
        masks.append(m)
    return vals, masks


def ref_zero_tail(op, scale, tail_mu):
    """No mass at or above an open top and a zero right annihilator: the
    tail adds 0.  The declared flag must pass its gate first."""
    if tail_mu == 0.0 and "zero_right_annihilator" in op.flags:
        verify_flags(op, ["zero_right_annihilator"], scale)
        return True
    return False


def ref_exact_tail(op, scale, tail_mu):
    """The open-end tail must add exactly 0, or the upper integral is
    refused: its sup below the top is a limit that no level attains."""
    if not ref_zero_tail(op, scale, tail_mu):
        raise HypothesisError(
            f"operator {op.name!r} leaves the open end of {scale.describe()} at tail mass "
            f"{tail_mu!r}: the upper integral is exact only for tail mass 0 under a "
            f"declared 'zero_right_annihilator'")


def ref_upper_integral_result(f, mu, op, domain=None):
    values, scale, domain = _ref_inputs(f, domain, op)
    vals_desc, ge_masks = _ref_desc_levels(values, domain)
    candidates = [(0.0, domain)]
    for v, m in zip(vals_desc, ge_masks):
        if scale.contains(v):
            candidates.append((v, m))
    if scale.closed:
        m_top = 0
        for v, m in zip(vals_desc, ge_masks):
            if v >= scale.upper:
                m_top = m
        candidates.append((scale.upper, m_top))
    best, best_level = -INF, 0.0
    for t, mask in candidates:
        val = float(op.fn(t, mu(mask)))
        if val > best:
            best, best_level = val, t
    if not scale.closed:
        tail_mask = 0
        for v, m in zip(vals_desc, ge_masks):
            if v >= scale.upper:
                tail_mask = m
        ref_exact_tail(op, scale, mu(tail_mask))
    return best, True, best_level


def ref_lower_integral_result(f, mu, op, domain=None):
    values, scale, domain = _ref_inputs(f, domain, op)
    vals_desc, ge_masks = _ref_desc_levels(values, domain)
    best, best_level = INF, 0.0
    for t in [0.0] + [v for v in vals_desc if scale.contains(v)]:
        gt_mask = 0
        for v, m in zip(vals_desc, ge_masks):
            if v > t:
                gt_mask = m
        val = float(op.fn(t, mu(gt_mask)))
        if val < best:
            best, best_level = val, t
    return best, True, best_level


_SCALES = [UNIT, UNIT_OPEN, NONNEG, EXTENDED, ValueScale(2.0, False), ValueScale(2.0, True),
           ValueScale(0.5, True), ValueScale(0.5, False)]
_OPS = [minimum(), product(), join(), plain_sum(), bounded_sum(), lukasiewicz(),
        marshall_olkin(0.5, 0.25), power_product(0.5), power_min(1 / 3, 2.0),
        power_prod(0.75, 0.5)]


@st.composite
def integral_cases(draw, max_n=6):
    """An integrand ``Fn`` with zeros, ties, the scale top and inf where its
    scale holds them; a generated measure or a possibility measure with
    infinite mass; and a domain that may be empty."""
    n = draw(st.integers(1, max_n))
    scale = draw(st.sampled_from(_SCALES))
    pool = [v for v in (0.0, 0.25, 0.5, 1.0, 1.5, 3.0, scale.upper) if scale.contains(v)]
    value = st.one_of(st.sampled_from(pool),
                      st.floats(0.0, min(scale.upper, 4.0)).filter(scale.contains))
    values = draw(st.lists(value, min_size=n, max_size=n))
    if draw(st.booleans()):
        mu = generate_measure(draw(st.integers(0, 10 ** 6)),
                              draw(st.sampled_from(GENERATOR_FAMILIES)), n)
    else:
        density = st.sampled_from([0.0, 0.25, 0.5, 1.0, INF])
        mu = MonotoneMeasure.possibility(FiniteSpace(n),
                                         draw(st.lists(density, min_size=n, max_size=n)))
    op = draw(st.sampled_from(_OPS))
    domain = draw(st.one_of(st.none(), st.just(0), st.integers(0, (1 << n) - 1)))
    return Fn(values, scale), mu, op, domain


def _result_bytes(value, exact, level):
    return value.hex(), exact, level.hex()


# ---------------------------------------------------------------------------
# References: the candidate-list forms of both integrals, which build the
# list of (level, mass) candidates first and scan it after; the integrals
# must match them byte for byte, errors included.
# ---------------------------------------------------------------------------

def ref_candidate_upper(f, mu, op, domain=None):
    values, scale, domain = _unpack(f, mu, domain)
    verify_flags(op, ["nondecreasing"], scale)
    mass = mu.mass_reader(domain)
    ts, above = _level_sets(values, domain)
    ge = [domain] + above  # ge[j] = D intersect {f >= ts[j]}
    top = bisect_left(ts, scale.upper)  # ge[top] = D intersect {f >= scale top}
    levels = [(0.0, mass(domain))] + [(ts[j], mass(ge[j])) for j in _positive_levels(ts, scale)]
    if scale.closed:
        levels.append((scale.upper, mass(ge[top])))
    else:
        ref_exact_tail(op, scale, mass(ge[top]))
    best = -INF
    best_level = 0.0
    for t, c in levels:
        val = float(op.fn(t, c))
        if val > best:
            best = val
            best_level = t
    if best == -INF:
        _refuse_all_nan(op, [op.fn(t, c) for t, c in levels])
    return IntegralResult(best, True, best_level)


def ref_candidate_lower(f, mu, op, domain=None):
    values, scale, domain = _unpack(f, mu, domain)
    verify_flags(op, ["nondecreasing"], scale)
    mass = mu.mass_reader(domain)
    ts, above = _level_sets(values, domain)
    candidates = [ts.index(0.0), *_positive_levels(ts, scale)]
    best = INF
    best_level = 0.0
    for j in candidates:
        val = float(op.fn(ts[j], mass(above[j])))
        if val < best:
            best = val
            best_level = ts[j]
    if best == INF:
        _refuse_all_nan(op, [op.fn(ts[j], mass(above[j])) for j in candidates])
    return IntegralResult(best, True, best_level)


def _outcome(integral, *args):
    """The result bytes of an integral, or the type and message it raises."""
    try:
        return _result_bytes(*integral(*args))
    except (DomainError, HypothesisError) as e:
        return type(e).__name__, str(e)


_CATALOG = [minimum(), product(), join(), plain_sum(), bounded_sum(), lukasiewicz(),
            prob_sum(), marshall_olkin(0.5, 0.25), power_product(0.5),
            power_min(1 / 3, 2.0), power_prod(0.75, 0.5)]
_CANDIDATE_SCALES = {None: [UNIT, UNIT_OPEN, NONNEG, EXTENDED],
                     "one_minus": [UNIT, UNIT_OPEN],        # h maps the scale into [0, 1]
                     "reciprocal": [UNIT, UNIT_OPEN, NONNEG, EXTENDED]}


@st.composite
def candidate_cases(draw):
    """A catalog operator or its one_minus or reciprocal conjugate, on a
    scale it maps into; values with 0.0, -0.0, the top and inf where the
    scale holds them; a generated or possibility measure, its table cached
    or not; a random domain."""
    h = draw(st.sampled_from(sorted(_CANDIDATE_SCALES, key=str)))
    op = draw(st.sampled_from(_CATALOG))
    if h is not None:
        with np.errstate(all="ignore"):    # the conjugate's flag probe meets inf - inf
            op = op_dual(op, {"one_minus": one_minus(), "reciprocal": reciprocal()}[h])
    scale = draw(st.sampled_from(_CANDIDATE_SCALES[h]))
    n = draw(st.integers(1, 6))
    pool = [v for v in (0.0, -0.0, 0.25, 0.5, 1.0, 3.0, INF) if scale.contains(v)]
    value = st.one_of(st.sampled_from(pool),
                      st.floats(0.0, min(scale.upper, 4.0)).filter(scale.contains))
    values = draw(st.lists(value, min_size=n, max_size=n))
    if draw(st.booleans()):
        mu = generate_measure(draw(st.integers(0, 10 ** 6)),
                              draw(st.sampled_from(GENERATOR_FAMILIES)), n)
    else:
        density = st.sampled_from([0.0, 0.25, 0.5, 1.0, INF])
        mu = MonotoneMeasure.possibility(FiniteSpace(n),
                                         draw(st.lists(density, min_size=n, max_size=n)))
    if draw(st.booleans()):
        mu.table()
    domain = draw(st.one_of(st.none(), st.integers(0, (1 << n) - 1)))
    return Fn(values, scale), mu, op, domain


class TestOneLoopMatchesCandidateList:
    """Both integrals against the candidate-list forms they replaced."""

    @settings(max_examples=400, deadline=None)
    @given(case=candidate_cases())
    @example(case=(Fn([-0.0, INF], EXTENDED), MonotoneMeasure.possibility(
        FiniteSpace(2), [INF, 0.5]), op_dual(minimum(), reciprocal()), None))
    @example(case=(Fn([0.5, -0.0], UNIT_OPEN), MonotoneMeasure.possibility(
        FiniteSpace(2), [0.5, 0.0]), op_dual(product(), one_minus()), 0b10))
    @example(case=(Fn([0.25, 3.0], NONNEG), MonotoneMeasure.possibility(
        FiniteSpace(2), [0.0, INF]), marshall_olkin(0.5, 0.25), None))
    def test_bytes_and_errors(self, case):
        f, mu, op, domain = case
        tableless = mu._table is None
        with np.errstate(all="ignore"):    # the conjugates' gates meet inf - inf
            for integral, ref in ((upper_integral_result, ref_candidate_upper),
                                  (lower_integral_result, ref_candidate_lower)):
                assert _outcome(integral, f, mu, op, domain) == _outcome(ref, f, mu, op, domain)
        if tableless and mu.kind == "possibility":
            assert mu._table is None   # read through mu(), no table built


class TestLevelFormsMatchReference:
    """Both integrals against the per-threshold scans they replaced."""

    @settings(max_examples=400, deadline=None)
    @given(case=integral_cases())
    @example(case=(Fn([0.5, 0.5, 0.0]), MonotoneMeasure.possibility(
        FiniteSpace(3), [0.5, 1.0, 0.25]), bounded_sum(), None))
    @example(case=(Fn([1.0, 0.5, 1.0]), MonotoneMeasure.possibility(
        FiniteSpace(3), [0.25, 1.0, 0.5]), join(), 0b011))
    @example(case=(Fn([0.25, INF], EXTENDED), MonotoneMeasure.possibility(
        FiniteSpace(2), [INF, 0.5]), plain_sum(), 0b10))
    @example(case=(Fn([0.25, 0.5], UNIT_OPEN), MonotoneMeasure.possibility(
        FiniteSpace(2), [0.5, 1.0]), join(), 0))
    def test_upper_and_lower_bytes(self, case):
        # the results' bytes, or the errors (lukasiewicz fails its declared
        # zero right annihilator on an unbounded scale)
        for integral, ref in ((upper_integral_result, ref_upper_integral_result),
                              (lower_integral_result, ref_lower_integral_result)):
            assert _outcome(integral, *case) == _outcome(ref, *case)


class TestOneDomainCheckPerIntegral:
    """The domain is checked once per integral and level masses are read
    unchecked: from a cached table, or through ``mu()`` without one."""

    @settings(max_examples=300, deadline=None)
    @given(case=integral_cases(), form=st.sampled_from(["as_drawn", "cached", "explicit"]))
    @example(case=(Fn([0.5, INF, 0.25], EXTENDED), MonotoneMeasure.possibility(
        FiniteSpace(3), [0.5, INF, 0.25]), product(), None), form="as_drawn")
    def test_against_reference_on_every_table_form(self, case, form):
        f, mu, op, domain = case
        if form == "cached":
            mu.table()
        elif form == "explicit":
            mu = unchecked(mu.space, mu.table())
        tableless = mu._table is None
        got = [_outcome(integral, f, mu, op, domain)
               for integral in (upper_integral_result, lower_integral_result)]
        if tableless and mu.kind == "possibility":
            assert mu._table is None   # read through mu(), no table built
        assert got == [_outcome(ref, f, mu, op, domain)
                       for ref in (ref_upper_integral_result, ref_lower_integral_result)]

    @pytest.mark.parametrize("cached", [False, True])
    def test_function_longer_than_space_raises_the_same_error(self, cached):
        mu = MonotoneMeasure.possibility(SP2, [0.5, 1.0])
        if cached:
            mu.table()
        # the lower form reads no level set holding the third point of the
        # second function, and is rejected all the same
        for values in ([0.5, 0.2, 0.9], [0.5, 0.2, 0.0]):
            for integral in (upper_integral_result, lower_integral_result,
                             upper_integral_subset_oracle):
                with pytest.raises(DomainError,
                                   match=r"^function of length 3 on a 2-point space$"):
                    integral(Fn(values), mu, minimum())

    @pytest.mark.parametrize("cached", [False, True])
    def test_function_shorter_than_space_is_refused(self, cached):
        # one value on a 3-point space was read as a function on point 0
        # alone: the upper integral gave 0.25; the domain keyword restricts
        mu = MonotoneMeasure.possibility(FiniteSpace(3), [0.25, 0.5, 1.0])
        if cached:
            mu.table()
        for integral in (upper_integral, lower_integral, upper_integral_subset_oracle):
            with pytest.raises(DomainError, match=r"^function of length 1 on a 3-point space$"):
                integral(Fn([0.9]), mu, minimum())
        with pytest.raises(DomainError, match=r"^function of length 2 on a 3-point space$"):
            check_sugeno_identity(Fn([0.9, 0.5]), mu)
        assert upper_integral(Fn([0.9, 0.0, 0.0]), mu, minimum(), domain=0b001) == 0.25

    def test_raw_vector_is_refused(self):
        # an integrand is an Fn: its scale, which a raw vector lacks, is
        # where its values were checked
        mu = MonotoneMeasure.possibility(SP2, [0.5, 1.0])
        routes = (upper_integral_result, lower_integral_result, upper_integral_subset_oracle,
                  upper_integral, lower_integral)
        for values in ([0.5, 0.25], (0.5, 0.25), np.array([0.5, 0.25])):
            for integral in routes:
                with pytest.raises(DomainError, match=r"^an integrand is an Fn, which carries "
                                                      r"its scale; got \w+$"):
                    integral(values, mu, minimum())
            for named in (sugeno_integral, shilkret_integral, check_sugeno_identity):
                with pytest.raises(DomainError, match="^an integrand is an Fn"):
                    named(values, mu)
        # the values are checked where the Fn is built, on its scale
        for values, scale in (([-1.0, 0.5], UNIT), ([2.0, 0.5], UNIT), ([0.5, 1.0], UNIT_OPEN),
                              ([0.5, math.nan], EXTENDED), ([INF, 0.5], NONNEG)):
            with pytest.raises(DomainError, match="lies outside the scale"):
                Fn(values, scale)

    def test_fn_is_read_on_its_own_scale(self):
        # the same values under plain_sum: the closed top 1 adds the
        # candidate 1 + 0, the closed top inf gives inf, and the open end
        # of [0, inf), under an operator with no zero right annihilator,
        # is refused; an equal scale reads the values unchanged
        mu = MonotoneMeasure.possibility(SP2, [0.5, 1.0])
        routes = (upper_integral, upper_integral_subset_oracle)

        def on(scale):
            return [integral(Fn([0.5, 0.25], scale), mu, plain_sum()) for integral in routes]

        assert on(UNIT) == on(ValueScale(1.0, True)) == [1.25, 1.25]
        assert on(EXTENDED) == [INF, INF]
        for integral in routes:
            with pytest.raises(HypothesisError, match="leaves the open end"):
                integral(Fn([0.5, 0.25], NONNEG), mu, plain_sum())
        assert upper_integral_result(Fn([0.5, 0.25], EXTENDED), mu, minimum()) == (0.5, True, 0.5)

    def test_cached_table_is_read_without_calls(self, monkeypatch):
        n = 8
        rng = rng_for(9, "integral-table-reads", n)
        f = sampling.random_fn(rng, n, UNIT)
        measures = [generate_measure(3, "monotonized_random", n),
                    generate_measure(3, "possibility", n)]
        measures[1].table()
        calls = []
        original = MonotoneMeasure.__call__
        monkeypatch.setattr(MonotoneMeasure, "__call__",
                            lambda self, mask: calls.append(mask) or original(self, mask))
        for mu in measures:
            for op in (minimum(), product(), join()):
                upper_integral_result(f, mu, op, 0b10110111)
                lower_integral_result(f, mu, op)
        assert calls == []


class TestWorkedExamples:
    def test_two_point_min(self):
        # candidates 0.2 and 0.5: max(0.2 ^ 0.8, 0.5 ^ 0.3) by hand
        assert upper_integral(F2, MU2, minimum()) == 0.3

    def test_two_point_product(self):
        # max(0.2 * 0.8, 0.5 * 0.3) by hand
        assert upper_integral(F2, MU2, product()) == pytest.approx(0.16)

    def test_two_point_lower_join(self):
        # min over t in {0, 0.2, 0.5} of t v mu({f > t}) = min(0.8, 0.3, 0.5)
        assert lower_integral(F2, MU2, join()) == 0.3

    def test_indicator_identity_product(self):
        for a in (0.25, 0.5, 1.0):
            f = Fn.indicator(2, 0b01, a)
            assert shilkret_integral(f, MU2) == pytest.approx(a * MU2(0b01))
            assert sugeno_integral(f, MU2) == min(a, MU2(0b01))

    def test_indicator_restricted_domain(self):
        f = Fn.indicator(2, 0b11, 0.7)
        assert shilkret_integral(f, MU2, domain=0b01) == pytest.approx(0.7 * 0.3)

    def test_single_jump(self):
        f = Fn.indicator(2, 0b10, 0.9)
        assert upper_integral(f, MU2, product()) == pytest.approx(0.9 * 0.6)

    def test_constant_function(self):
        f = Fn([0.4, 0.4])
        assert sugeno_integral(f, MU2) == min(0.4, 0.8)
        assert lower_integral(f, MU2, join()) == min(0.4, 0.8)

    def test_zero_function(self):
        f = Fn([0.0, 0.0])
        assert lower_integral(f, MU2, join()) == 0.0
        assert sugeno_integral(f, MU2) == 0.0

    def test_empty_domain_convention(self):
        assert upper_integral(F2, MU2, minimum(), domain=0) == 0.0
        assert upper_integral(F2, MU2, product(), domain=0) == 0.0
        # operators without an annihilating zero see the full level sweep
        assert upper_integral(F2, MU2, bounded_sum(), domain=0) == 1.0


class TestAllNanOperator:
    """An operator that is nan at every candidate leaves no extremum: all
    three routes refuse it by name instead of reporting -inf or inf."""

    # the declared zero right annihilator passes its gate (a nan cell never
    # violates), so the open scale's zero tail is skipped, not refused
    OP = from_callable("nan", lambda a, b: math.nan, ["nondecreasing", "zero_right_annihilator"])

    @pytest.mark.parametrize("scale", [UNIT, UNIT_OPEN, EXTENDED])
    @pytest.mark.parametrize("route", [upper_integral_result, lower_integral_result,
                                       upper_integral_subset_oracle])
    def test_refused_by_name(self, route, scale):
        with pytest.raises(DomainError, match="'nan'"):
            route(Fn([0.5, 0.25], scale), MU2, self.OP)

    def test_a_single_value_is_enough(self):
        # nan everywhere except at level 0: the one value is the extremum
        op = from_callable("nan_above_zero", lambda a, b: b if a == 0.0 else math.nan,
                           ["nondecreasing"])
        f = Fn([0.5, 0.25])
        assert upper_integral_result(f, MU2, op) == (0.8, True, 0.0)
        assert lower_integral_result(f, MU2, op) == (0.8, True, 0.0)
        assert upper_integral_subset_oracle(f, MU2, op) == 0.8


class TestOracle:
    def test_worked_instance(self):
        assert upper_integral_subset_oracle(F2, MU2, minimum()) == 0.3

    def test_domain_cap(self):
        # no oracle limit of its own: a 21-point domain runs (2**21 cells)
        mu = MonotoneMeasure.possibility(FiniteSpace(21), [(i % 8 + 1) / 8 for i in range(21)])
        f = Fn([(i * 5 % 21) / 21 for i in range(21)])
        assert upper_integral_subset_oracle(f, mu, minimum()) == upper_integral(f, mu, minimum())

    def test_constant_is_single_term(self):
        f = Fn([0.4, 0.4])
        assert upper_integral_subset_oracle(f, MU2, minimum()) == min(0.4, 0.8)

    def test_min_never_exceeds_domain_measure(self):
        f = Fn([0.0, 0.9])
        val = upper_integral_subset_oracle(f, MU2, minimum())
        assert val <= MU2(0b11)

    @pytest.mark.parametrize("op", [minimum(), product(), lukasiewicz(),
                                    bounded_sum(), marshall_olkin(0.5, 0.5)],
                             ids=lambda o: o.name)
    def test_agreement_seeded(self, op):
        for k in range(60):
            rng = rng_for(97, "oracle-test", k)
            n = 2 + k % 7
            mu = sampling.monotone_measure(31, k, n)
            f = sampling.random_fn(rng, n, UNIT)
            domain = (1 << n) - 1 if k % 2 else rng.randrange(1, 1 << n)
            direct = upper_integral(f, mu, op, domain)
            oracle = upper_integral_subset_oracle(f, mu, op, domain)
            assert direct == oracle

    @settings(max_examples=300, deadline=None)
    @given(case=integral_cases())
    def test_agreement_on_every_scale_and_domain(self, case):
        # open and closed scales and empty domains: both routes refuse an
        # open-end tail that is not exactly 0, and a zero right annihilator
        # that fails its gate, with the same message
        routes = []
        for integral in (upper_integral, upper_integral_subset_oracle):
            try:
                routes.append(repr(integral(*case)))
            except HypothesisError as e:
                routes.append(str(e))
        assert routes[0] == routes[1]

    def test_prob_sum_is_exact_at_the_top(self):
        # 1 + c - c rounded below 1; 1 + c(1 - 1) does not
        mu = MonotoneMeasure.possibility(FiniteSpace(1), [0.844])
        res = upper_integral_result(Fn([1.0]), mu, prob_sum())
        assert res == (1.0, True, 1.0)
        assert upper_integral_subset_oracle(Fn([1.0]), mu, prob_sum()) == 1.0

    def test_open_scale_tail_over_an_empty_domain(self):
        # the empty domain's tail has mass 0, but neither max nor sum
        # annihilates it: the sup is the open end, which no level attains
        mu = MonotoneMeasure.possibility(SP2, [0.5, 1.0])
        for f, op, top in ((Fn([0.25, 0.5], UNIT_OPEN), join(), "1.0"),
                           (Fn([0.25, 0.5], ValueScale(2.0, False)), plain_sum(), "2.0")):
            match = (rf"^operator '{op.name}' leaves the open end of \[0,{top}\) at tail mass "
                     r"0\.0: the upper integral is exact only for tail mass 0 under a declared "
                     r"'zero_right_annihilator'$")
            for route in (upper_integral, upper_integral_subset_oracle):
                with pytest.raises(HypothesisError, match=match):
                    route(f, mu, op, 0)
            assert upper_integral_result(f, mu, minimum(), 0) == (0.0, True, 0.0)

    def test_reads_the_table_not_per_subset_calls(self, monkeypatch):
        n = 10
        rng = rng_for(5, "oracle-table", n)
        f = sampling.random_fn(rng, n, UNIT)
        op = product()
        measures = [MonotoneMeasure.possibility(FiniteSpace(n),
                                                [rng.randrange(0, 65) / 64.0
                                                 for _ in range(n)]),
                    generate_measure(4, "monotonized_random", n)]
        for mu in measures:
            # the value of the former route: one mu() call per nonempty subset
            # (on the possibility measure, without a cached table)
            expect = max([float(op.fn(min(f[i] for i in range(n) if a >> i & 1), mu(a)))
                          for a in range(1, 1 << n)]
                         + [float(op.fn(1.0, mu(0))), float(op.fn(0.0, mu((1 << n) - 1)))])
            assert mu.kind == "explicit" or mu._table is None
            calls = []
            original = MonotoneMeasure.__call__
            monkeypatch.setattr(MonotoneMeasure, "__call__",
                                lambda self, mask: calls.append(mask) or original(self, mask))
            assert upper_integral_subset_oracle(f, mu, op) == expect
            monkeypatch.undo()
            assert len(calls) <= 3, mu.kind   # mu(0) and mu(domain), not 2^n

    def test_small_domain_leaves_the_table_unbuilt(self):
        # a 3-point domain of a 20-point possibility measure folds 3 points,
        # not 2^20 subsets
        n = 20
        rng = rng_for(6, "oracle-small-domain", n)
        mu = MonotoneMeasure.possibility(FiniteSpace(n),
                                         [rng.randrange(0, 65) / 64.0 for _ in range(n)])
        f = sampling.random_fn(rng, n, UNIT)
        domain = (1 << 2) | (1 << 11) | (1 << 19)
        for op in (minimum(), product(), lukasiewicz()):
            oracle = upper_integral_subset_oracle(f, mu, op, domain)
            assert mu._table is None
            assert oracle == upper_integral(f, mu, op, domain)

    def test_rejects_function_larger_than_space(self):
        mu = MonotoneMeasure.possibility(SP2, [0.5, 1.0])
        with pytest.raises(DomainError):
            upper_integral_subset_oracle(Fn([0.5, 0.2, 0.9]), mu, minimum())

    def test_cap(self):
        # the space bounds the oracle: a 21-point domain of a 24-point space
        # runs without the full table, and no 25-point function exists
        mu = MonotoneMeasure.possibility(FiniteSpace(24), [(i % 5 + 1) / 5 for i in range(24)])
        f = Fn([(i * 7 % 24) / 24 for i in range(24)], UNIT)
        domain = (1 << 21) - 1 << 3
        for op in (minimum(), product()):
            assert upper_integral_subset_oracle(f, mu, op, domain) == \
                upper_integral(f, mu, op, domain)
        assert mu._table is None
        with pytest.raises(DomainError):
            Fn([0.5] * 25, UNIT)


class TestExactnessAndMonotonicity:
    def test_candidate_sweep_matches_dense_grid(self):
        ts = np.linspace(0, 1, 2001)
        for k in range(20):
            rng = rng_for(13, "dense", k)
            n = 2 + k % 5
            mu = sampling.monotone_measure(17, k, n)
            f = sampling.random_fn(rng, n, UNIT)
            exact = upper_integral(f, mu, minimum())
            dense = brute_upper(f, mu, minimum(), (1 << n) - 1, ts)
            assert exact >= dense - 1e-12  # dense grid can only undershoot
            assert exact - dense <= 1e-3

    def test_monotone_in_function(self):
        for k in range(30):
            rng = rng_for(19, "mono-f", k)
            n = 2 + k % 5
            mu = sampling.monotone_measure(23, k, n)
            f = sampling.random_fn(rng, n, UNIT)
            g = Fn([min(1.0, v + rng.randrange(0, 17) / 64.0) for v in f.values])
            for op in (minimum(), product()):
                assert upper_integral(f, mu, op) <= upper_integral(g, mu, op) + 1e-15
            assert lower_integral(f, mu, join()) <= lower_integral(g, mu, join()) + 1e-15

    def test_monotone_in_measure(self):
        for k in range(30):
            rng = rng_for(29, "mono-mu", k)
            n = 3
            mu1 = sampling.monotone_measure(37, k, n)
            bump = [min(1.0, v + 0.1) for v in mu1.table()]
            bump[0] = 0.0
            mu2 = MonotoneMeasure.explicit(FiniteSpace(n), bump, rounding=True)
            f = sampling.random_fn(rng, n, UNIT)
            for op in (minimum(), product()):
                assert upper_integral(f, mu1, op) <= upper_integral(f, mu2, op) + 1e-15

    def test_exact_flag_on_closed_scale(self):
        res = upper_integral_result(F2, MU2, bounded_sum())
        assert res.exact

    def test_open_scale_tail_is_exact_or_refused(self):
        mu = MonotoneMeasure.explicit(SP2, [0.0, 0.3, 0.6, 0.8], rounding=True)
        f = Fn([0.5, 0.2], UNIT_OPEN)
        for route in (upper_integral_result, upper_integral_subset_oracle):
            with pytest.raises(HypothesisError, match="^operator 'bounded_sum' leaves the open end"):
                route(f, mu, bounded_sum())
        # an annihilating zero keeps the tail at exactly zero
        assert upper_integral_result(f, mu, minimum()) == (0.3, True, 0.5)

    def test_rejects_undeclared_monotonicity(self):
        from nonadd.operators import from_callable
        bad = from_callable("raw", lambda a, b: a, [])
        with pytest.raises(HypothesisError):
            upper_integral(F2, MU2, bad)


class TestNamedIntegrals:
    def test_named_integrals_match_the_upper_integral(self):
        assert sugeno_integral(F2, MU2) == upper_integral(F2, MU2, minimum())
        assert shilkret_integral(F2, MU2) == upper_integral(F2, MU2, product())
        assert seminormed_integral(F2, MU2, lukasiewicz()) == \
            upper_integral(F2, MU2, lukasiewicz())

    def test_seminormed_requires_semicopula(self):
        with pytest.raises(HypothesisError):
            seminormed_integral(F2, MU2, bounded_sum())


class TestSugenoIdentity:
    def test_worked_instance(self):
        res = check_sugeno_identity(F2, MU2)
        assert res.holds

    def test_constant(self):
        f = Fn([0.4, 0.4])
        assert check_sugeno_identity(f, MU2).holds

    def test_seeded_instances(self):
        for k in range(100):
            rng = rng_for(41, "forms-agree", k)
            n = 2 + k % 8
            mu = sampling.monotone_measure(43, k, n)
            f = sampling.random_fn(rng, n, UNIT)
            assert check_sugeno_identity(f, mu).holds


class TestProfileGridBudget:
    """The profile grid is refused before it is built when its points
    exceed ``core.MAX_CELLS``; the counterexample's grid too."""

    def test_refused_over_the_budget(self, monkeypatch):
        from nonadd import core
        from nonadd.theorems import reproduce_counterexample

        profile = SurvivalProfile(UNIT, knots=[(0.0, 1.0), (1.0, 0.0)])
        # 1e-4 on [0, 1]: np.arange's 10,000 points and the top
        monkeypatch.setattr(core, "MAX_CELLS", 10_001)
        assert profile_integral(profile, minimum()).error_bound < 1e-5
        monkeypatch.setattr(core, "MAX_CELLS", 10_000)
        with pytest.raises(DomainError, match="profile grid enumerates 10,001 cells"):
            profile_integral(profile, minimum())
        with pytest.raises(DomainError, match="profile grid enumerates 10,001 cells"):
            reproduce_counterexample()

    def test_infinite_ratio_is_refused(self):
        profile = SurvivalProfile(EXTENDED, knots=[(0.0, 1.0), (1.0, 0.0)])
        with pytest.raises(DomainError, match="profile grid enumerates"):
            profile_integral(profile, minimum(), 5e-324)


class TestOpenTailGate:
    """The open-end tail is skipped on a zero right annihilator only after
    the declared flag passes its gate, on all three routes that skip it."""

    def test_false_declaration_raises_on_every_route(self):
        bad = from_callable("badmax", lambda a, b: max(a, b),
                            ["nondecreasing", "zero_right_annihilator"], grid_fn=np.maximum)
        mu = MonotoneMeasure.possibility(FiniteSpace(1), [0.5])
        f = Fn([0.5], UNIT_OPEN)
        profile = SurvivalProfile(NONNEG, knots=[(0.0, 0.5), (0.5, 0.0)])
        match = r"^operator 'badmax' fails declared flag 'zero_right_annihilator' on \[0,"
        for route, args in ((upper_integral_result, (f, mu, bad)),
                            (upper_integral_subset_oracle, (f, mu, bad)),
                            (profile_integral, (profile, bad))):
            with pytest.raises(HypothesisError, match=match) as err:
                route(*args)
            assert not err.value.detail.holds
        # undeclared, the flag is not read: the tail is refused, not skipped
        for route in (upper_integral_result, upper_integral_subset_oracle):
            with pytest.raises(HypothesisError, match=r"^operator 'max' leaves the open end"):
                route(f, mu, join())
        # a gate that fails on one scale leaves the level form's others alone
        assert upper_integral_result(Fn([0.5]), mu, bad) == (1.0, True, 1.0)

    def test_catalog_results_are_unchanged(self):
        mu = MonotoneMeasure.possibility(FiniteSpace(1), [0.5])
        f = Fn([0.5], UNIT_OPEN)
        for op in (minimum(), product(), lukasiewicz(), marshall_olkin(0.5, 0.25)):
            assert upper_integral_result(f, mu, op).exact
            assert upper_integral_subset_oracle(f, mu, op) == upper_integral(f, mu, op)
        assert upper_integral_result(f, mu, minimum()) == (0.5, True, 0.5)
        profile = SurvivalProfile(NONNEG, knots=[(0.0, 0.5), (0.5, 0.0)])
        res = profile_integral(profile, minimum(), 1e-3)
        assert res.truncated and res.error_bound < 1e-5
        assert profile_integral(profile, join(), 1e-3).error_bound == INF


@st.composite
def tail_cases(draw):
    """``integral_cases``, in half the draws with the measure lifted to a
    nonzero mass of the empty set (every table entry at least that mass),
    which is the tail mass of an open scale."""
    f, mu, op, domain = draw(integral_cases())
    if draw(st.booleans()):
        empty = draw(st.sampled_from([0.25, 1.0, INF]))
        mu = MonotoneMeasure.explicit(mu.space, np.maximum(mu.table(), empty),
                                      allow_nonzero_empty=True)
    return f, mu, op, domain


class TestOpenTailExactOrRefused:
    """An upper integral is exact or refused: both upper routes raise
    ``HypothesisError`` exactly when the scale is open and its tail is not
    exactly 0, and otherwise give the reference's bytes with ``exact``."""

    @settings(max_examples=300, deadline=None)
    @given(case=tail_cases())
    @example(case=(Fn([0.5, 0.25], UNIT_OPEN), MonotoneMeasure.explicit(
        SP2, [0.25, 0.5, 0.5, 0.5], allow_nonzero_empty=True), minimum(), 0))
    @example(case=(Fn([0.5, 0.25], UNIT), MonotoneMeasure.explicit(
        SP2, [0.25, 0.5, 0.5, 0.5], allow_nonzero_empty=True), join(), None))
    @example(case=(Fn([0.5, 3.0], NONNEG), MonotoneMeasure.possibility(SP2, [0.0, 0.5]),
                   lukasiewicz(), None))
    def test_refused_exactly_when_the_tail_is_not_zero(self, case):
        f, mu, op, domain = case
        try:   # on an open scale every value lies below the top: the tail set is empty
            refused = not f.scale.closed and not _zero_tail(op, f.scale, mu(0))
        except HypothesisError:   # a declared zero right annihilator failing its gate
            refused = True
        want = _outcome(ref_upper_integral_result, *case)
        assert _outcome(upper_integral_result, *case) == want
        try:
            oracle = upper_integral_subset_oracle(*case).hex()
        except HypothesisError as e:
            oracle = type(e).__name__, str(e)
        if refused:
            assert want[0] == "HypothesisError" and oracle == want
        else:
            assert want[1] is True and oracle == want[0]


# ---------------------------------------------------------------------------
# The batch route: each row as the scalar route integrates it, in order
# ---------------------------------------------------------------------------

# nan on some cells: at the level 1/2, or everywhere but the level 1/4, so
# that a row is refused exactly when 1/4 is none of its values on D (a nan
# cell never fails the nondecreasing gate)
_NAN_OPS = [from_callable("nan_at_half", lambda a, b: math.nan if a == 0.5 else min(a, b),
                          ["nondecreasing", "zero_right_annihilator"]),
            from_callable("only_quarter", lambda a, b: min(a, b) if a == 0.25 else math.nan,
                          ["nondecreasing", "zero_right_annihilator"])]


@st.composite
def batch_cases(draw):
    """Rows on one scale (UNIT, UNIT_OPEN, NONNEG or EXTENDED) with ties,
    0.0, -0.0, the top and inf where the scale holds them; a generated or
    possibility measure, its table cached or not, in some draws lifted to a
    nonzero empty set (an open scale's tail mass); a catalog operator or one
    that is nan on some cells."""
    scale = draw(st.sampled_from([UNIT, UNIT_OPEN, NONNEG, EXTENDED]))
    n = draw(st.integers(1, 6))
    pool = [v for v in (0.0, -0.0, 0.25, 0.5, 1.0, 3.0, INF) if scale.contains(v)]
    value = st.one_of(st.sampled_from(pool),
                      st.floats(0.0, min(scale.upper, 4.0)).filter(scale.contains))
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=8))
    if draw(st.booleans()):
        mu = generate_measure(draw(st.integers(0, 10 ** 6)),
                              draw(st.sampled_from(GENERATOR_FAMILIES)), n)
    else:
        density = st.sampled_from([0.0, 0.25, 0.5, 1.0, INF])
        mu = MonotoneMeasure.possibility(FiniteSpace(n),
                                         draw(st.lists(density, min_size=n, max_size=n)))
    if draw(st.integers(0, 4)) == 0:
        mu = MonotoneMeasure.explicit(mu.space, np.maximum(mu.table(), 0.25),
                                      allow_nonzero_empty=True)
    elif draw(st.booleans()):
        mu.table()
    op = draw(st.sampled_from(_CATALOG + _NAN_OPS))
    return rows, scale, mu, op


def scalar_rows(rows, scale, mu, op):
    """The scalar route over the rows, up to and including its first refusal."""
    out = []
    for row in rows:
        out.append(_outcome(upper_integral_result, Fn(row, scale), mu, op))
        if len(out[-1]) == 2:
            break
    return out


def batch_rows(rows, scale, mu, op):
    """The batch route's rows, up to and including its refusal."""
    out = []
    try:
        for res in _upper_rows(np.array(rows, dtype=float), scale, mu, op):
            out.append(_result_bytes(*res))
    except (DomainError, HypothesisError) as e:
        out.append((type(e).__name__, str(e)))
    return out


class TestBatchMatchesScalar:
    """``_upper_rows`` gives each row the scalar route's value, ``exact`` and
    level bytes, and raises the open-tail and all-nan refusals at the row
    where the scalar loop raises them."""

    @settings(max_examples=500, deadline=None)
    @given(case=batch_cases())
    @example(case=([[-0.0, 0.5, 0.0], [0.5, 0.5, -0.0]], UNIT,
                   MonotoneMeasure.possibility(FiniteSpace(3), [0.5, 0.5, 0.0]), minimum()))
    @example(case=([[0.5, 0.75], [0.25, 0.5], [0.5, 0.5]], UNIT, MU2, _NAN_OPS[1]))
    @example(case=([[INF, 1.0, INF], [0.0, 0.0, 0.0]], EXTENDED,
                   MonotoneMeasure.possibility(FiniteSpace(3), [INF, 0.0, 0.5]), product()))
    @example(case=([[0.5, 0.25]], UNIT_OPEN, MonotoneMeasure.explicit(
        SP2, [0.25, 0.5, 0.5, 0.5], allow_nonzero_empty=True), minimum()))
    def test_rows_and_refusals(self, case):
        tableless = case[2]._table is None
        assert batch_rows(*case) == scalar_rows(*case)
        if tableless and case[2].kind == "possibility":
            assert case[2]._table is None      # read from the block folds

    def test_a_row_is_refused_when_it_is_reached(self):
        rows = np.array([[0.25, 0.5], [0.5, 0.75], [0.25, 0.0]])
        results = _upper_rows(rows, UNIT, MU2, _NAN_OPS[1])
        assert next(results) == upper_integral_result(Fn(rows[0]), MU2, _NAN_OPS[1])
        with pytest.raises(DomainError, match="'only_quarter' is nan at every candidate"):
            next(results)

    def test_first_entry_outside_the_scale_is_named(self):
        rows = np.array([[0.5, 0.25], [0.5, 1.5], [2.0, 0.5]])
        with pytest.raises(DomainError) as err:
            next(_upper_rows(rows, UNIT, MU2, minimum()))
        with pytest.raises(DomainError) as want:
            Fn([0.5, 1.5], UNIT)
        assert str(err.value) == str(want.value)

    def test_rows_are_read_in_bounded_chunks(self):
        # 5,000 rows of 6 points, 8 candidates each: 40,000 cells in two chunks
        seen = []
        op = from_callable("counted_min", min, ["nondecreasing"],
                           grid_fn=lambda a, b: seen.append(a.size) or np.minimum(a, b))
        rows = np.random.default_rng(5).integers(0, 9, (5000, 6)) / 8.0
        mu = generate_measure(5, "distortion_concave", 6)
        got = [r.value for r in _upper_rows(rows, UNIT, mu, op)]
        # after the nondecreasing gate's own grid call
        assert seen[1:] == [_CHUNK_CELLS // 8 * 8, 40000 - _CHUNK_CELLS // 8 * 8]
        assert got == [upper_integral(Fn(row), mu, op) for row in rows.tolist()]


class TestAbsPower:
    def test_signed_vector_adapter(self):
        f = abs_power([-2.0, 1.5, 0.0], 2.0)
        assert f.values == (4.0, 2.25, 0.0)
        with pytest.raises(DomainError):
            abs_power([1.0], 0.0)


class TestProfileIntegral:
    def test_counterexample_values(self):
        SL = lukasiewicz()
        combined = SurvivalProfile(UNIT, fn=lambda t: np.maximum(1 - t * t, 0.0))
        factor = SurvivalProfile(UNIT, fn=lambda t: np.maximum(1 - 4 * t * t, 0.0))
        hi = profile_integral(combined, SL, 1e-4)
        lo = profile_integral(factor, SL, 1e-4)
        assert hi.value == pytest.approx(0.25, abs=1e-3)
        assert lo.value == pytest.approx(0.0625, abs=1e-3)
        assert hi.error_bound <= 1e-3 and lo.error_bound <= 1e-3

    def test_zero_profile(self):
        prof = SurvivalProfile(UNIT, fn=lambda t: np.zeros_like(np.asarray(t, float)))
        res = profile_integral(prof, product(), 1e-3)
        assert res.value == 0.0

    def test_envelope_bound_is_sound(self):
        prof = SurvivalProfile(UNIT, fn=lambda t: np.maximum(1 - t, 0.0))
        coarse = profile_integral(prof, product(), 1e-2)
        fine = profile_integral(prof, product(), 1e-5)
        # true sup of t(1-t) is 0.25; every certified interval must cover it
        assert coarse.value <= 0.25 <= coarse.value + coarse.error_bound
        assert fine.value == pytest.approx(0.25, abs=1e-6)

    def test_tabulated_profile(self):
        prof = SurvivalProfile(UNIT, knots=[(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)])
        res = profile_integral(prof, minimum(), 1e-3)
        assert res.value == pytest.approx(0.5, abs=1e-2)


def ref_h_duality(f, mu, op, h, tol=1e-12):
    """``check_h_duality`` with h applied to one point at a time."""
    scale = f.scale
    h.validate_on(scale)
    hf = Fn([float(h.forward(v)) for v in f.values], scale)
    left = float(h.inverse(lower_integral(hf, mu, op)))
    right = upper_integral(f, dual_measure(mu, h), op_dual(op, h))
    gap = abs(_rel_gap(left, right)) / max(1.0, abs(left), abs(right))
    if gap <= tol:
        return CheckResult(True, margin=gap)
    return CheckResult(False, gap, {"lower_route": left, "upper_route": right,
                                    "values": list(f.values)})


class TestHDuality:
    @pytest.mark.parametrize("h, scale", [(one_minus(), UNIT), (reciprocal(), EXTENDED)])
    def test_vector_map_is_the_per_point_map(self, h, scale):
        for k in range(40):
            rng = rng_for(18, "dual-vector", h.name, k)
            n = 1 + k % 6
            mu = sampling.monotone_measure(19, k, n)
            f = sampling.random_fn(rng, n, scale, zero_rate=0.3,
                                   inf_rate=0.2 if scale is EXTENDED else 0.0)
            f = Fn([-0.0 if v == 0.0 and i % 2 else v for i, v in enumerate(f.values)], scale)
            for op in (join(), minimum(), plain_sum(), product()):
                got = check_h_duality(f, mu, op, h)
                want = ref_h_duality(f, mu, op, h)
                assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
                assert repr(got.margin) == repr(want.margin)

    def test_one_minus_seeded(self):
        h = one_minus()
        for k in range(50):
            rng = rng_for(47, "dual", k)
            n = 2 + k % 6
            mu = sampling.monotone_measure(53, k, n)
            f = sampling.random_fn(rng, n, UNIT)
            op = (join(), minimum(), bounded_sum())[k % 3]
            assert check_h_duality(f, mu, op, h).holds

    def test_reciprocal_with_planted_zeros(self):
        h = reciprocal()
        for k in range(30):
            rng = rng_for(59, "dual-inf", k)
            n = 2 + k % 5
            mu = sampling.monotone_measure(61, k, n)
            f = sampling.random_fn(rng, n, EXTENDED, zero_rate=0.5, inf_rate=0.1)
            assert check_h_duality(f, mu, plain_sum(), h).holds

    def test_constant_function(self):
        f = Fn([0.4, 0.4])
        assert check_h_duality(f, MU2, join(), one_minus()).holds

    def test_open_scale_rejected(self):
        f = Fn([0.5, 0.2], UNIT_OPEN)
        with pytest.raises(DomainError):
            check_h_duality(f, MU2, join(), one_minus())
