"""Theorem verifiers: worked instances, hypothesis gates, both directions,
and the exact counterexample reproduction."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nonadd.core import (
    _CHUNK_CELLS,
    _TOL,
    EXTENDED,
    FiniteSpace,
    Fn,
    INF,
    NONNEG,
    UNIT,
    UNIT_OPEN,
    ValueScale,
    _level_sets,
    _rel_gap,
    expand_masks,
    rng_for,
    subset_infima,
)
from nonadd.integrals import (
    lower_integral,
    shilkret_integral,
    sugeno_integral,
    upper_integral,
    upper_integral_subset_oracle,
)
from nonadd.measures import (
    GENERATOR_FAMILIES,
    MonotoneMeasure,
    check_measure_property,
    dual_measure,
    generate_measure,
)
from nonadd.operators import (
    bounded_sum,
    from_callable,
    join,
    lukasiewicz,
    marshall_olkin,
    minimum,
    one_minus,
    phi_identity,
    phi_power,
    plain_sum,
    power_min,
    power_prod,
    power_product,
    prob_sum,
    product,
    reciprocal,
)
from nonadd.conditions import check_condition
from nonadd.results import CheckResult, DomainError, HypothesisError
from nonadd.theorems import (
    MHOperators,
    _ANNIHILATING,
    _apply_phi,
    _chain_condition_lower,
    _chain_condition_upper,
    _gate_mh,
    _max_product_indicator_sweep,
    _mh_sides,
    _necessity,
    _random_pair_probe,
    _sum_split,
    _verdict,
    realized_measure_values,
    reproduce_counterexample,
    verify_comonotone_subadditive,
    verify_dual_minkowski,
    verify_lower_mh,
    verify_seminorm_minkowski,
    verify_shilkret_maxitive,
    verify_subadditive_minkowski,
    verify_sugeno_subadditive,
    verify_sugeno_subadditive_boundary,
    verify_upper_mh,
)
from nonadd import sampling
from test_measures import unchecked

MIN, PROD, JOIN, SUM = minimum(), product(), join(), plain_sum()
SL, BSUM, PSUM = lukasiewicz(), bounded_sum(), prob_sum()
ID3 = (phi_identity(),) * 3


class TestCounterexample:
    def test_exact_values(self):
        rep = reproduce_counterexample()
        assert rep.lhs == 0.25
        assert rep.rhs_each == 0.0625
        assert rep.rhs_sum == 0.125
        assert rep.violated
        # the closed forms are the dyadic rationals 1/4, 1/16, 1/8 exactly
        assert rep.lhs == 1.0 / 4.0
        assert rep.rhs_each == 1.0 / 16.0
        assert rep.rhs_sum == 1.0 / 8.0

    def test_grid_route_within_tolerance(self):
        rep = reproduce_counterexample(1e-4)
        assert rep.lhs_grid.value == pytest.approx(0.25, abs=1e-3)
        assert rep.rhs_each_grid.value == pytest.approx(0.0625, abs=1e-3)
        assert rep.lhs_grid.error_bound <= 1e-3

    def test_premise_holds_and_power_condition_fails(self):
        rep = reproduce_counterexample()
        assert rep.premise.holds
        assert not rep.power_condition.holds


class TestUpperMH:
    def test_product_power_instance_holds(self):
        ops = MHOperators(PSUM, PSUM, (PROD,) * 3,
                          (phi_power(1.0), phi_power(2.0), phi_power(2.0)))
        for k in range(25):
            rng = rng_for(7, "upper-ineq", k)
            n = 2 + k % 5
            mu = sampling.monotone_measure(11, k, n)
            f, g = sampling.comonotone_pair(rng, n, UNIT)
            res = verify_upper_mh(ops, mu, f, g)
            assert res.holds and res.status == "checked"

    def test_condition_failed_status(self):
        ops = MHOperators(PSUM, PSUM, (PROD,) * 3,
                          (phi_power(2.0), phi_power(1.0), phi_power(2.0)))
        mu = MonotoneMeasure.possibility(FiniteSpace(2), [0.25, 0.75])
        f, g = Fn([0.5, 1.0]), Fn([0.25, 0.75])
        res = verify_upper_mh(ops, mu, f, g)
        assert res.status == "condition-failed" and not res.holds

    def test_necessity_direction_confirms_violations(self):
        ops = MHOperators(PSUM, PSUM, (PROD,) * 3,
                          (phi_power(2.0), phi_power(1.0), phi_power(2.0)))
        mu = MonotoneMeasure.possibility(FiniteSpace(2), [0.25, 0.75])
        f, g = Fn([0.5, 1.0]), Fn([0.25, 0.75])
        res = verify_upper_mh(ops, mu, f, g, direction="necessity")
        assert res.holds  # every condition failure produced an inequality failure
        assert res.detail["necessity_instances"] > 0
        assert res.detail["necessity_violations_confirmed"] == \
            res.detail["necessity_instances"]

    def test_indicator_equality_case(self):
        ops = MHOperators(MIN, MIN, (MIN,) * 3, ID3)
        mu = MonotoneMeasure.possibility(FiniteSpace(3), [0.25, 0.5, 1.0])
        f = Fn.indicator(3, 0b011, 0.5)
        g = Fn.indicator(3, 0b011, 0.75)
        res = verify_upper_mh(ops, mu, f, g)
        assert res.holds

    def test_association_gate(self):
        ops = MHOperators(SUM, SUM, (MIN,) * 3, ID3)
        mu = MonotoneMeasure.possibility(FiniteSpace(2), [0.5, 1.0])
        f, g = Fn([1.0, 0.0]), Fn([0.0, 1.0])  # not comonotone, not sum-associated
        with pytest.raises(HypothesisError):
            verify_upper_mh(ops, mu, f, g)

    def test_flag_gate(self):
        # a combiner without declared monotonicity is rejected outright
        from nonadd.operators import from_callable
        raw = from_callable("raw", lambda a, b: a, [])
        ops = MHOperators(MIN, raw, (MIN,) * 3, ID3)
        mu = MonotoneMeasure.possibility(FiniteSpace(2), [0.5, 1.0])
        with pytest.raises(HypothesisError):
            verify_upper_mh(ops, mu, Fn([0.5, 0.5]), Fn([0.25, 1.0]))


class TestSeminormMinkowski:
    def test_min_join_power_one(self):
        mu = MonotoneMeasure.possibility(FiniteSpace(3), [0.25, 0.5, 1.0])
        for k in range(10):
            rng = rng_for(13, "semi", k)
            f, g = sampling.comonotone_pair(rng, 3, UNIT)
            res = verify_seminorm_minkowski(MIN, JOIN, 1.0, mu, f, g)
            assert res.holds

    def test_counterexample_tuple_condition_fails(self):
        # heights 0.5 against the realized measure value 0.75 reproduce the
        # refuted tuple's violating scalar triple on a finite space
        mu = MonotoneMeasure.possibility(FiniteSpace(2), [0.75, 1.0])
        f, g = Fn([0.5, 0.5]), Fn([0.5, 0.5])
        res = verify_seminorm_minkowski(SL, BSUM, 1.0, mu, f, g)
        assert res.status == "condition-failed"
        w = res.witness
        assert max(min(w["a"] + w["b"], 1.0) + w["c"] - 1.0, 0.0) > \
            min(max(w["a"] + w["c"] - 1, 0.0) + max(w["b"] + w["c"] - 1, 0.0), 1.0)

    def test_same_function_reduces_to_monotonicity(self):
        mu = MonotoneMeasure.possibility(FiniteSpace(2), [0.5, 1.0])
        f = Fn([0.25, 0.5])
        res = verify_seminorm_minkowski(MIN, JOIN, 2.0, mu, f, f)
        assert res.holds

    def test_normalization_readings(self):
        small = MonotoneMeasure.possibility(FiniteSpace(2), [0.25, 0.5])
        f = Fn([0.25, 0.5])
        with pytest.raises(HypothesisError):
            verify_seminorm_minkowski(MIN, JOIN, 1.0, small, f, f,
                                      normalization="total_one")
        res = verify_seminorm_minkowski(MIN, JOIN, 1.0, small, f, f,
                                        normalization="values_unit")
        assert res.holds
        with pytest.raises(DomainError):
            verify_seminorm_minkowski(MIN, JOIN, 1.0, small, f, f,
                                      normalization="bogus")


class TestComonotoneSubadditive:
    @pytest.mark.parametrize("op", [MIN, PROD], ids=lambda o: o.name)
    def test_classical_operators_subadditive(self, op):
        for k in range(20):
            rng = rng_for(17, "como-sub", k)
            n = 2 + k % 5
            mu = sampling.monotone_measure(19, k, n)
            f, g = sampling.comonotone_pair(rng, n, UNIT, max_sum=1.0)
            res = verify_comonotone_subadditive(op, mu, f, g)
            assert res.holds

    def test_nilpotent_operator_fails_condition_and_instance(self):
        mu = MonotoneMeasure.possibility(FiniteSpace(2), [0.4, 0.8])
        f = Fn([0.5, 0.5])
        g = Fn([0.5, 0.5])
        res = verify_comonotone_subadditive(SL, mu, f, g)
        assert res.status == "condition-failed"
        # and the instance itself breaks subadditivity: by hand,
        # SL-integral of the constant 1 is mu(X), of the constant 0.5 is
        # (mu(X) - 0.5)+, and 0.8 > 2 * 0.3
        lhs = upper_integral(Fn([1.0, 1.0]), mu, SL)
        rhs = 2 * upper_integral(f, mu, SL)
        assert lhs == pytest.approx(0.8) and rhs == pytest.approx(0.6)
        assert lhs > rhs

    def test_sum_leaving_scale_rejected(self):
        mu = MonotoneMeasure.possibility(FiniteSpace(2), [0.4, 0.8])
        f = Fn([0.75, 0.75])
        with pytest.raises(HypothesisError):
            verify_comonotone_subadditive(MIN, mu, f, f)

    def test_non_comonotone_rejected(self):
        mu = MonotoneMeasure.possibility(FiniteSpace(2), [0.4, 0.8])
        with pytest.raises(HypothesisError):
            verify_comonotone_subadditive(MIN, mu, Fn([0.5, 0.0]), Fn([0.0, 0.5]))

    def test_dual_condition_reporting(self):
        mu = MonotoneMeasure.possibility(FiniteSpace(2), [0.4, 0.8])
        f, g = Fn([0.25, 0.5]), Fn([0.125, 0.25])
        res = verify_comonotone_subadditive(MIN, mu, f, g)
        assert "condition_grid" in res.detail and "condition_realized" in res.detail
        assert res.detail["condition_realized"].mode == "explicit"


class TestSubadditiveMinkowski:
    def test_min_corollary(self):
        for k in range(15):
            rng = rng_for(23, "minksub-min", k)
            n = 2 + k % 5
            mu = sampling.subadditive_measure(29, k, n)
            f = sampling.signed_vector(rng, n)
            g = sampling.signed_vector(rng, n)
            res = verify_subadditive_minkowski(MIN, 1.0, 1.0, 1.0, mu, f, g)
            assert res.holds

    def test_product_corollary_power_two(self):
        for k in range(15):
            rng = rng_for(31, "minksub-prod", k)
            n = 2 + k % 5
            mu = sampling.subadditive_measure(37, k, n)
            f = sampling.signed_vector(rng, n)
            g = sampling.signed_vector(rng, n)
            res = verify_subadditive_minkowski(PROD, 1.0, 1.0, 2.0, mu, f, g)
            assert res.holds

    def test_modified_product_exponent_relation(self):
        # (ab)^q with p = 1/(1-q) turns the root exponent into 1/p exactly
        q = 0.5
        p = 1.0 / (1.0 - q)
        assert 1.0 / (p * q + 1.0) == pytest.approx(1.0 / p)
        op = power_product(q)
        for k in range(15):
            rng = rng_for(41, "minksub-q", k)
            n = 2 + k % 4
            mu = sampling.subadditive_measure(43, k, n)
            f = [rng.randrange(-8, 9) / 8 for _ in range(n)]   # the 1/8 grid in [-1, 1]
            g = [rng.randrange(-8, 9) / 8 for _ in range(n)]
            res = verify_subadditive_minkowski(op, q, 1.0, p, mu, f, g)
            assert res.holds

    def test_requires_subadditive_measure(self):
        mu, _ = sampling.non_subadditive_measure(3, 4)
        with pytest.raises(HypothesisError):
            verify_subadditive_minkowski(MIN, 1.0, 1.0, 1.0, mu, [0.5] * 4, [0.25] * 4)

    def test_noncompliant_operator_reports_condition(self):
        res = verify_subadditive_minkowski(MIN, 0.5, 1.0, 0.5,
                                           sampling.subadditive_measure(1, 0, 3),
                                           [0.5, 0.25, 0.0], [0.25, 0.5, 0.125])
        assert res.status == "condition-failed"


@pytest.mark.parametrize("verify", [verify_shilkret_maxitive, verify_sugeno_subadditive])
def test_no_pairs_refused(verify):
    # forward evidence over no random pair would hold having sampled nothing
    mu = generate_measure(0, "possibility", 3)
    with pytest.raises(DomainError, match="trials must be at least 1, got 0"):
        verify(mu, trials=0)


class TestShilkretMaxitive:
    def test_possibility_forward(self):
        for seed in range(20):
            mu = generate_measure(seed, "possibility", 5)
            res = verify_shilkret_maxitive(mu, trials=6, seed=seed)
            assert res.holds
            assert res.detail["maxitive"].holds

    def test_backward_witness_violates_strictly(self):
        for seed in range(20):
            mu = generate_measure(seed, "non_maxitive", 5)
            res = verify_shilkret_maxitive(mu, trials=6, seed=seed)
            assert res.holds
            assert res.margin > 1e-9
            # the witness functions replay the violation through the integrals
            lam = res.detail["witness_pair"]["lambda"]
            a_set = res.detail["witness_pair"]["set_a"]
            b_set = res.detail["witness_pair"]["set_b"]
            f = Fn([1.0 if a_set >> i & 1 else (lam if b_set >> i & 1 else 0.0)
                    for i in range(5)], NONNEG)
            g = Fn([(1.0 - lam) if b_set >> i & 1 else 0.0 for i in range(5)], NONNEG)
            s = Fn([x + y for x, y in zip(f.values, g.values)], NONNEG)
            assert shilkret_integral(s, mu) > \
                shilkret_integral(f, mu) + shilkret_integral(g, mu)

    def test_additive_two_atoms_not_maxitive(self):
        mu = MonotoneMeasure.explicit(FiniteSpace(2), [0.0, 0.5, 0.5, 1.0],
                                      rounding=True)
        res = verify_shilkret_maxitive(mu, trials=4, seed=0)
        assert res.holds and not res.detail["maxitive"].holds

    def test_failure_on_the_all_pairs_form_only_is_a_hypothesis_error(self):
        # no disjoint pair violates maxitivity on this table, which is not
        # monotone: only the derived all-pairs form fails, and the backward
        # construction has no disjoint violating pair to start from
        mu = unchecked(FiniteSpace(3), [0, 1, .1, .1, 1, 1, .1, 1])
        maxres = check_measure_property(mu, "maxitive")
        assert not maxres.holds
        assert (maxres.witness["set_a"], maxres.witness["set_b"]) == (3, 6)
        assert maxres.witness["disjoint"] is False
        with pytest.raises(HypothesisError, match="disjoint pair") as err:
            verify_shilkret_maxitive(mu)
        assert err.value.detail.to_dict() == maxres.to_dict()


def ref_max_product_sweep(mu, tol):
    """The row loop the max-product indicator sweep ran before the pair
    kernel: the first violating row a, then that row's argmax."""
    tab = mu.table()
    idx = np.arange(tab.shape[0], dtype=np.int64)
    for a in range(tab.shape[0]):
        lhs = np.maximum(tab[np.bitwise_or(idx, a)], 2.0 * tab[np.bitwise_and(idx, a)])
        with np.errstate(invalid="ignore"):
            gap = lhs - (tab[a] + tab[idx])
        gap = np.where(np.isnan(gap), 0.0, gap)
        if (gap > tol).any():
            b = int(idx[np.argmax(gap)])
            return {"set_a": a, "set_b": b, "lhs": float(lhs[b]),
                    "rhs": float(tab[a] + tab[b])}
    return None


def ref_subadditive_sweep(mu, tol):
    """The row loop of the max-min backward sweep before the pair kernel:
    the first violating row a at height mu(A|B), then that row's argmax."""
    tab = mu.table()
    idx = np.arange(tab.shape[0], dtype=np.int64)
    for a in range(tab.shape[0]):
        height = tab[np.bitwise_or(idx, a)]
        with np.errstate(invalid="ignore"):
            gap = height - (tab[a] + tab[idx])
        gap = np.where(np.isnan(gap) | np.isinf(height), -INF, gap)
        if (gap > tol).any():
            b = int(idx[np.argmax(gap)])
            return {"set_a": a, "set_b": b, "mu_union": float(tab[a | b]),
                    "mu_a": float(tab[a]), "mu_b": float(tab[b])}
    return None


def max_product_excess(tab, a, b):
    """max(mu(A|B), 2 mu(A&B)) - (mu(A) + mu(B)), nan read as 0."""
    with np.errstate(invalid="ignore"):
        m = np.maximum(tab[a | b], 2.0 * tab[a & b]) - (tab[a] + tab[b])
    return np.where(np.isnan(m), 0.0, m)


def subadditive_excess(tab, a, b):
    """mu(A|B) - (mu(A) + mu(B)), -inf for nan or an infinite height."""
    with np.errstate(invalid="ignore"):
        m = tab[a | b] - (tab[a] + tab[b])
    return np.where(np.isnan(m) | np.isinf(tab[a | b]), -INF, m)


SWEEP_VALUES = [0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 3.0, INF]


@st.composite
def sweep_measures(draw, max_n=8, kinds=("family", "dual", "raw", "inf")):
    """Measures on at most ``max_n`` points: the generator families and their
    reciprocal duals, :func:`unchecked` tables (mostly non-monotone) and
    monotone tables holding inf."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, max_n))
    if kind in ("family", "dual"):
        mu = generate_measure(draw(st.integers(0, 10 ** 6)),
                              draw(st.sampled_from(GENERATOR_FAMILIES)), n)
        return dual_measure(mu, reciprocal()) if kind == "dual" else mu
    tab = draw(st.lists(st.sampled_from(SWEEP_VALUES), min_size=1 << n, max_size=1 << n))
    tab[0] = 0.0
    if kind == "raw":
        return unchecked(FiniteSpace(n), tab)
    for mask in range(1, 1 << n):
        tab[mask] = max([tab[mask]] + [tab[mask & ~(1 << b)]
                                       for b in range(n) if mask >> b & 1])
    tab[-1] = INF
    return MonotoneMeasure.explicit(FiniteSpace(n), tab, rounding=draw(st.booleans()))


def check_against_reference(mu, tol, got, ref, excess):
    """Equal verdicts; the witness is the largest violation with the
    smallest key (a << n) | b, replays by direct evaluation, and equals the
    reference's wherever the reference's first violating row holds the
    largest violation."""
    assert (got is None) == (ref is None)
    if got is None:
        return
    tab, n = mu.table(), mu.space.n
    idx = np.arange(1 << n)
    grid = excess(tab, idx[:, None], idx[None, :])
    top = grid.max()
    a, b = got["set_a"], got["set_b"]
    assert excess(tab, a, b) == top > tol
    assert (a << n) | b == min((int(x) << n) | int(y) for x, y in zip(*np.nonzero(grid == top)))
    if grid[ref["set_a"]].max() == top:
        assert got == ref


class TestIndicatorSweeps:
    """The max-product indicator sweep and the subadditivity check against
    the row loops of the indicator sweeps."""

    @settings(max_examples=150, deadline=None)
    @given(mu=sweep_measures())
    @example(mu=MonotoneMeasure.explicit(FiniteSpace(2), [0, 0.5, 0.25, 0.5 - 1e-13],
                                         rounding=True))
    @example(mu=unchecked(FiniteSpace(2), [0, 1, 3, 2]))
    def test_max_product_sweep_matches_row_loop(self, mu):
        tol = 1e-12
        got = _max_product_indicator_sweep(mu)
        ref = ref_max_product_sweep(mu, tol)
        check_against_reference(mu, tol, got, ref, max_product_excess)
        if got is not None:
            tab, a, b = mu.table(), got["set_a"], got["set_b"]
            assert got["lhs"] == max(tab[a | b], 2.0 * tab[a & b])
            assert got["rhs"] == tab[a] + tab[b]

    @settings(max_examples=150, deadline=None)
    @given(mu=sweep_measures(kinds=("family", "dual", "raw")))
    @example(mu=unchecked(FiniteSpace(2), [0, 1, 1, 3]))
    @example(mu=unchecked(FiniteSpace(2), [0, 1, 0.5, 0.25], rounding=True))
    def test_subadditive_check_is_the_indicator_sweep(self, mu):
        # on a finite table the subadditivity check decides the two-level
        # indicator instances of the max-min equivalence: verdict and witness
        # are those of the all-pairs row loop at height mu(A|B)
        assume(np.isfinite(mu.table()).all())
        tol = mu.tolerance()
        res = check_measure_property(mu, "subadditive")
        got = None if res.holds else \
            {k: res.witness[k] for k in ("set_a", "set_b", "mu_union", "mu_a", "mu_b")}
        check_against_reference(mu, tol, got, ref_subadditive_sweep(mu, tol), subadditive_excess)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_max_product_sweep_never_fails_a_possibility_measure(self, data, n):
        # why verify_shilkret_maxitive decides a possibility measure by its kind
        level = st.integers(0, 64).map(lambda k: k / 64) | st.sampled_from([0.0, INF])
        density = data.draw(st.lists(level, min_size=n, max_size=n))
        mu = MonotoneMeasure.possibility(FiniteSpace(n), density)
        assert _max_product_indicator_sweep(mu) is None

    def test_nan_margin_on_a_finite_table_reads_as_zero(self):
        # at (3, 3) both 2 mu({0, 1}) and mu({0, 1}) + mu({0, 1}) overflow to
        # inf, so the margin is nan; (1, 2) violates by 1e308 all the same.
        # The overflow is the intended extended value: the kernel raises no
        # RuntimeWarning, which the suite would turn into an error
        mu = unchecked(FiniteSpace(2), [0.0, 1.0, 1.0, 1e308])
        got = _max_product_indicator_sweep(mu)
        assert (got["set_a"], got["set_b"]) == (1, 2)
        with np.errstate(over="ignore"):
            assert got == ref_max_product_sweep(mu, 1e-12)

    def test_maxitive_measure_failing_the_sweep(self):
        # maxitive, but not monotone: (A, B) = ({0}, {0, 1}) gives
        # max(mu(A|B), 2 mu(A&B)) = 2 > mu(A) + mu(B) = 1, the largest excess
        mu = unchecked(FiniteSpace(2), [0, 1, 0.5, 0])
        res = verify_shilkret_maxitive(mu)
        assert res.detail["maxitive"].holds
        assert not res.holds and res.detail["stage"] == "indicator sweep"
        assert (res.witness["set_a"], res.witness["set_b"]) == (1, 3)


class TestSugenoSubadditive:
    def test_realized_values_cap(self):
        # no limit of its own: the 2**17 submasks of a 17-point domain run
        mu = MonotoneMeasure.possibility(FiniteSpace(17), [0.5] * 16 + [0.75])
        assert realized_measure_values(mu, (1 << 17) - 1) == [0.0, 0.5, 0.75]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5))
    @example(data=None, n=2)
    @example(data=None, n=3)
    def test_realized_values_match_the_set_line(self, data, n):
        # against the set-based reference, compared by hex so that the sign
        # of a zero counts
        if data is None:
            tab = [-0.0, 0.0, INF, 0.0] if n == 2 else [0.0, -0.0, 0.5, -0.0, INF, 0, 0, 0]
            domain = (1 << n) - 1
        else:
            value = st.sampled_from([-0.0, 0.0, 0.25, 0.5, INF]) | st.floats(0.0, 2.0)
            tab = data.draw(st.lists(value, min_size=1 << n, max_size=1 << n))
            domain = data.draw(st.integers(0, (1 << n) - 1))
        mu = unchecked(FiniteSpace(n), tab)
        bits = [i for i in range(n) if domain >> i & 1]
        want = sorted(set(float(v) for v in mu.table()[expand_masks(bits)]))
        got = realized_measure_values(mu, domain)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @settings(max_examples=80, deadline=None)
    @given(mu=sweep_measures(max_n=4, kinds=("family", "dual")))
    def test_check_verdict_is_the_integral_verdict(self, mu):
        # the two-level reduction through the max-min integral itself, on
        # every pair of a finite monotone measure
        tab, n, tol = mu.table(), mu.space.n, mu.tolerance()
        assume(np.isfinite(tab).all())
        violated = False
        for a_set, b_set in itertools.product(range(1 << n), repeat=2):
            height = float(tab[a_set | b_set])
            h = height if height > 0 else 1.0
            lhs, rhs = _sum_split(sugeno_integral, mu, Fn.indicator(n, a_set, h, NONNEG),
                                  Fn.indicator(n, b_set, h, NONNEG))
            violated |= _rel_gap(lhs, rhs) > tol
        assert check_measure_property(mu, "subadditive").holds != violated
        res = verify_sugeno_subadditive(mu, trials=2)
        assert res.holds and res.detail["indicator_recovery_matches"] is True

    def test_forward_and_recovery_on_subadditive(self):
        for k in range(20):
            mu = sampling.subadditive_measure(47, k, 2 + k % 6)
            res = verify_sugeno_subadditive(mu, trials=5, seed=k)
            assert res.holds
            assert res.detail["indicator_recovery_matches"] is True

    def test_planted_violation_located(self):
        mu, (a_set, b_set) = sampling.non_subadditive_measure(11, 5)
        res = verify_sugeno_subadditive(mu, trials=4, seed=1)
        assert res.holds  # equivalence holds: not subadditive and recovery agrees
        assert not res.detail["subadditive"].holds
        assert res.detail["indicator_recovery_matches"] is True

    def test_thirteen_points(self):
        # the disjoint pairs of an exactly monotone table: 3**13 cells
        mu = generate_measure(3, "distortion_concave", 13)
        res = verify_sugeno_subadditive(mu, trials=2)
        assert res.holds and res.detail["indicator_recovery_matches"] is True
        assert res.detail["subadditive"].holds

    def test_boundary_probe(self):
        res = verify_sugeno_subadditive_boundary()
        assert res.holds
        assert res.detail["lhs"] > res.detail["rhs"]


def ref_random_pair_probe(integral, mu, trials, seed, key, tol):
    """``theorems._random_pair_probe`` as it integrated f + g, f and g by
    three scalar calls a pair."""
    n = mu.space.n
    violations, slack = [], INF
    for k in range(trials):
        rng = rng_for(seed, key, k)
        fv = [rng.randrange(0, 33) / 8.0 for _ in range(n)]
        gv = [rng.randrange(0, 33) / 8.0 for _ in range(n)]
        lhs, rhs = _sum_split(integral, mu, Fn(fv, NONNEG), Fn(gv, NONNEG))
        gap = _rel_gap(lhs, rhs)
        if gap > tol:
            violations.append({"f": fv, "g": gv, "lhs": lhs, "rhs": rhs})
        elif math.isfinite(gap):
            slack = min(slack, -gap)
    return violations, slack


class TestRandomPairProbe:
    """The pair probe reads each chunk of pairs in one batch: the per-pair
    loop's violations and slack, bit for bit, in bounded memory."""

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 8), family=st.sampled_from(GENERATOR_FAMILIES),
           seed=st.integers(0, 10 ** 6), trials=st.integers(1, 40), sugeno=st.booleans())
    def test_matches_the_per_pair_loop(self, n, family, seed, trials, sugeno):
        mu = generate_measure(seed, family, n)
        op, integral = (MIN, sugeno_integral) if sugeno else (PROD, shilkret_integral)
        for tol in (0.0, _TOL):
            got = _random_pair_probe(op, mu, trials, seed, "pairs", tol)
            want = ref_random_pair_probe(integral, mu, trials, seed, "pairs", tol)
            assert repr(got) == repr(want)

    def test_peak_is_bounded_by_the_chunk(self):
        # 22,000 pairs on 16 points: their f + g, f and g rows alone would
        # take 3 * 22,000 * 16 * 8 B = 8.4 MB unchunked
        mu = sampling.subadditive_measure(7, 0, 16)
        verify_sugeno_subadditive(mu, trials=1)       # the table and gates, once
        tracemalloc.start()
        try:
            res = verify_sugeno_subadditive(mu, trials=22000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.holds and res.mode == "sampled"
        assert peak < 24 * _CHUNK_CELLS * 8 < 3 * 22000 * 16 * 8


class TestLowerMH:
    def test_bounded_sum_family(self):
        mu = generate_measure(3, "non_maxitive", 4)  # additive, submodular
        ops = MHOperators(BSUM, BSUM, (JOIN,) * 3, ID3)
        for k in range(10):
            rng = rng_for(53, "lower-bsum", k)
            f, g = sampling.comonotone_pair(rng, 4, UNIT)
            res = verify_lower_mh(ops, PSUM, mu, f, g)
            assert res.holds

    def test_plain_sum_family(self):
        ops = MHOperators(SUM, SUM, (JOIN,) * 3, ID3)
        for k in range(10):
            rng = rng_for(59, "lower-sum", k)
            n = 2 + k % 5
            mu = sampling.subadditive_measure(61, k, n)
            f = sampling.random_fn(rng, n, EXTENDED)
            g = sampling.random_fn(rng, n, EXTENDED)
            res = verify_lower_mh(ops, SUM, mu, f, g)
            assert res.holds

    def test_relation_gate(self):
        mu = generate_measure(5, "non_maxitive", 4)
        ops = MHOperators(SUM, SUM, (JOIN,) * 3, ID3)
        f = Fn.indicator(4, 0b0011, 1.0, EXTENDED)
        g = Fn.indicator(4, 0b1100, 1.0, EXTENDED)
        # an additive measure is not maxitive, so the join combiner fails
        with pytest.raises(HypothesisError):
            verify_lower_mh(ops, JOIN, mu, f, g)


class TestDualMinkowski:
    def test_harmonic_instance(self):
        mu = MonotoneMeasure.explicit(FiniteSpace(3),
                                      [0, 0.5, 1.0, 1.25, 2.0, 2.25, 2.5, 3.0],
                                      rounding=True)
        f = Fn([0.5, 1.0, 2.0], EXTENDED)
        g = Fn([0.25, 1.5, 3.0], EXTENDED)
        res = verify_dual_minkowski("single", SUM, SUM, reciprocal(), mu, f, g)
        assert res.holds

    def test_unit_scale_single(self):
        mu = MonotoneMeasure.possibility(FiniteSpace(3), [0.25, 0.5, 1.0])
        for k in range(10):
            rng = rng_for(67, "dual-single", k)
            f, g = sampling.comonotone_pair(rng, 3, UNIT)
            res = verify_dual_minkowski("single", JOIN, BSUM, one_minus(), mu, f, g)
            assert res.holds

    def test_constant_equality_case(self):
        mu = MonotoneMeasure.possibility(FiniteSpace(2), [0.5, 1.0])
        f = Fn([0.5, 0.5])
        res = verify_dual_minkowski("single", JOIN, BSUM, one_minus(), mu, f, f)
        assert res.holds

    def test_top_absorption_gate(self):
        mu = MonotoneMeasure.possibility(FiniteSpace(2), [0.5, 1.0])
        f = Fn([0.5, 0.5])
        with pytest.raises(HypothesisError):
            verify_dual_minkowski("single", JOIN, PROD, one_minus(), mu, f, f)

    def test_reciprocal_pair_instance(self):
        mu = MonotoneMeasure.explicit(FiniteSpace(2), [0, 0, 2.0, INF],
                                      rounding=True)
        f = Fn([2.0, 0.5], EXTENDED)
        g = Fn([1.0, 0.0], EXTENDED)
        res = verify_dual_minkowski("pair", SUM, MIN, reciprocal(), mu, f, g,
                                    boxplus=SUM)
        assert res.holds


class TestOneScalePerPair:
    """Each integral reads its integrand on the ``Fn``'s own scale, so a
    verifier of a pair (f, g) refuses two scales: g was integrated on f's."""

    MU = MonotoneMeasure.possibility(FiniteSpace(2), [0.5, 1.0])

    @pytest.mark.parametrize("call", [
        lambda f, g, mu: verify_upper_mh(MHOperators(MIN, MIN, (MIN,) * 3, ID3), mu, f, g),
        lambda f, g, mu: verify_upper_mh(MHOperators(MIN, MIN, (MIN,) * 3, ID3), mu, f, g,
                                         direction="necessity"),
        lambda f, g, mu: verify_seminorm_minkowski(MIN, MIN, 1.0, mu, f, g),
        lambda f, g, mu: verify_lower_mh(MHOperators(JOIN, JOIN, (JOIN,) * 3, ID3), JOIN,
                                         mu, f, g),
        lambda f, g, mu: verify_comonotone_subadditive(MIN, mu, f, g),
        lambda f, g, mu: verify_dual_minkowski("single", JOIN, BSUM, one_minus(), mu, f, g),
    ], ids=["upper_mh", "upper_mh_necessity", "seminorm_minkowski", "lower_mh",
            "comonotone_subadditive", "dual_minkowski"])
    def test_two_scales_are_refused(self, call):
        f = Fn([0.5, 0.25])
        for g in (Fn([0.5, 0.25], UNIT_OPEN), Fn([0.5, 0.25], ValueScale(2.0, True))):
            with pytest.raises(DomainError, match=r"^functions on two scales: \[0,1\.0\] "):
                call(f, g, self.MU)
            with pytest.raises(DomainError, match="two scales"):
                call(g, f, self.MU)
        call(f, Fn([0.5, 0.25], ValueScale(1.0, True)), self.MU)   # an equal scale is one


# ---------------------------------------------------------------------------
# chain conditions and necessity cells against the loops they replaced
# ---------------------------------------------------------------------------

CATALOG = [MIN, JOIN, PROD, SL, BSUM, SUM, PSUM, marshall_olkin(0.5, 0.25),
           power_product(0.5), power_min(0.5, 1.0), power_prod(2.0, 1.0)]
PHIS = [phi_identity(), phi_power(0.5), phi_power(2.0)]


def ref_condition_sides(ops, a, b, c_ab, c_a, c_b):
    """The scalar three-map condition as the chain loops evaluated it,
    through ``op.fn``."""
    p1, p2, p3 = ops.phis
    c1, c2, c3 = ops.circs
    lhs = float(p1.inverse(c1.fn(float(p1.forward(ops.star.fn(a, b))), c_ab)))
    return lhs, ops.combiner.fn(float(p2.inverse(c2.fn(float(p2.forward(a)), c_a))),
                                float(p3.inverse(c3.fn(float(p3.forward(b)), c_b))))


def ref_chain_upper(ops, mu, f, g, domain, tol):
    """The upper chain condition before it ran through ``_sweep``: the
    verdict with the largest gap as witness, and the first violating triple."""
    bits = [i for i in range(len(f)) if domain >> i & 1]
    if not bits:
        return CheckResult(True), None
    inf_f = subset_infima([f[i] for i in bits])[1:]
    inf_g = subset_infima([g[i] for i in bits])[1:]
    mus = mu.table()[expand_masks(bits)[1:]]
    p1, p2, p3 = ops.phis
    c1, c2, c3 = ops.circs
    lhs = p1.inverse(c1.grid(p1.forward(ops.star.grid(inf_f, inf_g)), mus))
    rhs = ops.combiner.grid(p2.inverse(c2.grid(p2.forward(inf_f), mus)),
                            p3.inverse(c3.grid(p3.forward(inf_g), mus)))
    gap = np.where(np.isinf(lhs) & np.isinf(rhs), 0.0, lhs - rhs)   # a nan gap stays nan
    if (gap > tol).any():
        k = int(np.argmax(gap > tol))
        first = {"a": float(inf_f[k]), "b": float(inf_g[k]), "c": float(mus[k]),
                 "lhs": float(lhs[k]), "rhs": float(rhs[k])}
        return CheckResult(False, float(gap[gap > tol].max()), first), first
    finite = np.isfinite(gap)
    return CheckResult(True, margin=float(-gap[finite].max()) if finite.any() else INF), None


def ref_chain_lower(ops, boxplus, mu, f, g, domain, tol):
    """The lower chain condition's scalar double loop: the verdict with the
    largest gap as witness, and the first violating quadruple."""
    g_levels = list(zip(*_level_sets(g.values, domain)))
    worst, worst_gap, slack, first = None, 0.0, INF, None
    for a, mask_f in zip(*_level_sets(f.values, domain)):
        c = mu(mask_f)
        for b, mask_g in g_levels:
            d = mu(mask_g)
            lhs, rhs = ref_condition_sides(ops, a, b, boxplus.fn(c, d), c, d)
            gap = _rel_gap(lhs, rhs)
            cell = {"a": a, "b": b, "c": c, "d": d, "lhs": lhs, "rhs": rhs}
            if gap > tol and first is None:
                first = cell
            if gap > tol and gap > worst_gap:
                worst_gap, worst = gap, cell
            elif math.isfinite(gap):
                slack = min(slack, -gap)
    if worst is not None:
        return CheckResult(False, worst_gap, worst), first
    return CheckResult(True, margin=slack), None


def ref_necessity(ops, mu, n, domain, scale, tol):
    """The necessity loop over every nonempty subset A of the domain, with
    the indicator instance of each failing (A, a, b) cell run through the
    real integrals: the failing cells as (c, a, b) with c = mu(A), and the
    failures in (c, a, b) order, each from the smallest A realizing c.  It
    asserts that every A realizing c gives the same verdict and sides."""
    heights = [k / 8.0 for k in range(9) if scale.contains(k / 8.0)]
    failing, records = set(), {}
    for A in range(1, domain + 1):
        if A & ~domain:
            continue
        c = mu(A)
        for a in heights:
            for b in heights:
                if (not scale.contains(ops.star.fn(a, b))
                        or not _rel_gap(*ref_condition_sides(ops, a, b, c, c, c)) > tol):
                    continue
                failing.add((c, a, b))
                fa = Fn.indicator(n, A, a, scale)
                gb = Fn.indicator(n, A, b, scale)
                lhs_i, rhs_i = _mh_sides(upper_integral, ops, mu, fa, gb, domain, scale)
                rec = {"a": a, "b": b, "set": A, "c": c, "lhs": lhs_i, "rhs": rhs_i,
                       "failed": not _rel_gap(lhs_i, rhs_i) > tol}
                first = records.setdefault((c, a, b), rec)
                assert (first["failed"], repr(first["lhs"]), repr(first["rhs"])) == \
                    (rec["failed"], repr(lhs_i), repr(rhs_i))
    failures = [{k: v for k, v in rec.items() if k != "failed"}
                for _, rec in sorted(records.items()) if rec["failed"]]
    return failing, failures


@st.composite
def mh_cases(draw, circs=CATALOG):
    """A three-map operator tuple from the catalog (circs from ``circs``),
    two functions with ties, zeros and (on the extended scale) inf, a
    measure that may hold inf and a domain that may be empty, on at most 6
    points."""
    n = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([UNIT, NONNEG, EXTENDED]))
    pool = [v for v in (0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 2.0, INF) if scale.contains(v)]
    f = Fn(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), scale)
    g = Fn(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), scale)
    if draw(st.booleans()):
        mu = generate_measure(draw(st.integers(0, 10 ** 6)),
                              draw(st.sampled_from(GENERATOR_FAMILIES)), n)
    else:
        density = st.sampled_from([0.0, 0.25, 0.5, 1.0, INF])
        mu = MonotoneMeasure.possibility(FiniteSpace(n),
                                         draw(st.lists(density, min_size=n, max_size=n)))
    op = st.sampled_from(CATALOG)
    circ = st.sampled_from(circs)
    ops = MHOperators(draw(op), draw(op), (draw(circ), draw(circ), draw(circ)),
                      tuple(draw(st.sampled_from(PHIS)) for _ in range(3)))
    domain = draw(st.one_of(st.just((1 << n) - 1), st.just(0), st.integers(0, (1 << n) - 1)))
    return ops, draw(op), mu, f, g, domain


def _replays(ops, w, tol, c_ab=None):
    """The witness cell, evaluated directly, violates by its own sides."""
    with np.errstate(all="ignore"):
        lhs, rhs = ref_condition_sides(ops, w["a"], w["b"], w["c"] if c_ab is None else c_ab,
                                       w["c"], w.get("d", w["c"]))
    assert _rel_gap(lhs, rhs) == _rel_gap(w["lhs"], w["rhs"]) > tol


class TestChainConditionsMatchReference:
    """Both chain conditions and the necessity cells against the loops they
    replaced, on the operator catalog."""

    @settings(max_examples=200, deadline=None)
    @given(case=mh_cases())
    def test_upper_chain(self, case):
        ops, _, mu, f, g, domain = case
        tol = 1e-12
        got = _chain_condition_upper(ops, mu, f, g, domain)
        with np.errstate(all="ignore"):
            ref, first = ref_chain_upper(ops, mu, f, g, domain, tol)
        assert (got.holds, repr(got.margin), got.mode) == (ref.holds, repr(ref.margin), ref.mode)
        if not got.holds:
            assert got.witness == first
            _replays(ops, got.witness, tol)

    @settings(max_examples=200, deadline=None)
    @given(case=mh_cases())
    def test_lower_chain(self, case):
        ops, boxplus, mu, f, g, domain = case
        tol = 1e-12
        got = _chain_condition_lower(ops, boxplus, mu, f, g, domain)
        with np.errstate(all="ignore"):
            ref, first = ref_chain_lower(ops, boxplus, mu, f, g, domain, tol)
        assert (got.holds, repr(got.margin), got.mode) == (ref.holds, repr(ref.margin), ref.mode)
        if not got.holds:
            assert got.witness == first
            with np.errstate(all="ignore"):
                c_ab = boxplus.fn(got.witness["c"], got.witness["d"])
            _replays(ops, got.witness, tol, c_ab)

    @settings(max_examples=60, deadline=None)
    @given(case=mh_cases(circs=[op for op in CATALOG
                                if {"zero_left_annihilator", "zero_right_annihilator"} <= op.flags]))
    def test_necessity_cells(self, case):
        ops, _, mu, f, _, domain = case
        scale = f.scale
        with np.errstate(invalid="ignore"):
            try:     # the instance integrals need the verifier's gates
                _gate_mh(ops, scale, ["nondecreasing"], _ANNIHILATING)
            except HypothesisError:
                assume(False)
            values, heights, failing, failures = _necessity(ops, mu, domain, scale)
            ref_failing, ref_failures = ref_necessity(ops, mu, len(f), domain, scale, 1e-12)
        assert values == sorted(set(mu(a) for a in range(1, domain + 1) if not a & ~domain))
        got = {(values[s], heights[i], heights[j]) for s, i, j in np.argwhere(failing).tolist()}
        assert got == ref_failing
        assert repr(failures) == repr(ref_failures)

    def test_grid_label(self):
        # 127 nonempty subsets, 4 distinct values: every failing cell is decided
        ops = MHOperators(PSUM, PSUM, (PROD,) * 3,
                          (phi_power(2.0), phi_power(1.0), phi_power(2.0)))
        zero = Fn([0.0] * 7)
        mu = MonotoneMeasure.possibility(FiniteSpace(7), [0.25, 0.5, 0.75, 1.0, 0.5, 0.25, 1.0])
        res = verify_upper_mh(ops, mu, zero, zero, direction="necessity")
        values, heights, failing, failures = _necessity(ops, mu, (1 << 7) - 1, UNIT)
        ref_failing, ref_failures = ref_necessity(ops, mu, 7, (1 << 7) - 1, UNIT, 1e-12)
        assert res.holds and res.mode == "grid" and failures == ref_failures == []
        assert res.detail["necessity_values"] == len(values) == 4
        assert res.detail["necessity_heights"] == heights == [k / 8.0 for k in range(9)]
        assert res.detail["necessity_instances"] == \
            res.detail["necessity_violations_confirmed"] == len(ref_failing) > 0
        # the sufficiency direction keeps its exhaustive label
        mu = MonotoneMeasure.possibility(FiniteSpace(3), [0.25, 0.5, 1.0])
        f = Fn.indicator(3, 0b011, 0.5)
        g = Fn.indicator(3, 0b011, 0.75)
        res = verify_upper_mh(ops, mu, f, g)
        assert res.holds and res.mode == "exhaustive"

    def test_ten_points_every_value(self):
        ops = MHOperators(PSUM, PSUM, (PROD,) * 3,
                          (phi_power(3.0), phi_power(0.5), phi_power(1.0)))
        mu = generate_measure(1, "distortion_concave", 10)
        zero = Fn([0.0] * 10)
        res = verify_upper_mh(ops, mu, zero, zero, direction="necessity")
        assert res.holds and res.mode == "grid"
        assert res.detail["necessity_values"] == 116
        assert res.detail["necessity_instances"] == 9027
        assert res.detail["necessity_violations_confirmed"] == 9027

    def test_necessity_failure_replays(self):
        # lukasiewicz(0, mu(D) = 2) = 1 lifts both sides to 1 at every height
        ops = MHOperators(JOIN, SL, (SL,) * 3, ID3)
        mu = MonotoneMeasure.possibility(FiniteSpace(2), [0.5, 2.0])
        zero = Fn([0.0, 0.0])
        res = verify_upper_mh(ops, mu, zero, zero, direction="necessity")
        assert not res.holds and res.mode == "grid"
        first = res.witness["necessity_failures"][0]
        assert first == {"a": 0.0, "b": 0.625, "set": 1, "c": 0.5, "lhs": 1.0, "rhs": 1.0}
        fa = Fn.indicator(2, first["set"], first["a"])
        gb = Fn.indicator(2, first["set"], first["b"])
        assert _mh_sides(upper_integral, ops, mu, fa, gb, 0b11, UNIT) == (1.0, 1.0)

    def test_necessity_open_scale_needs_null_empty_set(self):
        ops = MHOperators(MIN, MIN, (MIN,) * 3, ID3)
        mu = MonotoneMeasure.explicit(FiniteSpace(2), [0.25, 0.5, 0.5, 1.0],
                                      allow_nonzero_empty=True)
        zero = Fn([0.0, 0.0], NONNEG)
        with pytest.raises(HypothesisError, match=r"mu\(empty\) = 0"):
            verify_upper_mh(ops, mu, zero, zero, direction="necessity")
        res = verify_upper_mh(ops, mu, Fn([0.0, 0.0]), Fn([0.0, 0.0]), direction="necessity")
        assert res.holds and res.mode == "grid"

    def test_necessity_records_replay_bit_for_bit(self):
        # the closed form reads op.grid, the integrals op.fn: one arithmetic,
        # so each failure record is the indicator instance's own two sides
        ops = MHOperators(marshall_olkin(0.5, 0.25), lukasiewicz(),
                          (MIN, BSUM, MIN), (phi_power(2.0), phi_power(0.5), phi_identity()))
        mu = MonotoneMeasure.possibility(FiniteSpace(1), [0.25])
        _, _, _, failures = _necessity(ops, mu, 1, UNIT)
        assert len(failures) == 23
        for r in failures:
            f = Fn.indicator(1, r["set"], r["a"])
            g = Fn.indicator(1, r["set"], r["b"])
            sides = _mh_sides(upper_integral, ops, mu, f, g, 1, UNIT)
            assert repr(sides) == repr((r["lhs"], r["rhs"]))


def deleted_necessity_sides(p1, p2, p3, a, b, c):
    """The ``upper_mh_necessity`` campaign's own two sides before it read
    ``_mh_sides``: phi_p^-1 of the max-product integral of phi_p(v) on the
    one-point measure of mass c, combined by the probabilistic sum."""
    mu = MonotoneMeasure.possibility(FiniteSpace(1), [c])

    def side(p, v):
        phi = phi_power(p)
        return float(phi.inverse(upper_integral(Fn([float(phi.forward(v))], UNIT), mu, PROD)))

    return side(p1, float(PSUM.fn(a, b))), float(PSUM.fn(side(p2, a), side(p3, b)))


class TestNecessityCampaignSides:
    """``upper_mh_necessity`` reads its two sides through ``_mh_sides``, the
    route its own formula restated: the same floats, by ``float.hex``."""

    # every exponent triple the campaign draws; its witness depends on them alone
    TRIPLES = list(itertools.product((1.5, 2.0, 3.0), (0.5, 1.0), (0.5, 1.0, 2.0)))

    @staticmethod
    def _sides(p, a, b, c):
        ops = MHOperators(PSUM, PSUM, (PROD,) * 3, tuple(phi_power(q) for q in p))
        mu = MonotoneMeasure.possibility(FiniteSpace(1), [c])
        got = _mh_sides(upper_integral, ops, mu, Fn([a], UNIT), Fn([b], UNIT), None, UNIT)
        return [v.hex() for v in got], [v.hex() for v in deleted_necessity_sides(*p, a, b, c)]

    def test_campaign_witnesses(self):
        for p in self.TRIPLES:
            cond = check_condition("mh_product_power", p1=p[0], p2=p[1], p3=p[2])
            assert not cond.holds, p
            w = cond.witness
            got, want = self._sides(p, w["a"], w["b"], w["c"])
            assert got == want, (p, w)

    def test_quarter_grid(self):
        values = [k / 4 for k in range(5)]
        for p in self.TRIPLES:
            for a, b, c in itertools.product(values, repeat=3):
                got, want = self._sides(p, a, b, c)
                assert got == want, (p, a, b, c)


def _hole(base, at: float):
    """``base`` with a nan hole at first argument ``at``: an operator undefined
    at some cells, which passes its flag gates (a nan step is no drop)."""
    return from_callable(f"{base.name}_hole", lambda a, b: math.nan if a == at else base.fn(a, b),
                         _ANNIHILATING if base is MIN else ["nondecreasing"])


class TestOneNanRule:
    """A nan candidate never wins a sup or an inf, and a nan cell never
    violates: both integrals, the subset oracle, both chains and the
    necessity cells read a nan hole alike."""

    @pytest.mark.parametrize("at, value", [(0.5, 0.75), (0.75, 0.5)])
    def test_upper_integral_and_oracle_skip_the_hole(self, at, value):
        mu = MonotoneMeasure.possibility(FiniteSpace(2), [0.25, 1.0])
        f = Fn([0.5, 0.75])
        op = _hole(MIN, at)
        assert upper_integral(f, mu, op) == upper_integral_subset_oracle(f, mu, op) == value

    def test_lower_integral_skips_the_hole(self):
        # candidates max(t, mu(f > t)): 1 at t = 0 and 0.25, the hole at 0.75
        # (0.75 without it)
        mu = MonotoneMeasure.possibility(FiniteSpace(2), [0.25, 1.0])
        assert lower_integral(Fn([0.25, 0.75]), mu, _hole(JOIN, 0.75)) == 1.0

    def test_chains_and_necessity_cells_drop_the_hole(self):
        # the only cell of the upper chain, (0.75, 0.75, 0.5), is the hole
        ops = MHOperators(MIN, MIN, (_hole(MIN, 0.75), MIN, MIN), (phi_identity(),) * 3)
        mu = MonotoneMeasure.possibility(FiniteSpace(1), [0.5])
        f = Fn([0.75])
        upper = _chain_condition_upper(ops, mu, f, f, 1)
        assert upper.holds and upper.margin == INF
        lower = _chain_condition_lower(ops, MIN, mu, f, f, 1)
        assert lower.holds and lower.margin == 0.0
        # without the hole every cell holds with equality; the hole cells
        # (min(a, b) = 0.75) neither fail nor count as failing
        _, heights, failing, failures = _necessity(ops, mu, 1, UNIT)
        assert heights[6] == 0.75 and not failing.any() and failures == []
        res = verify_upper_mh(ops, mu, f, f, direction="both")
        assert res.holds and res.mode == "grid"


class TestMapsPerVector:
    """``_apply_phi`` maps a function's values in one array call; it reads
    the same bytes as the per-point 0-d calls it replaced."""

    MAPS = [phi_identity(), phi_power(0.5), phi_power(2.0), phi_power(1 / 3), phi_power(3.0)]

    @settings(max_examples=200, deadline=None)
    @given(phi=st.sampled_from(MAPS), scale=st.sampled_from([UNIT, EXTENDED]),
           values=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0, INF]),
                                     st.floats(0.0, 4.0)), min_size=1, max_size=8))
    def test_apply_phi_is_the_per_point_map(self, phi, scale, values):
        values = [v for v in values if scale.contains(v)] or [0.0]
        f = Fn(values, scale)
        got = _apply_phi(f, phi)
        want = Fn([float(phi.forward(v)) for v in f.values], scale)
        assert got.scale == want.scale
        assert [v.hex() for v in got.values] == [v.hex() for v in want.values]



class TestVerdict:
    """``_verdict``: lhs <= rhs within ``_TOL``, scaled by ``max(1, |rhs|)``
    when relative; a failure carries the gap, both sides and the witness."""

    def test_failure_carries_the_gap_the_sides_and_the_witness(self):
        res = _verdict(1.5, 1.0, {"condition": "c"}, f=[0.5])
        assert not res.holds and res.margin == 0.5
        assert res.witness == {"lhs": 1.5, "rhs": 1.0, "f": [0.5]}
        assert res.detail == {"condition": "c", "lhs": 1.5, "rhs": 1.0}

    def test_failure_without_detail_has_an_empty_detail(self):
        res = _verdict(1.5, 1.0, None)
        assert not res.holds and res.detail == {}
        assert res.witness == {"lhs": 1.5, "rhs": 1.0}

    def test_success_has_minus_the_gap(self):
        res = _verdict(0.75, 1.0, None)
        assert res.holds and res.margin == 0.25
        assert res.detail == {"lhs": 0.75, "rhs": 1.0}

    def test_relative_scales_the_tolerance_by_the_right_side(self):
        # a gap of 4 * _TOL fails absolutely and holds within 8 * _TOL,
        # relative to rhs 8; a gap of 16 * _TOL fails either way
        assert not _verdict(8.0 + 4 * _TOL, 8.0, None).holds
        assert _verdict(8.0 + 4 * _TOL, 8.0, None, relative=True).holds
        assert not _verdict(8.0 + 16 * _TOL, 8.0, None, relative=True).holds
        # below 1 the tolerance is _TOL itself
        assert not _verdict(0.5 + 2 * _TOL, 0.5, None, relative=True).holds
        # an infinite rhs reads the tolerance at 1
        assert _verdict(INF, INF, None, relative=True).holds

    def test_two_infinite_sides_tie_and_hold(self):
        res = _verdict(INF, INF, {})
        assert res.holds and res.margin == 0.0
        assert res.detail == {"lhs": INF, "rhs": INF}
