"""Theorem verifiers: worked instances, hypothesis gates, both directions,
and the exact counterexample reproduction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonadd.core import EXTENDED, FiniteSpace, Fn, INF, NONNEG, UNIT, rng_for
from nonadd.integrals import shilkret_integral, sugeno_integral, upper_integral
from nonadd.measures import (
    GENERATOR_FAMILIES,
    MonotoneMeasure,
    check_measure_property,
    dual_measure,
    generate_measure,
)
from nonadd.operators import (
    bounded_sum,
    join,
    lukasiewicz,
    minimum,
    one_minus,
    phi_identity,
    phi_power,
    plain_sum,
    power_product,
    prob_sum,
    product,
    reciprocal,
)
from nonadd.results import CheckResult, DomainError, HypothesisError
from nonadd.theorems import (
    MHOperators,
    _max_product_indicator_sweep,
    _subadditive_indicator_sweep,
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
            f = sampling.signed_vector(rng, n, span=1.0)
            g = sampling.signed_vector(rng, n, span=1.0)
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
    """The row loop of the max-min backward sweep before the pair kernel."""
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
def sweep_measures(draw):
    """Measures on at most 8 points: the generator families and their
    reciprocal duals, ``explicit(validate=False)`` tables (mostly
    non-monotone) and monotone tables holding inf."""
    kind = draw(st.sampled_from(["family", "dual", "raw", "inf"]))
    n = draw(st.integers(1, 8))
    if kind in ("family", "dual"):
        mu = generate_measure(draw(st.integers(0, 10 ** 6)),
                              draw(st.sampled_from(GENERATOR_FAMILIES)), n)
        return dual_measure(mu, reciprocal()) if kind == "dual" else mu
    tab = draw(st.lists(st.sampled_from(SWEEP_VALUES), min_size=1 << n, max_size=1 << n))
    tab[0] = 0.0
    if kind == "raw":
        return MonotoneMeasure.explicit(FiniteSpace(n), tab, validate=False)
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
    """Both indicator sweeps against the row loops they replaced."""

    TOLS = [None, 0.0, 1e-12, -1e-3]   # None: the measure's own tolerance

    @settings(max_examples=150, deadline=None)
    @given(mu=sweep_measures(), tol=st.sampled_from(TOLS))
    @example(mu=MonotoneMeasure.explicit(FiniteSpace(2), [0, 0.5, 0.25, 0.5 - 1e-13],
                                         rounding=True), tol=0.0)
    @example(mu=MonotoneMeasure.explicit(FiniteSpace(2), [0, 1, 3, 2], validate=False),
             tol=None)
    def test_max_product_sweep_matches_row_loop(self, mu, tol):
        tol = mu.tolerance() if tol is None else tol
        got = _max_product_indicator_sweep(mu, tol)
        ref = ref_max_product_sweep(mu, tol)
        check_against_reference(mu, tol, got, ref, max_product_excess)
        if got is not None:
            tab, a, b = mu.table(), got["set_a"], got["set_b"]
            assert got["lhs"] == max(tab[a | b], 2.0 * tab[a & b])
            assert got["rhs"] == tab[a] + tab[b]

    @settings(max_examples=150, deadline=None)
    @given(mu=sweep_measures(), tol=st.sampled_from(TOLS))
    @example(mu=MonotoneMeasure.explicit(FiniteSpace(2), [0, 1, 1, 3], validate=False),
             tol=0.0)
    @example(mu=MonotoneMeasure.explicit(FiniteSpace(2), [0, 1, 0.5, 0.25], validate=False),
             tol=-1e-3)
    def test_subadditive_sweep_matches_row_loop(self, mu, tol):
        tol = mu.tolerance() if tol is None else tol
        got = _subadditive_indicator_sweep(mu, tol)
        ref = ref_subadditive_sweep(mu, tol)
        check_against_reference(mu, tol, got, ref, subadditive_excess)
        if got is not None:
            tab, a, b = mu.table(), got["set_a"], got["set_b"]
            assert (got["mu_union"], got["mu_a"], got["mu_b"]) == (tab[a | b], tab[a], tab[b])

    def test_nan_margin_on_a_finite_table_reads_as_zero(self):
        # at (3, 3) both 2 mu({0, 1}) and mu({0, 1}) + mu({0, 1}) overflow to
        # inf, so the margin is nan; (1, 2) violates by 1e308 all the same
        mu = MonotoneMeasure.explicit(FiniteSpace(2), [0.0, 1.0, 1.0, 1e308],
                                      validate=False)
        with np.errstate(over="ignore"):
            got = _max_product_indicator_sweep(mu, 1e-12)
        assert got == ref_max_product_sweep(mu, 1e-12)
        assert (got["set_a"], got["set_b"]) == (1, 2)

    def test_maxitive_measure_failing_the_sweep(self):
        # maxitive within the rounding tolerance, but (A, B) = ({0}, {0, 1})
        # gives max(mu(A|B), 2 mu(A&B)) = 1 > mu(A) + mu(B) = 1 - 1e-13
        mu = MonotoneMeasure.explicit(FiniteSpace(2), [0, 0.5, 0.25, 0.5 - 1e-13],
                                      rounding=True)
        res = verify_shilkret_maxitive(mu, tol=0.0)
        assert res.detail["maxitive"].holds
        assert not res.holds and res.detail["stage"] == "indicator sweep"
        assert (res.witness["set_a"], res.witness["set_b"]) == (1, 3)


class TestSugenoSubadditive:
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

    def test_boundary_probe(self):
        res = verify_sugeno_subadditive_boundary()
        assert res.holds
        assert res.detail["lhs"] > res.detail["rhs"]


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
