"""Metric functionals, axiom suites, the max-product norm, convergence
lemmas, the convergence-of-means bound, and the completeness probe."""

import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonadd.core import EXTENDED, FiniteSpace, Fn, INF, NONNEG, rng_for
from nonadd.conditions import cond_distributive_scaling
from nonadd.integrals import lower_integral, upper_integral
from nonadd.measures import MonotoneMeasure, generate_measure
from nonadd.metrics import (
    MetricSpec,
    cauchy_probe,
    check_convergence_lemmas,
    check_metric_axioms,
    check_shilkret_norm,
    find_triangle_violation,
    kyfan_classical,
    metric_eval,
    shilkret_norm,
    verify_mean_convergence,
)
from nonadd.operators import join, minimum, power_min, power_prod
from nonadd.results import DomainError, HypothesisError
from nonadd import metrics, sampling
from test_integrals import ref_level_mask_gt

SP2 = FiniteSpace(2)
MU2 = MonotoneMeasure.explicit(SP2, [0.0, 0.3, 0.6, 0.8])

ALL_SPECS = [MetricSpec("frechet"), MetricSpec("kyfan"),
             MetricSpec("d_op_p", power_min(1.0, 1.0), 1.0),
             MetricSpec("d_op_p", power_prod(2.0, 1.0), 2.0),
             MetricSpec("d_op_p", power_min(0.5, 0.5), 0.5)]


class TestMetricEval:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: str(s.describe()))
    def test_identical_arguments_give_zero(self, spec):
        f = [0.5, -0.2]
        assert metric_eval(spec, f, f, MU2) == 0.0

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: str(s.describe()))
    def test_equal_infinities_are_at_distance_zero(self, spec):
        # a point where both vectors are infinite reads |inf - inf| as 0 on
        # every route, as at a point where both are 0
        mu = MonotoneMeasure.possibility(SP2, [1.0, 1.0])
        f, g = [INF, 1.0], [INF, 0.5]
        want = metric_eval(spec, [0.0, 1.0], [0.0, 0.5], mu)
        assert metric_eval(spec, f, g, mu) == want
        assert metric_eval(spec, [-INF, 1.0], [-INF, 0.5], mu) == want
        with pytest.raises(DomainError, match="nan"):
            metric_eval(spec, [math.nan, 1.0], [math.nan, 0.5], mu)
        if spec.kind == "kyfan":
            assert want == kyfan_classical(f, g, mu) == 0.5
            with pytest.raises(DomainError, match="nan"):
                kyfan_classical([math.nan, 1.0], [math.nan, 0.5], mu)

    def test_kyfan_indicator(self):
        # |f - g| is an indicator of height a: the max-min integral is a ^ mu(A)
        f, g = [0.7, 0.0], [0.2, 0.0]
        assert metric_eval(MetricSpec("kyfan"), f, g, MU2) == min(0.5, MU2(0b01))

    def test_frechet_two_point_instance(self):
        # candidates 0, 0.2, 0.5: min(0 + 0.8, 0.2 + 0.3, 0.5 + 0) by hand
        f, g = [0.5, 0.2], [0.0, 0.0]
        assert metric_eval(MetricSpec("frechet"), f, g, MU2) == 0.5

    def test_frechet_matches_dense_grid(self):
        eps_grid = np.linspace(0, 8, 4001)
        for k in range(20):
            rng = rng_for(3, "frech", k)
            n = 2 + k % 5
            mu = sampling.subadditive_measure(5, k, n)
            f = sampling.signed_vector(rng, n)
            g = sampling.signed_vector(rng, n)
            exact = metric_eval(MetricSpec("frechet"), f, g, mu)
            diff = [abs(a - b) for a, b in zip(f, g)]
            full = (1 << n) - 1
            dense = min(e + mu(ref_level_mask_gt(diff, e, full)) for e in eps_grid)
            assert exact <= dense + 1e-12
            assert dense - exact <= 2.5e-3  # within one grid step

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), family=st.sampled_from(["monotonized_random", "possibility"]),
           seed=st.integers(0, 10 ** 6))
    @example(data=None, family="possibility", seed=3)
    def test_kyfan_classical_matches_threshold_loop(self, data, family, seed):
        # the loop over sorted({0} | diffs) with one mask scan per threshold,
        # with infinite entries (both infinite: |inf - inf| is nan)
        if data is None:
            f, g = [0.5, INF, 1.0], [0.25, INF, -INF]
        else:
            value = st.sampled_from([0.0, 0.5, -0.5, 1.0, 2.0, INF, -INF]) | st.floats(-2, 2)
            n = data.draw(st.integers(1, 6))
            f = data.draw(st.lists(value, min_size=n, max_size=n))
            g = data.draw(st.lists(value, min_size=n, max_size=n))
        mu = generate_measure(seed, family, len(f))
        diff = [abs(a - b) for a, b in zip(f, g)]
        full = (1 << len(diff)) - 1
        want = INF
        for eps in sorted(set([0.0] + diff)):
            want = min(want, max(eps, mu(ref_level_mask_gt(diff, eps, full))))
        assert kyfan_classical(f, g, mu).hex() == want.hex()

    def test_kyfan_three_way_agreement(self):
        for k in range(40):
            rng = rng_for(7, "threeway", k)
            n = 2 + k % 6
            mu = sampling.subadditive_measure(11, k, n)
            f = sampling.signed_vector(rng, n)
            g = sampling.signed_vector(rng, n)
            diff = [abs(a - b) for a, b in zip(f, g)]
            tol = 1e-12
            d_upper = metric_eval(MetricSpec("kyfan"), f, g, mu)
            d_lower = lower_integral(Fn(diff, EXTENDED), mu, join())
            d_classical = kyfan_classical(f, g, mu)
            assert abs(d_upper - d_lower) <= tol
            assert abs(d_upper - d_classical) <= tol

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_vectors_shorter_than_the_space_are_refused(self, spec):
        # |f - g| on point 0 alone was read as a function on the whole space
        mu = MonotoneMeasure.possibility(FiniteSpace(3), [0.25, 0.5, 1.0])
        with pytest.raises(DomainError, match=r"^function of length 1 on a 3-point space$"):
            metric_eval(spec, [0.9], [0.0], mu)
        with pytest.raises(DomainError, match=r"^function of length 1 on a 3-point space$"):
            kyfan_classical([0.9], [0.0], mu)


class TestMetricAxioms:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: str(s.describe()))
    def test_suite_passes_on_subadditive(self, spec):
        mu = sampling.subadditive_measure(13, 1, 4)
        res = check_metric_axioms(spec, mu, trials=120, seed=5)
        assert res.holds

    def test_null_support_identity_with_null_atom(self):
        mu = sampling.measure_with_null_atoms(3, 4)
        res = check_metric_axioms(MetricSpec("kyfan"), mu, trials=120, seed=6)
        assert res.holds

    def test_gate_rejects_large_second_exponent(self):
        spec = MetricSpec("d_op_p", power_min(1.0, 2.0), 1.0)
        mu = sampling.subadditive_measure(17, 0, 3)
        with pytest.raises(HypothesisError):
            check_metric_axioms(spec, mu, trials=10)

    def test_gate_rejects_plain_min_at_small_exponent(self):
        spec = MetricSpec("d_op_p", minimum(), 0.5)
        mu = sampling.subadditive_measure(19, 0, 3)
        with pytest.raises(HypothesisError):
            check_metric_axioms(spec, mu, trials=10)

    def test_non_subadditive_measure_rejected_with_violation(self):
        mu, _ = sampling.non_subadditive_measure(7, 4)
        with pytest.raises(HypothesisError) as err:
            check_metric_axioms(MetricSpec("kyfan"), mu, trials=10)
        assert err.value.detail["triangle_violation"].holds

    def test_triangle_violation_search_replays(self):
        mu, _ = sampling.non_subadditive_measure(9, 5)
        res = find_triangle_violation(mu)
        assert res.holds
        w = res.detail["witness"]
        n = mu.space.n
        a = w["height"]
        f = [a * ((w["set_a"] >> i & 1) + (w["set_b"] >> i & 1)) for i in range(n)]
        mid = [a * (w["set_b"] >> i & 1) for i in range(n)]
        spec = MetricSpec(res.detail["metric"]["kind"]) \
            if res.detail["metric"]["kind"] != "d_op_p" \
            else MetricSpec("d_op_p", power_min(1.0, 1.0), 1.0)
        zero = [0.0] * n
        assert metric_eval(spec, f, zero, mu) > \
            metric_eval(spec, f, mid, mu) + metric_eval(spec, mid, zero, mu)

    def test_search_on_subadditive_reports_premise(self):
        mu = sampling.subadditive_measure(23, 2, 4)
        res = find_triangle_violation(mu)
        assert res.status == "premise-failed"


class TestSignedDraw:
    @given(seed=st.integers(0, 1 << 32), n=st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_signed_vector_is_the_axiom_suites_draw(self, seed, n):
        # check_metric_axioms and check_shilkret_norm draw through
        # signed_vector, whose floats and generator state are this draw's
        rng, inline = random.Random(seed), random.Random(seed)
        got = sampling.signed_vector(rng, n)
        want = [inline.randrange(-32, 33) / 8.0 for _ in range(n)]
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert rng.getstate() == inline.getstate()


class TestShilkretNorm:
    def test_indicator_value(self):
        mu = MonotoneMeasure.possibility(FiniteSpace(3), [0.25, 0.5, 1.0])
        f = [0.0, 0.8, 0.0]
        assert shilkret_norm(f, mu) == pytest.approx(0.8 * 0.5)

    def test_power_of_two_homogeneity_exact(self):
        mu = MonotoneMeasure.possibility(FiniteSpace(3), [0.25, 0.5, 1.0])
        for k in range(20):
            rng = rng_for(29, "norm", k)
            f = sampling.signed_vector(rng, 3)
            assert shilkret_norm([2 * v for v in f], mu) == 2 * shilkret_norm(f, mu)

    def test_axiom_suite(self):
        mu = MonotoneMeasure.possibility(FiniteSpace(4), [0.25, 0.5, 0.75, 1.0])
        assert check_shilkret_norm(mu, trials=60, seed=1).holds

    def test_rejects_non_maxitive(self):
        mu = generate_measure(3, "non_maxitive", 4)
        with pytest.raises(HypothesisError):
            shilkret_norm([1.0] * 4, mu)


class TestConvergenceLemmas:
    def _measure(self):
        return sampling.measure_with_null_atoms(5, 4)

    def test_scaling_sequence_converges(self):
        # scaled terms that reach their limit: the integrals rise and end on
        # the limit's integral exactly
        mu = self._measure()
        f = Fn([2.0, 1.0, 3.0, 0.5], NONNEG)
        seq = [Fn([v * (1 - 1 / (k + 1)) for v in f.values], NONNEG)
               for k in range(1, 40)] + [f] * 3
        res = check_convergence_lemmas(minimum(), mu, seq, f, "monotone")
        assert res.holds and res.margin == 0.0

    def test_null_set_disagreement_invisible(self):
        mu = self._measure()
        null_atom = next(i for i in range(4) if mu(1 << i) == 0.0)
        f = Fn([1.0, 2.0, 0.5, 1.5], NONNEG)
        vals = list(f.values)
        vals[null_atom] = 9.0
        seq = [Fn(vals, NONNEG)] * 5
        res = check_convergence_lemmas(minimum(), mu, seq, f, "monotone")
        assert res.holds  # exact equality through null-additivity

    def test_non_monotone_sequence_rejected(self):
        mu = self._measure()
        f = Fn([1.0, 1.0, 1.0, 1.0], NONNEG)
        seq = [f, Fn([0.5, 1.0, 1.0, 1.0], NONNEG)]
        with pytest.raises(DomainError):
            check_convergence_lemmas(minimum(), mu, seq, f, "monotone")

    def test_fatou_direction_never_reversed(self):
        mu = self._measure()
        base = Fn([1.0, 2.0, 0.5, 1.5], NONNEG)
        osc = [Fn([v * (0.5 if k % 2 else 1.0) for v in base.values], NONNEG)
               for k in range(6)]
        low = Fn([v * 0.5 for v in base.values], NONNEG)
        res = check_convergence_lemmas(minimum(), mu, osc, low, "fatou")
        assert res.holds

    def test_terms_on_another_scale_are_refused(self):
        # each term is integrated on its own scale: a term on [0, inf] beside
        # a limit on [0, inf) was read on the limit's scale
        mu = self._measure()
        f = Fn([1.0, 2.0, 0.5, 1.5], NONNEG)
        for kind in ("monotone", "fatou"):
            with pytest.raises(DomainError, match=r"^functions on two scales: \[0,inf\) "
                                                  r"and \[0,inf\]$"):
                check_convergence_lemmas(minimum(), mu, [f, Fn(f.values, EXTENDED)], f, kind)

    def test_requires_null_additive(self):
        # a planted violation of null-additivity blocks the lemma
        tab = [0.0, 0.0, 0.5, 0.9]
        mu = MonotoneMeasure.explicit(SP2, tab, rounding=True)
        f = Fn([1.0, 1.0], NONNEG)
        with pytest.raises(HypothesisError):
            check_convergence_lemmas(minimum(), mu, [f], f, "monotone")


class TestMeanConvergence:
    def test_stationary_sequence(self):
        spec = MetricSpec("d_op_p", power_min(1.0, 1.0), 1.0)
        mu = sampling.subadditive_measure(31, 0, 3)
        f = Fn([0.5, 1.0, 0.25], NONNEG)
        res = verify_mean_convergence(spec, mu, [f, f, f], f)
        assert res.holds and res.margin >= 0

    def test_uniform_bump_sequence(self):
        spec = MetricSpec("d_op_p", power_min(1.0, 1.0), 1.0)
        mu = sampling.subadditive_measure(31, 1, 3)
        f = Fn([0.5, 1.0, 0.25], NONNEG)
        seq = [Fn([v + 1.0 / k for v in f.values], NONNEG) for k in range(1, 9)]
        res = verify_mean_convergence(spec, mu, seq, f)
        assert res.holds

    def test_premise_gate(self):
        spec = MetricSpec("d_op_p", power_min(1.0, 1.0), 1.0)
        mu = sampling.subadditive_measure(31, 2, 3)
        f = Fn([0.5, 1.0, 0.25], NONNEG)
        diverging = [f, Fn([v + 3.0 for v in f.values], NONNEG)]
        res = verify_mean_convergence(spec, mu, diverging, f)
        assert res.status == "premise-failed"


class TestNothingToCheck:
    """A check over no draws, levels or terms would hold with margin inf
    having checked nothing: each is refused before its gates run."""

    SPEC = MetricSpec("d_op_p", power_min(1.0, 1.0), 1.0)
    F = Fn([0.5, 1.0, 0.25], NONNEG)

    @pytest.mark.parametrize("call, message", [
        (lambda mu: check_metric_axioms(TestNothingToCheck.SPEC, mu, trials=0),
         "trials must be at least 1, got 0"),
        (lambda mu: check_metric_axioms(TestNothingToCheck.SPEC, mu, trials=-3),
         "trials must be at least 1, got -3"),
        (lambda mu: check_shilkret_norm(mu, trials=0), "trials must be at least 1, got 0"),
        (lambda mu: cauchy_probe(TestNothingToCheck.SPEC, mu, levels=0),
         "levels must be at least 1, got 0"),
        (lambda mu: cauchy_probe(TestNothingToCheck.SPEC, mu, sequence=[TestNothingToCheck.F]),
         "at least two terms"),
        (lambda mu: verify_mean_convergence(TestNothingToCheck.SPEC, mu, [],
                                            TestNothingToCheck.F), "empty sequence"),
    ])
    def test_refused(self, call, message):
        # the additive measure is subadditive but not maxitive: the refusal
        # comes before the norm's maxitivity gate
        with pytest.raises(DomainError, match=message):
            call(generate_measure(3, "non_maxitive", 3))


class TestGateOncePerCall:
    """The operator metric's loops pass its gate once, before they run;
    ``metric_eval`` on its own gates every call."""

    SPEC = MetricSpec("d_op_p", power_min(1.0, 1.0), 1.0)

    def test_loops_gate_once(self, monkeypatch):
        calls = []
        real = metrics._gate_metric_op
        monkeypatch.setattr(metrics, "_gate_metric_op",
                            lambda spec: calls.append(spec) or real(spec))
        mu = sampling.subadditive_measure(31, 1, 3)
        f = Fn([0.5, 1.0, 0.25], NONNEG)
        assert check_metric_axioms(self.SPEC, mu, trials=20).holds
        assert verify_mean_convergence(self.SPEC, mu, [f, f, f], f).holds
        assert cauchy_probe(self.SPEC, mu, seed=1, levels=5).holds
        assert len(calls) == 3
        metric_eval(self.SPEC, [0.5, 1.0, 0.25], [0.0] * 3, mu)
        assert len(calls) == 4

    def test_metric_eval_still_gates(self):
        spec = MetricSpec("d_op_p", power_min(1.0, 2.0), 1.0)
        with pytest.raises(HypothesisError):
            metric_eval(spec, [0.5, 1.0, 0.25], [0.0] * 3,
                        sampling.subadditive_measure(17, 0, 3))


class TestCauchyProbe:
    def test_generated_sequences_pass(self):
        for k in range(10):
            p = (0.5, 1.0, 2.0)[k % 3]
            spec = MetricSpec("d_op_p", power_min(p, 1.0), p)
            mu = sampling.subadditive_measure(37, k, 4)
            res = cauchy_probe(spec, mu, seed=k, levels=7)
            assert res.holds and res.status == "checked"

    def test_stationary_sequence_trivially_cauchy(self):
        spec = MetricSpec("d_op_p", power_min(1.0, 1.0), 1.0)
        mu = sampling.subadditive_measure(41, 0, 3)
        f = Fn([0.5, 0.25, 1.0], NONNEG)
        res = cauchy_probe(spec, mu, sequence=[f] * 6)
        assert res.holds

    def test_decay_premise_gate(self):
        spec = MetricSpec("d_op_p", power_min(1.0, 1.0), 1.0)
        mu = sampling.subadditive_measure(41, 1, 3)
        f = Fn([0.5, 0.25, 1.0], NONNEG)
        g = Fn([3.5, 3.25, 4.0], NONNEG)
        res = cauchy_probe(spec, mu, sequence=[f, g, f, g, f])
        assert res.status == "premise-failed"


def deleted_suffix_spreads(xs):
    """The spreads the probe's pointwise stage read, ``max(|x_r - x_k| for
    r >= k)`` for each k, from the suffix max hi and min lo."""
    spreads, hi, lo = [], -INF, INF
    for x in reversed(xs):
        hi, lo = max(hi, x), min(lo, x)
        spreads.append(max(hi - x, x - lo))
    spreads.reverse()
    return spreads


def jump_union(seq, p):
    """The union of the probe's jump sets: the points whose step at level k
    has p-th power at least 2^-k."""
    union = 0
    for k in range(1, len(seq)):
        for i, (a, b) in enumerate(zip(seq[k], seq[k - 1])):
            if abs(a - b) ** p >= 2.0 ** -k:
                union |= 1 << i
    return union


@st.composite
def nonneg_sequences(draw):
    """NONNEG sequences of 2 to 12 terms on 1 to 4 points: a base value,
    then at level k steps of up to 1.5 times 2^(-k/p) either way, clamped
    at 0, or an arbitrary jump (a large value or inf)."""
    p = draw(st.floats(0.25, 8.0))
    n = draw(st.integers(1, 4))
    base = st.one_of(st.floats(0.0, 1e6), st.integers(0, 64).map(lambda v: v / 8.0),
                     st.just(INF))
    seq = [draw(st.lists(base, min_size=n, max_size=n))]
    for k in range(1, draw(st.integers(2, 12))):
        term = []
        for v in seq[-1]:
            if draw(st.integers(0, 9)) == 0:
                term.append(draw(base))
            else:
                step = draw(st.floats(-1.0, 1.0) | st.floats(-1.5, 1.5)) * 2.0 ** (-k / p)
                term.append(max(v + step, 0.0))
        seq.append(term)
    return p, seq


class TestPointwiseBoundHolds:
    """The probe's deleted pointwise stage: off the union of the jump sets
    each step at level j is below 2^(-j/p), so the spread after level k is
    below 2^(-k/p) r / (1 - r), r = 2^(-1/p), which is under the bound
    2^(-k/p) / (1 - r) by 2^(-k/p).  The stage could not fail."""

    @settings(max_examples=500, deadline=None)
    @given(case=nonneg_sequences())
    # steps just under the threshold, all one way: the spread's worst case
    @example(case=(8.0, [[sum(0.999 * 2.0 ** (-j / 8.0) for j in range(1, m))]
                         for m in range(1, 13)]))
    @example(case=(0.25, [[INF, 1.0], [INF, 1.0 + 0.99 / 16], [INF, 1.0]]))
    def test_spread_off_the_jump_union_stays_within_the_bound(self, case):
        p, seq = case
        union = jump_union(seq, p)
        factor = 1.0 / (1.0 - 2.0 ** (-1.0 / p))
        for i in range(len(seq[0])):
            if union >> i & 1:
                continue
            spreads = deleted_suffix_spreads([s[i] for s in seq[1:]])
            for k, spread in enumerate(spreads, start=1):
                bound = (2.0 ** (-k / p)) * factor
                assert not spread > bound + metrics._TOL, (i, k, spread, bound)

    def test_probe_passes_the_same_sequences(self):
        # supplied sequences whose steps sit just under the jump threshold
        for k in range(6):
            p = (0.5, 1.0, 2.0)[k % 3]
            spec = MetricSpec("d_op_p", power_min(p, 1.0), p)
            mu = sampling.subadditive_measure(37, k, 4)
            rng = rng_for(5, "spreads", k)
            vals, seq = [rng.randrange(0, 17) / 8.0 for _ in range(4)], []
            for j in range(8):
                seq.append(Fn(list(vals), NONNEG))
                vals = [v + rng.randrange(0, 9) / 8.0 * 16.0 ** -(j + 1) for v in vals]
            res = cauchy_probe(spec, mu, sequence=seq)
            assert res.holds and res.status == "checked"


signed = st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, INF, -INF]))


class TestSymmetryByConstruction:
    """``check_metric_axioms`` integrates d(f, g) only: ``_abs_diff`` is
    symmetric bit for bit, so d(g, f) integrates the same ``Fn``."""

    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(signed, signed), min_size=1, max_size=8))
    @example(pairs=[(0.0, -0.0), (-0.0, 0.0), (INF, INF), (-INF, -INF), (INF, -INF),
                    (-INF, 1.5), (0.1, 0.3), (-2.5, 4.0)])
    def test_abs_diff_is_symmetric_bit_for_bit(self, pairs):
        f, g = [a for a, _ in pairs], [b for _, b in pairs]
        fg, gf = metrics._abs_diff(f, g), metrics._abs_diff(g, f)
        assert [v.hex() for v in fg] == [v.hex() for v in gf]

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: str(s.describe()))
    def test_distances_are_symmetric_bit_for_bit(self, spec):
        mu = sampling.subadditive_measure(13, 1, 4)
        for k in range(40):
            rng = rng_for(3, "symmetry", k)
            f = [rng.randrange(-32, 33) / 8.0 for _ in range(4)]
            g = [rng.randrange(-32, 33) / 8.0 for _ in range(4)]
            assert metric_eval(spec, f, g, mu).hex() == metric_eval(spec, g, f, mu).hex()


# ---------------------------------------------------------------------------
# The batched loops against the per-integrand loops they replaced
# ---------------------------------------------------------------------------

def ref_check_metric_axioms(spec, mu, trials=200, seed=0):
    """``check_metric_axioms`` as it read each distance by one scalar
    integral, trial by trial."""
    metrics._at_least_one("trials", trials)
    sub = metrics.check_measure_property(mu, "subadditive")
    if not sub.holds:
        search = find_triangle_violation(mu, kinds=(spec.kind,))
        raise HypothesisError("metric axioms need a subadditive measure",
                              detail={"subadditive": sub, "triangle_violation": search})
    if spec.kind == "d_op_p":
        metrics._gate_metric_op(spec)
    n = mu.space.n
    full = (1 << n) - 1
    nulls = metrics.null_union(mu, metrics._TOL)
    min_slack = INF
    for k in range(trials):
        rng = rng_for(seed, "metric-triple", k)
        f, g, h = (sampling.signed_vector(rng, n) for _ in range(3))
        dfg = metric_eval(spec, f, g, mu)
        diff = metrics._abs_diff(f, g)
        support = metrics._level_sets(diff, full)[1][0]
        equivalent = mu(support) <= metrics._TOL
        dist_zero = dfg <= metrics._TOL
        if equivalent != dist_zero:
            return metrics.CheckResult(False, dfg, {"axiom": "identity", "f": f, "g": g,
                                                    "support_measure": mu(support),
                                                    "distance": dfg}, mode="sampled")
        if nulls and k % 7 == 0:
            g2 = [v + (1.0 if nulls >> i & 1 else 0.0) for i, v in enumerate(f)]
            d2 = metric_eval(spec, f, g2, mu)
            if d2 > metrics._TOL:
                return metrics.CheckResult(False, d2, {"axiom": "identity", "f": f, "g": g2,
                                                       "null_set": nulls, "distance": d2},
                                           mode="sampled")
        dfh = metric_eval(spec, f, h, mu)
        dhg = metric_eval(spec, h, g, mu)
        gap = dfg - (dfh + dhg)
        if gap > metrics._TOL:
            return metrics.CheckResult(False, gap, {"axiom": "triangle", "f": f, "g": g, "h": h,
                                                    "d_fg": dfg, "d_fh": dfh, "d_hg": dhg},
                                       mode="sampled")
        if math.isfinite(gap):
            min_slack = min(min_slack, -gap)
    return metrics.CheckResult(True, margin=min_slack, mode="sampled", detail={"trials": trials})


def ref_verify_mean_convergence(spec, mu, sequence, limit):
    """``verify_mean_convergence`` as it integrated each distance and mean
    by one scalar call."""
    if not sequence:
        raise DomainError("empty sequence")
    if spec.kind != "d_op_p":
        raise DomainError("mean convergence is stated for the operator metric")
    metrics._gate_metric_op(spec)
    sub = metrics.check_measure_property(mu, "subadditive")
    if not sub.holds:
        raise HypothesisError("requires a subadditive measure", detail=sub)
    e = 1.0 / (spec.p ** 2 + 1.0)
    dists = [metric_eval(spec, fk, limit, mu) for fk in sequence]
    if dists and dists[-1] > min(dists) + metrics._TOL:
        return metrics.CheckResult(False, dists[-1] - min(dists),
                                   {"reason": "distances do not settle", "distances": dists},
                                   status="premise-failed")
    i_limit = metrics.upper_integral(metrics.abs_power(limit.values, spec.p), mu, spec.op) ** e
    worst = -INF
    for k, fk in enumerate(sequence):
        i_k = metrics.upper_integral(metrics.abs_power(fk.values, spec.p), mu, spec.op) ** e
        gap = abs(i_k - i_limit) - dists[k]
        if gap > metrics._TOL:
            return metrics.CheckResult(False, gap, {"index": k, "mean_gap": abs(i_k - i_limit),
                                                    "distance": dists[k]})
        worst = max(worst, gap)
    return metrics.CheckResult(True, margin=-worst if math.isfinite(worst) else INF,
                               detail={"distances": dists,
                                       "scope": "finite-space probe; continuity classes of "
                                                "the measure are not distinguishable here"})


def ref_check_convergence_lemmas(op, mu, sequence, limit, kind):
    """``check_convergence_lemmas`` as it integrated each term by one
    scalar call (its memo changed only how many)."""
    if kind not in ("monotone", "fatou"):
        raise DomainError(f"unknown lemma kind {kind!r}")
    if not sequence:
        raise DomainError("empty sequence")
    nulls = metrics.check_measure_property(mu, "null_additive")
    if not nulls.holds:
        raise HypothesisError("lemmas need a null-additive measure", detail=nulls)
    metrics.verify_flags(op, ["nondecreasing", "left_continuous_second"],
                         metrics._one_scale(limit, *sequence))
    exempt = metrics.null_union(mu, metrics._TOL)
    live = [i for i in range(len(limit)) if not exempt >> i & 1]
    if kind == "monotone":
        for a, b in zip(sequence, sequence[1:]):
            if any(b[i] < a[i] - metrics._TOL for i in live):
                raise DomainError("sequence is not nondecreasing off the null set")
    integrals = [metrics.upper_integral(fk, mu, op) for fk in sequence]
    i_limit = metrics.upper_integral(limit, mu, op)
    detail = {"integrals": integrals, "limit_integral": i_limit, "null_set": exempt}
    if kind == "monotone":
        for a, b in zip(integrals, integrals[1:]):
            if b < a - metrics._TOL:
                return metrics.CheckResult(False, a - b, {"reason": "integral sequence decreased",
                                                          "values": integrals}, detail=detail)
        gap = abs(metrics._rel_gap(integrals[-1], i_limit))
        if gap > metrics._TOL:
            return metrics.CheckResult(False, gap, {"terminal": integrals[-1], "limit": i_limit},
                                       detail=detail)
        return metrics.CheckResult(True, margin=gap, detail=detail)
    bound = min(integrals[len(integrals) // 2:])
    gap = metrics._rel_gap(i_limit, bound)
    if gap > metrics._TOL:
        return metrics.CheckResult(False, gap, {"limit_integral": i_limit, "tail_minimum": bound},
                                   detail=detail)
    return metrics.CheckResult(True, margin=-gap if math.isfinite(gap) else INF, detail=detail)


def ref_cauchy_probe(spec, mu, seed=0, levels=8, sequence=None):
    """``cauchy_probe`` as it read each eps step and each distance by one
    scalar integral, in order."""
    if sequence is None:
        metrics._at_least_one("levels", levels)
    elif len(sequence) < 2:
        raise DomainError("the probe needs a sequence of at least two terms")
    if spec.kind != "d_op_p":
        raise DomainError("the probe is stated for the operator metric")
    metrics._gate_metric_op(spec)
    sub = metrics.check_measure_property(mu, "subadditive")
    if not sub.holds:
        raise HypothesisError("requires a subadditive measure", detail=sub)
    p, n = spec.p, mu.space.n
    exponent = p * p + 1.0
    if sequence is None:
        rng = rng_for(seed, "cauchy", n)
        acc = [rng.randrange(0, 17) / 8.0 for _ in range(n)]
        sequence = [Fn(acc, NONNEG)]
        for k in range(1, levels + 1):
            eps = 4.0 ** (-k / p)
            u = [rng.randrange(0, 9) / 8.0 for _ in range(n)]
            for _ in range(60):
                d = metrics.upper_integral(metrics.abs_power([eps * v for v in u], p),
                                           mu, spec.op)
                if d <= 4.0 ** (-k * p):
                    break
                eps /= 2.0
            acc = [a + eps * v for a, v in zip(acc, u)]
            sequence.append(Fn(acc, NONNEG))
    dists = [metric_eval(spec, a, b, mu) for a, b in zip(sequence, sequence[1:])]
    for k, d in enumerate(dists, start=1):
        if d ** exponent > 4.0 ** (-k * p) + metrics._TOL:
            return metrics.CheckResult(False, d ** exponent - 4.0 ** (-k * p),
                                       {"index": k, "distance": d}, status="premise-failed",
                                       detail={"distances": dists})
    union, min_slack = 0, INF
    for k in range(1, len(sequence)):
        mask = sum(1 << i for i, (a, b) in enumerate(zip(sequence[k].values,
                                                          sequence[k - 1].values))
                   if abs(a - b) ** p >= 2.0 ** -k)
        union |= mask
        mu_k = mu(mask)
        b1 = float(spec.op.fn(2.0 ** -k, mu_k))
        if b1 > 4.0 ** (-k * p) + metrics._TOL:
            return metrics.CheckResult(False, b1 - 4.0 ** (-k * p),
                                       {"stage": "definitional", "k": k, "mu": mu_k})
        b2 = float(spec.op.fn(1.0, mu_k))
        if b2 > (2.0 ** (p * k)) * b1 + metrics._TOL:
            return metrics.CheckResult(False, b2 - (2.0 ** (p * k)) * b1,
                                       {"stage": "scaling", "k": k, "mu": mu_k})
        if b2 > 2.0 ** (-k * p) + metrics._TOL:
            return metrics.CheckResult(False, b2 - 2.0 ** (-k * p),
                                       {"stage": "chain", "k": k, "mu": mu_k})
        if 2.0 ** (-k * p) < 1.0 and mu_k > 2.0 ** (-k * p) + metrics._TOL:
            return metrics.CheckResult(False, mu_k - 2.0 ** (-k * p),
                                       {"stage": "unit-section", "k": k, "mu": mu_k})
        min_slack = min(min_slack, 2.0 ** (-k * p) - mu_k)
    geo = sum(2.0 ** (-k * p) for k in range(1, len(sequence)))
    if mu(union) > geo + metrics._TOL:
        return metrics.CheckResult(False, mu(union) - geo, {"stage": "tail-union",
                                                            "mu_union": mu(union), "bound": geo})
    return metrics.CheckResult(True, margin=min_slack,
                               detail={"levels": len(sequence) - 1, "union_measure": mu(union),
                                       "distances": dists,
                                       "scope": "quantitative bound chain only; finite "
                                                "spaces make pointwise limits trivial"})


def loop_outcome(check, *args, **kwargs):
    """A check's result JSON and margin repr, or the type and message it raises."""
    try:
        res = check(*args, **kwargs)
    except (DomainError, HypothesisError) as e:
        return type(e).__name__, str(e)
    return json.dumps(res.to_dict()), repr(res.margin)


_LOOP_OPS = [(power_min, 0.5), (power_min, 1.0), (power_min, 2.0), (power_prod, 0.5),
             (power_prod, 1.0), (power_prod, 2.0)]


@st.composite
def loop_measures(draw, n):
    """A subadditive measure, one with null atoms, or one that fails
    subadditivity, on n points."""
    seed = draw(st.integers(0, 10 ** 6))
    family = draw(st.sampled_from(["subadditive", "null_atoms", "non_subadditive",
                                   "possibility"]))
    if family == "subadditive":
        return sampling.subadditive_measure(seed, draw(st.integers(0, 50)), n)
    if family == "null_atoms":
        return sampling.measure_with_null_atoms(seed, n)
    if family == "non_subadditive" and n >= 2:
        return sampling.non_subadditive_measure(seed, n)[0]
    return generate_measure(seed, "possibility", n)


@st.composite
def nonneg_terms(draw, n, count):
    """``count`` functions on NONNEG: eighths up to 4, with zeros and ties."""
    value = st.integers(0, 32).map(lambda k: k / 8.0)
    return [Fn(draw(st.lists(value, min_size=n, max_size=n)), NONNEG) for _ in range(count)]


class TestBatchedLoopsMatchTheirLoops:
    """The metric checks that read their upper integrals in batches give the
    per-integrand loops' result bytes, refusals included."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_metric_axioms(self, data):
        n = data.draw(st.integers(1, 6))
        mu = data.draw(loop_measures(n))
        kind = data.draw(st.sampled_from(["frechet", "kyfan", "d_op_p"]))
        if kind == "d_op_p":
            factory, p = data.draw(st.sampled_from(_LOOP_OPS))
            spec = MetricSpec(kind, factory(p, 1.0), p)
        else:
            spec = MetricSpec(kind)
        trials, seed = data.draw(st.integers(1, 30)), data.draw(st.integers(0, 10 ** 6))
        assert loop_outcome(check_metric_axioms, spec, mu, trials, seed) == \
            loop_outcome(ref_check_metric_axioms, spec, mu, trials, seed)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mean_convergence(self, data):
        n = data.draw(st.integers(1, 6))
        mu = data.draw(loop_measures(n))
        factory, p = data.draw(st.sampled_from(_LOOP_OPS))
        spec = MetricSpec("d_op_p", factory(p, 1.0), p)
        limit, *seq = data.draw(nonneg_terms(n, data.draw(st.integers(2, 8))))
        if data.draw(st.booleans()):    # settling toward the limit, as the campaign builds it
            seq = [Fn([v + 4.0 ** (-j / p) * (i % 3) / 2 for i, v in enumerate(limit.values)],
                      NONNEG) for j in range(1, len(seq) + 1)]
        assert loop_outcome(verify_mean_convergence, spec, mu, seq, limit) == \
            loop_outcome(ref_verify_mean_convergence, spec, mu, seq, limit)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_convergence_lemmas(self, data):
        n = data.draw(st.integers(1, 6))
        mu = data.draw(loop_measures(n))
        op = data.draw(st.sampled_from([minimum(), power_min(0.5, 1.0), power_prod(2.0, 1.0)]))
        limit, *seq = data.draw(nonneg_terms(n, data.draw(st.integers(2, 8))))
        if data.draw(st.booleans()):    # nondecreasing and stabilizing at the limit
            seq = [Fn([v * min(1.0, (j + 1) / 3) for v in limit.values], NONNEG)
                   for j in range(len(seq))]
        for kind in ("monotone", "fatou"):
            assert loop_outcome(check_convergence_lemmas, op, mu, seq, limit, kind) == \
                loop_outcome(ref_check_convergence_lemmas, op, mu, seq, limit, kind)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_generated_cauchy_probe(self, data):
        n = data.draw(st.integers(1, 6))
        mu = data.draw(loop_measures(n))
        factory = data.draw(st.sampled_from([power_min, power_prod]))
        p = data.draw(st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 1 / 3]))
        spec = MetricSpec("d_op_p", factory(p, 1.0), p)
        levels, seed = data.draw(st.integers(1, 10)), data.draw(st.integers(0, 10 ** 6))
        assert loop_outcome(cauchy_probe, spec, mu, seed, levels) == \
            loop_outcome(ref_cauchy_probe, spec, mu, seed, levels)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_supplied_cauchy_probe(self, data):
        n = data.draw(st.integers(1, 5))
        mu = data.draw(loop_measures(n))
        factory, p = data.draw(st.sampled_from(_LOOP_OPS))
        spec = MetricSpec("d_op_p", factory(p, 1.0), p)
        base, *seq = data.draw(nonneg_terms(n, data.draw(st.integers(3, 9))))
        shape = data.draw(st.sampled_from(["settling", "jump", "drawn", "length"]))
        if shape in ("settling", "jump"):      # steps under the decay bound
            seq = [Fn([v + 16.0 ** (-j / p) * (i % 3) / 4 for i, v in enumerate(base.values)],
                      NONNEG) for j in range(len(seq))]
        if shape == "jump":                    # a planted jump on the heaviest point
            heavy = max(range(n), key=lambda i: mu(1 << i))
            k = data.draw(st.integers(1, len(seq) - 1))
            seq[k] = Fn([v + (1.0 if i == heavy else 0.0) for i, v in enumerate(seq[k].values)],
                        NONNEG)
        if shape == "length":                  # one term too long or too short
            k = data.draw(st.integers(0, len(seq) - 1))
            values = list(seq[k].values)
            seq[k] = Fn(values + [0.5] if n == 1 or data.draw(st.booleans()) else values[1:],
                        NONNEG)
        assert loop_outcome(cauchy_probe, spec, mu, sequence=seq) == \
            loop_outcome(ref_cauchy_probe, spec, mu, sequence=seq)

    @pytest.mark.parametrize("lengths", [(3, 3, 2), (3, 2, 2), (4, 4, 3), (2, 2, 3), (3, 4)])
    def test_cauchy_probe_length_refusals(self, lengths):
        # a pair of unequal lengths is refused once the pairs before it were
        # read; a length off the space's is refused by the first integral
        spec = MetricSpec("d_op_p", power_min(1.0, 1.0), 1.0)
        mu = sampling.subadditive_measure(23, 0, 3)
        seq = [Fn([0.5] * m, NONNEG) for m in lengths]
        want = loop_outcome(ref_cauchy_probe, spec, mu, sequence=seq)
        assert want[0] == "DomainError"
        assert loop_outcome(cauchy_probe, spec, mu, sequence=seq) == want

    def test_probe_and_lemmas_read_their_batches(self, monkeypatch):
        batches, scalars = [], []
        real_rows, real_upper = metrics._upper_rows, metrics.upper_integral
        monkeypatch.setattr(metrics, "_upper_rows",
                            lambda rows, *args: batches.append(rows.tolist()) or
                            real_rows(rows, *args))
        monkeypatch.setattr(metrics, "upper_integral",
                            lambda f, *args: scalars.append(f.values) or real_upper(f, *args))
        # a generated probe: every first eps step in one batch, the distances in another
        spec = MetricSpec("d_op_p", power_min(1.0, 1.0), 1.0)
        res = cauchy_probe(spec, sampling.subadditive_measure(23, 0, 3), seed=0, levels=8)
        assert res.holds and [len(rows) for rows in batches] == [8, 8]
        assert len(scalars) == 0        # no step at this seed is too long
        # a stabilized sequence and its limit: one batch, no scalar integral
        del batches[:]
        mu = sampling.measure_with_null_atoms(5, 4)
        f = Fn([1.0, 2.0, 0.5, 1.5], NONNEG)
        assert check_convergence_lemmas(minimum(), mu, [f] * 5, f, "monotone").holds
        assert scalars == [] and batches == [[list(f.values)] * 6]

    def test_an_overflowing_power_raises_where_the_loop_does(self):
        mu = sampling.subadditive_measure(3, 1, 2)
        spec = MetricSpec("d_op_p", power_min(1.0, 1.0), 400.0)
        # 8.0 ** 400 overflows: the scalar route refuses it, and the batch
        # refuses it the same way when it reaches that row, after the rows
        # before it
        with pytest.raises(DomainError) as want:
            metrics.metric_eval(spec, [8.0, 0.5], [0.0, 0.0], mu)
        dists = metrics._distances(spec, np.array([[1.0, 0.5], [8.0, 0.5]]), mu)
        assert next(dists) == metrics.metric_eval(spec, [1.0, 0.5], [0.0, 0.0], mu)
        with pytest.raises(DomainError) as got:
            next(dists)
        assert str(got.value) == str(want.value) == "|v|^p overflows a float at v=8.0, p=400.0"
        # no distance overflows (5.5 ** 400 does not), the second term's mean
        # (6.5 ** 400) does, after the first term's mean gap was read
        limit = Fn([1.0, 0.5], NONNEG)
        seq = [Fn([1.0, 0.5], NONNEG), Fn([6.5, 0.5], NONNEG), Fn([1.0, 0.5], NONNEG)]
        want = loop_outcome(ref_verify_mean_convergence, spec, mu, seq, limit)
        assert want == ("DomainError", "|v|^p overflows a float at v=6.5, p=400.0")
        assert loop_outcome(verify_mean_convergence, spec, mu, seq, limit) == want

    def test_the_gate_at_a_large_exponent_does_not_warn(self):
        # the distributive-scaling bounds 1.5 ** 400 and up overflow to inf,
        # and inf * 0 meets the zero cells: both are read silently
        mu = sampling.subadditive_measure(3, 1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for op in (power_min(1.0, 1.0), power_prod(1.0, 1.0)):
                spec = MetricSpec("d_op_p", op, 400.0)
                res = cond_distributive_scaling(op, q=400.0, r=1.0, scale=EXTENDED)
                assert res.to_dict() == {"holds": True, "margin": 0.0, "mode": "grid",
                                         "status": "checked"}
                assert metric_eval(spec, [1.0, 0.5], [0.0, 0.0], mu) == \
                    float(upper_integral(Fn([1.0, 0.5 ** 400], EXTENDED), mu, op)
                          ** (1.0 / 160001.0))
