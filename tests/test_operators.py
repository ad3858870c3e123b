"""Operator catalog, algebraic-law verification, rescaling and duality maps."""

import math

import numpy as np
import pytest

from nonadd.core import EXTENDED, INF, NONNEG, UNIT, ValueScale
from nonadd.operators import (
    OPERATOR_FACTORIES,
    BinaryOp,
    bounded_sum,
    check_operator_property,
    check_top_absorbing,
    from_callable,
    join,
    lukasiewicz,
    marshall_olkin,
    minimum,
    one_minus,
    op_dual,
    op_eval,
    phi_identity,
    phi_power,
    plain_sum,
    power_min,
    power_product,
    power_prod,
    prob_sum,
    product,
    reciprocal,
    verify_flags,
)
from nonadd.results import DomainError, HypothesisError


class TestCatalogValues:
    def test_lukasiewicz(self):
        assert op_eval(lukasiewicz(), 0.9, 0.3) == pytest.approx(0.2)
        assert op_eval(lukasiewicz(), 0.3, 0.3) == 0.0

    def test_product_annihilates_zero(self):
        S = product()
        for t in (0.0, 0.5, 1.0, INF):
            assert op_eval(S, t, 0.0) == 0.0
            assert op_eval(S, 0.0, t) == 0.0

    def test_marshall_olkin_reduces_to_product_and_min(self):
        mo0 = marshall_olkin(0.0, 0.0)
        mo1 = marshall_olkin(1.0, 1.0)
        for x in (0.0, 0.25, 0.75, 1.0):
            for y in (0.0, 0.5, 1.0):
                assert op_eval(mo0, x, y) == pytest.approx(x * y)
                assert op_eval(mo1, x, y) == pytest.approx(min(x, y))

    def test_power_product(self):
        assert op_eval(power_product(0.5), 0.25, 0.25) == pytest.approx(0.25)

    def test_scale_validation(self):
        with pytest.raises(DomainError):
            op_eval(minimum(), 1.5, 0.2, scale=UNIT)


SEMICOPULAS = [minimum(), product(), lukasiewicz(), marshall_olkin(0.5, 0.5),
               marshall_olkin(0.25, 0.75)]


class TestSemicopulaLaws:
    @pytest.mark.parametrize("S", SEMICOPULAS, ids=lambda s: s.name)
    def test_dominated_by_min_and_annihilates_zero(self, S):
        g = UNIT.grid()
        vals = S.grid(g[:, None], g[None, :])
        assert (vals <= np.minimum(g[:, None], g[None, :]) + 1e-12).all()
        assert np.allclose(S.grid(g, np.zeros_like(g)), 0.0, atol=1e-12)
        assert np.allclose(S.grid(np.zeros_like(g), g), 0.0, atol=1e-12)

    @pytest.mark.parametrize("S", SEMICOPULAS, ids=lambda s: s.name)
    def test_neutral_element(self, S):
        assert check_operator_property(S, "neutral_one", UNIT).holds
        g = UNIT.grid()
        assert np.allclose(S.grid(np.ones_like(g), g), g, atol=1e-12)
        assert np.allclose(S.grid(g, np.ones_like(g)), g, atol=1e-12)

    @pytest.mark.parametrize("S", SEMICOPULAS, ids=lambda s: s.name)
    def test_declared_flags_verify(self, S):
        verify_flags(S, S.flags, UNIT)


class TestFlagChecks:
    def test_min_nondecreasing_everywhere(self):
        for scale in (UNIT, NONNEG, EXTENDED):
            assert check_operator_property(minimum(), "nondecreasing", scale).holds

    def test_planted_decreasing_section_fails_with_witness(self):
        bad = from_callable("dip", lambda a, b: a * (1.0 - b), ["nondecreasing"],
                            grid_fn=lambda a, b: np.asarray(a) * (1.0 - np.asarray(b)))
        res = check_operator_property(bad, "nondecreasing", UNIT)
        assert not res.holds
        assert res.witness is not None
        with pytest.raises(HypothesisError):
            verify_flags(bad, ["nondecreasing"], UNIT)

    def test_undeclared_flag_rejected(self):
        with pytest.raises(HypothesisError):
            verify_flags(bounded_sum(), ["zero_right_annihilator"], UNIT)

    def test_right_continuity_sampled(self):
        assert check_operator_property(lukasiewicz(), "right_continuous", UNIT).holds
        # jump planted at a sample anchor of the dyadic probe
        step = from_callable("step", lambda a, b: 0.0 if a <= 0.0 else 1.0,
                             ["right_continuous"],
                             grid_fn=lambda a, b: np.where(np.asarray(a) <= 0.0, 0.0, 1.0)
                             * np.ones_like(np.asarray(b, dtype=float)))
        res = check_operator_property(step, "right_continuous", UNIT)
        assert not res.holds
        assert res.mode == "sampled"

    def test_commutativity(self):
        assert check_operator_property(product(), "commutative", UNIT).holds
        assert not check_operator_property(power_min(2.0, 1.0), "commutative", UNIT).holds

    def test_top_absorption(self):
        assert check_top_absorbing(bounded_sum(), UNIT).holds
        assert check_top_absorbing(plain_sum(), EXTENDED).holds
        assert not check_top_absorbing(product(), UNIT).holds


class TestPhiMaps:
    def test_power_roundtrip_on_scales(self):
        for scale in (UNIT, EXTENDED):
            for p in (0.5, 1.0, 2.0, 3.0):
                phi_power(p).validate_on(scale)
        phi_identity().validate_on(NONNEG)

    def test_bad_map_rejected(self):
        from nonadd.operators import PhiMap
        squash = PhiMap("squash", lambda x: np.minimum(np.asarray(x, float), 0.5),
                        lambda x: np.asarray(x, dtype=float))
        with pytest.raises(DomainError):
            squash.validate_on(UNIT)


class TestDualityMaps:
    def test_one_minus_valid_on_unit_only(self):
        one_minus().validate_on(UNIT)
        with pytest.raises(DomainError):
            one_minus().validate_on(EXTENDED)

    def test_reciprocal_valid_on_extended(self):
        h = reciprocal()
        h.validate_on(EXTENDED)
        assert float(h.forward(0.0)) == INF
        assert float(h.forward(INF)) == 0.0

    def test_open_scale_rejected(self):
        with pytest.raises(DomainError):
            one_minus().validate_on(ValueScale(1.0, False))


class TestOpDual:
    def test_sum_under_reciprocal_is_harmonic(self):
        harm = op_dual(plain_sum(), reciprocal())
        # 1/(1/2 + 1/2) = 1 and 1/(1/1 + 1/0) = 0 under the conventions
        assert op_eval(harm, 2.0, 2.0) == pytest.approx(1.0)
        assert op_eval(harm, 1.0, 0.0) == 0.0
        assert op_eval(harm, INF, 3.0) == pytest.approx(3.0)

    def test_join_under_one_minus_is_min(self):
        dual = op_dual(join(), one_minus())
        g = UNIT.grid()
        assert np.allclose(dual.grid(g[:, None], g[None, :]),
                           np.minimum(g[:, None], g[None, :]), atol=1e-12)

    def test_double_dual_grid_equal(self):
        for op in (join(), bounded_sum(), prob_sum()):
            dd = op_dual(op_dual(op, one_minus()), one_minus())
            g = UNIT.grid()
            assert np.allclose(dd.grid(g[:, None], g[None, :]),
                               op.grid(g[:, None], g[None, :]), atol=1e-12)

    def test_dual_inherits_monotonicity_flag(self):
        d = op_dual(plain_sum(), reciprocal())
        assert "nondecreasing" in d.flags
        assert check_operator_property(d, "nondecreasing", EXTENDED).holds
        # conjugating the sum by the reciprocal annihilates zero
        assert "zero_left_annihilator" in d.flags


class TestMetricFamilies:
    def test_power_min_values(self):
        op = power_min(2.0, 1.0)
        assert op_eval(op, 0.5, 0.1) == pytest.approx(0.1)
        assert op_eval(op, 0.5, 0.5) == pytest.approx(0.25)
        assert op_eval(op, INF, 2.0) == 2.0

    def test_power_prod_conventions(self):
        op = power_prod(2.0, 1.0)
        assert op_eval(op, 0.0, INF) == 0.0
        assert op_eval(op, 3.0, 0.5) == pytest.approx(4.5)


class TestSharedCatalog:
    """Catalog factories return one operator per argument tuple, so gate
    caches are keyed by content."""

    ARGS = {"marshall_olkin": (0.5, 0.25), "power_product": (0.5,),
            "power_min": (2.0, 0.5), "power_prod": (0.5, 1.0)}

    def test_every_factory_shares(self):
        for name, factory in OPERATOR_FACTORIES.items():
            args = self.ARGS.get(name, ())
            assert factory(*args) is factory(*args), name

    def test_keywords_and_defaults_share(self):
        assert minimum() is minimum()
        assert power_min(0.5) is power_min(p=0.5) is power_min(0.5, 1.0) \
            is power_min(u=1.0, p=0.5)
        assert power_prod(2.0) is power_prod(2.0, u=1.0)
        assert marshall_olkin(0.5, 0.5) is marshall_olkin(beta=0.5, alpha=0.5)
        assert power_product(q=0.5) is power_product(0.5)

    def test_differently_named_arguments_stay_apart(self):
        assert power_min(1) is not power_min(1.0)
        assert power_min(1).name == "power_min(1,1.0)"
        mo = marshall_olkin(0.0, -0.0)
        assert mo is not marshall_olkin(0.0, 0.0)
        assert mo.name == "marshall_olkin(0.0,-0.0)"
        assert marshall_olkin(0.0, 0.0).name == "marshall_olkin(0.0,0.0)"

    def test_constructed_operators_are_never_shared(self):
        fn = lambda a, b: a * b
        assert from_callable("x", fn) is not from_callable("x", fn)
        assert op_dual(plain_sum(), reciprocal()) is not op_dual(plain_sum(), reciprocal())

    def test_bad_arguments_raise_the_factory_errors(self):
        with pytest.raises(TypeError, match=r"minimum\(\)"):
            minimum(p=1.0)
        with pytest.raises(DomainError):
            power_min(-1.0)
        assert power_min(0.25) is power_min(0.25)

    def test_metric_gate_sweeps_once_per_exponent(self, monkeypatch):
        from nonadd import metrics
        from nonadd.campaigns import run_campaign

        for p in (0.5, 1.0, 2.0):
            power_min(p, 1.0)._verified.clear()
        sweeps = []
        sweep = metrics.cond_distributive_scaling
        monkeypatch.setattr(metrics, "cond_distributive_scaling",
                            lambda *a, **kw: sweeps.append(kw["q"]) or sweep(*a, **kw))
        run_campaign("mean_convergence", 20, 0)
        assert sorted(sweeps) == [0.5, 1.0, 2.0]

    def test_campaign_gates_sweep_once(self, monkeypatch):
        # the fixed gates of two campaigns are cached on their catalog operators
        from nonadd import conditions
        from nonadd.campaigns import run_campaign

        ids = ("distributive_scaling", "dual_star_split", "dual_star_split_pair")
        for op in (minimum(), product(), power_product(0.5), join(), plain_sum()):
            for key in [k for k in op._verified if k[0] in ids]:
                del op._verified[key]
        sweeps = []
        for cid in ids:
            def counted(*a, _cid=cid, _fn=conditions.CONDITIONS[cid], **kw):
                sweeps.append((_cid, (kw.get("op") or kw["star"]).name))
                return _fn(*a, **kw)
            monkeypatch.setitem(conditions.CONDITIONS, cid, counted)
        for _ in range(2):
            run_campaign("subadditive_minkowski", 5, 0)
            run_campaign("dual_minkowski", 3, 0)
        assert sorted(sweeps) == sorted([
            ("distributive_scaling", minimum().name),
            ("distributive_scaling", product().name),
            ("distributive_scaling", power_product(0.5).name),
            ("dual_star_split", join().name),
            ("dual_star_split", plain_sum().name),
            ("dual_star_split_pair", plain_sum().name),
        ])
