"""Operator catalog, algebraic-law verification, rescaling and duality maps."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonadd.core import EXTENDED, INF, NONNEG, UNIT, UNIT_OPEN, ValueScale
from nonadd.operators import (
    OPERATOR_FACTORIES,
    OPERATOR_FLAGS,
    DualityMap,
    PhiMap,
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
from nonadd import operators
from nonadd.results import CheckResult, DomainError, HypothesisError


class TestCatalogValues:
    def test_lukasiewicz(self):
        assert lukasiewicz().fn(0.9, 0.3) == pytest.approx(0.2)
        assert lukasiewicz().fn(0.3, 0.3) == 0.0

    def test_product_annihilates_zero(self):
        S = product()
        for t in (0.0, 0.5, 1.0, INF):
            assert S.fn(t, 0.0) == 0.0
            assert S.fn(0.0, t) == 0.0

    def test_marshall_olkin_reduces_to_product_and_min(self):
        mo0 = marshall_olkin(0.0, 0.0)
        mo1 = marshall_olkin(1.0, 1.0)
        for x in (0.0, 0.25, 0.75, 1.0):
            for y in (0.0, 0.5, 1.0):
                assert mo0.fn(x, y) == pytest.approx(x * y)
                assert mo1.fn(x, y) == pytest.approx(min(x, y))

    def test_power_product(self):
        assert power_product(0.5).fn(0.25, 0.25) == pytest.approx(0.25)


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


def ref_operator_property(op, flag, scale=UNIT, tol=1e-12):
    """The per-flag law checks before they became cells of ``core._sweep``,
    ``check_top_absorbing`` included as the flag ``"top_absorbing"``: the
    oracle of the operator laws' verdicts.  One rule of this code is not the
    library's: at an infinite top it counts a nan cell as a violation (and
    reads -inf as the top), where the sweep's nan never violates; no case
    below tells the two apart but the planted one of
    ``test_nan_never_violates_top_absorption``.  The continuity probe
    follows the library's current rule, a gap at the 2**-26 shift below half
    the one at 2**-13 reading 0; the per-flag code compared the 2**-26 gap
    with the floor alone."""
    if flag == "top_absorbing":
        if not scale.closed:
            raise DomainError("top absorption needs a closed scale")
        m = scale.upper
        g = scale.grid()
        left = op.grid(np.full_like(g, m), g)
        right = op.grid(g, np.full_like(g, m))
        for side, vals in (("left", left), ("right", right)):
            if math.isinf(m):
                bad = ~np.isinf(vals)
            else:
                bad = np.abs(vals - m) > tol
            if bad.any():
                j = int(np.argmax(bad))
                return CheckResult(False, INF if math.isinf(m) else float(np.abs(vals - m).max()),
                                   {"side": side, "y": float(g[j]), "value": float(vals[j])},
                                   mode="grid")
        return CheckResult(True, mode="grid")
    if flag not in OPERATOR_FLAGS:
        raise DomainError(f"unknown operator flag {flag!r}")
    g = scale.grid()

    if flag == "nondecreasing":
        vals = op.grid(g[:, None], g[None, :])
        for axis in (0, 1):
            with np.errstate(invalid="ignore"):
                d = np.diff(vals, axis=axis)
            d = np.where(np.isnan(d), 0.0, d)  # inf to inf steps
            if (d < -tol).any():
                i, j = np.argwhere(d < -tol)[0]
                wi = {"axis": int(axis), "a": float(g[i]), "b": float(g[j]),
                      "step_to": float(g[i + 1]) if axis == 0 else float(g[j + 1]),
                      "drop": float(-d[i, j])}
                return CheckResult(False, float(-d[d < -tol].max()), wi, mode="grid")
        return CheckResult(True, mode="grid")

    if flag in ("right_continuous", "left_continuous_second"):
        coarse = g[np.isfinite(g)]
        coarse = coarse[:: max(1, len(coarse) // 9)]
        worst = 0.0
        for a in coarse:
            for b in coarse:
                if flag == "right_continuous":
                    if not (scale.contains(a + 2.0 ** -8) and scale.contains(b + 2.0 ** -8)):
                        continue
                    base = op.fn(a, b)
                    last, far = (op.fn(a + 2.0 ** -k, b + 2.0 ** -k) for k in (26, 13))
                else:
                    if b < 2.0 ** -8:
                        continue
                    base = op.fn(a, b)
                    last, far = (op.fn(a, b - 2.0 ** -k) for k in (26, 13))
                if math.isinf(base) and math.isinf(last):
                    continue
                gap = abs(last - base)
                if gap < abs(far - base) / 2:
                    gap = 0.0   # shrinks with the shift: a continuous rise, not a jump
                lim = max(1e-7, 1e-7 * abs(base))
                if gap > lim:
                    return CheckResult(False, gap,
                                       {"a": float(a), "b": float(b), "limit": float(last),
                                        "value": float(base)},
                                       mode="sampled")
                worst = max(worst, gap)
        return CheckResult(True, margin=worst, mode="sampled")

    if flag in ("zero_left_annihilator", "zero_right_annihilator"):
        vals = op.grid(np.zeros_like(g), g) if flag == "zero_left_annihilator" \
            else op.grid(g, np.zeros_like(g))
        bad = np.abs(vals) > tol
        if bad.any():
            j = int(np.argmax(np.abs(vals)))
            return CheckResult(False, float(np.abs(vals).max()),
                               {"other": float(g[j]), "value": float(vals[j])}, mode="grid")
        return CheckResult(True, mode="grid")

    if flag == "neutral_one":
        if not scale.contains(1.0):
            raise DomainError("neutral_one needs 1 in the scale")
        left = op.grid(np.ones_like(g), g)
        right = op.grid(g, np.ones_like(g))
        for side, vals in (("left", left), ("right", right)):
            diff = np.abs(vals - g)
            diff = np.where(np.isnan(diff), 0.0, diff)
            if (diff > tol).any():
                j = int(np.argmax(diff))
                return CheckResult(False, float(diff.max()),
                                   {"side": side, "y": float(g[j]), "value": float(vals[j])},
                                   mode="grid")
        return CheckResult(True, mode="grid")


LAWS = OPERATOR_FLAGS + ("top_absorbing",)
SCALES = (UNIT, UNIT_OPEN, NONNEG, EXTENDED)
CATALOG = [minimum(), join(), product(), lukasiewicz(), bounded_sum(), plain_sum(), prob_sum(),
           marshall_olkin(0.5, 0.25), marshall_olkin(1.0, 1.0), power_product(0.5),
           power_product(1.0), power_min(2.0, 1.0), power_min(0.5, 0.5), power_prod(0.75, 0.5),
           power_prod(1.0, 1.0)]
# each conjugate with the scales its map is valid on (prob_sum is nan at
# (inf, b) for b > 0, which the reciprocal's flag probe reaches)
CONJUGATES = [(op_dual(join(), one_minus()), (UNIT, UNIT_OPEN)),
              (op_dual(prob_sum(), one_minus()), (UNIT, UNIT_OPEN)),
              (op_dual(plain_sum(), reciprocal()), SCALES),
              (op_dual(prob_sum(), reciprocal()), SCALES)]


def law(op, name, scale):
    """``check_operator_property``, or ``check_top_absorbing`` for the law
    ``"top_absorbing"``."""
    if name == "top_absorbing":
        return check_top_absorbing(op, scale)
    return check_operator_property(op, name, scale)


def outcome(check, op, name, scale):
    """``check(op, name, scale)``, or the ``DomainError`` it raises."""
    try:
        with np.errstate(all="ignore"):
            return check(op, name, scale)
    except DomainError as e:
        return e


def bits(x) -> int:
    return int(np.float64(x).view(np.uint64))


def replay(op, name, res):
    """A failing law's witness names the cell (a, b) at which ``op`` is
    read; every value it records replays bit for bit through ``op.fn``."""
    w = res.witness
    a, b = w["a"], w["b"]
    with np.errstate(all="ignore"):
        reads = [("lhs", a, b), ("rhs", w.get("a_next", a), w.get("b_next", b))] \
            if name == "nondecreasing" else [("value", a, b)]
        if name == "right_continuous":
            reads.append(("limit", a + 2.0 ** -26, b + 2.0 ** -26))
        elif name == "left_continuous_second":
            reads.append(("limit", a, b - 2.0 ** -26))
        for key, x, y in reads:
            assert bits(op.fn(x, y)) == bits(w[key]), (name, key, w)


def agree(op, name, scale):
    got, ref = outcome(law, op, name, scale), outcome(ref_operator_property, op, name, scale)
    if isinstance(ref, DomainError):
        assert isinstance(got, DomainError) and str(got) == str(ref), (op.name, name, got)
        return got
    assert got.holds == ref.holds, (op.name, name, scale.describe(), got, ref)
    assert got.mode == ref.mode
    if not got.holds:
        assert got.margin > 0.0
        replay(op, name, got)
    return got


def planted(kind: str, base, a0: float, b0: float, size: float):
    """``base`` with one planted fault: a dip of ``size`` at the cell
    (a0, b0), a jump of ``size`` for every first argument above a0, or nan
    at (a0, b0).  No ``grid_fn``: the grid reads ``fn`` cell by cell."""
    def fn(a, b):
        v = base.fn(a, b)
        if kind == "jump":
            return v + size if a > a0 else v
        if a == a0 and b == b0:
            return v - size if kind == "dip" else math.nan
        return v
    return from_callable(f"{base.name}_{kind}", fn, base.flags)


class TestLawsAgainstOracle:
    """Every operator law, as cells of ``core._sweep``, gives the verdict of
    the per-flag oracle; a failing law's witness replays through ``op.fn``."""

    @pytest.mark.parametrize("op", CATALOG, ids=lambda op: op.name)
    def test_catalog(self, op):
        for scale in SCALES:
            for name in LAWS:
                agree(op, name, scale)

    @pytest.mark.parametrize("op, scales", CONJUGATES, ids=[op.name for op, _ in CONJUGATES])
    def test_conjugates(self, op, scales):
        for scale in scales:
            for name in LAWS:
                agree(op, name, scale)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["dip", "jump", "nan"]),
           base=st.sampled_from([minimum(), product(), join(), lukasiewicz(),
                                 power_min(2.0, 1.0)]),
           i=st.integers(0, 64), j=st.integers(0, 64),
           size=st.sampled_from([1e-3, 0.25, 1.0]),
           scale=st.sampled_from(SCALES))
    def test_planted_faults(self, kind, base, i, j, size, scale):
        op = planted(kind, base, i / 64, j / 64, size)
        for name in LAWS:
            agree(op, name, scale)

    def test_each_planted_fault_is_caught(self):
        assert not agree(planted("dip", minimum(), 0.5, 0.5, 0.25), "nondecreasing", UNIT).holds
        assert not agree(planted("jump", product(), 0.0, 0.0, 0.25), "right_continuous",
                         UNIT).holds
        # decreasing in the second argument only: the witness steps b
        res = agree(from_callable("dip_b", lambda a, b: a * (1.0 - b)), "nondecreasing", UNIT)
        assert (res.witness["a"], res.witness["b"], res.witness["b_next"]) == (1 / 64, 0.0, 1 / 64)
        nan_cell = planted("nan", minimum(), 0.5, 0.25, 0.0)
        for name in ("nondecreasing", "neutral_one"):
            assert agree(nan_cell, name, UNIT).holds

    def test_witness_and_margin_form(self):
        # a failing law: its first violating cell and its largest violation
        res = check_operator_property(join(), "zero_right_annihilator", UNIT_OPEN)
        assert res.witness == {"a": 1 / 64, "b": 0.0, "value": 1 / 64, "lhs": 1 / 64, "rhs": 0.0}
        assert res.margin == 0.9921875
        # a holding law reports its least slack, not inf
        assert check_operator_property(minimum(), "nondecreasing", UNIT).margin == 0.0
        res = check_operator_property(minimum(), "right_continuous", UNIT)
        assert res.holds and 0.0 < res.margin <= 1e-7
        assert check_top_absorbing(plain_sum(), EXTENDED).margin == 0.0

    def test_continuity_tells_a_rise_from_a_jump(self):
        # steep continuous catalog operators (power_product(0.5) at 0, product
        # at 256) pass both probes on every scale; a staircase with a 0.1 step
        # at every multiple of 1/64, and so at every probe point, fails both
        for op in CATALOG + [power_min(1 / 3, 2.0)]:
            for scale in SCALES:
                for flag in ("right_continuous", "left_continuous_second"):
                    assert check_operator_property(op, flag, scale).holds, (op.name, flag, scale)
        stair = from_callable("stair", lambda a, b: min(a, b)
                              + 0.1 * (math.ceil(64 * a) + math.floor(64 * b)))
        for scale in SCALES:
            for flag in ("right_continuous", "left_continuous_second"):
                res = agree(stair, flag, scale)
                assert not res.holds and res.witness["lhs"] > 0.09, (flag, scale)

    def test_nan_never_violates_top_absorption(self):
        # at an infinite top the per-flag code counted a nan cell as a violation
        op = from_callable("nan_at_top", lambda a, b: math.nan if INF in (a, b) and 0.0 in (a, b)
                           else a + b)
        with np.errstate(invalid="ignore"):
            assert check_top_absorbing(op, EXTENDED).holds
            assert not ref_operator_property(op, "top_absorbing", EXTENDED).holds
        assert math.isnan(op.fn(INF, 0.0))


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

    def test_campaigns_request_every_flag(self, monkeypatch):
        # each flag is asked for by some verifier: a flag no gate requests
        # would be declared and checked for nothing
        import sys

        from nonadd.campaigns import CAMPAIGNS, run_campaign

        requested = set()

        def counted(op, required, scale=UNIT):
            requested.update(required)
            return verify_flags(op, required, scale)

        for module in [m for name, m in sys.modules.items() if name.startswith("nonadd")]:
            if getattr(module, "verify_flags", None) is verify_flags:
                monkeypatch.setattr(module, "verify_flags", counted)
        for cid in CAMPAIGNS:
            run_campaign(cid, 3, 0)
        assert requested == set(OPERATOR_FLAGS)

    def test_commutativity_is_no_flag(self):
        # no verifier asks for it, so no operator declares it or checks it
        with pytest.raises(DomainError, match="unknown operator flag 'commutative'"):
            check_operator_property(product(), "commutative", UNIT)

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


class TestMapGates:
    """Map validation runs once per scale on a passing map and on every call
    on a failing one."""

    def test_catalog_maps_are_shared(self):
        assert phi_power(2.0) is phi_power(2.0)
        assert phi_power(p=2.0) is phi_power(2.0)
        assert phi_power(2) is not phi_power(2.0)
        assert phi_identity() is phi_identity()

    def test_passing_map_runs_forward_on_its_grid_once_per_scale(self):
        grids = []

        def forward(x):
            x = np.asarray(x, dtype=float)
            if x.ndim:
                grids.append(x.size)
            return x

        def ident(x):
            return np.asarray(x, dtype=float)

        for m in (PhiMap("traced_identity", forward, ident),
                  DualityMap("traced_one_minus", lambda x: 1.0 - forward(x),
                             lambda x: 1.0 - ident(x))):
            grids.clear()
            for _ in range(3):
                m.validate_on(UNIT)
            assert grids == [UNIT.grid().size], m.name
            m.validate_on(ValueScale(1.0, True))   # an equal scale shares the entry
            assert len(grids) == 1

    def test_failing_maps_raise_on_every_call(self):
        squash = PhiMap("squash", lambda x: np.minimum(np.asarray(x, float), 0.5),
                        lambda x: np.asarray(x, dtype=float))
        rising = DualityMap("rising", lambda x: np.asarray(x, dtype=float),
                            lambda x: np.asarray(x, dtype=float))
        for m, match in ((squash, "squash"), (rising, "rising: must be strictly decreasing")):
            for _ in range(2):
                with pytest.raises(DomainError, match=match):
                    m.validate_on(UNIT)
            assert m._verified == {}
        for _ in range(2):
            with pytest.raises(DomainError, match="closed scale"):
                one_minus().validate_on(ValueScale(1.0, False))


class TestOpDual:
    def test_sum_under_reciprocal_is_harmonic(self):
        harm = op_dual(plain_sum(), reciprocal())
        # 1/(1/2 + 1/2) = 1 and 1/(1/1 + 1/0) = 0 under the conventions
        assert harm.fn(2.0, 2.0) == pytest.approx(1.0)
        assert harm.fn(1.0, 0.0) == 0.0
        assert harm.fn(INF, 3.0) == pytest.approx(3.0)

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

    # the flags besides nondecreasing that the five-point probe declares for
    # the conjugates under (one_minus, reciprocal); prob_sum's reciprocal
    # conjugate reads nan cells at inf, which the probe now allows silently
    ALL3 = "neutral_one zero_left_annihilator zero_right_annihilator"
    ZEROS = "zero_left_annihilator zero_right_annihilator"
    CONJUGATE_FLAGS = {
        "min": ("", ""),
        "max": (ALL3, ALL3),
        "product": ("", ALL3),
        "lukasiewicz": ("", ALL3),
        "bounded_sum": (ALL3, ""),
        "sum": ("neutral_one", ZEROS),
        "prob_sum": (ALL3, ""),
        "marshall_olkin(0.5,0.25)": ("", ZEROS),
        "marshall_olkin(1.0,1.0)": ("", ""),
        "power_product(0.5)": ("", ZEROS),
        "power_product(1.0)": ("", ALL3),
        "power_min(2.0,1.0)": ("", ""),
        "power_min(0.5,0.5)": ("", ""),
        "power_prod(0.75,0.5)": ("", ZEROS),
        "power_prod(1.0,1.0)": ("", ALL3),
    }

    def test_catalog_conjugates_build_warning_free(self):
        # _conjugate itself: op_dual serves a conjugate cached on the shared
        # catalog instance, possibly built before the warning rule was set
        ops = [minimum(), join(), product(), lukasiewicz(), bounded_sum(), plain_sum(),
                 prob_sum(), marshall_olkin(0.5, 0.25), marshall_olkin(1.0, 1.0),
                 power_product(0.5), power_product(1.0), power_min(2.0, 1.0),
                 power_min(0.5, 0.5), power_prod(0.75, 0.5), power_prod(1.0, 1.0)]
        assert [op.name for op in ops] == list(self.CONJUGATE_FLAGS)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            duals = [[operators._conjugate(op, h) for h in (one_minus(), reciprocal())]
                     for op in ops]
        for op, pair in zip(ops, duals):
            assert all("nondecreasing" in d.flags for d in pair), op.name
            assert tuple(" ".join(sorted(d.flags - {"nondecreasing"})) for d in pair) \
                == self.CONJUGATE_FLAGS[op.name], op.name

    def test_dual_inherits_monotonicity_flag(self):
        d = op_dual(plain_sum(), reciprocal())
        assert "nondecreasing" in d.flags
        assert check_operator_property(d, "nondecreasing", EXTENDED).holds
        # conjugating the sum by the reciprocal annihilates zero
        assert "zero_left_annihilator" in d.flags


class TestMetricFamilies:
    def test_power_min_values(self):
        op = power_min(2.0, 1.0)
        assert op.fn(0.5, 0.1) == pytest.approx(0.1)
        assert op.fn(0.5, 0.5) == pytest.approx(0.25)
        assert op.fn(INF, 2.0) == 2.0

    def test_power_prod_conventions(self):
        op = power_prod(2.0, 1.0)
        assert op.fn(0.0, INF) == 0.0
        assert op.fn(3.0, 0.5) == pytest.approx(4.5)


class TestOneArithmetic:
    """``op.fn`` and ``op.grid`` are one arithmetic: equal bit for bit on
    every cell, for every catalog operator and both duality conjugates.
    Whole arrays and short ones (1, 3, 7, 17 and 33 cells, odd lengths that
    leave SIMD remainders) and 0-d calls all read alike, whichever loops
    numpy dispatches to on the CPU at hand."""

    OPS = [minimum(), join(), product(), lukasiewicz(), bounded_sum(), plain_sum(),
           prob_sum(), marshall_olkin(0.5, 0.25), marshall_olkin(0.5, 0.5),
           marshall_olkin(0.25, 1.0),
           power_product(0.5), power_product(2.0), power_min(1 / 3, 2.0),
           power_min(0.5, 1.0), power_prod(0.75, 0.5), power_prod(1.7, 0.3)]
    CASES = [(op, h) for op in OPS for h in (None, "one_minus", "reciprocal")]

    @staticmethod
    def _cells(op, h):
        """The operator under test and its cells: the scale's grid plus
        random values and a nan, all pairs, flattened (one_minus on [0, 1],
        since it leaves the unit scale otherwise).  A nan reaches an
        operator through compositions; both forms must return it.  A conjugate's scalar form costs
        three numpy calls a cell, so it takes every third grid point."""
        scale = UNIT if h == "one_minus" else EXTENDED
        rng = np.random.default_rng(16)
        extra = rng.uniform(0.0, min(scale.upper, 4.0), 40)
        grid = scale.grid() if h is None else np.append(scale.grid()[::3], scale.upper)
        values = np.concatenate([grid, extra, [np.nan]])
        if h is not None:
            op = op_dual(op, {"one_minus": one_minus(), "reciprocal": reciprocal()}[h])
        return op, values[:, None], values[None, :]

    @pytest.mark.parametrize("op, h", CASES,
                             ids=[f"{op.name}-{h or 'self'}" for op, h in CASES])
    def test_fn_equals_grid_bit_for_bit(self, op, h):
        with np.errstate(all="ignore"):     # nan cells of prob_sum and its conjugates
            op, col, row = self._cells(op, h)
            a, b = np.broadcast_arrays(col, row)
            a, b = a.ravel(), b.ravel()
            bits = np.array([op.fn(x, y) for x, y in zip(a.tolist(), b.tolist())]).view(np.uint64)
            assert (op.grid(col, row).ravel().view(np.uint64) == bits).all()
            assert (op.grid(a, b).view(np.uint64) == bits).all()
            n = len(a)
            for length in (1, 3, 7, 17, 33):
                for i in range(0, 330, length):
                    got = op.grid(a[i:i + length], b[i:i + length]).view(np.uint64)
                    assert (got == bits[i:i + length]).all(), (length, i)
            for i in range(0, n, max(1, n // 150)):
                assert np.float64(op.grid(a[i], b[i])).view(np.uint64) == bits[i]
                assert np.float64(op.grid(float(a[i]), float(b[i]))).view(np.uint64) == bits[i]

    MAPS = [phi_identity(), phi_power(0.5), phi_power(2.0), phi_power(1 / 3), phi_power(1.7),
            one_minus(), reciprocal()]

    @pytest.mark.parametrize("phi", MAPS, ids=[phi.name for phi in MAPS])
    def test_map_on_a_python_float_equals_the_array_route(self, phi):
        """A map's ``forward`` and ``inverse`` on a Python float equal the
        array route bit for bit, at 0.0, -0.0, inf, nan, the scale's grid
        and random values; the two duality maps return a Python float."""
        scale = UNIT if phi.name == "one_minus" else EXTENDED
        rng = np.random.default_rng(18)
        values = np.concatenate([[0.0, -0.0, INF, np.nan], scale.grid(),
                                 rng.uniform(0.0, min(scale.upper, 4.0), 60)])
        for route in (phi.forward, phi.inverse):
            with np.errstate(all="ignore"):     # the power maps at nan and inf
                bits = np.asarray(route(values), dtype=float).view(np.uint64)
                for x, want in zip(values.tolist(), bits):
                    got = route(x)
                    if isinstance(phi, DualityMap):
                        assert type(got) is float, (x, got)
                    assert np.float64(got).view(np.uint64) == want, (x, got)

    def test_marshall_olkin_reads_zero_times_infinity_as_zero(self):
        op = marshall_olkin(0.5, 0.25)
        assert op.fn(0.0, INF) == op.fn(INF, 0.0) == 0.0
        assert op.grid([0.0, INF], [INF, 0.0]).tolist() == [0.0, 0.0]
        for scale in (EXTENDED, NONNEG):
            verify_flags(op, ["nondecreasing", "zero_left_annihilator",
                              "zero_right_annihilator"], scale)

    def test_prob_sum_is_exact_at_one(self):
        op = prob_sum()
        for b in (0.844, 0.1, 0.3, 1e-9, 0.999):
            assert op.fn(1.0, b) == op.fn(b, 1.0) == 1.0

    def test_prob_sum_grid_is_as_silent_as_fn(self):
        # at an infinite argument a + b(1 - a) meets inf - inf and 0 * inf:
        # fn returns nan without a warning, and so does the grid, cell for cell
        op = prob_sum()
        a, b = np.array([INF, INF, INF, 0.5, 0.0, 1.0]), np.array([0.0, 0.5, INF, INF, INF, INF])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bits = np.array([op.fn(x, y) for x, y in zip(a.tolist(), b.tolist())])
            assert np.isnan(bits).tolist() == [True, True, True, False, False, True]
            assert (op.grid(a, b).view(np.uint64) == bits.view(np.uint64)).all()
            for scale in (EXTENDED, NONNEG):    # nan cells fail the law, silently
                assert not check_operator_property(op, "nondecreasing", scale).holds


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

    def test_duality_maps_and_conjugates_are_shared(self):
        assert one_minus() is one_minus() and reciprocal() is reciprocal()
        dual = op_dual(plain_sum(), reciprocal())
        assert dual is op_dual(plain_sum(), reciprocal())
        assert dual is not op_dual(plain_sum(), one_minus())
        assert dual is not op_dual(join(), reciprocal())

    def test_duality_flag_gates_run_once(self, monkeypatch):
        # conjugates are cached on their base operator, so their flag gates
        # run once per (operator, map, flag, scale) however many trials use them
        from nonadd.campaigns import run_campaign

        for op in (join(), minimum(), bounded_sum(), prob_sum(), plain_sum()):
            for h in (one_minus(), reciprocal()):
                op._verified.pop(("dual", h), None)
        checks = []
        check = operators.check_operator_property
        monkeypatch.setattr(operators, "check_operator_property",
                            lambda op, flag, scale=UNIT, **kw: checks.append(
                                (op.name, flag, scale.upper, scale.closed))
                            or check(op, flag, scale, **kw))
        for _ in range(2):
            run_campaign("h_duality_one_minus", 20, 0)
            run_campaign("h_duality_reciprocal", 20, 0)
        assert checks and len(checks) == len(set(checks))
        assert {name for name, *_ in checks} >= {
            "max_dual_one_minus", "min_dual_one_minus", "bounded_sum_dual_one_minus",
            "prob_sum_dual_one_minus", "sum_dual_reciprocal", "max_dual_reciprocal",
            "min_dual_reciprocal"}

    def test_bad_arguments_raise_the_factory_errors(self):
        with pytest.raises(TypeError, match=r"minimum\(\)"):
            minimum(p=1.0)
        with pytest.raises(DomainError):
            power_min(-1.0)
        assert power_min(0.25) is power_min(0.25)

    def test_metric_gate_sweeps_once_per_exponent(self, monkeypatch):
        from nonadd import conditions
        from nonadd.campaigns import run_campaign

        for p in (0.5, 1.0, 2.0):
            power_min(p, 1.0)._verified.clear()
        sweeps = []
        sweep = conditions.CONDITIONS["distributive_scaling"]
        monkeypatch.setitem(conditions.CONDITIONS, "distributive_scaling",
                            lambda *a, **kw: sweeps.append(kw["q"]) or sweep(*a, **kw))
        run_campaign("mean_convergence", 20, 0)
        assert sorted(sweeps) == [0.5, 1.0, 2.0]

    def test_verifier_conditions_sweep_once(self, monkeypatch):
        # every verifier runs its grid conditions through cached_condition,
        # cached on catalog operators, so two runs of the campaigns, and then
        # of the built-in scenarios, sweep each distinct condition once
        import collections

        from nonadd import conditions, theorems
        from nonadd.campaigns import run_campaign
        from nonadd.scenarios import Scenario, builtin_scenario, run_task

        anchors = [factory(*self.ARGS.get(name, ()))
                   for name, factory in OPERATOR_FACTORIES.items()] + [power_min(1.0, 1.0)]

        def clear():
            for op in anchors:
                for key in [k for k in op._verified
                            if k[0] in conditions.CONDITIONS or k[0] == "top_absorbing"]:
                    del op._verified[key]

        sweeps = []
        for cid, fn in list(conditions.CONDITIONS.items()):
            def counted(*a, _cid=cid, _fn=fn, **kw):
                sweeps.append((_cid, tuple(sorted((k, repr(v)) for k, v in kw.items()))))
                return _fn(*a, **kw)
            monkeypatch.setitem(conditions.CONDITIONS, cid, counted)
        top = theorems.check_top_absorbing
        monkeypatch.setattr(theorems, "check_top_absorbing",
                            lambda op, scale: sweeps.append(("top_absorbing", op.name))
                            or top(op, scale))

        clear()
        for _ in range(2):
            for cid, trials in (("subadditive_minkowski", 5), ("dual_minkowski", 3),
                                ("upper_mh", 6), ("seminorm_minkowski", 3),
                                ("comonotone_subadditive", 2), ("upper_mh_necessity", 20)):
                run_campaign(cid, trials, 0)
        assert max(collections.Counter(sweeps).values()) == 1
        per_id = collections.Counter(cid for cid, _ in sweeps)
        necessity = per_id.pop("mh_product_power")
        assert 6 <= necessity <= 18  # distinct (p1, p2, p3) of 20 trials
        # sum_split: the nilpotent gate on lukasiewicz and the verifier's grid
        # gate on min and product; mh_upper: the refuted tuple alone, as the
        # upper_mh verifier decides its chain condition on realized triples
        assert per_id == {"distributive_scaling": 3, "dual_star_split": 2,
                          "dual_star_split_pair": 1, "mh_upper": 1,
                          "counterexample_premise": 1, "sum_split": 3,
                          "top_absorbing": 2}
        # the counterexample reads the refuted tuple's two cache entries
        count = len(sweeps)
        assert theorems.reproduce_counterexample().reproduced
        assert len(sweeps) == count

        clear()
        sweeps.clear()
        for _ in range(2):
            for name in ("counterexample", "harmonic_duality", "reciprocal_integral",
                         "verifier_tour"):
                sc = Scenario(builtin_scenario(name), name)
                for task in sc.tasks:
                    run_task(sc, task)
        # the check_condition task of verifier_tour is the user's own
        # condition: it is swept on every run, outside the cache
        asked = [s for s in sweeps if s[0] == "mh_product_power"]
        assert len(asked) == 2 and asked[0] == asked[1]
        sweeps = [s for s in sweeps if s[0] != "mh_product_power"]
        assert max(collections.Counter(sweeps).values()) == 1
        assert collections.Counter(cid for cid, _ in sweeps) == {
            "counterexample_premise": 1, "mh_upper": 1, "dual_star_split": 1,
            "top_absorbing": 1, "dual_star_split_pair": 1, "sum_split": 1,
            "distributive_scaling": 2, "unit_section_order": 1}
