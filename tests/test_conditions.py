"""Named inequality conditions: grid verdicts, witnesses, and
self-consistency between the general and specialized checkers."""

import inspect
import json
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonadd.campaigns import _UPPER_MH
from nonadd.conditions import (
    CONDITIONS,
    _as_values,
    _mode,
    _sum_split_cells,
    check_condition,
    cond_mh_lower,
    cond_mh_sugeno,
    cond_mh_upper,
    cond_sum_split,
)
from nonadd.core import EXTENDED, INF, NONNEG, UNIT, UNIT_OPEN, ValueScale
from nonadd.operators import (
    BinaryOp,
    PhiMap,
    bounded_sum,
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
    power_prod,
    power_product,
    prob_sum,
    product,
    reciprocal,
)
from nonadd.results import CheckResult, DomainError
from nonadd.scenarios import _CONDITION_PARAMS

MIN = minimum()
PROD = product()
JOIN = join()
SL = lukasiewicz()
BSUM = bounded_sum()
PSUM = prob_sum()
SUM = plain_sum()


class TestProductPowerFamily:
    def test_holds_iff_first_exponent_smallest(self):
        assert check_condition("mh_product_power", p1=1, p2=2, p3=2).holds
        assert check_condition("mh_product_power", p1=1, p2=1, p3=1).holds
        assert check_condition("mh_product_power", p1=0.5, p2=1, p3=3).holds
        assert not check_condition("mh_product_power", p1=2, p2=1, p3=2).holds
        assert not check_condition("mh_product_power", p1=2, p2=3, p3=1).holds

    def test_violation_family_at_extreme_heights(self):
        # with the first exponent too large, the pair (a, b) = (1, 0) breaks
        # the inequality at interior scalars: direct evaluation
        p1, p2 = 2.0, 1.0
        c = 0.25
        lhs = (1.0 ** p1 * c) ** (1 / p1)     # value of the combined side
        rhs = (1.0 ** p2 * c) ** (1 / p2)     # value of the split side
        assert lhs > rhs
        res = check_condition("mh_product_power", p1=p1, p2=p2, p3=2.0)
        assert not res.holds
        w = res.witness
        # the witness replays: recompute the scalar form at the witness point
        c1 = w["c"] ** (1 / p1)
        c2 = w["c"] ** (1 / p2)
        c3 = w["c"] ** (1 / 2.0)
        expr = (w["a"] * (c2 - c1) + w["b"] * (c3 - c1)
                + w["a"] * w["b"] * (c1 - c2 * c3))
        assert expr < 0

    def test_agrees_with_general_checker(self):
        # specializing the three-map condition to the product operator and
        # power maps must match the closed-form family verdict
        for (p1, p2, p3) in [(1, 2, 2), (2, 1, 2), (1, 1, 1), (3, 1, 1)]:
            general = cond_mh_upper(PSUM, PSUM, (PROD,) * 3,
                                    (phi_power(p1), phi_power(p2), phi_power(p3)), UNIT)
            family = check_condition("mh_product_power", p1=p1, p2=p2, p3=p3)
            assert general.holds == family.holds, (p1, p2, p3)


class TestCounterexamplePremise:
    def test_holds_for_the_refuted_tuple(self):
        res = check_condition("counterexample_premise", semicopula=SL, star=BSUM)
        assert res.holds

    def test_fails_for_a_tuple_without_the_shift_bound(self):
        # min over a product star: min(ab, c) can exceed min(a, c) * b
        res = check_condition("counterexample_premise", semicopula=MIN, star=PROD)
        assert not res.holds
        w = res.witness
        lhs = min(w["a"] * w["b"], w["c"])
        rhs = min(min(w["a"], w["c"]) * w["b"], w["a"] * min(w["b"], w["c"]))
        assert lhs > rhs + 1e-12
        # the hand-checked point 1, 0.9, 0.9 exhibits the same gap
        assert min(1.0 * 0.9, 0.9) > min(min(1.0, 0.9) * 0.9, 1.0 * min(0.9, 0.9))


class TestSumSplitting:
    def test_semicopula_split_for_min(self):
        # (a+b) ^ c <= a^c + b^c swept on the grid
        assert check_condition("semicopula_sum_split", semicopula=MIN).holds

    def test_semicopula_split_for_marshall_olkin(self):
        assert check_condition("semicopula_sum_split",
                               semicopula=marshall_olkin(0.5, 0.5)).holds

    def test_nilpotent_one_fails(self):
        res = check_condition("semicopula_sum_split", semicopula=SL)
        assert not res.holds
        w = res.witness
        assert max(w["a"] + w["b"] + w["c"] - 1, 0) > \
            max(w["a"] + w["c"] - 1, 0) + max(w["b"] + w["c"] - 1, 0)

    def test_operator_split(self):
        assert check_condition("sum_split", op=MIN, scale=UNIT).holds
        assert check_condition("sum_split", op=PROD, scale=UNIT).holds
        assert check_condition("sum_split", op=SUM, scale=EXTENDED).holds
        assert not check_condition("sum_split", op=SL, scale=UNIT).holds

    def test_explicit_values_mode(self):
        res = check_condition("sum_split", op=MIN, scale=UNIT, c_values=[0.3, 0.9])
        assert res.holds and res.mode == "explicit"

    def test_sweep_cell_budget(self):
        # 65 x 65 grid cells per c value: 3,970 values fit 2**24 cells, 3,971 do not
        res = cond_sum_split(PROD, UNIT, c_values=np.arange(3970) / 3970)
        assert res.holds and res.mode == "explicit"
        with pytest.raises(DomainError, match=f"condition sweep enumerates {3971 * 65 ** 2:,}"):
            cond_sum_split(PROD, UNIT, c_values=np.arange(3971) / 3971)


class TestSuppliedValues:
    def test_value_outside_scale_named_as_a_float(self):
        with pytest.raises(DomainError) as err:
            cond_sum_split(MIN, UNIT, c_values=[0.5, 1.5])
        assert str(err.value) == f"supplied value 1.5 outside {UNIT.describe()}"
        with pytest.raises(DomainError, match="supplied value nan outside"):
            _as_values(UNIT, [0.25, float("nan")], UNIT.grid())

    @pytest.mark.parametrize("values", [[0.5], [0.0, 0.25, 1.0], [0.75, 0.25, 0.75],
                                        [0.0, -0.0, 0.5], [-0.0, 0.0], [0.5, 0.5]])
    def test_values_equal_their_unique_sort(self, values):
        # strictly increasing input skips np.unique; unsorted input, repeats
        # and zeros of both signs keep it, so the bytes are np.unique's
        got = _as_values(UNIT, values, UNIT.grid())
        want = np.unique(np.asarray(values, dtype=float))
        assert got.dtype == float and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("call", [
        lambda: cond_sum_split(SL, UNIT, c_values=[]),
        lambda: check_condition("dual_star_split", star=MIN, op_h=MIN, c_values=[]),
    ])
    def test_empty_values_refused(self, call):
        # an empty list would sweep no cell and hold with margin inf, where
        # the grid fails (sum_split of the Lukasiewicz t-norm)
        with pytest.raises(DomainError, match="must not be empty"):
            call()



class TestDistributiveScaling:
    @pytest.mark.parametrize("op,q,r", [(MIN, 1.0, 1.0), (PROD, 1.0, 1.0),
                                        (power_product(0.5), 0.5, 1.0),
                                        (power_min(2.0, 1.0), 2.0, 1.0),
                                        (power_min(0.5, 0.5), 0.5, 1.0)])
    def test_compliant_operators(self, op, q, r):
        assert check_condition("distributive_scaling", op=op, q=q, r=r,
                               scale=EXTENDED).holds

    def test_plain_min_fails_for_small_exponent(self):
        # min does not satisfy the scaling bound with exponent below 1
        res = check_condition("distributive_scaling", op=MIN, q=0.5, r=1.0,
                              scale=EXTENDED)
        assert not res.holds

    def test_witness_labels_part(self):
        res = check_condition("distributive_scaling", op=MIN, q=0.5, r=1.0,
                              scale=EXTENDED)
        assert "scale_factor" in res.witness


class TestUnitSectionOrder:
    def test_metric_families_pass(self):
        for p in (0.5, 1.0, 2.0):
            for u in (0.5, 1.0):
                from nonadd.operators import power_prod
                assert check_condition("unit_section_order", op=power_min(p, u),
                                       scale=EXTENDED).holds
                assert check_condition("unit_section_order", op=power_prod(p, u),
                                       scale=EXTENDED).holds

    def test_large_second_exponent_fails(self):
        res = check_condition("unit_section_order", op=power_min(1.0, 2.0),
                              scale=EXTENDED)
        assert not res.holds
        w = res.witness
        assert min(1.0, w["x"] ** 2.0) <= w["y"] + 1e-12 and w["x"] > w["y"]


class TestUpperMHTuples:
    @pytest.mark.parametrize("spec", _UPPER_MH, ids=lambda spec: spec["name"])
    def test_campaign_tuple_passes_on_its_scale(self, spec):
        # the upper_mh campaign fuzzes these tuples as ones whose condition
        # holds; its verifier decides only the chain condition of each trial
        ops = spec["ops"]
        assert cond_mh_upper(ops.star, ops.combiner, ops.circs, ops.phis, UNIT).holds


class TestSugenoForm:
    def test_join_star_with_ordered_powers(self):
        phis = (phi_power(0.5), phi_power(1.0), phi_power(2.0))
        assert cond_mh_sugeno(JOIN, phis, UNIT).holds

    def test_bounded_sum_star_with_ordered_powers(self):
        phis = (phi_power(1.0), phi_power(1.0), phi_power(2.0))
        assert cond_mh_sugeno(BSUM, phis, UNIT).holds

    def test_reversed_powers_fail(self):
        phis = (phi_power(2.0), phi_power(1.0), phi_power(1.0))
        res = cond_mh_sugeno(BSUM, phis, UNIT)
        assert not res.holds

    def test_matches_general_form(self):
        phis = (phi_power(1.0), phi_power(2.0), phi_power(2.0))
        special = cond_mh_sugeno(JOIN, phis, UNIT)
        general = cond_mh_upper(JOIN, JOIN, (MIN,) * 3, phis, UNIT)
        assert special.holds == general.holds


class TestLowerConditions:
    def test_bounded_sum_probabilistic_combiner(self):
        # ((a+b) & 1) v (c + d - cd) <= ((a v c) + (b v d)) & 1 on the grid
        res = check_condition("mh_lower", star=BSUM, combiner=BSUM, boxplus=PSUM,
                              circs=(JOIN,) * 3, phis=(phi_identity(),) * 3,
                              scale=UNIT)
        assert res.holds

    def test_plain_sum_everywhere(self):
        res = check_condition("mh_lower", star=SUM, combiner=SUM, boxplus=SUM,
                              circs=(JOIN,) * 3, phis=(phi_identity(),) * 3,
                              scale=EXTENDED)
        assert res.holds

    def test_join_form(self):
        res = check_condition("mh_lower_join", star=SUM,
                              phis=(phi_identity(),) * 3, scale=EXTENDED)
        assert res.holds

    def test_join_form_fails_without_domination(self):
        # a star below the join cannot dominate the joined scalars
        res = check_condition("mh_lower_join", star=PROD,
                              phis=(phi_identity(),) * 3, scale=UNIT)
        assert not res.holds


class TestDualitySplits:
    def test_harmonic_inequality(self):
        harm = op_dual(SUM, reciprocal())
        res = check_condition("dual_star_split", star=SUM, op_h=harm, scale=EXTENDED)
        assert res.holds

    def test_lukasiewicz_from_bounded_sum_conjugation(self):
        oph = op_dual(BSUM, one_minus_map())
        res = check_condition("dual_star_split", star=JOIN, op_h=oph, scale=UNIT)
        assert res.holds

    def test_infinite_violation_gives_infinite_margin(self):
        # the c = 0 slice holds finite violations (up to 2046) and infinite ones
        # (lhs = inf); the margin is the largest violation over all cells, inf
        res = check_condition("dual_star_split", star=PROD, op_h=SL, scale=EXTENDED)
        assert not res.holds
        assert res.margin == INF
        assert res.witness == {"a": 0.015625, "b": 128.0, "c": 0.0, "lhs": 1.0, "rhs": 0.0}

    def test_negative_star_cells_are_out_of_scale(self):
        # a - b leaves [0, 1] below 0 wherever a < b, so those cells are not
        # swept; read, the cell a = 0, b = 1 would give lhs 0 > rhs -c
        diff = from_callable("diff", lambda a, b: a - b, grid_fn=np.subtract)
        assert check_condition("dual_star_split", star=diff, op_h=SL, scale=UNIT).holds

    def test_pair_form_with_join_conjugate(self):
        oph = op_dual(MIN, reciprocal())  # conjugate of min is join
        res = check_condition("dual_star_split_pair", star=SUM, op_h=oph,
                              boxplus=SUM, scale=EXTENDED)
        assert res.holds


def one_minus_map():
    from nonadd.operators import one_minus
    return one_minus()


class TestBruteForceAgreement:
    def test_scalar_loop_matches_vectorized(self):
        # independent scalar evaluation on a coarse sub-grid
        grid = np.linspace(0, 1, 9)
        for op, expect in ((MIN, True), (SL, False)):
            worst = 0.0
            for a in grid:
                for b in grid:
                    if a + b > 1:
                        continue
                    for c in grid:
                        lhs = op.fn(a + b, c)
                        rhs = op.fn(a, c) + op.fn(b, c)
                        worst = max(worst, lhs - rhs)
            brute_holds = worst <= 1e-12
            vec = check_condition("sum_split", op=op, scale=UNIT)
            assert brute_holds == expect == vec.holds

    def test_unknown_condition_rejected(self):
        with pytest.raises(DomainError):
            check_condition("no_such_condition")

    def test_registry_complete(self):
        assert len(CONDITIONS) == 12


# --- loop-form reference kernels ----------------------------------------------
# The library evaluates every condition as one chunked broadcast sweep.  These
# are the per-slice Python loops it replaced, with their accumulator; each
# condition must give the same verdict, margin (to the last bit), witness
# (values and key order) and mode.

_DEFAULT_SPACING = 1.0 / 64.0
_PAIR_SPACING = 1.0 / 16.0


class _Acc:
    """Accumulates violations/slacks across chunked grid sweeps."""

    def __init__(self, tol: float):
        self.tol = tol
        self.min_slack = INF
        self.max_viol = 0.0
        self.witness: dict | None = None

    def add(self, lhs, rhs, coords: dict, valid=None):
        lhs = np.asarray(lhs, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        lhs, rhs = np.broadcast_arrays(lhs, rhs)
        ok = np.ones(lhs.shape, dtype=bool) if valid is None else np.broadcast_to(valid, lhs.shape)
        with np.errstate(invalid="ignore"):
            viol = ok & (lhs > rhs + self.tol)
            slack = rhs - lhs
        finite = ok & np.isfinite(slack)
        if finite.any():
            self.min_slack = min(self.min_slack, float(slack[finite].min()))
        if viol.any():
            self.max_viol = max(self.max_viol, -float(slack[viol].min()))
            if self.witness is None:
                idx = tuple(np.argwhere(viol)[0])
                wit = {}
                for name, arr in coords.items():
                    a = np.broadcast_to(np.asarray(arr, dtype=float), lhs.shape)
                    wit[name] = float(a[idx])
                wit["lhs"] = float(lhs[idx])
                wit["rhs"] = float(rhs[idx])
                self.witness = wit

    def result(self, mode: str) -> CheckResult:
        if self.witness is None:
            return CheckResult(True, margin=self.min_slack, mode=mode)
        return CheckResult(False, margin=self.max_viol, witness=self.witness, mode=mode)


def ref_in_scale(scale: ValueScale, arr) -> np.ndarray:
    """``ValueScale.contains`` at every cell: nan and negative values are out."""
    return np.vectorize(scale.contains, otypes=[bool])(arr)


def ref_mh_upper(star: BinaryOp, combiner: BinaryOp,
                 circs: Sequence[BinaryOp], phis: Sequence[PhiMap],
                 scale: ValueScale = UNIT, c_values=None,
                 tol: float = 1e-12) -> CheckResult:
    c1, c2, c3 = circs
    p1, p2, p3 = phis
    g = scale.grid(_DEFAULT_SPACING)
    cs = _as_values(scale, c_values, g)
    A, B = g[:, None], g[None, :]
    sAB = star.grid(A, B)
    valid = ref_in_scale(scale, sAB)
    f1 = p1.forward(sAB)
    f2A = p2.forward(A)
    f3B = p3.forward(B)
    acc = _Acc(tol)
    for c in cs:
        lhs = p1.inverse(c1.grid(f1, np.full_like(f1, c)))
        rhs = combiner.grid(p2.inverse(c2.grid(f2A, np.full_like(f2A, c))),
                            p3.inverse(c3.grid(f3B, np.full_like(f3B, c))))
        acc.add(lhs, rhs, {"a": A, "b": B, "c": c}, valid)
    return acc.result(_mode(c_values))


def ref_mh_sugeno(star: BinaryOp, phis: Sequence[PhiMap],
                  scale: ValueScale = UNIT, c_values=None,
                  tol: float = 1e-12) -> CheckResult:
    p1, p2, p3 = phis
    g = scale.grid(_DEFAULT_SPACING)
    cs = _as_values(scale, c_values, g)
    A, B = g[:, None], g[None, :]
    sAB = star.grid(A, B)
    valid = ref_in_scale(scale, sAB)
    acc = _Acc(tol)
    for c in cs:
        lhs = np.minimum(sAB, float(p1.inverse(c)))
        rhs = star.grid(np.minimum(A, float(p2.inverse(c))),
                        np.minimum(B, float(p3.inverse(c))))
        acc.add(lhs, rhs, {"a": A, "b": B, "c": c}, valid)
    return acc.result(_mode(c_values))


def ref_mh_product_power(p1: float, p2: float, p3: float, c_values=None,
                         tol: float = 1e-12) -> CheckResult:
    g = UNIT.grid(_DEFAULT_SPACING)
    cs = _as_values(UNIT, c_values, g)
    A, B = g[:, None], g[None, :]
    acc = _Acc(tol)
    for c in cs:
        w1, w2, w3 = c ** (1.0 / p1), c ** (1.0 / p2), c ** (1.0 / p3)
        expr = A * (w2 - w1) + B * (w3 - w1) + A * B * (w1 - w2 * w3)
        acc.add(-expr, np.zeros_like(expr), {"a": A, "b": B, "c": c})
    return acc.result(_mode(c_values))


def ref_counterexample_premise(semicopula: BinaryOp, star: BinaryOp,
                               tol: float = 1e-12) -> CheckResult:
    S = semicopula
    g = UNIT.grid(_DEFAULT_SPACING)
    A, B = g[:, None], g[None, :]
    sAB = star.grid(A, B)
    valid = ref_in_scale(UNIT, sAB)
    acc = _Acc(tol)
    for c in g:
        cc = np.full_like(sAB, c)
        lhs = S.grid(sAB, cc)
        rhs = np.minimum(star.grid(S.grid(A, np.full_like(A, c)), B),
                         star.grid(A, S.grid(B, np.full_like(B, c))))
        acc.add(lhs, rhs, {"a": A, "b": B, "c": c}, valid)
    return acc.result("grid")


def ref_semicopula_sum_split(semicopula: BinaryOp, tol: float = 1e-12) -> CheckResult:
    S = semicopula
    g = UNIT.grid(_DEFAULT_SPACING)
    A, B = g[:, None], g[None, :]
    valid = A + B <= 1.0 + 1e-15
    acc = _Acc(tol)
    for c in g:
        cc = np.full_like(A + B, c)
        lhs = S.grid(np.minimum(A + B, 1.0), cc)
        rhs = S.grid(A, np.full_like(A, c)) + S.grid(B, np.full_like(B, c))
        acc.add(lhs, rhs, {"a": A, "b": B, "c": c}, valid)
    return acc.result("grid")


def ref_sum_split(op: BinaryOp, scale: ValueScale = UNIT, c_values=None,
                  tol: float = 1e-12) -> CheckResult:
    g = scale.grid(_DEFAULT_SPACING)
    cs = _as_values(scale, c_values, g)
    A, B = g[:, None], g[None, :]
    s = A + B
    valid = ref_in_scale(scale, s)
    acc = _Acc(tol)
    for c in cs:
        lhs = op.grid(np.where(valid, s, 0.0), np.full_like(s, c))
        rhs = op.grid(A, np.full_like(A, c)) + op.grid(B, np.full_like(B, c))
        acc.add(lhs, rhs, {"a": A, "b": B, "c": c}, valid)
    return acc.result(_mode(c_values))


def ref_distributive_scaling(op: BinaryOp, q: float, r: float,
                             scale: ValueScale = UNIT, tol: float = 1e-12) -> CheckResult:
    g = scale.grid(_DEFAULT_SPACING)
    X, Y = g[:, None], g[None, :]
    opXY = op.grid(X, Y)
    acc = _Acc(tol)
    for z in g:
        s = Y + z
        valid = ref_in_scale(scale, s)
        lhs = op.grid(X, np.where(valid, s, 0.0))
        rhs = opXY + op.grid(X, np.full_like(X, z))
        acc.add(lhs, rhs, {"x": X, "y": Y, "z": z}, valid)
    for a in (1.5, 2.0, 4.0, 16.0, 256.0):
        s = a * X
        valid = ref_in_scale(scale, s)
        lhs = op.grid(np.where(valid, s, 0.0), Y)
        with np.errstate(invalid="ignore"):
            rhs = (a ** q) * np.float_power(opXY, r)
        acc.add(lhs, rhs, {"scale_factor": np.full_like(X, a), "x": X, "y": Y}, valid)
    return acc.result("grid")


def ref_mh_lower(star: BinaryOp, combiner: BinaryOp, boxplus: BinaryOp,
                 circs: Sequence[BinaryOp], phis: Sequence[PhiMap],
                 scale: ValueScale = UNIT, tol: float = 1e-12) -> CheckResult:
    c1, c2, c3 = circs
    p1, p2, p3 = phis
    g = scale.grid(_PAIR_SPACING)
    cd_pairs = [(float(c), float(d)) for c in g for d in g]
    A, B = g[:, None], g[None, :]
    sAB = star.grid(A, B)
    valid = ref_in_scale(scale, sAB)
    f1 = p1.forward(sAB)
    f2A = p2.forward(A)
    f3B = p3.forward(B)
    acc = _Acc(tol)
    for c, d in cd_pairs:
        combined = float(boxplus.grid(c, d))
        lhs = p1.inverse(c1.grid(f1, np.full_like(f1, combined)))
        rhs = combiner.grid(p2.inverse(c2.grid(f2A, np.full_like(f2A, c))),
                            p3.inverse(c3.grid(f3B, np.full_like(f3B, d))))
        acc.add(lhs, rhs, {"a": A, "b": B, "c": c, "d": d}, valid)
    return acc.result("grid")


def ref_mh_lower_join(star: BinaryOp, phis: Sequence[PhiMap],
                      scale: ValueScale = UNIT, tol: float = 1e-12) -> CheckResult:
    p1, p2, p3 = phis
    g = scale.grid(_PAIR_SPACING)
    cd_pairs = [(float(c), float(d)) for c in g for d in g]
    A, B = g[:, None], g[None, :]
    sAB = star.grid(A, B)
    valid = ref_in_scale(scale, sAB)
    acc = _Acc(tol)
    for c, d in cd_pairs:
        lhs = np.maximum(sAB, max(float(p1.inverse(c)), float(p1.inverse(d))))
        rhs = star.grid(np.maximum(A, float(p2.inverse(c))),
                        np.maximum(B, float(p3.inverse(d))))
        acc.add(lhs, rhs, {"a": A, "b": B, "c": c, "d": d}, valid)
    return acc.result("grid")


def ref_dual_star_split(star: BinaryOp, op_h: BinaryOp,
                        scale: ValueScale = UNIT, c_values=None,
                        tol: float = 1e-12) -> CheckResult:
    g = scale.grid(_DEFAULT_SPACING)
    cs = _as_values(scale, c_values, g)
    A, B = g[:, None], g[None, :]
    sAB = star.grid(A, B)
    valid = ref_in_scale(scale, sAB)
    acc = _Acc(tol)
    for c in cs:
        cc = np.full_like(sAB, c)
        lhs = op_h.grid(sAB, cc)
        rhs = star.grid(op_h.grid(A, np.full_like(A, c)), op_h.grid(B, np.full_like(B, c)))
        acc.add(lhs, rhs, {"a": A, "b": B, "c": c}, valid)
    return acc.result(_mode(c_values))


def ref_dual_star_split_pair(star: BinaryOp, op_h: BinaryOp, boxplus: BinaryOp,
                             scale: ValueScale = UNIT, tol: float = 1e-12) -> CheckResult:
    g = scale.grid(_PAIR_SPACING)
    cd_pairs = [(float(c), float(d)) for c in g for d in g]
    A, B = g[:, None], g[None, :]
    sAB = star.grid(A, B)
    valid = ref_in_scale(scale, sAB)
    acc = _Acc(tol)
    for c, d in cd_pairs:
        combined = float(boxplus.grid(c, d))
        lhs = op_h.grid(sAB, np.full_like(sAB, combined))
        rhs = star.grid(op_h.grid(A, np.full_like(A, c)), op_h.grid(B, np.full_like(B, d)))
        acc.add(lhs, rhs, {"a": A, "b": B, "c": c, "d": d}, valid)
    return acc.result("grid")


def ref_unit_section_order(op: BinaryOp, scale: ValueScale = UNIT,
                           tol: float = 1e-12) -> CheckResult:
    xg = scale.grid(_DEFAULT_SPACING)
    yg = UNIT.grid(_DEFAULT_SPACING)
    yg = yg[(yg > 0.0) & (yg < 1.0)]
    X, Y = xg[:, None], yg[None, :]
    sect = op.grid(np.ones_like(X), X)
    premise = np.broadcast_to(sect, (len(xg), len(yg))) <= Y + tol
    acc = _Acc(tol)
    lhs = np.where(premise, X * np.ones_like(Y), 0.0)
    rhs = np.where(premise, Y * np.ones_like(X), INF)
    acc.add(lhs, rhs, {"x": X, "y": Y, "unit_section": sect * np.ones_like(Y)}, premise)
    return acc.result("grid")


REFERENCE = {
    "mh_upper": ref_mh_upper,
    "mh_sugeno": ref_mh_sugeno,
    "mh_product_power": ref_mh_product_power,
    "counterexample_premise": ref_counterexample_premise,
    "semicopula_sum_split": ref_semicopula_sum_split,
    "sum_split": ref_sum_split,
    "distributive_scaling": ref_distributive_scaling,
    "mh_lower": ref_mh_lower,
    "mh_lower_join": ref_mh_lower_join,
    "dual_star_split": ref_dual_star_split,
    "dual_star_split_pair": ref_dual_star_split_pair,
    "unit_section_order": ref_unit_section_order,
}

# catalog operators (and two conjugates) whose grids reach 0, 1 and inf
ORACLE_OPS = [MIN, JOIN, PROD, SL, BSUM, SUM, PSUM, marshall_olkin(0.5, 0.25),
              power_product(0.5), power_min(2.0, 1.0), power_min(0.5, 2.0),
              power_prod(0.5, 1.0), op_dual(SUM, reciprocal()), op_dual(MIN, reciprocal())]
ORACLE_PHIS = [phi_identity(), phi_power(0.5), phi_power(2.0)]
ORACLE_POINTS = [0.0, 0.125, 0.5, 0.75, 1.0, 2.0, 64.0, INF]
_ops = st.sampled_from(ORACLE_OPS)
_triples = lambda s: st.tuples(s, s, s)


@st.composite
def condition_kwargs(draw, cond):
    """Keyword arguments for one condition: UNIT, NONNEG or EXTENDED scale
    (so non-finite slacks occur), and grid mode or explicit values (one
    value, duplicates) of c where the condition takes them."""
    scale = draw(st.sampled_from([UNIT, NONNEG, EXTENDED]))
    if cond == "mh_product_power":
        scale = UNIT
    points = st.sampled_from([v for v in ORACLE_POINTS if scale.contains(v)])
    values = st.none() | st.lists(points, min_size=1, max_size=4)
    kw = {}
    if cond == "mh_upper":
        kw.update(star=draw(_ops), combiner=draw(_ops), circs=draw(_triples(_ops)),
                  phis=draw(_triples(st.sampled_from(ORACLE_PHIS))), scale=scale,
                  c_values=draw(values))
    elif cond == "mh_sugeno":
        kw.update(star=draw(_ops), phis=draw(_triples(st.sampled_from(ORACLE_PHIS))),
                  scale=scale, c_values=draw(values))
    elif cond == "mh_product_power":
        exps = st.sampled_from([0.5, 1, 1.5, 2.0, 3.0])
        kw.update(p1=draw(exps), p2=draw(exps), p3=draw(exps), c_values=draw(values))
    elif cond == "counterexample_premise":
        kw.update(semicopula=draw(_ops), star=draw(_ops))
    elif cond == "semicopula_sum_split":
        kw.update(semicopula=draw(_ops))
    elif cond == "sum_split":
        kw.update(op=draw(_ops), scale=scale, c_values=draw(values))
    elif cond == "distributive_scaling":
        exps = st.sampled_from([0.5, 1.0, 2.0])
        kw.update(op=draw(_ops), q=draw(exps), r=draw(exps), scale=scale)
    elif cond == "mh_lower":
        kw.update(star=draw(_ops), combiner=draw(_ops), boxplus=draw(_ops),
                  circs=draw(_triples(_ops)),
                  phis=draw(_triples(st.sampled_from(ORACLE_PHIS))), scale=scale)
    elif cond == "mh_lower_join":
        kw.update(star=draw(_ops), phis=draw(_triples(st.sampled_from(ORACLE_PHIS))),
                  scale=scale)
    elif cond == "dual_star_split":
        kw.update(star=draw(_ops), op_h=draw(_ops), scale=scale, c_values=draw(values))
    elif cond == "dual_star_split_pair":
        kw.update(star=draw(_ops), op_h=draw(_ops), boxplus=draw(_ops), scale=scale)
    else:
        kw.update(op=draw(_ops), scale=scale)
    return kw


def _fingerprint(res: CheckResult) -> tuple[str, str]:
    return json.dumps(res.to_dict()), repr(res.margin)


DUALITIES = [(one_minus(), UNIT), (reciprocal(), EXTENDED)]


class TestRestatedConditions:
    """The three ids that restate a general form are that form, byte for
    byte, and both agree with the id's own loop reference."""

    @settings(max_examples=40, deadline=None)
    @given(star=_ops, op=_ops, boxplus=_ops, duality=st.sampled_from(DUALITIES),
           data=st.data())
    def test_dual_splits_are_mh_upper_and_mh_lower(self, star, op, boxplus, duality, data):
        h, scale = duality
        op_h = op_dual(op, h)
        points = st.sampled_from([v for v in ORACLE_POINTS if scale.contains(v)])
        c_values = data.draw(st.none() | st.lists(points, min_size=1, max_size=4))
        maps = (phi_identity(),) * 3
        with np.errstate(all="ignore"):
            single = check_condition("dual_star_split", star=star, op_h=op_h, scale=scale,
                                     c_values=c_values)
            general = cond_mh_upper(star, star, (op_h,) * 3, maps, scale, c_values)
            loop = ref_dual_star_split(star, op_h, scale, c_values)
            assert _fingerprint(single) == _fingerprint(general) == _fingerprint(loop)
            pair = check_condition("dual_star_split_pair", star=star, op_h=op_h,
                                   boxplus=boxplus, scale=scale)
            general = cond_mh_lower(star, star, boxplus, (op_h,) * 3, maps, scale)
            loop = ref_dual_star_split_pair(star, op_h, boxplus, scale)
            assert _fingerprint(pair) == _fingerprint(general) == _fingerprint(loop)

    @settings(max_examples=20, deadline=None)
    @given(semicopula=_ops)
    def test_semicopula_sum_split_is_sum_split_on_the_unit_scale(self, semicopula):
        with np.errstate(all="ignore"):
            got = check_condition("semicopula_sum_split", semicopula=semicopula)
            assert (_fingerprint(got) == _fingerprint(cond_sum_split(semicopula, UNIT))
                    == _fingerprint(ref_semicopula_sum_split(semicopula)))


class TestCombinedPairs:
    def test_boxplus_rounds_once_through_grid(self):
        # the pair conditions read the grid, like the chain, and the grid of
        # a power-based operator is its scalar fn bit for bit
        op = power_prod(1.7, 0.3)
        g = np.arange(1, 65) / 64.0
        cs, ds = np.repeat(g, len(g)), np.tile(g, len(g))
        scalar = np.array([op.fn(c, d) for c, d in zip(cs.tolist(), ds.tolist())])
        assert op.grid(cs, ds).tobytes() == scalar.tobytes()

    def test_infinite_pairs_are_warning_free(self):
        # prob_sum's grid at (inf, inf) is inf - inf; the suite turns the
        # RuntimeWarning into an error, so the pair sweep must silence it
        with np.errstate(invalid="ignore"):
            assert np.isnan(PSUM.grid(np.array([INF]), np.array([INF]))).all()
        # the pairs of the extended grid include (inf, inf)
        res = check_condition("dual_star_split_pair", star=SUM, op_h=MIN, boxplus=PSUM,
                              scale=EXTENDED)
        assert res.mode == "grid"


class TestSweepMatchesLoopReference:
    def test_every_condition_has_a_reference(self):
        assert sorted(REFERENCE) == sorted(CONDITIONS)

    def test_every_option_is_a_scenario_field(self):
        # a defaulted parameter that no scenario can set and no library
        # caller passes is an option nobody reaches; scale is the scenario's
        options = {name for fn in CONDITIONS.values()
                   for name, p in inspect.signature(fn).parameters.items()
                   if p.default is not inspect.Parameter.empty}
        assert options - {"scale"} <= set(_CONDITION_PARAMS)

    @pytest.mark.parametrize("cond", sorted(CONDITIONS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_identical_result(self, cond, data):
        kw = data.draw(condition_kwargs(cond))
        with np.errstate(all="ignore"):
            assert _fingerprint(CONDITIONS[cond](**kw)) == _fingerprint(REFERENCE[cond](**kw))

    def test_default_grids(self):
        # full-size grids, several chunks per sweep, holding and failing
        cases = [("distributive_scaling", dict(op=power_min(2.0, 1.0), q=2.0, r=1.0,
                                               scale=EXTENDED)),
                 ("distributive_scaling", dict(op=MIN, q=0.5, r=1.0, scale=EXTENDED)),
                 ("mh_product_power", dict(p1=2.0, p2=1.0, p3=1.5)),
                 ("sum_split", dict(op=SL, scale=UNIT)),
                 ("dual_star_split_pair", dict(star=SUM, op_h=op_dual(MIN, reciprocal()),
                                               boxplus=SUM, scale=EXTENDED)),
                 ("unit_section_order", dict(op=power_min(1.0, 2.0), scale=EXTENDED))]
        for cond, kw in cases:
            assert _fingerprint(CONDITIONS[cond](**kw)) == _fingerprint(REFERENCE[cond](**kw))


def _c_values(scale: ValueScale):
    """Ascending value lists of the kind the comonotone verifier sends:
    up to 256 distinct values (several chunks of the sweep), with -0.0,
    the scale's top or a value just below an open top, and inf on a
    closed infinite scale."""
    top = scale.upper if scale.closed else np.nextafter(scale.upper, 0.0)
    special = st.sampled_from([-0.0, 0.0, float(top), 0.5, 1.0 / 3.0])
    finite = st.floats(0.0, min(float(top), 4.0))
    sizes = st.sampled_from([1, 4, 40, 100, 256])
    return sizes.flatmap(lambda k: st.lists(special | finite, min_size=k, max_size=k)).map(sorted)


class TestSumSplitSections:
    """``cond_sum_split`` reads the pairs a <= b through one section table
    per chunk of c values; ``ref_sum_split`` loops over c on the full grid."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_identical_result(self, data):
        scale = data.draw(st.sampled_from([UNIT, UNIT_OPEN, NONNEG, EXTENDED]))
        kw = dict(op=data.draw(_ops), scale=scale,
                  c_values=data.draw(st.none() | _c_values(scale)))
        with np.errstate(all="ignore"):
            assert _fingerprint(cond_sum_split(**kw)) == _fingerprint(ref_sum_split(**kw))

    def test_realized_values_with_a_failing_witness(self):
        # 200 ascending values span several chunks; the nilpotent t-norm
        # fails, and its first violating cell has a <= b
        cs = np.unique(np.round(np.random.default_rng(5).random(200), 4)).tolist()
        res = cond_sum_split(SL, UNIT, c_values=cs)
        assert _fingerprint(res) == _fingerprint(ref_sum_split(SL, UNIT, c_values=cs))
        w = res.witness
        assert not res.holds and res.mode == "explicit" and w["a"] <= w["b"]
        assert SL.fn(w["a"] + w["b"], w["c"]) > SL.fn(w["a"], w["c"]) + SL.fn(w["b"], w["c"])

    def test_extended_top_and_signed_zero(self):
        for op in (SUM, PSUM, op_dual(MIN, reciprocal())):
            kw = dict(op=op, scale=EXTENDED, c_values=[-0.0, 0.25, 3.0, INF])
            with np.errstate(all="ignore"):
                assert _fingerprint(cond_sum_split(**kw)) == _fingerprint(ref_sum_split(**kw))

    def test_off_grid_sums(self):
        # on [0, inf) the ladder's sums, such as 1 + 2, fall off the grid:
        # the section table holds them as extra values
        g = NONNEG.grid()
        assert not np.isin((g[:, None] + g[None, :]).ravel(), g).all()
        for op in (MIN, PROD, SL, BSUM, SUM):
            kw = dict(op=op, scale=NONNEG, c_values=[0.05, 0.3, 0.7, 1.0, 3.0])
            with np.errstate(all="ignore"):
                assert _fingerprint(cond_sum_split(**kw)) == _fingerprint(ref_sum_split(**kw))

    def test_cells_are_cached_and_read_only(self):
        cells = _sum_split_cells(UNIT)
        assert _sum_split_cells(UNIT) is cells
        g, a, b = cells[:3]
        assert len(a) == ((g[:, None] <= g[None, :]) & (g[:, None] + g[None, :] <= 1.0)).sum()
        assert all(not arr.flags.writeable for arr in cells)
