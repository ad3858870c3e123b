"""Extended-real kernel, scales, subset machinery, survival profiles, and
the one tolerance of the public API."""

import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonadd.core import (
    EXTENDED,
    FiniteSpace,
    Fn,
    INF,
    MAX_CELLS,
    NONNEG,
    SurvivalProfile,
    UNIT,
    UNIT_OPEN,
    ValueScale,
    expand_masks,
    _domain_points,
    _level_sets,
    check_cells,
    rng_for,
    subset_infima,
    vinv,
    vmul,
    xmul,
)
import nonadd
from nonadd.results import DomainError

MAX_N = MAX_CELLS.bit_length() - 1   # the most points whose 2**n subsets fit the budget
from test_integrals import ref_level_mask_ge, ref_level_mask_gt

xreals = st.one_of(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    st.just(0.0),
    st.just(INF),
)


class TestExtendedArithmetic:
    def test_zero_times_infinity_is_zero(self):
        for a, b in ((0.0, INF), (INF, 0.0), (0.0, 0.0)):
            assert xmul(a, b) == 0.0
            assert vmul(a, b) == 0.0
        assert xmul(INF, INF) == vmul(INF, INF) == INF

    def test_reciprocal_conventions(self):
        assert vinv([0.0, INF, 4.0]).tolist() == [INF, 0.0, 0.25]

    def test_reciprocal_raises_no_floating_point_error(self):
        """The zeros are replaced before the division, so no errstate is
        needed: under ``all="raise"`` the bits are those of the guarded
        form."""
        def guarded(a):
            a = np.asarray(a, dtype=float)
            with np.errstate(divide="ignore"):
                r = np.where(a == 0.0, INF, 1.0 / np.where(a == 0.0, 1.0, a))
            return np.where(np.isinf(a), 0.0, r)

        cases = [[0.0, -0.0, INF, np.nan, 4.0, 0.5, 3.0, 1e-300],
                 [[0.0, INF], [np.nan, -0.0]], np.float64(-0.0), np.array(np.nan), [INF]]
        for a in cases:
            with np.errstate(all="raise"):
                got = vinv(a)
            want = guarded(a)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), a

    @given(a=xreals, b=xreals)
    @settings(max_examples=200, deadline=None)
    def test_scalar_and_array_products_agree(self, a, b):
        assert repr(xmul(a, b)) == repr(float(vmul(a, b))) == repr(xmul(b, a))


class TestValueScale:
    def test_closed_boundary_belongs(self):
        assert UNIT.contains(1.0)

    def test_open_infinite_end_excluded(self):
        assert not NONNEG.contains(INF)
        assert EXTENDED.contains(INF)

    def test_above_bound_excluded(self):
        assert not UNIT.contains(1.5)

    @given(y=st.floats(min_value=0, max_value=2, allow_nan=False),
           z=st.floats(min_value=0, max_value=2, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_membership_monotone_downward(self, y, z):
        for scale in (UNIT, ValueScale(1.5, False)):
            if scale.contains(y) and 0 <= z <= y:
                assert scale.contains(z)

    def test_grid_contains_endpoints(self):
        g = UNIT.grid()
        assert g[0] == 0.0 and g[-1] == 1.0
        ge = EXTENDED.grid()
        assert math.isinf(ge[-1])
        gn = NONNEG.grid()
        assert not math.isinf(gn[-1])

    def test_grid_is_shared_and_read_only(self):
        g = UNIT.grid()
        assert UNIT.grid() is g and ValueScale(1.0, True).grid() is g
        with pytest.raises(ValueError):
            g[0] = 0.5

    @pytest.mark.parametrize("scale", [UNIT, UNIT_OPEN, NONNEG, EXTENDED])
    @pytest.mark.parametrize("spacing", [1.0 / 64.0, 1.0 / 16.0, 1.0 / 256.0])
    def test_grid_equals_the_direct_construction(self, scale, spacing):
        if math.isinf(scale.upper):
            pts = list(np.arange(0.0, 1.0 + spacing / 2, spacing)) + \
                [float(2 ** k) for k in range(1, 11)] + ([INF] if scale.closed else [])
        else:
            pts = list(np.arange(0.0, scale.upper, spacing))
            if scale.closed:
                pts.append(scale.upper)
            elif pts[-1] < scale.upper - spacing / 2:
                pts.append(scale.upper - spacing / 2)
        ref = np.array(sorted(set(float(p) for p in pts)))
        got = scale.grid(spacing)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_rejects_nonpositive_upper(self):
        with pytest.raises(DomainError):
            ValueScale(0.0, True)


class TestSpaceAndFn:
    def test_space_bounds(self):
        with pytest.raises(DomainError):
            FiniteSpace(0)
        with pytest.raises(DomainError):
            FiniteSpace(25)
        assert FiniteSpace(3).full == 0b111

    def test_one_cell_budget(self):
        # the space limit is the budget's: 2**24 subsets fit, 2**25 do not
        assert MAX_N == 24 and FiniteSpace(MAX_N).n == len(Fn([0.0] * MAX_N)) == 24
        with pytest.raises(DomainError, match=r"\[1, 24\] \(2\*\*n cells\)"):
            Fn([0.0] * (MAX_N + 1))
        check_cells(MAX_CELLS, "a full table")
        with pytest.raises(DomainError, match=f"a sweep enumerates {MAX_CELLS + 1:,} cells"):
            check_cells(MAX_CELLS + 1, "a sweep")

    def test_fn_validates_scale(self):
        with pytest.raises(DomainError):
            Fn([0.5, 1.5], UNIT)
        f = Fn([0.5, 1.0], UNIT)
        assert f[1] == 1.0 and len(f) == 2

    @settings(max_examples=300, deadline=None)
    @given(scale=st.sampled_from([UNIT, UNIT_OPEN, NONNEG, EXTENDED]), data=st.data())
    @example(scale=UNIT, data=None)
    def test_fn_matches_per_value_loop(self, scale, data):
        # the per-value ValueScale.contains loop Fn ran on every value, kept
        # as the reference for accept/reject and the message
        top = scale.upper
        edges = [math.nan, -0.0, 0.0, INF, -INF, -1.0, -5e-324, top,
                 math.nextafter(top, 0.0)]
        if data is None:
            values = [0.5, -0.0, math.nextafter(1.0, 0.0), 1.0, math.nan, -1.0]
        else:
            value = st.sampled_from(edges) | st.floats(-2.0, 2.0)
            values = data.draw(st.lists(value, min_size=1, max_size=MAX_N))
        want = None
        for i, v in enumerate(values):
            if not scale.contains(v):
                want = f"value {v!r} at point {i} lies outside the scale {scale.describe()}"
                break
        if want is None:
            assert Fn(values, scale).values == tuple(values)
        else:
            with pytest.raises(DomainError) as err:
                Fn(values, scale)
            assert str(err.value) == want

    def test_indicator(self):
        f = Fn.indicator(3, 0b101, 0.75)
        assert f.values == (0.75, 0.0, 0.75)

    def test_level_masks(self):
        vals = [0.5, 0.2, 0.8]
        assert ref_level_mask_ge(vals, 0.5, 0b111) == 0b101
        assert ref_level_mask_gt(vals, 0.5, 0b111) == 0b100
        assert ref_level_mask_ge(vals, 0.5, 0b011) == 0b001
        assert _level_sets(vals, 0b111) == ([0.0, 0.2, 0.5, 0.8], [0b111, 0b101, 0b100, 0])
        assert _level_sets(vals, 0b011) == ([0.0, 0.2, 0.5], [0b011, 0b001, 0])
        assert _level_sets(vals, 0) == ([0.0], [0])

    @settings(max_examples=200, deadline=None)
    @given(vals=st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, INF]) | xreals,
                         min_size=1, max_size=10),
           data=st.data())
    @example(vals=[0.0, 0.5, 0.5, INF], data=None)
    @example(vals=[-0.0, 0.5, -0.0], data=None)
    @example(vals=[-0.0, 0.0], data=None)
    @example(vals=[-0.0, -0.0], data=None)
    def test_level_sets_against_per_threshold_masks(self, vals, data):
        domain = (1 << len(vals)) - 1 if data is None else data.draw(
            st.integers(0, (1 << len(vals)) - 1))
        ts, above = _level_sets(vals, domain)
        # the integrals read threshold 0 at index 0: a -0.0 value joins the 0.0 key
        assert math.copysign(1.0, ts[0]) == 1.0
        assert ts == sorted(set([0.0] + [v for i, v in enumerate(vals) if domain >> i & 1]))
        assert above == [ref_level_mask_gt(vals, t, domain) for t in ts]
        # the >= sets, one threshold lower
        assert [domain] + above[:-1] == [ref_level_mask_ge(vals, t, domain) for t in ts]

    def test_domain_points(self):
        assert _domain_points(0b101) == [0, 2]
        assert _domain_points(0) == []


class TestSubsetInfima:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(xreals, max_size=10))
    @example([0.4, 0.1, 0.7, 0.4])
    def test_against_bruteforce(self, vals):
        k = len(vals)
        table = subset_infima(vals)
        assert table.shape == (1 << k,)
        for mask in range(1, 1 << k):
            expect = min(vals[i] for i in range(k) if mask >> i & 1)
            assert table[mask] == expect
        assert math.isinf(table[0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, MAX_N - 1), max_size=10, unique=True).map(sorted))
    @example([1, 3])
    def test_expand_masks(self, bits):
        orig = expand_masks(bits)
        assert orig.dtype == np.int64
        expect = [sum(1 << b for i, b in enumerate(bits) if mask >> i & 1)
                  for mask in range(1 << len(bits))]
        assert orig.tolist() == expect
        if bits == [1, 3]:
            assert expect == [0, 0b0010, 0b1000, 0b1010]


class TestRngFor:
    def test_deterministic_and_distinct(self):
        a = rng_for(7, "x", 1).random()
        b = rng_for(7, "x", 1).random()
        c = rng_for(7, "x", 2).random()
        assert a == b
        assert a != c


class TestSurvivalProfile:
    def test_counterexample_profile_pointwise(self):
        # 1 - 4 t^2 at t = 1/8 evaluates to 1 - 4/64 by hand
        prof = SurvivalProfile(UNIT, fn=lambda t: np.maximum(1.0 - 4.0 * t * t, 0.0))
        assert prof.evaluate(0.125) == 0.9375

    def test_value_at_zero_is_domain_measure(self):
        prof = SurvivalProfile(UNIT, fn=lambda t: np.maximum(1.0 - t, 0.0))
        assert prof.evaluate(0.0) == 1.0

    def test_tabulated_step_uses_left_knot(self):
        prof = SurvivalProfile(UNIT, knots=[(0.0, 1.0), (0.5, 0.25), (1.0, 0.0)])
        assert prof.evaluate(0.3) == 1.0
        assert prof.evaluate(0.5) == 0.25
        assert prof.evaluate(0.7) == 0.25

    def test_rejects_increasing_profile(self):
        with pytest.raises(DomainError):
            SurvivalProfile(UNIT, fn=lambda t: np.asarray(t))

    def test_rejects_out_of_scale_level(self):
        prof = SurvivalProfile(UNIT, knots=[(0.0, 1.0)])
        with pytest.raises(DomainError):
            prof.evaluate(1.5)

    def test_out_of_scale_level_named_as_a_float(self):
        prof = SurvivalProfile(UNIT, knots=[(0.0, 1.0)])
        for level, text in ((1.5, "1.5"), (math.nan, "nan"), (-1.0, "-1.0")):
            with pytest.raises(DomainError) as err:
                prof.evaluate(level)
            assert str(err.value) == f"level {text} outside the scale {UNIT.describe()}"

    def test_nonincreasing_on_grid(self):
        prof = SurvivalProfile(UNIT, fn=lambda t: np.maximum(1.0 - t * t, 0.0))
        ts = np.linspace(0, 1, 101)
        gs = prof.evaluate(ts)
        assert (np.diff(gs) <= 1e-12).all()


class TestOneTolerance:
    def test_no_public_callable_takes_a_tolerance(self):
        # every check compares within the measure's tolerance() or core._TOL:
        # no public function or method of a public class lets a caller
        # loosen or tighten it
        found = []
        for info in pkgutil.iter_modules(nonadd.__path__):
            if info.name.startswith("_"):
                continue            # __main__ runs the command line on import
            module = importlib.import_module(f"nonadd.{info.name}")
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                members = {name: obj} if inspect.isfunction(obj) else {}
                if inspect.isclass(obj):
                    members = {f"{name}.{m}": getattr(f, "__func__", f)
                               for m, f in vars(obj).items() if not m.startswith("_")}
                for qualname, fn in members.items():
                    if not inspect.isfunction(fn):
                        continue
                    tol = inspect.signature(fn).parameters.get("tol")
                    if tol is not None and tol.default is not inspect.Parameter.empty:
                        found.append(f"{module.__name__}.{qualname}")
        assert found == []

    def test_no_integral_takes_a_scale(self):
        # every integrand is an Fn, read on the scale it carries
        from nonadd import integrals
        found = [name for name, fn in vars(integrals).items()
                 if inspect.isfunction(fn) and not name.startswith("_")
                 and fn.__module__ == integrals.__name__
                 and "scale" in inspect.signature(fn).parameters]
        assert found == []

    def test_no_condition_takes_a_spacing(self):
        # each condition sweeps its own fixed grid
        from nonadd.conditions import CONDITIONS
        found = [cid for cid, fn in CONDITIONS.items()
                 if "spacing" in inspect.signature(fn).parameters]
        assert found == []

    def test_run_takes_no_tolerance(self, capsys):
        # a task's own tolerance field, or else its check's epsilon, applies
        from nonadd.cli import main
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "two_point_integrals", "--tolerance", "1e-3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --tolerance 1e-3" in capsys.readouterr().err


NAN = float("nan")


def _nan_calls():
    """Each factory or check given NaN where a positive (or any) number is
    expected: ``p <= 0`` is false for NaN, so each must test ``not p > 0``."""
    from nonadd.conditions import cond_distributive_scaling, cond_mh_product_power
    from nonadd.core import FiniteSpace, Fn, SurvivalProfile, UNIT
    from nonadd.integrals import abs_power, profile_integral
    from nonadd.measures import MonotoneMeasure
    from nonadd.metrics import MetricSpec
    from nonadd.operators import (bounded_sum, lukasiewicz, minimum, phi_power, power_min,
                                  power_prod, power_product)
    from nonadd.theorems import verify_seminorm_minkowski, verify_subadditive_minkowski
    space = FiniteSpace(2)
    mu = MonotoneMeasure.possibility(space, [0.5, 1.0])
    f = Fn([0.5, 0.25], UNIT)
    profile = SurvivalProfile(UNIT, fn=lambda t: np.maximum(1.0 - t, 0.0))
    return {
        "mh_product_power.p1": lambda: cond_mh_product_power(NAN, 1.0, 1.0),
        "mh_product_power.p3": lambda: cond_mh_product_power(1.0, 1.0, NAN),
        "distributive_scaling.q": lambda: cond_distributive_scaling(minimum(), NAN, 1.0),
        "distributive_scaling.r": lambda: cond_distributive_scaling(minimum(), 1.0, NAN),
        "abs_power": lambda: abs_power([1.0, 0.5], NAN),
        "profile_integral": lambda: profile_integral(profile, minimum(), NAN),
        "MetricSpec": lambda: MetricSpec("d_op_p", minimum(), NAN),
        "power_product": lambda: power_product(NAN),
        "power_min.p": lambda: power_min(NAN),
        "power_min.u": lambda: power_min(1.0, NAN),
        "power_prod.p": lambda: power_prod(NAN),
        "power_prod.u": lambda: power_prod(1.0, NAN),
        "phi_power": lambda: phi_power(NAN),
        "verify_seminorm_minkowski": lambda: verify_seminorm_minkowski(
            lukasiewicz(), bounded_sum(), NAN, mu, f, f),
        "verify_subadditive_minkowski": lambda: verify_subadditive_minkowski(
            minimum(), 1.0, 1.0, NAN, mu, [0.5, 0.25], [0.5, 0.25]),
        "lambda_sugeno.lam": lambda: MonotoneMeasure.lambda_sugeno(space, NAN, [0.5, 0.5]),
        "lambda_sugeno.density": lambda: MonotoneMeasure.lambda_sugeno(space, 0.5,
                                                                       [0.5, NAN]),
        "distortion.probs": lambda: MonotoneMeasure.distortion(space, [NAN, 1.0],
                                                               lambda x: x),
        "distortion.sum": lambda: MonotoneMeasure.distortion(space, [0.5, NAN],
                                                             lambda x: x),
    }


class TestNanRefused:
    @pytest.mark.parametrize("name", sorted(_nan_calls()))
    def test_nan_parameter_raises(self, name):
        with pytest.raises(DomainError, match="positive|nonnegative"):
            _nan_calls()[name]()
