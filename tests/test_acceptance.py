"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite stays well under two minutes end to end.
"""

import time

from nonadd.campaigns import run_campaign
from nonadd.metrics import MetricSpec, check_metric_axioms
from nonadd.operators import power_min, power_prod
from nonadd.scenarios import Scenario, builtin_scenario, run_task
from nonadd.theorems import reproduce_counterexample
from nonadd import sampling


def report(number: int, label: str, elapsed: float, budget: float, ok: bool):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} {label} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_counterexample():
    t0 = time.perf_counter()
    rep = reproduce_counterexample(resolution=1e-4)
    ok = (
        rep.rhs_each == 1.0 / 16.0
        and rep.lhs == 1.0 / 4.0
        and rep.rhs_sum == 1.0 / 8.0
        and abs(rep.rhs_each_grid.value - 0.0625) <= 1e-3
        and abs(rep.lhs_grid.value - 0.25) <= 1e-3
        and abs(rep.rhs_sum - 0.125) <= 1e-3
        and rep.lhs > rep.rhs_sum
        and rep.violated
        and rep.premise.holds
    )
    report(1, "counterexample reproduction (exact + grid + premise)",
           time.perf_counter() - t0, 1.0, ok)


def test_criterion_02_subset_oracle():
    t0 = time.perf_counter()
    rep = run_campaign("oracle_agreement", 1000, 20250809)
    ok = rep["failed"] == 0 and rep["trials"] == 1000
    report(2, "level form == subset oracle, 1000 instances x 5 operators",
           time.perf_counter() - t0, 10.0, ok)


def test_criterion_03_sugeno_identity():
    t0 = time.perf_counter()
    rep = run_campaign("sugeno_identity", 1000, 31415)
    ok = rep["failed"] == 0
    report(3, "lower-join equals upper-min on 1000 instances",
           time.perf_counter() - t0, 5.0, ok)


def test_criterion_04_shilkret_maxitive():
    t0 = time.perf_counter()
    rep = run_campaign("shilkret_maxitive", 1000, 2718)
    ok = rep["failed"] == 0 and rep["notes"]["min_backward_margin"] > 1e-9
    report(4, "max-product subadditivity equivalence, 500+500 with margins",
           time.perf_counter() - t0, 20.0, ok)


def test_criterion_05_sugeno_subadditive():
    t0 = time.perf_counter()
    from nonadd.theorems import (verify_sugeno_subadditive,
                                 verify_sugeno_subadditive_boundary)
    failures = 0
    for k in range(500):
        mu = sampling.subadditive_measure(1618, k, 2 + k % 7)
        res = verify_sugeno_subadditive(mu, trials=4, seed=k)
        if not (res.holds and res.detail["subadditive"].holds
                and res.detail["indicator_recovery_matches"] is True):
            failures += 1
    boundary = verify_sugeno_subadditive_boundary()
    ok = failures == 0 and boundary.holds
    report(5, "max-min subadditivity equivalence, 500 instances + boundary",
           time.perf_counter() - t0, 10.0, ok)


def test_criterion_06_metric_triangle():
    t0 = time.perf_counter()
    combos = [(power_min(p, 1.0), p) for p in (0.5, 1.0, 2.0)] + \
             [(power_prod(p, 1.0), p) for p in (0.5, 1.0, 2.0)]
    ok = True
    for i, (op, p) in enumerate(combos):
        spec = MetricSpec("d_op_p", op, p)
        for j in range(5):
            mu = sampling.subadditive_measure(777 + i, j, 3 + j % 4)
            res = check_metric_axioms(spec, mu, trials=200, seed=1000 * i + j)
            ok = ok and res.holds
    for kind in ("frechet", "kyfan"):
        for j in range(5):
            mu = sampling.subadditive_measure(888, j, 3 + j % 4)
            res = check_metric_axioms(MetricSpec(kind), mu, trials=200, seed=j)
            ok = ok and res.holds
    report(6, "metric axioms and triangle: 1000 triples per combo, tol 1e-12",
           time.perf_counter() - t0, 15.0, ok)


def test_criterion_07_upper_mh_fuzz():
    t0 = time.perf_counter()
    suff = run_campaign("upper_mh", 1000, 4242)
    nec = run_campaign("upper_mh_necessity", 200, 4343)
    ok = suff["failed"] == 0 and nec["failed"] == 0
    report(7, "three-map inequality: 1000 sufficiency + 200 necessity witnesses",
           time.perf_counter() - t0, 30.0, ok)


def test_criterion_08_plus_association():
    t0 = time.perf_counter()
    rep = run_campaign("plus_assoc_comonotone", 2000, 5555)
    ok = rep["failed"] == 0
    report(8, "sum-association equals comonotonicity on 2000 exhaustive pairs",
           time.perf_counter() - t0, 10.0, ok)


def test_criterion_09_duality():
    t0 = time.perf_counter()
    affine = run_campaign("h_duality_one_minus", 1000, 6666)
    rec = run_campaign("h_duality_reciprocal", 200, 6767)
    ok = affine["failed"] == 0 and rec["failed"] == 0
    for name in ("harmonic_duality", "reciprocal_integral"):
        sc = Scenario(builtin_scenario(name), name=name)
        for task in sc.tasks:
            rec_task = run_task(sc, task)
            ok = ok and rec_task["verdict"] == "pass"
    report(9, "conjugation identity (1000 + 200 instances) + both corollaries",
           time.perf_counter() - t0, 10.0, ok)


def test_criterion_10_convergence():
    t0 = time.perf_counter()
    lemmas = run_campaign("convergence_lemmas", 100, 7777)
    means = run_campaign("mean_convergence", 100, 7878)
    cauchy = run_campaign("cauchy_probe", 100, 7979)
    ok = lemmas["failed"] == 0 and means["failed"] == 0 and cauchy["failed"] == 0
    report(10, "monotone/fatou lemmas, mean convergence, completeness probe",
           time.perf_counter() - t0, 10.0, ok)
