"""The benchmark's three workloads: seeded inputs, ops and output checks.

Every op is a call into the public API of ``nonadd``.  ``build`` makes the
inputs from the seed and does all set-up the workload prebuilds; the op list
it returns is one pass.  An op's ``check`` raises :class:`OpFailure` when the
output is wrong and otherwise returns the op's canonical output bytes, which
feed the report digest.  Library functions are looked up on their module at
call time, so a tracer installed after set-up sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

import nonadd
import nonadd.cli
from nonadd.campaigns import CAMPAIGNS
from nonadd.scenarios import BUILTIN_SCENARIOS
from spec import OpFailure


class Op(NamedTuple):
    label: str                               # the op's inputs, enough to rerun it
    run: Callable[[], Any]
    check: Callable[[Any, bool], bytes]      # (output, first_pass) -> canonical bytes


# ---------------------------------------------------------------------------
# command-line ops (fuzz_mix, scenario_runs)
# ---------------------------------------------------------------------------

def _cli_op(argv: list[str]) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = nonadd.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return Op("nonadd " + " ".join(argv), run, _check_cli)


def _check_cli(output, first_pass: bool) -> bytes:
    code, out, err = output
    if code != 0:
        raise OpFailure(f"exit code {code}: {err.strip()[:300]}")
    report = json.loads(out)["report"]
    if report["summary"]["failed"] != 0:
        raise OpFailure(f"summary.failed = {report['summary']['failed']}")
    if report.get("campaign", {}).get("failed", 0) != 0:
        raise OpFailure(f"campaign failures: {report['campaign']['failures']}")
    bad = [i for i, t in enumerate(report.get("tasks", [])) if t.get("verdict") != "pass"]
    if bad:
        raise OpFailure(f"task verdicts not pass at indices {bad}")
    return json.dumps(report, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# fuzz_mix
# ---------------------------------------------------------------------------

FUZZ_TRIALS = 20
FUZZ_SEEDS = 22        # 19 seeded campaigns x 22 seeds + counterexample = 419 ops


def fuzz_mix(seed: int, root: Path) -> list[Op]:
    rng = random.Random(f"fuzz_mix:{seed}")
    seeded = sorted(c for c in CAMPAIGNS if c != "counterexample")
    jobs = [("counterexample", rng.randrange(1 << 31))]   # ignores its seed
    for _ in range(FUZZ_SEEDS):
        s = rng.randrange(1 << 31)
        jobs += [(c, s) for c in seeded]
    return [_cli_op(["fuzz", c, "--trials", str(FUZZ_TRIALS), "--seed", str(s),
                     "--format", "json"]) for c, s in jobs]


# ---------------------------------------------------------------------------
# lattice_large_n
# ---------------------------------------------------------------------------

READS_PER_WRITE = 9       # p95 then falls mid-way through the 30-50 ms writes
ORACLE_CHECKED_READS = 8     # upper reads at n <= 16 also checked against the oracle
TOL = 1e-12


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _power(gamma: float):
    return lambda x: np.power(x, gamma)


class _Params:
    """Seeded parameters of the four measure families used here."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def possibility(self, n: int, zeros: int = 0) -> dict:
        dens = [self.rng.randrange(1, 65) / 64.0 for _ in range(n)]
        for i in self.rng.sample(range(n), zeros):
            dens[i] = 0.0
        return {"kind": "possibility", "n": n, "density": dens}

    def distortion(self, n: int) -> dict:
        w = [self.rng.randrange(1, 17) for _ in range(n)]
        return {"kind": "distortion", "n": n, "probs": [x / sum(w) for x in w],
                "gamma": self.rng.choice([0.25, 0.5, 0.75])}

    def lambda_sugeno(self, n: int) -> dict:
        return {"kind": "lambda_sugeno", "n": n,
                "lambda": -self.rng.randrange(5, 96) / 100.0,
                "density": [self.rng.randrange(1, 65) / 64.0 for _ in range(n)]}

    def additive(self, n: int) -> dict:
        w = [1] * n
        for _ in range(64 - n):
            w[self.rng.randrange(n)] += 1
        return {"kind": "additive", "n": n, "weights": w}


def _measure(p: dict):
    space = nonadd.FiniteSpace(p["n"])
    kind = p["kind"]
    if kind == "possibility":
        return nonadd.MonotoneMeasure.possibility(space, p["density"])
    if kind == "distortion":
        return nonadd.MonotoneMeasure.distortion(space, p["probs"], _power(p["gamma"]),
                                                 name=f"power({p['gamma']})")
    if kind == "lambda_sugeno":
        return nonadd.MonotoneMeasure.lambda_sugeno(space, p["lambda"], p["density"])
    idx = np.arange(1 << p["n"], dtype=np.int64)
    tab = sum(((idx >> b) & 1) * w for b, w in enumerate(p["weights"])) / 64.0
    return nonadd.MonotoneMeasure.explicit(space, tab)


def _direct_value(p: dict, mask: int) -> float:
    """The family's defining formula, evaluated for one subset."""
    bits = _bits(mask)
    if p["kind"] == "possibility":
        return max((p["density"][b] for b in bits), default=0.0)
    if p["kind"] == "distortion":
        s = 0.0
        for b in bits:
            s += p["probs"][b]
        return float(np.power(min(max(s, 0.0), 1.0), p["gamma"])) if bits else 0.0
    if p["kind"] == "lambda_sugeno":
        pr = 1.0
        for b in bits:
            pr *= 1.0 + p["lambda"] * p["density"][b]
        return max((pr - 1.0) / p["lambda"], 0.0) if bits else 0.0
    return sum(p["weights"][b] for b in bits) / 64.0


def _build_op(p: dict, rng: random.Random) -> Op:
    n = p["n"]
    masks = [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(14)]

    def run():
        return _measure(p).table()

    def check(tab, first_pass):
        if tab.shape != (1 << n,) or tab[0] != 0.0:
            raise OpFailure("table has the wrong size or a nonzero empty-set value")
        for m in masks:
            want = _direct_value(p, m)
            if abs(float(tab[m]) - want) > TOL * max(1.0, abs(want)):
                raise OpFailure(f"table[{m}] = {float(tab[m])!r}, formula gives {want!r}")
        return tab.tobytes()

    return Op(f"MonotoneMeasure {p} .table()", run, check)


def _property_op(p: dict, mu, prop: str, holds: bool) -> Op:
    def run():
        return nonadd.check_measure_property(mu, prop)

    def check(res, first_pass):
        if res.holds != holds:
            raise OpFailure(f"{prop} verdict {res.holds}, family guarantees {holds}")
        if not res.holds:
            w = res.witness
            a, b = int(w["set_a"]), int(w["set_b"])
            if a & b or not mu(a | b) > max(mu(a), mu(b)):
                raise OpFailure(f"witness {w} does not replay")
        return json.dumps(res.to_dict(), sort_keys=True).encode()

    return Op(f"check_measure_property({p}, {prop!r})", run, check)


def _fn_label(f) -> str:
    return "[" + ",".join(repr(v) for v in f.values) + "]"


def _oracle_op(p: dict, mu, op, f) -> Op:
    def run():
        return nonadd.upper_integral_subset_oracle(f, mu, op)

    def check(value, first_pass):
        level = nonadd.upper_integral_result(f, mu, op).value
        if abs(value - level) > TOL:
            raise OpFailure(f"oracle {value!r} differs from the level form {level!r}")
        return value.hex().encode()

    return Op(f"upper_integral_subset_oracle({_fn_label(f)}, {p}, {op.name})",
              run, check)


def _level_terms(f, mu, op, upper: bool) -> dict:
    """op(t, mu(level set at t)) for every candidate t, by direct evaluation."""
    vals = f.values
    cands = {0.0, *vals} | ({1.0} if upper else set())
    terms = {}
    for t in cands:
        mask = 0
        for i, v in enumerate(vals):
            if (v >= t) if upper else (v > t):
                mask |= 1 << i
        terms[t] = float(op.fn(t, mu(mask)))
    return terms


def _integral_read(p: dict, mu, op, f, upper: bool, oracle_checked: bool) -> Op:
    name = "upper_integral_result" if upper else "lower_integral_result"

    def run():
        return getattr(nonadd, name)(f, mu, op)

    def check(res, first_pass):
        terms = _level_terms(f, mu, op, upper)
        want = max(terms.values()) if upper else min(terms.values())
        if res.value != want or terms.get(res.level) != res.value or not res.exact:
            raise OpFailure(f"{res} disagrees with direct evaluation ({want!r})")
        if oracle_checked and first_pass:
            oracle = nonadd.upper_integral_subset_oracle(f, mu, op)
            if abs(oracle - res.value) > TOL:
                raise OpFailure(f"{res.value!r} differs from the oracle {oracle!r}")
        return f"{res.value.hex()} {res.exact} {res.level.hex()}".encode()

    return Op(f"{name}({_fn_label(f)}, {p['kind']} n={p['n']}, {op.name})", run, check)


def _pair(rng: random.Random, n: int, anti: bool):
    """Comonotone pair (ties allowed), or a strictly anti-monotone one, with
    values in [1/64, 1/2]."""
    perm = list(range(n))
    rng.shuffle(perm)
    fv = sorted(rng.sample(range(1, 33), n))
    gv = sorted(rng.sample(range(1, 33), n), reverse=True) if anti \
        else sorted(rng.randrange(1, 33) for _ in range(n))
    f, g = [0.0] * n, [0.0] * n
    for rank, point in enumerate(perm):
        f[point], g[point] = fv[rank] / 64.0, gv[rank] / 64.0
    return nonadd.Fn(f), nonadd.Fn(g)


def _star_read(f, g, star, anti: bool) -> Op:
    def run():
        return nonadd.is_star_associated(f, g, star)

    def check(res, first_pass):
        if res.holds == anti or res.mode != "exhaustive":
            raise OpFailure(f"{res}: comonotone pairs are star-associated, "
                            f"strictly anti-monotone positive ones are not")
        if not res.holds:
            sel = _bits(res.witness["subset"])
            inf_s = min(float(star.fn(f[i], g[i])) for i in sel)
            combined = float(star.fn(min(f[i] for i in sel), min(g[i] for i in sel)))
            if abs(combined - inf_s) <= TOL:
                raise OpFailure(f"witness {res.witness} does not replay")
        return json.dumps(res.to_dict(), sort_keys=True).encode()

    return Op(f"is_star_associated({_fn_label(f)}, {_fn_label(g)}, {star.name})",
              run, check)


def _comonotone_read(f, g, anti: bool) -> Op:
    def run():
        return nonadd.is_comonotone(f, g)

    def check(res, first_pass):
        if res.holds == anti:
            raise OpFailure(f"{res}: expected holds={not anti}")
        if not res.holds:
            x, y = res.witness["point_x"], res.witness["point_y"]
            if not (f[x] - f[y]) * (g[x] - g[y]) < 0:
                raise OpFailure(f"witness {res.witness} does not replay")
        return json.dumps(res.to_dict(), sort_keys=True).encode()

    return Op(f"is_comonotone({_fn_label(f)}, {_fn_label(g)})", run, check)


def lattice_large_n(seed: int, root: Path) -> list[Op]:
    rng = random.Random(f"lattice_large_n:{seed}")
    par = _Params(rng)
    ops = {"min": nonadd.minimum(), "product": nonadd.product(),
           "lukasiewicz": nonadd.lukasiewicz(), "mo": nonadd.marshall_olkin(0.5, 0.5)}
    stars = (ops["product"], nonadd.bounded_sum())
    for op in (*ops.values(), stars[1]):
        nonadd.verify_flags(op, ["nondecreasing"], nonadd.UNIT)

    # measures prebuilt during set-up: tables for n <= 20, none at n = 24
    params = {"poss16": par.possibility(16, zeros=2), "dist16": par.distortion(16),
              "poss20": par.possibility(20, zeros=2), "lam20": par.lambda_sugeno(20),
              "poss24": par.possibility(24),
              "poss10": par.possibility(10), "dist10": par.distortion(10),
              "add10": par.additive(10), "poss12": par.possibility(12),
              "dist12": par.distortion(12), "add12": par.additive(12)}
    mus = {}
    for key, p in params.items():
        mus[key] = _measure(p)
        if p["n"] <= 20:
            mus[key].table()

    def prop(key, name, holds):
        return _property_op(params[key], mus[key], name, holds)

    def fresh_fn(n):
        return nonadd.Fn([rng.randrange(0, 65) / 64.0 for _ in range(n)])

    def oracle(key, op):
        return _oracle_op(params[key], mus[key], ops[op], fresh_fn(params[key]["n"]))

    writes = [_build_op(make(n), rng) for n in (16, 18, 20)
              for make in (par.possibility, par.distortion, par.lambda_sugeno)]
    writes += [prop("poss10", "subadditive", True), prop("poss10", "maxitive", True),
               prop("dist10", "submodular", True), prop("add10", "maxitive", False),
               prop("dist12", "subadditive", True), prop("poss12", "maxitive", True),
               prop("poss12", "submodular", True), prop("add12", "maxitive", False),
               prop("poss16", "monotone", True), prop("dist16", "monotone", True),
               prop("poss20", "monotone", True), prop("lam20", "monotone", True),
               prop("poss16", "null_additive", True), prop("poss20", "null_additive", True),
               oracle("dist12", "min"), oracle("poss12", "product"),
               oracle("add12", "lukasiewicz"), oracle("poss16", "mo"),
               oracle("dist16", "min")]

    # Each write is followed by the same pattern of reads for every seed, so
    # a pass has the same mix and order of work whatever the seed.
    read_measures = ("poss16", "dist16", "poss20", "lam20", "poss24")
    op_names = tuple(ops)
    out = []
    oracle_left = ORACLE_CHECKED_READS
    i = 0
    for j, write in enumerate(writes):
        out.append(write)
        for _ in range(READS_PER_WRITE - 2):
            key = read_measures[i % 5]
            upper = (i // 20) % 2 == 0
            checked = upper and params[key]["n"] <= 16 and oracle_left > 0
            oracle_left -= checked
            out.append(_integral_read(params[key], mus[key], ops[op_names[(i // 5) % 4]],
                                      fresh_fn(params[key]["n"]), upper, checked))
            i += 1
        anti = j % 2 == 1
        f, g = _pair(rng, (8, 10, 12, 14)[j % 4], anti)
        out.append(_star_read(f, g, stars[(j // 2) % 2], anti))
        f, g = _pair(rng, 8 + j % 7, anti)
        out.append(_comonotone_read(f, g, anti))
    return out


# ---------------------------------------------------------------------------
# scenario_runs
# ---------------------------------------------------------------------------

GENERATED_SCENARIOS = 224


def _monotone_table(rng: random.Random, n: int) -> list[float]:
    tab = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        best = rng.randrange(0, 65) / 64.0
        for b in _bits(mask):
            best = max(best, tab[mask ^ (1 << b)])
        tab[mask] = best
    return tab


def _scenario_doc(rng: random.Random, k: int) -> dict:
    """A version-1 scenario whose every task outcome is known by construction:
    closed-form integrals of possibility measures, self-checking oracle tasks,
    family-guaranteed measure properties, comonotone versus strictly
    anti-monotone pairs, and conditions and theorems with known verdicts.

    The size and task kinds cycle with ``k`` rather than with the seed, so a
    pass has the same mix of work for every seed; the values are seeded.
    """
    def pick(options):                          # independent of n across k
        return options[(k + k // 6) % len(options)]

    n = 3 + k % 6
    full = (1 << n) - 1
    f, g = _pair(rng, n, anti=False)          # f takes n distinct values
    f, g = list(f.values), list(g.values)
    h_desc = sorted(rng.sample(range(1, 33), n), reverse=True)
    h = [0.0] * n
    for rank, point in enumerate(sorted(range(n), key=lambda i: f[i])):
        h[point] = h_desc[rank] / 64.0        # strictly anti-monotone to f
    dens = [rng.randrange(1, 65) / 64.0 for _ in range(n)]
    dens[rng.randrange(n)] = 1.0
    ex = _monotone_table(rng, n)
    w = [1] * n
    for _ in range(64 - n):
        w[rng.randrange(n)] += 1
    add = [sum(w[b] for b in _bits(m)) / 64.0 for m in range(full + 1)]

    def gt_mask(t):
        return sum(1 << i for i in range(n) if f[i] > t)

    integral = pick([
        {"kind": "sugeno", "expect_value": max(min(a, d) for a, d in zip(f, dens))},
        {"kind": "shilkret", "expect_value": max(a * d for a, d in zip(f, dens))},
        {"kind": "upper_generalized", "operator": "luk",
         "expect_value": max(max(a + d - 1.0, 0.0) for a, d in zip(f, dens))},
    ])
    integral.update({"task": "integral", "function": "f", "measure": "pos"})
    lower = {"task": "integral", "kind": "lower_generalized", "operator": "max",
             "function": "f", "measure": "ex",
             "expect_value": min(max(t, ex[gt_mask(t)]) for t in [0.0, *f])}
    oracle = {"task": "oracle", "function": pick(["f", "g"]), "measure": "ex",
              "operator": pick(["min", "product", "luk"])}
    measure, prop, expect = pick([
        ("pos", "maxitive", "holds"), ("pos", "subadditive", "holds"),
        ("pos", "submodular", "holds"), ("pos", "null_additive", "holds"),
        ("add", "maxitive", "fails"), ("add", "subadditive", "holds"),
        ("ex", "monotone", "holds")])
    check_measure = {"task": "check_measure", "measure": measure, "property": prop,
                     "expect": expect}
    other, holds = pick([("g", True), ("h", False)])
    relation = pick([{"relation": "comonotone"}, {"relation": "comonotone"},
                     {"relation": "star_associated", "star": "product"},
                     {"relation": "star_associated", "star": "product"}])
    relation.update({"task": "check_relation", "f": "f", "g": other,
                     "expect": "holds" if holds else "fails"})
    c_values = sorted(rng.sample(range(1, 64), 4))
    c_values = [c / 64.0 for c in c_values]
    if pick([True, False]):
        p1, p2, p3 = (rng.choice([0.5, 1.0, 2.0, 3.0]) for _ in range(3))
        condition = {"condition": "mh_product_power", "p1": p1, "p2": p2, "p3": p3,
                     "expect": "holds" if p1 <= p2 and p1 <= p3 else "fails"}
    else:
        op = pick(["min", "product", "luk"])
        condition = {"condition": "sum_split", "operator": op,
                     "expect": "fails" if op == "luk" else "holds"}
    condition.update({"task": "check_condition", "c_values": c_values})
    verify = pick([
        {"theorem": "upper_mh", "star": "max", "combiner": "max",
         "circs": ["product"] * 3, "measure": "pos", "f": "f", "g": "g"},
        {"theorem": "comonotone_subadditive", "operator": "min", "measure": "pos",
         "f": "f", "g": "g"},
        {"theorem": "shilkret_maxitive", "measure": "pos", "trials": 4},
        {"theorem": "sugeno_subadditive", "measure": "pos", "trials": 4},
        {"theorem": "seminorm_minkowski", "semicopula": "min", "star": "max", "p": 1,
         "measure": "pos", "f": "f", "g": "g"},
    ])
    verify["task"] = "verify"
    return {
        "version": 1,
        "space": {"n": n},
        "measures": {"pos": {"kind": "possibility", "density": dens},
                     "ex": {"kind": "explicit", "table": ex},
                     "add": {"kind": "explicit", "table": add}},
        "functions": {"f": f, "g": g, "h": h},
        "operators": {"min": {"name": "min"}, "max": {"name": "max"},
                      "product": {"name": "product"}, "luk": {"name": "lukasiewicz"}},
        "tasks": [integral, lower, oracle, check_measure, relation, condition, verify],
    }


def scenario_runs(seed: int, root: Path) -> list[Op]:
    rng = random.Random(f"scenario_runs:{seed}")
    folder = Path("bench") / "out" / f"scenarios-{seed}"
    (root / folder).mkdir(parents=True, exist_ok=True)
    generated = []
    for k in range(GENERATED_SCENARIOS):
        path = folder / f"s{k:03d}.json"
        (root / path).write_text(json.dumps(_scenario_doc(rng, k), indent=1),
                                 encoding="utf-8")
        generated.append(path.as_posix())
    builtins = sorted(name for name in BUILTIN_SCENARIOS if not name.startswith("smoke_"))
    step = GENERATED_SCENARIOS // len(builtins)
    refs = []
    for b, name in enumerate(builtins):         # spread evenly through the pass
        refs += [name] + generated[b * step:(b + 1) * step]
    refs += generated[len(builtins) * step:]
    return [_cli_op(["run", ref, "--seed", str(rng.randrange(1 << 31)), "--format", "json"])
            for ref in refs]


WORKLOADS = {"fuzz_mix": fuzz_mix, "lattice_large_n": lattice_large_n,
             "scenario_runs": scenario_runs}


def build(name: str, seed: int, root: Path) -> list[Op]:
    return WORKLOADS[name](seed, root)
