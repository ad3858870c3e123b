"""Names and the op-failure type shared by the benchmark's driver, worker,
workloads and self-test.

This module imports nothing from ``nonadd`` so that the driver can validate
its arguments and build its output without loading the library.
"""

WORKLOADS = ("fuzz_mix", "lattice_large_n", "scenario_runs")

# (name, unit), printed with ``--trace 0``; all come from an untraced run.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# The twelve ids of ``nonadd.conditions.CONDITIONS``.
CONDITION_IDS = (
    "mh_upper", "mh_sugeno", "mh_product_power", "counterexample_premise",
    "semicopula_sum_split", "sum_split", "distributive_scaling", "mh_lower",
    "mh_lower_join", "dual_star_split", "dual_star_split_pair", "unit_section_order",
)

MEASURE_PROPS = ("monotone", "subadditive", "maxitive", "submodular", "null_additive")

# Modules of the package that hold traced functions; each is one layer.
LAYERS = ("core", "measures", "operators", "conditions", "integrals", "relations",
          "theorems", "metrics", "sampling", "campaigns", "scenarios", "cli")


def _timed(*names):
    out = []
    for name in names:
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
    return out


# (name, unit), printed with ``--trace 1``; all come from a traced run.
PER_LAYER = tuple(
    _timed(*(f"conditions.{c}" for c in CONDITION_IDS))
    + _timed("operators.verify_flags", "operators.check_operator_property")
    + [("operators.flags_requested", "count"), ("operators.gate_misses", "count"),
       ("operators.gate_hit_ratio", "ratio")]
    + _timed("measures.table_build")
    + [("measures.table_build.cells", "count")]
    + _timed(*(f"measures.check_property.{p}" for p in MEASURE_PROPS))
    + [("measures.mu_call.calls", "count")]
    + _timed("integrals.upper_integral_subset_oracle", "integrals.upper_integral_result",
             "integrals.lower_integral_result", "integrals.profile_integral")
    + [("integrals.exact_ratio", "ratio"), ("integrals.exact_ratio.base", "count")]
    + _timed("relations.is_star_associated", "relations.is_comonotone",
             "relations.is_mu_subadditive", "relations.is_pqd")
    + [("relations.exhaustive_ratio", "ratio"), ("relations.exhaustive_ratio.base", "count")]
    + _timed("core.subset_infima", "core.expand_masks")
    + _timed("theorems.verify", "theorems.reproduce_counterexample")
    + _timed("metrics.check_metric_axioms", "metrics.verify_mean_convergence",
             "metrics.cauchy_probe", "metrics.check_convergence_lemmas",
             "metrics.metric_eval")
    + _timed("sampling")
    + _timed("campaigns.run_campaign")
    + [("campaigns.trials", "count")]
    + _timed("scenarios.Scenario", "scenarios.run_task")
    + [("cli.main.self_ms", "ms")]
    + [("verdicts.sampled_ratio", "ratio"), ("verdicts.sampled_ratio.base", "count")]
    + [(f"{layer}.self_ms", "ms") for layer in LAYERS if layer != "sampling"]
    + [("bench.unattributed_ms", "ms"), ("bench.traced_wall_ms", "ms"),
       ("bench.untraced_wall_ms", "ms"), ("bench.trace_overhead_ratio", "ratio"),
       ("bench.spans", "count")]
)


class OpFailure(Exception):
    """An op ran but its output failed the benchmark's check."""
