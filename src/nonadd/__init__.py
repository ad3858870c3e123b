"""nonadd: exact evaluation and verification of nonadditive integrals,
measure properties, functional inequalities, and metrics of convergence in
measure on finite spaces."""

from .core import (
    EXTENDED,
    FiniteSpace,
    Fn,
    INF,
    NONNEG,
    SurvivalProfile,
    UNIT,
    UNIT_OPEN,
    ValueScale,
)
from .measures import (
    MonotoneMeasure,
    check_measure_property,
    dual_measure,
    generate_measure,
)
from .operators import (
    BinaryOp,
    DualityMap,
    PhiMap,
    bounded_sum,
    check_operator_property,
    check_top_absorbing,
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
from .conditions import CONDITIONS, check_condition
from .integrals import (
    abs_power,
    check_h_duality,
    check_sugeno_identity,
    lower_integral,
    lower_integral_result,
    profile_integral,
    seminormed_integral,
    shilkret_integral,
    sugeno_integral,
    upper_integral,
    upper_integral_result,
    upper_integral_subset_oracle,
)
from .relations import is_comonotone, is_mu_subadditive, is_pqd, is_star_associated
from .theorems import (
    MHOperators,
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
from .metrics import (
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
from .results import CheckResult, DomainError, HypothesisError, RelationVerdict

__version__ = "0.1.0"
