"""Cross-stack characterization (the paper's contribution)."""

from repro.core.characterize import CrossStackReport, characterize
from repro.core.claims import (
    Claim,
    ClaimContext,
    ClaimResult,
    PAPER_CLAIMS,
    evaluate_claims,
)
from repro.core.classification import (
    BottleneckShift,
    ModelClass,
    classify_breakdown,
    classify_profile,
    find_bottleneck_shifts,
    reference_classification,
)
from repro.core.energy import EnergyEstimate, efficiency_grid, energy_per_inference
from repro.core.export import (
    sweep_to_csv,
    sweep_to_records,
)
from repro.core.roofline import RooflinePoint, graph_workload, roofline_point
from repro.core.scaling import (
    ScalingFit,
    crossover_batch,
    crossover_table,
    fit_scaling,
)
from repro.core.sla import (
    SlaBudget,
    SlaOperatingPoint,
    max_batch_under_sla,
    sla_frontier,
)
from repro.core.features import FEATURE_NAMES, FeatureMatrix, build_feature_matrix
from repro.core.operator_breakdown import (
    OperatorBreakdown,
    breakdown_for,
    framework_comparison,
)
from repro.core.regression import (
    BOTTLENECK_TARGETS,
    RegressionResult,
    fit_bottleneck_regression,
    fit_linear,
    run_fig16_study,
)
from repro.core.report import format_seconds, render_grid, render_table, to_csv
from repro.core.speedup import (
    BASELINE_PLATFORM,
    OptimalCell,
    SpeedupStudy,
    SweepResult,
)
from repro.core.topdown_analysis import (
    TOPDOWN_BATCH_SIZE,
    MicroarchReport,
    collect_report,
    collect_suite,
)

__all__ = [
    "characterize",
    "CrossStackReport",
    "Claim",
    "ClaimContext",
    "ClaimResult",
    "PAPER_CLAIMS",
    "evaluate_claims",
    "ModelClass",
    "classify_breakdown",
    "classify_profile",
    "reference_classification",
    "BottleneckShift",
    "find_bottleneck_shifts",
    "SlaOperatingPoint",
    "SlaBudget",
    "max_batch_under_sla",
    "sla_frontier",
    "ScalingFit",
    "fit_scaling",
    "crossover_batch",
    "crossover_table",
    "RooflinePoint",
    "graph_workload",
    "roofline_point",
    "EnergyEstimate",
    "energy_per_inference",
    "efficiency_grid",
    "sweep_to_records",
    "sweep_to_csv",
    "SpeedupStudy",
    "SweepResult",
    "OptimalCell",
    "BASELINE_PLATFORM",
    "OperatorBreakdown",
    "breakdown_for",
    "framework_comparison",
    "MicroarchReport",
    "collect_report",
    "collect_suite",
    "TOPDOWN_BATCH_SIZE",
    "FEATURE_NAMES",
    "FeatureMatrix",
    "build_feature_matrix",
    "BOTTLENECK_TARGETS",
    "RegressionResult",
    "fit_bottleneck_regression",
    "fit_linear",
    "run_fig16_study",
    "render_table",
    "render_grid",
    "to_csv",
    "format_seconds",
]
