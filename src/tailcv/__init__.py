"""Variance-reduced tail-index estimation with a correlated source sample.

Estimates the extreme value index of a scarce target sample and sharpens the
classical Hill and moment estimators with approximate control variates built
from a larger, tail-dependent source sample that is only partially paired
with the target. Includes dependence diagnostics, a closed-form
variance-reduction approximation, and a replicated simulation harness.
"""

from .acv import (
    AcvCoefficients,
    MomentStatistics,
    SufficientStatistics,
    acv_ratio_coefficients,
    acv_ratio_estimate,
    corrected_ratio,
    cv_coefficient,
    moment_statistics,
    variance_difference_plugin,
)
from .core import (
    CvVariables,
    EstimationError,
    EviEstimate,
    Exceedances,
    Method,
    SemiSupervisedDataset,
    TransferCoefficients,
    build_cv_variables,
    exceedances,
    log_excess_indicators,
    order_statistics,
    threshold_at,
)
from .dependence import (
    DependenceReport,
    asymptotic_rvr,
    asymptotic_rvr_formula,
    cv_correlations,
    dependence_report,
    tail_dependence,
)
from .estimators import (
    HillPlotSeries,
    hill,
    hill_plot,
    moment,
    moment_from_log_moments,
)
from .simulate import (
    BootstrapResult,
    EstimatorSummary,
    ExperimentConfig,
    Marginal,
    RvrPair,
    RvrReport,
    ThresholdScanPoint,
    bootstrap_study,
    generate_dataset,
    marginal_for_evi,
    marginal_quantile,
    run_rvr_experiment,
    sample_gumbel_copula,
    source_threshold_scan,
)
from .transfer import (
    ESTIMATORS,
    transferred_hill,
    transferred_hill_from_variables,
    transferred_moment,
    transferred_moment_from_variables,
)

__version__ = "0.1.0"

__all__ = [
    "AcvCoefficients",
    "BootstrapResult",
    "CvVariables",
    "DependenceReport",
    "ESTIMATORS",
    "EstimationError",
    "EstimatorSummary",
    "EviEstimate",
    "Exceedances",
    "ExperimentConfig",
    "HillPlotSeries",
    "Marginal",
    "Method",
    "MomentStatistics",
    "RvrPair",
    "RvrReport",
    "SemiSupervisedDataset",
    "SufficientStatistics",
    "ThresholdScanPoint",
    "TransferCoefficients",
    "acv_ratio_coefficients",
    "acv_ratio_estimate",
    "asymptotic_rvr",
    "asymptotic_rvr_formula",
    "bootstrap_study",
    "build_cv_variables",
    "corrected_ratio",
    "cv_coefficient",
    "cv_correlations",
    "dependence_report",
    "exceedances",
    "generate_dataset",
    "hill",
    "hill_plot",
    "log_excess_indicators",
    "marginal_for_evi",
    "marginal_quantile",
    "moment",
    "moment_from_log_moments",
    "moment_statistics",
    "order_statistics",
    "run_rvr_experiment",
    "sample_gumbel_copula",
    "source_threshold_scan",
    "tail_dependence",
    "threshold_at",
    "transferred_hill",
    "transferred_hill_from_variables",
    "transferred_moment",
    "transferred_moment_from_variables",
    "variance_difference_plugin",
]
