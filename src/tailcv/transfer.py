"""Transferred estimators: variance-reduced Hill and moment via source data.

Both estimators write the baseline as a ratio of means on the target sample
and correct numerator and denominator with approximate control variates built
from the correlated source sample, exploiting the m extra unpaired source
observations. Coefficients are estimated in-sample; when their Gram system is
degenerate the correction is dropped and the baseline value is returned
bit-for-bit.
"""

from __future__ import annotations

from .acv import SufficientStatistics
from .core import (
    EstimationError,
    EviEstimate,
    Method,
    SemiSupervisedDataset,
    TransferCoefficients,
)
from .estimators import _hill, _moment, _ratio, moment_from_log_moments

__all__ = [
    "ESTIMATORS",
    "transferred_hill",
    "transferred_hill_from_variables",
    "transferred_moment",
    "transferred_moment_from_variables",
]


def _transferred_hill(stats: SufficientStatistics, estimate: bool = True):
    """The estimate; with ``estimate=False`` its value alone, as a float."""
    r_plugin = _ratio(stats.target)
    alpha, beta, _, degenerate = stats.coefficients(1, r_plugin)
    value = stats.corrected_ratio(1, alpha, beta)
    if not estimate:
        return value
    k_eff = stats.target.count
    variance_estimate = r_plugin * r_plugin / k_eff
    if not degenerate:
        try:
            variance_estimate -= stats.variance_difference(r_plugin)
        except EstimationError:
            # The plug-in's raw sums can find the controls singular where
            # the coefficients' covariance, a rounding away, does not:
            # then no reduction is claimed.
            pass
    return EviEstimate(
        value=value, method=Method.TRANSFERRED_HILL, k=stats.target.k,
        k_eff=k_eff, coefficients=TransferCoefficients(alpha, beta,
                                                       degenerate=degenerate),
        variance_estimate=max(variance_estimate, 0.0),
    )


def _transferred_moment(stats: SufficientStatistics, estimate: bool = True):
    alpha, beta, _, degenerate = stats.coefficients(1, _ratio(stats.target))
    alpha_prime, beta_prime, _, degenerate_second = stats.coefficients(
        2, _ratio(stats.target, 2))
    value = moment_from_log_moments(stats.corrected_ratio(1, alpha, beta),
                                    stats.corrected_ratio(2, alpha_prime, beta_prime),
                                    strict=False)
    if not estimate:
        return value
    record = TransferCoefficients(alpha, beta, alpha_prime, beta_prime,
                                  degenerate, degenerate_second)
    return EviEstimate(value=value, method=Method.TRANSFERRED_MOMENT,
                       k=stats.target.k, k_eff=stats.target.count,
                       coefficients=record)


# The one dispatch table: every estimator reads the same statistics object,
# and with ``estimate=False`` gives its value without building an EviEstimate.
ESTIMATORS = {
    Method.HILL: _hill,
    Method.MOMENT: _moment,
    Method.TRANSFERRED_HILL: _transferred_hill,
    Method.TRANSFERRED_MOMENT: _transferred_moment,
}


def transferred_hill_from_variables(stats: SufficientStatistics) -> EviEstimate:
    """The transferred-Hill reader, kept because ``perfbench/`` traces this name."""
    return _transferred_hill(stats)


def transferred_hill(dataset: SemiSupervisedDataset, k: int,
                     k_source: int | None = None) -> EviEstimate:
    """Variance-reduced Hill estimator using a correlated source sample.

    Parameters
    ----------
    dataset : SemiSupervisedDataset
        n coupled (target, source) pairs plus m extra source observations.
    k : int
        Number of target extremes.
    k_source : int, optional
        Number of source extremes used for the source threshold; defaults
        to k.

    Returns
    -------
    EviEstimate
        The corrected ratio of means with the fitted (alpha, beta) recorded;
        ``variance_estimate`` is the baseline plug-in variance minus the
        plug-in variance reduction, clipped at zero. With m = 0 or a
        degenerate coefficient system the value equals ``hill`` on the
        coupled target sample exactly.
    """
    return _transferred_hill(SufficientStatistics.of(dataset, k, k_source))


def transferred_moment_from_variables(stats: SufficientStatistics) -> EviEstimate:
    """The transferred-moment reader, kept because ``perfbench/`` traces this name."""
    return _transferred_moment(stats)


def transferred_moment(dataset: SemiSupervisedDataset, k: int,
                       k_source: int | None = None) -> EviEstimate:
    """Variance-reduced moment estimator using a correlated source sample.

    The first log-moment is corrected with coefficients optimized for it and
    the second log-moment with its own pair (alpha_prime, beta_prime); the two
    corrected moments are then combined exactly as in the baseline moment
    estimator. Per-moment optimization is deliberate: jointly optimal
    coefficients for the combined statistic are not attempted, so the total
    variance can occasionally increase. Each pair falls back to zero
    independently when degenerate; if both degenerate (or m = 0) the value
    equals ``moment`` on the coupled target sample exactly.
    """
    return _transferred_moment(SufficientStatistics.of(dataset, k, k_source))
