"""Baseline extreme value index estimators: Hill, moment, and Hill-plot series.

The canonical Hill implementation is the ratio-of-means form: the mean of
threshold log-excesses divided by the mean of exceedance indicators. For
tie-free samples this coincides with the textbook average of the top-k
log-spacings; sharing the ratio form with the transferred estimators keeps
their degenerate fallbacks bit-for-bit identical to the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acv import SufficientStatistics
from .core import (
    EstimationError,
    EviEstimate,
    Exceedances,
    Method,
    _exceedances,
    _integer,
    _order_statistic,
    _readonly_vector,
    _valid_k,
    exceedances,
    order_statistics,
)

__all__ = [
    "HillPlotSeries",
    "hill",
    "moment",
    "hill_plot",
    "moment_from_log_moments",
]


def _ratio(side: Exceedances, power: int = 1) -> float:
    """Mean log-excess (power 1) or squared log-excess (2) over mean indicator."""
    if side.means is None:
        raise EstimationError("log-transform undefined")
    denom = side.means[2]
    if denom == 0.0:
        raise EstimationError("no exceedances")
    return float(side.means[power - 1] / denom)


# 1 - m1**2/m2 is exactly 0 when all log-excesses are equal (one exceedance,
# or ties) but rounds to a few ulps: at most 5.5 eps in 23,000 such samples.
# Both paths treat this band as singular, so that with m = 0 the transferred
# estimate fails exactly where the baseline does.
DENOMINATOR_ATOL = 32 * np.finfo(float).eps


def moment_from_log_moments(m1: float, m2: float, strict: bool = True) -> float:
    """Combine first and second log-excess moments into the moment estimate.

    Returns m1 + 1 - 0.5 / (1 - m1**2 / m2). With ``strict`` (the baseline
    path) any 1 - m1**2/m2 up to ``DENOMINATOR_ATOL`` is rejected, since the
    Cauchy-Schwarz inequality makes negatives impossible up to rounding and
    zero means all log-excesses were equal. The transferred path passes
    ``strict=False`` because control-variate corrections can legitimately push
    the ratio past one; only a denominator within ``DENOMINATOR_ATOL`` of zero
    is rejected there.
    """
    if m2 == 0.0:
        raise EstimationError("moment estimator undefined")
    denom = 1.0 - (m1 * m1) / m2
    if (denom if strict else abs(denom)) <= DENOMINATOR_ATOL:
        raise EstimationError("moment estimator undefined")
    return m1 + 1.0 - 0.5 / denom


def hill(sample, k: int) -> EviEstimate:
    """Hill estimator of the extreme value index.

    Parameters
    ----------
    sample : array-like of float
        Raw observations; the threshold is taken inside.
    k : int
        Number of extremes, 1 <= k <= n - 1; the threshold (the (n-k)-th
        order statistic) must be positive.

    Returns
    -------
    EviEstimate
        ``value`` is the mean log-excess over the strict exceedance fraction;
        ``variance_estimate`` is the asymptotic value**2 / k_eff.
    """
    return _hill(SufficientStatistics(exceedances(sample, k)))


def _hill(stats: SufficientStatistics, estimate: bool = True):
    """The estimate; with ``estimate=False`` its value alone, as a float.

    Every entry of ``transfer.ESTIMATORS`` takes the same flag.
    """
    value = _ratio(stats.target)
    if not estimate:
        return value
    k_eff = stats.target.count
    return EviEstimate(
        value=value, method=Method.HILL, k=stats.target.k, k_eff=k_eff,
        variance_estimate=value * value / k_eff,
    )


def moment(sample, k: int) -> EviEstimate:
    """Moment estimator of the extreme value index (valid for index > -1/2).

    Uses the first and second empirical log-excess moments over the strict
    exceedance set. No variance estimate is attached.
    """
    return _moment(SufficientStatistics(exceedances(sample, k)))


def _moment(stats: SufficientStatistics, estimate: bool = True):
    value = moment_from_log_moments(_ratio(stats.target), _ratio(stats.target, 2),
                                    strict=True)
    if not estimate:
        return value
    return EviEstimate(value=value, method=Method.MOMENT, k=stats.target.k,
                       k_eff=stats.target.count)


@dataclass(frozen=True)
class HillPlotSeries:
    """Hill estimates across a grid of k values; failures are NaN entries."""

    k_values: np.ndarray
    estimates: np.ndarray

    def __post_init__(self):
        k_values = np.asarray(self.k_values, dtype=int)
        estimates = np.asarray(self.estimates, dtype=float)
        if k_values.size != estimates.size:
            raise ValueError("k_values and estimates must have equal length")
        if k_values.size == 0:
            raise ValueError("empty k range")
        if np.any(np.diff(k_values) <= 0):
            raise ValueError("k_values must be strictly increasing")
        object.__setattr__(self, "k_values", k_values)
        object.__setattr__(self, "estimates", estimates)


def hill_plot(sample, k_min: int, k_max: int, step: int = 1) -> HillPlotSeries:
    """Hill estimates for k in [k_min, k_max] with the given step, from one sort.

    Individual k values where the estimator degenerates (tied thresholds with
    no strict exceedances) are recorded as NaN rather than aborting the series.
    """
    arr = _readonly_vector(sample, "sample")
    if _integer(step, "step") < 1:
        raise ValueError("step must be positive")
    k_values = np.arange(_valid_k(k_min, arr.size, "k_min"),
                         _valid_k(k_max, arr.size, "k_max") + 1, step)
    ordered = order_statistics(arr)
    estimates = np.empty(k_values.size)
    for i, k in enumerate(k_values):
        try:
            estimates[i] = _ratio(_exceedances(arr, k, _order_statistic(ordered, k)))
        except EstimationError:
            estimates[i] = np.nan
    return HillPlotSeries(k_values=k_values, estimates=estimates)
