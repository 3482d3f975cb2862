"""Domain types, order statistics, and control-variate variable construction.

The semi-supervised layout couples a scarce target sample with an abundant
source sample: n index-aligned (target, source) pairs plus m extra source-only
observations. All estimators in this package operate on peaks over a random
threshold, the (n-k)-th ascending order statistic, with strict exceedance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "EstimationError",
    "SemiSupervisedDataset",
    "Method",
    "TransferCoefficients",
    "EviEstimate",
    "Exceedances",
    "order_statistics",
    "threshold_at",
    "exceedances",
    "log_excess_indicators",
    "build_cv_variables",
]


class EstimationError(ValueError):
    """Estimator input or intermediate quantity is degenerate."""


def _readonly_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SemiSupervisedDataset:
    """Coupled (target, source) pairs plus extra unpaired source observations.

    Attributes
    ----------
    paired_target : array of shape (n,)
        Target observations, index-aligned with ``paired_source``.
    paired_source : array of shape (n,)
        Source observations coupled to the target.
    extra_source : array of shape (m,)
        Additional source-only observations; may be empty.
    """

    paired_target: np.ndarray
    paired_source: np.ndarray
    extra_source: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        object.__setattr__(self, "paired_target",
                           _readonly_vector(self.paired_target, "paired_target"))
        object.__setattr__(self, "paired_source",
                           _readonly_vector(self.paired_source, "paired_source"))
        object.__setattr__(self, "extra_source",
                           _readonly_vector(self.extra_source, "extra_source"))
        if self.paired_target.size != self.paired_source.size:
            raise ValueError("paired_target and paired_source must have equal length")
        if self.paired_target.size < 2:
            raise ValueError("need at least 2 coupled observations")

    @property
    def n(self) -> int:
        return self.paired_target.size

    @property
    def m(self) -> int:
        return self.extra_source.size


class Method(Enum):
    """Estimator identity attached to an EviEstimate."""

    HILL = "hill"
    MOMENT = "moment"
    TRANSFERRED_HILL = "transferred_hill"
    TRANSFERRED_MOMENT = "transferred_moment"

    @property
    def is_transferred(self) -> bool:
        return self in (Method.TRANSFERRED_HILL, Method.TRANSFERRED_MOMENT)

    @property
    def baseline(self) -> "Method":
        """The untransferred counterpart of a transferred method."""
        return {
            Method.TRANSFERRED_HILL: Method.HILL,
            Method.TRANSFERRED_MOMENT: Method.MOMENT,
        }.get(self, self)


@dataclass(frozen=True)
class TransferCoefficients:
    """Fitted control-variate coefficients recorded on a transferred estimate.

    ``alpha``/``beta`` correct the first-moment numerator/denominator pair;
    ``alpha_prime``/``beta_prime`` correct the second-moment pair and are only
    present for the transferred moment estimator. A degenerate flag means the
    corresponding pair was forced to zero (baseline fallback).
    """

    alpha: float
    beta: float
    alpha_prime: float | None = None
    beta_prime: float | None = None
    degenerate: bool = False
    degenerate_second: bool | None = None


@dataclass(frozen=True)
class EviEstimate:
    """An extreme value index estimate with its method and diagnostics.

    ``k`` is the requested number of extremes; ``k_eff`` the realized strict
    exceedance count (equal to k for tie-free samples). ``coefficients`` is
    present exactly for transferred methods. ``variance_estimate`` is the
    asymptotic plug-in variance where the method provides one (Hill-type
    estimators), clipped at zero.
    """

    value: float
    method: Method
    k: int
    k_eff: int
    coefficients: TransferCoefficients | None = None
    variance_estimate: float | None = None

    def __post_init__(self):
        if (self.coefficients is not None) != self.method.is_transferred:
            raise ValueError("coefficients present iff the method is transferred")
        if self.variance_estimate is not None and self.variance_estimate < 0:
            raise ValueError("variance_estimate must be non-negative")


def order_statistics(sample) -> np.ndarray:
    """Ascending order statistics of a sample.

    Parameters
    ----------
    sample : array-like of float
        Non-empty sample with finite entries.

    Returns
    -------
    np.ndarray
        Sorted copy, non-decreasing.
    """
    arr = np.asarray(sample, dtype=float)
    if arr.size == 0:
        raise EstimationError("empty sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("sample contains non-finite entries")
    return np.sort(arr)


def _order_statistic(ordered: np.ndarray, k: int) -> float:
    """The (n-k)-th entry of an ascending array, with 1 <= k <= n - 1."""
    n = ordered.size
    if not 1 <= int(k) <= n - 1:
        raise EstimationError("invalid k")
    return float(ordered[n - int(k) - 1])


def threshold_at(sample, k: int) -> float:
    """The (n-k)-th ascending order statistic, used as the random threshold.

    Parameters
    ----------
    sample : array-like of float
    k : int
        Number of extremes, 1 <= k <= n - 1.
    """
    return _order_statistic(order_statistics(sample), k)


def log_excess_indicators(values, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-excesses over a positive threshold and strict exceedance indicators.

    Parameters
    ----------
    values : array-like of float
    threshold : float
        Must be positive; values at or below it contribute zeros.

    Returns
    -------
    (excess, indicator) : tuple of np.ndarray
        ``indicator`` is 1.0 where value > threshold, else 0.0; ``excess`` is
        ln(value) - ln(threshold) there and exactly 0.0 elsewhere.
    """
    if threshold <= 0:
        raise EstimationError("log-transform undefined")
    arr = np.asarray(values, dtype=float)
    mask = arr > threshold
    excess = np.zeros(arr.shape)
    if mask.any():
        excess[mask] = np.log(arr[mask]) - np.log(threshold)
    return excess, mask.astype(float)


@dataclass(frozen=True, eq=False)
class Exceedances:
    """One side's exceedances of the (n-k)-th order statistic of its n coupled values.

    ``indicator`` (0/1), ``excess`` (log-excess, 0.0 off the exceedances) and
    ``square`` hold the n coupled rows, and ``means`` are their means in that
    order. ``full`` holds the same three columns over all values, coupled
    first, when there are extra ones; ``full_means`` are their means, and the
    very same tuple as ``means`` when there are none. Means are computed on
    first use. All but ``indicator`` are None when the threshold is not
    positive.
    """

    k: int
    threshold: float
    indicator: np.ndarray
    excess: np.ndarray | None = None
    square: np.ndarray | None = None
    full: tuple | None = None

    @cached_property
    def count(self) -> int:
        """The realized number of exceedances among the coupled values."""
        return int(round(self.indicator.sum()))

    @cached_property
    def means(self) -> tuple | None:
        if self.excess is None:
            return None
        return tuple(column.mean() for column in (self.excess, self.square,
                                                  self.indicator))

    @cached_property
    def full_means(self) -> tuple | None:
        if self.full is None:
            return self.means
        return tuple(column.mean() for column in self.full)


def exceedances(coupled, k: int, extra=(),
                ordered: np.ndarray | None = None) -> Exceedances:
    """Exceedances of ``coupled`` plus ``extra`` values, from one sort.

    The threshold is the (n-k)-th order statistic of the n coupled values;
    ``ordered`` may pass their sorted copy to skip the sort.
    """
    coupled = np.asarray(coupled, dtype=float)
    n = coupled.size
    if ordered is None:
        ordered = order_statistics(coupled)
    threshold = _order_statistic(ordered, k)
    if threshold <= 0:
        return Exceedances(k=int(k), threshold=threshold,
                           indicator=(coupled > threshold).astype(float))
    values = coupled
    if len(extra):
        values = np.concatenate([coupled, np.asarray(extra, dtype=float)])
    excess, indicator = log_excess_indicators(values, threshold)
    square = excess * excess
    full = (excess, square, indicator) if len(extra) else None
    return Exceedances(k=int(k), threshold=threshold, indicator=indicator[:n],
                       excess=excess[:n], square=square[:n], full=full)


def build_cv_variables(dataset: SemiSupervisedDataset, k: int,
                       k_source: int | None = None):
    """``acv.SufficientStatistics.of``, kept because ``perfbench/`` calls this name."""
    from .acv import SufficientStatistics  # acv imports this module
    return SufficientStatistics.of(dataset, k, k_source)


def _json_fields(obj, omit=()) -> dict:
    """The fields of dataclass ``obj`` as plain JSON data, in declaration order.

    Fields named in ``omit`` are left out, at every depth. Nested values
    convert as follows: an object with its own ``to_dict`` (a ``Marginal``,
    which alone knows which parameters its family has) gives that dict, any
    other dataclass the dict of its fields, an Enum its value, a tuple or
    list a list, a dict a dict, and NaN or an infinity None (null).
    """
    return {f.name: _json_value(getattr(obj, f.name), omit)
            for f in fields(obj) if f.name not in omit}


def _json_value(value, omit):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if is_dataclass(value):
        return _json_fields(value, omit)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {key: _json_value(item, omit) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(item, omit) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value
