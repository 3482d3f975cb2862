"""Domain types, order statistics, and control-variate variable construction.

The semi-supervised layout couples a scarce target sample with an abundant
source sample: n index-aligned (target, source) pairs plus m extra source-only
observations. All estimators in this package operate on peaks over a random
threshold, the (n-k)-th ascending order statistic, with strict exceedance.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum

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


def _check_finite_entries(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} contains non-finite entries")


def _readonly_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    _check_finite_entries(arr, name)
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
        for name in ("paired_target", "paired_source", "extra_source"):
            object.__setattr__(self, name, _readonly_vector(getattr(self, name), name))
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
        return self.value.startswith("transferred_")

    @property
    def baseline(self) -> "Method":
        """The untransferred counterpart: the value less "transferred_"."""
        return Method(self.value.removeprefix("transferred_"))


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
    _check_finite_entries(arr, "sample")
    return np.sort(arr)


def _integer(value, name: str) -> int:
    """value as an int; a float, a string or any other non-integer is rejected."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None


def _valid_k(k, n: int, name: str = "k") -> int:
    """The one rule for every k and l of n values: an integer in 1..n - 1."""
    k = _integer(k, name)
    if not 1 <= k <= n - 1:
        raise EstimationError("invalid k")
    return k


def _validated_k(k, k_source, n: int) -> tuple[int, int]:
    """k and k_source (k when None), both checked as integers before either range."""
    k = _integer(k, "k")
    k_source = k if k_source is None else _integer(k_source, "k_source")
    return _valid_k(k, n), _valid_k(k_source, n)


def threshold_at(sample, k: int) -> float:
    """The (n-k)-th ascending order statistic, used as the random threshold.

    Parameters
    ----------
    sample : array-like of float
    k : int
        Number of extremes, 1 <= k <= n - 1.
    """
    ordered = order_statistics(sample)
    return float(ordered[ordered.size - _valid_k(k, ordered.size) - 1])


def _column_block(values: np.ndarray, threshold: float | np.ndarray) -> np.ndarray:
    """The control columns of n values over a positive threshold, as one (3, n) block.

    Row 0 is the log-excess ln(max(x, t)) - ln(t), exactly +0.0 where
    x <= t (the log of t less itself), row 1 its square and row 2 the strict
    exceedance indicator, 1.0 where x > t. These are the columns that
    logging the exceedances alone gives as long as np.log gives a value the
    same bits wherever it sits in an array. The threshold scan passes (B, n)
    rows of values and a (B, 1) column of thresholds, and gets (3, B, n).
    """
    block = np.empty((3, *values.shape))
    excess = block[0]
    np.greater(values, threshold, out=block[2])
    np.log(np.fmax(values, threshold, out=excess), out=excess)
    excess -= np.log(threshold)
    np.multiply(excess, excess, out=block[1])
    return block


def log_excess_indicators(values, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-excesses over a positive threshold and strict exceedance indicators.

    Parameters
    ----------
    values : array-like of float
    threshold : float
        Must be positive and finite; values at or below it contribute zeros.

    Returns
    -------
    (excess, indicator) : tuple of np.ndarray
        ``indicator`` is 1.0 where value > threshold, else 0.0; ``excess`` is
        ln(value) - ln(threshold) there and exactly 0.0 elsewhere.
    """
    if not 0 < threshold < math.inf:
        raise EstimationError("log-transform undefined")
    arr = np.asarray(values, dtype=float)
    excess, _, indicator = _column_block(arr.ravel(), float(threshold))
    return excess.reshape(arr.shape), indicator.reshape(arr.shape)


@dataclass(frozen=True, eq=False)
class Exceedances:
    """One side's exceedances of the (n-k)-th order statistic of its n coupled values.

    ``indicator`` (0/1), ``excess`` (log-excess, 0.0 off the exceedances) and
    ``square`` hold the n coupled rows, as the rows of this side's own (3, n)
    ``_column_block``, ``count`` is their number of exceedances and ``means``
    their means in that order. ``full_means`` are the means over all n + m
    values, with the m extra ones: the very tuple ``means`` when m = 0.
    ``values`` are the n coupled values themselves. Only ``indicator``,
    ``count`` and ``m`` are set when the threshold is not positive.
    """

    k: int
    threshold: float
    indicator: np.ndarray
    count: int
    m: int = 0
    excess: np.ndarray | None = None
    square: np.ndarray | None = None
    means: tuple | None = None
    full_means: tuple | None = None
    values: np.ndarray | None = None


def exceedances(coupled, k: int, extra=()) -> Exceedances:
    """Exceedances of ``coupled``, with ``extra`` in the full means, by selection.

    The threshold is the (n-k)-th order statistic of the n coupled values,
    from ``np.partition``: a value, so the one a sort gives. A sample that
    is not one-dimensional or holds a non-finite value raises ValueError.
    ``extra`` holds the m extra values in 1-d pieces in input order, like
    ``(values,)``, or as one 1-d array; only those above the threshold are
    joined and logged, so no (n + m)-long column is built.
    """
    coupled = _readonly_vector(coupled, "sample")
    if isinstance(extra, np.ndarray) and extra.ndim == 1:
        extra = (extra,)  # one piece, not one piece per value
    extra = [np.asarray(piece, dtype=float) for piece in extra]
    if coupled.size == 0:
        raise EstimationError("empty sample")
    if not all(piece.ndim == 1 and np.isfinite(piece).all() for piece in extra):
        raise ValueError("extra must be one-dimensional pieces of finite values")
    k = _valid_k(k, coupled.size)
    return _exceedances(coupled, k, float(np.partition(coupled, -k - 1)[-k - 1]), extra)


def _exceedances(coupled, k: int, threshold: float, extra=()) -> Exceedances:
    """``exceedances`` given the threshold: the coupled values' ``_column_block``.

    Only the extra values above a positive threshold are joined and logged.
    """
    n, m = coupled.size, sum(piece.size for piece in extra)
    if threshold <= 0:
        indicator = (coupled > threshold).astype(float)
        return Exceedances(k, threshold, indicator, int(np.count_nonzero(indicator)), m)
    block = _column_block(coupled, threshold)
    own = np.add.reduce(block, axis=1)
    means = full_means = tuple(total / n for total in own)
    if m:
        above = np.concatenate([np.compress(p > threshold, p) for p in extra])
        log_excess = np.log(above) - np.log(threshold)
        more = (*map(np.add.reduce, (log_excess, log_excess * log_excess)), above.size)
        full_means = tuple((total + add) / (n + m) for total, add in zip(own, more))
    return Exceedances(k, threshold, block[2], int(own[2]), m, block[0], block[1],
                       means, full_means, coupled)


def _source_sums(source: np.ndarray, excess: np.ndarray, indicator: np.ndarray,
                 l_index: np.ndarray) -> np.ndarray:
    """What the variance plug-in reads at each l in ``l_index``, as one (8, B, L) array.

    Each of the B rows of ``source`` holds n coupled source values, and the
    same rows of ``excess`` and ``indicator`` the target's log-excesses a
    and indicators c. t_l is the (n-l)-th ascending order statistic of a
    source row. Cell (row, i), at l = l_index[i], holds the sums of L, L²,
    a, a·L, c and c·L over the values above t_l (above 0 when t_l <= 0),
    their count, and ln(t_l) less the row's origin, NaN when t_l <= 0. L is
    ln(value) less the origin, the log of the row's largest value (0.0 when
    the row sums nothing), so the sums do not grow with the scale.
    """
    # Sorted largest first, ties in row order (a stable sort), each
    # threshold's exceedances are the first values, so one cumulative pass
    # gives the sums at every l, each with the same bits whatever follows.
    # Only the l_max + 1 largest values are selected and sorted. Which values
    # tied at the cut a kernel selects never matters: they only supply
    # thresholds, of one value, and every summed value lies strictly above.
    rows = np.arange(len(source))[:, None]
    cut = source.shape[1] - 1 - l_index.max()
    selected = np.sort(np.argpartition(source, cut, axis=1)[:, cut:], axis=1)
    values = source[rows, selected]
    rank = np.argsort(-values, axis=1, kind="stable")
    order, ranked = selected[rows, rank], values[rows, rank]
    thresholds = ranked[:, l_index]
    # The count strictly above t_l > 0 is the first position of its value,
    # at [:, l - 1] of `starts`; above t_l <= 0 it is the number of positive
    # values.
    starts = np.where(ranked[:, 1:] != ranked[:, :-1],
                      np.arange(1, ranked.shape[1]), 0)
    np.maximum.accumulate(starts, axis=1, out=starts)
    counts = np.where(thresholds > 0, starts[:, l_index - 1],
                      np.count_nonzero(ranked > 0, axis=1)[:, None])
    width = max(counts.max(), 1)
    head, top = ranked[:, :width], order[:, :width]
    log = np.zeros(head.shape)
    np.log(head, out=log, where=head > 0)
    origin = np.where(counts.max(axis=1) > 0, log[:, 0], 0.0)[:, None]
    log -= origin
    a, c = excess[rows, top], indicator[rows, top]
    prefix = np.zeros((6, len(top), width + 1))
    np.cumsum((log, log * log, a, a * log, c, c * log), axis=-1, out=prefix[..., 1:])
    sums = np.empty((8, *counts.shape))
    sums[:6] = prefix[:, rows, counts]
    sums[6] = counts
    sums[7] = np.nan
    np.log(thresholds, out=sums[7], where=thresholds > 0)
    sums[7] -= origin
    return sums


def build_cv_variables(dataset: SemiSupervisedDataset, k: int,
                       k_source: int | None = None):
    """``acv.SufficientStatistics.of``, kept because ``perfbench/`` calls this name;
    ``of``'s body here would need this import in every replication."""
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
