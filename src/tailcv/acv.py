"""Control-variates engine for ratio-of-means estimators.

Implements the exact control-variate coefficient for a single mean, the
jointly optimized coefficient pair for an approximate-control-variate (ACV)
correction of both the numerator and the denominator of a ratio of means, the
corrected ratio itself, and a plug-in formula for the variance reduction it
achieves. The auxiliary (source) mean is approximate because it is estimated
from the larger n + m sample rather than known exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EstimationError,
    Exceedances,
    SemiSupervisedDataset,
    _column_block,
    _exceedances,
    _side,
    _source_sums,
    _validated_k,
)

__all__ = [
    "AcvCoefficients",
    "MomentStatistics",
    "SufficientStatistics",
    "moment_statistics",
    "cv_coefficient",
    "acv_ratio_coefficients",
    "corrected_ratio",
    "variance_difference_plugin",
]

# Relative Gram-determinant floor and indicator-correlation ceiling below/above
# which the coefficient system is treated as singular.
DETERMINANT_RTOL = 1e-12
CORRELATION_CEILING = 1.0 - 1e-10


@dataclass(frozen=True)
class AcvCoefficients:
    """Optimized ACV coefficient pair for a ratio of means.

    ``alpha`` corrects the numerator mean, ``beta`` the denominator mean.
    ``determinant`` is Var(b)Var(d) - Cov(b,d)**2 from the plug-in moments.
    When ``degenerate`` is true both coefficients are zero and the corrected
    ratio falls back to the baseline ratio exactly.
    """

    alpha: float
    beta: float
    determinant: float
    degenerate: bool

    def __post_init__(self):
        if self.degenerate and (self.alpha != 0.0 or self.beta != 0.0):
            raise ValueError("degenerate coefficients must be zero")


@dataclass(frozen=True)
class MomentStatistics:
    """Plug-in means and covariance matrix of jointly observed sequences.

    ``covariance`` uses the n-1 divisor; its diagonal holds the variances.
    """

    means: np.ndarray
    covariance: np.ndarray
    count: int


def moment_statistics(*sequences) -> MomentStatistics:
    """Sample means and covariance matrix (n-1 divisor) of aligned sequences.

    All sequences must have the same length, at least 2.
    """
    if not sequences:
        raise ValueError("at least one sequence required")
    arrays = [np.asarray(s, dtype=float) for s in sequences]
    count = arrays[0].size
    if any(arr.size != count for arr in arrays):
        raise ValueError("sequences must have equal length")
    if count < 2:
        raise ValueError("need at least 2 observations")
    stacked = np.array(arrays)
    means = stacked.mean(axis=1)
    return MomentStatistics(means, _covariance(stacked - means[:, None]), count)


def _covariance(dev: np.ndarray) -> np.ndarray:
    """The covariance (n-1 divisor) of rows with these deviations from their means."""
    # Each entry sums the products of its own two rows without BLAS, so the
    # matrix has the same bits on any kernel.
    products = np.einsum("...k,...k->...", dev[:, None], dev[None])
    return products * (1 / (dev.shape[1] - 1))


def cv_coefficient(a, b) -> float:
    """Exact control-variate coefficient Cov(a, b) / Var(b).

    This is the variance-minimizing coefficient for correcting the mean of
    ``a`` with a control ``b`` of known mean, estimated with n-1 divisors. A
    constant control, or moments past float64's range, raise EstimationError.
    """
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite entry
        cov = moment_statistics(a, b).covariance.tolist()
    value = cov[0][1] / cov[1][1] if cov[1][1] else math.nan
    if not math.isfinite(value):
        raise EstimationError("degenerate control variate")
    return value


def _degenerate(var_b, var_d, cov_bd, determinant, sqrt=np.sqrt):
    """Whether the control system is singular; elementwise, or on floats (math.sqrt)."""
    return ((determinant <= DETERMINANT_RTOL * var_b * var_d)
            | (abs(cov_bd) >= CORRELATION_CEILING * sqrt(var_b * var_d)))


def _coefficients(cov: list, rows: tuple, r_plugin: float) -> tuple:
    """The optimal pair from rows (a, b, c, d) of a covariance as nested lists.

    Returns AcvCoefficients' fields as a plain tuple: (alpha, beta,
    determinant, degenerate).
    """
    a, b, c, d = rows
    var_b, var_d = cov[b][b], cov[d][d]
    cov_ab, cov_ad = cov[a][b], cov[a][d]
    cov_bc, cov_bd = cov[b][c], cov[b][d]
    cov_cd = cov[c][d]
    determinant = var_b * var_d - cov_bd * cov_bd
    if _degenerate(var_b, var_d, cov_bd, determinant, math.sqrt) or r_plugin == 0.0:
        return 0.0, 0.0, determinant, True
    r = float(r_plugin)
    alpha = (var_d * cov_ab - r * var_d * cov_bc
             + r * cov_bd * cov_cd - cov_bd * cov_ad) / determinant
    # Python floats round as float64 does; only beta's divisor can underflow to 0.
    beta = (cov_bd * cov_ab - r * cov_bd * cov_bc
            + r * var_b * cov_cd - var_b * cov_ad) / np.float64(r * determinant)
    return alpha, float(beta), determinant, False


def acv_ratio_coefficients(a, b, c, d, r_plugin: float) -> AcvCoefficients:
    """Jointly optimized ACV coefficients for the ratio mean(a)/mean(c).

    The four sequences are the coupled observations of the numerator variable
    ``a``, its source-side control ``b``, the denominator variable ``c``, and
    its control ``d``. ``r_plugin`` is the plug-in value of the ratio itself
    (the baseline estimate), which enters both optimal coefficients.

    Returns a degenerate (zero) pair when the control Gram matrix is singular
    to relative tolerance 1e-12, when the controls are numerically perfectly
    correlated, or when ``r_plugin`` is zero (the beta formula divides by it).
    A pair or determinant past float64's range raises EstimationError.
    """
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite field
        stats = moment_statistics(a, b, c, d)
        if stats.count < 3:
            raise EstimationError("need at least 3 coupled observations")
        if not np.any(np.asarray(c, dtype=float)):
            raise EstimationError("no exceedances")
        values = _coefficients(stats.covariance.tolist(), (0, 1, 2, 3), r_plugin)
    if not all(map(math.isfinite, values[:3])):
        raise EstimationError("degenerate control variate")
    return AcvCoefficients(*values)


def corrected_ratio(numerator_coupled, numerator_all, denominator_coupled,
                    denominator_all, coefficients: AcvCoefficients) -> float:
    """ACV-corrected ratio of means.

    Each mean over the n coupled observations is shifted by its coefficient
    times the difference between the full-sample (n + m) mean of its control
    and the coupled-sample mean; with m = 0 or zero coefficients the shift is
    exactly 0.0 and the baseline ratio is returned bit-for-bit.
    """
    num_all = np.asarray(numerator_all, dtype=float)
    den_all = np.asarray(denominator_all, dtype=float)
    n = np.asarray(numerator_coupled).size
    return _shifted_ratio(
        np.asarray(numerator_coupled, dtype=float).mean(),
        num_all.mean() - num_all[:n].mean(),
        np.asarray(denominator_coupled, dtype=float).mean(),
        den_all.mean() - den_all[:n].mean(), coefficients.alpha, coefficients.beta)


def _shifted_ratio(numerator, numerator_shift, denominator, denominator_shift,
                   alpha: float, beta: float) -> float:
    numerator = numerator + alpha * numerator_shift
    denominator = denominator + beta * denominator_shift
    if denominator == 0.0:
        raise EstimationError("degenerate denominator")
    return float(numerator / denominator)


def _variance_differences(cells, target_means, gamma_hat, n: int, m: int):
    """``variance_difference_plugin`` at one l or at many.

    ``cells`` holds the eight rows of ``core._source_sums``: six sums over
    the source's exceedances, their count and the threshold's log less the
    sums' origin; each row is a scalar or an array over l, or over
    (replication, l) with ``target_means`` and ``gamma_hat`` as one column
    per replication. Every step is element-wise. With
    b = (L - log_threshold) * d over the n coupled rows, the seven entries
    are Cov(x, y) = (Σxy - Σx * mean(y)) / (n - 1). A degenerate value is NaN.
    """
    sum_l, sum_ll, sum_a, sum_al, sum_c, sum_cl, count, log_threshold = cells
    mean_a, _, mean_c = target_means
    sum_b = sum_l - count * log_threshold
    sum_bb = (sum_ll - 2.0 * log_threshold * sum_l
              + count * log_threshold * log_threshold)
    scale = 1 / (n - 1)
    var_b = (sum_bb - sum_b * (sum_b / n)) * scale
    var_d = (count - count * (count / n)) * scale
    cov_bd = (sum_b - sum_b * (count / n)) * scale
    cov_ab = (sum_al - log_threshold * sum_a - sum_b * mean_a) * scale
    cov_ad = (sum_a - count * mean_a) * scale
    cov_bc = (sum_cl - log_threshold * sum_c - sum_b * mean_c) * scale
    cov_cd = (sum_c - count * mean_c) * scale
    determinant = var_b * var_d - cov_bd * cov_bd
    # Every other determinant is positive, so nothing divides by zero.
    determinant = np.where(_degenerate(var_b, var_d, cov_bd, determinant),
                           np.nan, determinant)
    s_d = gamma_hat * cov_bc - cov_ab
    s_b = gamma_hat * cov_cd - cov_ad
    # Var(s_d*d - s_b*b) as the quadratic form of the (b, d) covariance block.
    spread = s_d * s_d * var_d + s_b * s_b * var_b - 2.0 * s_d * s_b * cov_bd
    return m / (n * (n + m)) * spread / (mean_c * mean_c * determinant)


# Rows of the control covariance: target log-excess a and its square g,
# source log-excess b and its square h, target and source indicators c, d.
_A, _G, _B, _H, _C, _D = range(6)


@dataclass(frozen=True, eq=False)
class SufficientStatistics:
    """Everything the estimators and diagnostics read from one dataset at (k, k_source).

    The four estimators are ratios of coupled means corrected with blocks of
    one control covariance, which the variance plug-in and the correlations
    read too, so each replication, resample or data file builds this once:
    ``target`` and ``source`` (``source`` is None without a source sample),
    ``entries``, the covariance of (a, g, b, h, c, d) over the n coupled
    rows, from the sides' means, as nested lists, and ``lambda_hat``, the
    joint exceedance frequency at k (None unless built by ``of``, which
    selects and never sorts). ``entries`` is None when a side has no
    log-excesses, the source is absent or n < 3; ``missing`` then says why,
    and every reader of the covariance raises it. The m extra source values
    enter only through ``source.m`` and ``source.full_means``.
    """

    target: Exceedances
    source: Exceedances | None = None
    lambda_hat: float | None = None
    missing: str | None = field(init=False, default=None)
    entries: list | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        target, source = self.target, self.source
        if source is None:
            missing = "no source sample"
        elif target.excess is None or source.excess is None:
            missing = "log-transform undefined"
        elif self.n < 3:
            missing = "need at least 3 coupled observations"
        else:
            dev = np.empty((6, self.n))
            (a, g, c), (b, h, d) = target.means, source.means
            for row, column, mean in zip(dev, (
                    target.excess, target.square, source.excess, source.square,
                    target.indicator, source.indicator), (a, g, b, h, c, d)):
                np.subtract(column, mean, out=row)
            object.__setattr__(self, "entries", _covariance(dev).tolist())
            return
        object.__setattr__(self, "missing", missing)

    @classmethod
    def of(cls, dataset: SemiSupervisedDataset, k: int,
           k_source: int | None = None) -> "SufficientStatistics":
        """Build from a dataset; ``core._validated_k`` checks k and k_source."""
        return cls._of_pool(dataset.paired_target, dataset.paired_source,
                            (dataset.extra_source,), k, k_source)

    @classmethod
    def _of_pool(cls, paired_target, paired_source, extra: tuple, k, k_source):
        """``of`` reading validated pool slices in place, the extras in pieces."""
        k, k_source = _validated_k(k, k_source, paired_target.size)
        target_threshold = float(np.partition(paired_target, -k - 1)[-k - 1])
        top = np.partition(paired_source, sorted({-k - 1, -k_source - 1}))
        threshold, at_k = float(top[-k_source - 1]), top[-k - 1]
        if target_threshold > 0 and threshold > 0:
            block = _column_block(np.array((paired_target, paired_source)),
                                  np.array((target_threshold, threshold)))
            sums = np.add.reduce(block, axis=1)
            target = _side(block, (_A, _G, _C), sums, paired_target, k,
                           target_threshold)
            source = _side(block, (_B, _H, _D), sums, paired_source, k_source,
                           threshold, extra)
        else:
            target = _exceedances(paired_target, k, target_threshold)
            source = _exceedances(paired_source, k_source, threshold, extra)
        joint = np.logical_and(target.indicator, source.indicator if k_source == k
                               else paired_source > at_k)
        return cls(target, source, float(np.count_nonzero(joint) / k))

    @property
    def n(self) -> int:
        return self.target.indicator.size

    def _entries(self) -> list:
        """``entries``; raises EstimationError with the reason they are missing."""
        if self.entries is None:
            raise EstimationError(self.missing)
        return self.entries

    def coefficients(self, power: int, r_plugin: float) -> tuple:
        """``_coefficients`` for the log-moment of order ``power`` (1 or 2)."""
        return _coefficients(self._entries(), (power - 1, power + 1, _C, _D), r_plugin)

    def corrected_ratio(self, power: int, alpha: float, beta: float) -> float:
        """Corrected log-moment of order ``power``; the shift is 0.0 when m = 0."""
        self._entries()  # raises EstimationError when the covariance is missing
        source, row = self.source, power - 1
        return _shifted_ratio(
            self.target.means[row], source.full_means[row] - source.means[row],
            self.target.means[2], source.full_means[2] - source.means[2],
            alpha, beta)


def variance_difference_plugin(stats: SufficientStatistics, gamma_hat: float) -> float:
    """Plug-in estimate of the variance reduction of the corrected ratio.

    Estimates Var(baseline Hill) - Var(transferred Hill) as

        m / (n (n+m)) * spread / (mean(c)**2 * det)

    with spread = Var(s_d*d - s_b*b) as the quadratic form s_d**2 Var(d)
    + s_b**2 Var(b) - 2 s_d s_b Cov(b,d), s_d = gamma_hat*Cov(b,c) -
    Cov(a,b), s_b = gamma_hat*Cov(c,d) - Cov(a,d) and det = Var(b)Var(d)
    - Cov(b,d)**2, all with n-1 divisors over the n coupled rows. Where
    defined, spread >= 0 and det > 0. The variance estimate, baseline
    minus this, can be negative; threshold scans count those cells.

    The seven entries come in raw-sum form from ``core._source_sums`` at
    l = k_source, so a threshold scan cell has the same bits.
    """
    stats._entries()  # raises EstimationError when the covariance is missing
    target, source = stats.target, stats.source
    if target.means[2] == 0.0:
        raise EstimationError("no exceedances")
    value = _variance_differences(
        _source_sums(source.values, target, np.array([source.k]))[:, 0],
        target.means, gamma_hat, stats.n, source.m)
    if np.isnan(value):
        raise EstimationError("degenerate control variate")
    return float(value)
