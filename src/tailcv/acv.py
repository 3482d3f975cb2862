"""Control-variates engine for ratio-of-means estimators.

Implements the exact control-variate coefficient for a single mean, the
jointly optimized coefficient pair for an approximate-control-variate (ACV)
correction of both the numerator and the denominator of a ratio of means, the
corrected ratio itself, and a plug-in formula for the variance reduction it
achieves. The auxiliary (source) mean is approximate because it is estimated
from the larger n + m sample rather than known exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    EstimationError,
    Exceedances,
    SemiSupervisedDataset,
    _order_statistic,
    exceedances,
    order_statistics,
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
    # np.cov's steps, but each entry sums the products of its own two rows
    # without BLAS, so it has the same bits in any matrix and on any kernel.
    stacked = np.array(arrays)
    means = stacked.mean(axis=1)
    deviations = stacked - means[:, None]
    covariance = np.einsum("ik,jk->ij", deviations, deviations)
    covariance *= np.true_divide(1, count - 1)
    return MomentStatistics(means=means, covariance=covariance, count=count)


def cv_coefficient(a, b) -> float:
    """Exact control-variate coefficient Cov(a, b) / Var(b).

    This is the variance-minimizing coefficient for correcting the mean of
    ``a`` with a control ``b`` of known mean, estimated with n-1 divisors.
    """
    stats = moment_statistics(a, b)
    var_b = stats.covariance[1, 1]
    if var_b == 0.0:
        raise EstimationError("degenerate control variate")
    return float(stats.covariance[0, 1] / var_b)


def _degenerate(var_b, var_d, cov_bd, determinant):
    """Whether the control system is singular; elementwise on arrays."""
    return ((determinant <= DETERMINANT_RTOL * var_b * var_d)
            | (abs(cov_bd) >= CORRELATION_CEILING * np.sqrt(var_b * var_d)))


def _coefficients(cov: np.ndarray, rows: tuple, r_plugin: float) -> AcvCoefficients:
    """The optimal pair from the covariance rows (a, b, c, d) of ``cov``."""
    a, b, c, d = rows
    var_b, var_d = cov[b, b], cov[d, d]
    cov_ab, cov_ad = cov[a, b], cov[a, d]
    cov_bc, cov_bd = cov[b, c], cov[b, d]
    cov_cd = cov[c, d]
    determinant = var_b * var_d - cov_bd * cov_bd
    if _degenerate(var_b, var_d, cov_bd, determinant) or r_plugin == 0.0:
        return AcvCoefficients(alpha=0.0, beta=0.0, determinant=float(determinant),
                               degenerate=True)
    r = float(r_plugin)
    alpha = (var_d * cov_ab - r * var_d * cov_bc
             + r * cov_bd * cov_cd - cov_bd * cov_ad) / determinant
    beta = (cov_bd * cov_ab - r * cov_bd * cov_bc
            + r * var_b * cov_cd - var_b * cov_ad) / (r * determinant)
    return AcvCoefficients(alpha=float(alpha), beta=float(beta),
                           determinant=float(determinant), degenerate=False)


def acv_ratio_coefficients(a, b, c, d, r_plugin: float) -> AcvCoefficients:
    """Jointly optimized ACV coefficients for the ratio mean(a)/mean(c).

    The four sequences are the coupled observations of the numerator variable
    ``a``, its source-side control ``b``, the denominator variable ``c``, and
    its control ``d``. ``r_plugin`` is the plug-in value of the ratio itself
    (the baseline estimate), which enters both optimal coefficients.

    Returns a degenerate (zero) pair when the control Gram matrix is singular
    to relative tolerance 1e-12, when the controls are numerically perfectly
    correlated, or when ``r_plugin`` is zero (the beta formula divides by it).
    """
    stats = moment_statistics(a, b, c, d)
    if stats.count < 3:
        raise EstimationError("need at least 3 coupled observations")
    if not np.any(np.asarray(c, dtype=float)):
        raise EstimationError("no exceedances")
    return _coefficients(stats.covariance, (0, 1, 2, 3), r_plugin)


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
        den_all.mean() - den_all[:n].mean(), coefficients)


def _shifted_ratio(numerator, numerator_shift, denominator, denominator_shift,
                   coefficients: AcvCoefficients) -> float:
    numerator = numerator + coefficients.alpha * numerator_shift
    denominator = denominator + coefficients.beta * denominator_shift
    if denominator == 0.0:
        raise EstimationError("degenerate denominator")
    return float(numerator / denominator)


def _variance_differences(var_b, var_d, cov_bd, cov_ab, cov_ad, cov_bc, cov_cd,
                          b, d, mean_c, gamma_hat, n: int, m: int):
    """``SufficientStatistics.variance_difference`` at one l or a block of l.

    The seven covariance entries are scalars with ``b`` and ``d`` the n
    coupled source columns, or arrays over l with ``b`` and ``d`` the
    matching rows of those columns. Returns the values and the degenerate
    flags; a degenerate value is NaN.
    """
    determinant = var_b * var_d - cov_bd * cov_bd
    degenerate = _degenerate(var_b, var_d, cov_bd, determinant)
    # Every other determinant is positive, so nothing divides by zero.
    determinant = np.where(degenerate, np.nan, determinant)
    s_d = gamma_hat * cov_bc - cov_ab
    s_b = gamma_hat * cov_cd - cov_ad
    spread = np.var(s_d[..., None] * d - s_b[..., None] * b, axis=-1, ddof=1)
    return m / (n * (n + m)) * spread / (mean_c * mean_c * determinant), degenerate


# Rows of the control covariance: target log-excess a and its square g,
# source log-excess b and its square h, target and source indicators c, d.
_A, _G, _B, _H, _C, _D = range(6)
# The entries the variance plug-in reads, in _variance_differences' order.
_PLUGIN_ENTRIES = ((_B, _B), (_D, _D), (_B, _D), (_A, _B), (_A, _D),
                   (_B, _C), (_C, _D))


@dataclass(frozen=True, eq=False)
class SufficientStatistics:
    """Everything the estimators and diagnostics read from one dataset at (k, k_source).

    The four estimators are ratios of coupled means corrected with blocks of
    one control covariance, which the variance plug-in and the correlations
    read too, so each replication, resample or data file builds this once:
    ``target`` and ``source`` (one sort each; ``source`` is None without a
    source sample or with an invalid k_source), ``moments`` of
    (a, g, b, h, c, d) over the n coupled rows, and ``lambda_hat``, the joint
    exceedance frequency at k (None unless built by ``of``). ``moments`` is
    None when a side has no log-excesses, the source is absent or n < 3;
    ``missing`` then says why, and readers of the matrix raise it. ``m``
    counts the extra source values.
    """

    target: Exceedances
    source: Exceedances | None = None
    m: int = 0
    lambda_hat: float | None = None
    missing: str | None = None
    moments: MomentStatistics | None = field(init=False, default=None)

    def __post_init__(self):
        if self.missing is not None:
            return
        target, source = self.target, self.source
        if source is None:
            missing = "no source sample"
        elif target.excess is None or source.excess is None:
            missing = "log-transform undefined"
        elif self.n < 3:
            missing = "need at least 3 coupled observations"
        else:
            object.__setattr__(self, "moments", moment_statistics(
                target.excess, target.square, source.excess, source.square,
                target.indicator, source.indicator))
            return
        object.__setattr__(self, "missing", missing)

    @classmethod
    def of(cls, dataset: SemiSupervisedDataset, k: int,
           k_source: int | None = None) -> "SufficientStatistics":
        """Build from a dataset; raises EstimationError only for an invalid k."""
        target = exceedances(dataset.paired_target, k)
        ordered = order_statistics(dataset.paired_source)
        above = dataset.paired_source > _order_statistic(ordered, k)
        lambda_hat = float(np.count_nonzero(np.logical_and(target.indicator, above))
                           / int(k))
        try:
            source = exceedances(dataset.paired_source,
                                 k if k_source is None else k_source,
                                 extra=dataset.extra_source, ordered=ordered)
        except EstimationError as error:
            return cls(target, None, dataset.m, lambda_hat, str(error))
        return cls(target, source, dataset.m, lambda_hat)

    @property
    def n(self) -> int:
        return self.target.indicator.size

    @property
    def covariance(self) -> np.ndarray:
        """The 6x6 control covariance; raises EstimationError when missing."""
        if self.moments is None:
            raise EstimationError(self.missing)
        return self.moments.covariance

    def coefficients(self, power: int, r_plugin: float) -> AcvCoefficients:
        """Optimal pair for the log-moment of order ``power`` (1 or 2)."""
        return _coefficients(self.covariance, (power - 1, power + 1, _C, _D), r_plugin)

    def corrected_ratio(self, power: int, coefficients: AcvCoefficients) -> float:
        """Corrected log-moment of order ``power``; the shift is 0.0 when m = 0."""
        source, row = self.source, power - 1
        return _shifted_ratio(
            self.target.means[row], source.full_means[row] - source.means[row],
            self.target.means[2], source.full_means[2] - source.means[2],
            coefficients)

    def variance_difference(self, gamma_hat: float) -> float:
        """Plug-in estimate of the variance reduction of the corrected ratio.

        Estimates Var(baseline Hill) - Var(transferred Hill) as

            m / (n (n+m)) * Var(s_d * d - s_b * b) / (mean(c)**2 * det)

        with s_d = gamma_hat*Cov(b,c) - Cov(a,b), s_b = gamma_hat*Cov(c,d) -
        Cov(a,d), det = Var(b)Var(d) - Cov(b,d)**2, all moments estimated
        with n-1 divisors over the n coupled observations. The result can be
        negative for unstable small-exceedance inputs; callers that need a
        variance estimate should clip, while threshold scans report negatives
        as-is.
        """
        cov = self.covariance
        mean_c = self.target.means[2]
        if mean_c == 0.0:
            raise EstimationError("no exceedances")
        value, degenerate = _variance_differences(
            *(cov[i, j] for i, j in _PLUGIN_ENTRIES),
            self.source.excess, self.source.indicator,
            mean_c, gamma_hat, self.n, self.m)
        if degenerate:
            raise EstimationError("degenerate control variate")
        return float(value)

    def correlations(self) -> tuple[float, float]:
        """Pearson (corr(a, b), corr(c, d)), in np.corrcoef's order of operations."""
        cov = self.covariance
        out = []
        for x, y in ((_A, _B), (_C, _D)):
            if cov[x, x] == 0.0 or cov[y, y] == 0.0:
                raise EstimationError("degenerate control variate")
            value = cov[x, y] / np.sqrt(cov[x, x]) / np.sqrt(cov[y, y])
            out.append(float(np.clip(value, -1.0, 1.0)))
        return out[0], out[1]


def variance_difference_plugin(stats: SufficientStatistics, gamma_hat: float) -> float:
    """``stats.variance_difference``, kept because ``perfbench/`` calls this name."""
    return stats.variance_difference(gamma_hat)
