"""Dependence diagnostics and the asymptotic variance-reduction calculator.

The transfer gain is driven by upper-tail dependence between target and
source. This module estimates the tail-dependence coefficient, the Pearson
correlations between the control-variate variables, and an asymptotic
approximation of the relative variance reduction (RVR) of the transferred
Hill estimator built from conditional moments of scaled log-excesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .acv import _A, _B, _C, _D, SufficientStatistics
from .core import EstimationError, SemiSupervisedDataset, threshold_at
from .estimators import _ratio

__all__ = [
    "DependenceReport",
    "tail_dependence",
    "cv_correlations",
    "asymptotic_rvr",
    "asymptotic_rvr_formula",
    "dependence_report",
]


@dataclass(frozen=True)
class DependenceReport:
    """Diagnostics of target-source tail dependence.

    ``lambda_hat`` is the joint-exceedance frequency over k and is reported
    unclipped (under ties it can exceed 1; ``lambda_clipped``, which is set
    from ``lambda_hat``, flags that). ``corr_ab``/``corr_cd`` are Pearson
    correlations of the log-excess and indicator variable pairs over the
    coupled sample. ``c_ab_hat`` and ``c_ad_hat`` are the conditional scaled
    log-excess moments entering the asymptotic RVR formula (NaN when no joint
    exceedances exist). ``p_hat`` is the realized target exceedance fraction
    k_eff / n.
    """

    lambda_hat: float
    corr_ab: float
    corr_cd: float
    c_ad_hat: float
    c_ab_hat: float
    p_hat: float
    lambda_clipped: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "lambda_clipped", bool(self.lambda_hat > 1.0))


# The keys of one dataset's diagnostics: the fields a DependenceReport is
# built from, then the asymptotic RVR, which a run report averages apart.
_REPORT_FIELDS = tuple(f.name for f in fields(DependenceReport) if f.init)
_DIAGNOSTICS = _REPORT_FIELDS + ("asymptotic_rvr",)


def tail_dependence(paired_target, paired_source, k: int) -> float:
    """Empirical upper-tail dependence of a coupled sample.

    Counts indices where both coordinates strictly exceed their own (n-k)-th
    order statistic and divides by k. Rank-based: invariant under strictly
    increasing transforms of either margin. Bounded by n/k; values above 1
    are possible under ties and are not clipped here.
    """
    target = np.asarray(paired_target, dtype=float)
    source = np.asarray(paired_source, dtype=float)
    if target.size != source.size:
        raise ValueError("paired samples must have equal length")
    target_threshold = threshold_at(target, k)
    source_threshold = threshold_at(source, k)
    joint = (target > target_threshold) & (source > source_threshold)
    return float(joint.sum() / k)


def cv_correlations(stats: SufficientStatistics) -> tuple[float, float]:
    """Pearson (corr(a, b), corr(c, d)), in np.corrcoef's order of operations."""
    cov, out = stats._entries(), []
    for x, y in ((_A, _B), (_C, _D)):
        if cov[x][x] == 0.0 or cov[y][y] == 0.0:
            raise EstimationError("degenerate control variate")
        value = cov[x][y] / math.sqrt(cov[x][x]) / math.sqrt(cov[y][y])
        out.append(min(max(value, -1.0), 1.0))
    return out[0], out[1]


def asymptotic_rvr_formula(lambda_hat: float, p: float, c_ab: float,
                           c_ad: float, n: int, m: int) -> float:
    """Closed-form asymptotic RVR of the transferred Hill estimator.

    Evaluates

        lambda_hat**2 * (m / (n + m))
            * (c_ab**2 + c_ad**2 * (2 - p) / (1 - p) - c_ab * c_ad)

    where p = k/n is the exceedance probability. The m/(n+m) prefactor is the
    variance-difference scale m/(n(n+m)) divided by the baseline variance,
    whose 1/k normalization cancels the remaining 1/p = n/k factor. Exactly
    proportional to lambda_hat**2 and exactly 0 for m = 0.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if m == 0:
        return 0.0
    shape = c_ab * c_ab + c_ad * c_ad * (2.0 - p) / (1.0 - p) - c_ab * c_ad
    return float(lambda_hat * lambda_hat * (m / (n + m)) * shape)


def _joint_scaled_excess_moments(stats: SufficientStatistics,
                                 gamma_t_hat: float | None,
                                 gamma_s_hat: float | None) -> tuple[float, float]:
    """Conditional moments (c_ab, c_ad) of scaled log-excesses.

    Over indices where both coupled coordinates strictly exceed their
    thresholds, z_t and z_s are the log-excesses scaled by the given or
    default index estimates; c_ad = mean(z_t - 1) and c_ab = mean((z_t - 1) * z_s).
    With every target exceedance joint and the default gamma_t_hat, c_ad is
    0.0, as in exact arithmetic, not residue whose sign follows the kernels.
    """
    stats._entries()  # raises the reason when a side has no log-excesses
    hill_scaled = gamma_t_hat is None
    gamma_t_hat, gamma_s_hat = _resolve_gamma_hats(stats, gamma_t_hat, gamma_s_hat)
    target, source = stats.target, stats.source
    joint = np.flatnonzero(target.indicator * source.indicator)
    if not joint.size:
        raise EstimationError("tail dependence too weak to estimate")
    shifted = target.excess.take(joint) / gamma_t_hat - 1.0  # z_t - 1
    z_s = source.excess.take(joint) / gamma_s_hat
    c_ad = (0.0 if hill_scaled and joint.size == target.count
            else float(np.add.reduce(shifted) / shifted.size))  # np.mean, bit for bit
    c_ab = float(np.add.reduce(shifted * z_s) / shifted.size)
    return c_ab, c_ad


def _resolve_gamma_hats(stats: SufficientStatistics, gamma_t_hat: float | None,
                        gamma_s_hat: float | None) -> tuple[float, float]:
    # Defaults are the Hill estimates on the coupled samples so the
    # diagnostics never depend on the m extra observations.
    if gamma_t_hat is None:
        gamma_t_hat = _ratio(stats.target)
    if gamma_s_hat is None:
        gamma_s_hat = _ratio(stats.source)
    if gamma_t_hat <= 0 or gamma_s_hat <= 0:
        raise EstimationError("scaled log-excesses need positive index estimates")
    return float(gamma_t_hat), float(gamma_s_hat)


def asymptotic_rvr(dataset: SemiSupervisedDataset, k: int,
                   k_source: int | None = None,
                   gamma_t_hat: float | None = None,
                   gamma_s_hat: float | None = None) -> float:
    """Asymptotic RVR of the transferred Hill estimator, from data.

    Estimates tail dependence, the conditional scaled log-excess moments, and
    evaluates :func:`asymptotic_rvr_formula` with the nominal p = k/n. The
    tail-dependence estimate is clipped at 1 before squaring. Applies to
    heavy-tailed sources (positive source index estimate).

    Parameters
    ----------
    dataset : SemiSupervisedDataset
    k, k_source : int
        Numbers of target and source extremes (k_source defaults to k).
    gamma_t_hat, gamma_s_hat : float, optional
        Index estimates used to scale the log-excesses; default to the Hill
        estimates on the coupled target and source samples.
    """
    stats = SufficientStatistics.of(dataset, k, k_source)
    return _asymptotic_rvr(stats, *_joint_scaled_excess_moments(
        stats, gamma_t_hat, gamma_s_hat))


def _asymptotic_rvr(stats: SufficientStatistics, c_ab: float, c_ad: float) -> float:
    """The closed form at the tail dependence clipped at 1 and p = k/n."""
    return asymptotic_rvr_formula(min(stats.lambda_hat, 1.0), stats.target.k / stats.n,
                                  c_ab, c_ad, stats.n, stats.source.m)


def _diagnostics(stats: SufficientStatistics) -> dict:
    """One dataset's diagnostics, keyed by ``_DIAGNOSTICS``; NaN where undefined.

    ``lambda_hat`` is always defined. ``p_hat`` needs the control covariance
    and the correlations a non-degenerate one. The scaled moments and the
    asymptotic RVR need joint exceedances and positive Hill estimates on
    both coupled samples.
    """
    record = dict.fromkeys(_DIAGNOSTICS, float("nan"))
    record["lambda_hat"] = stats.lambda_hat
    if stats.entries is not None:
        record["p_hat"] = stats.target.count / stats.n
        try:
            record["corr_ab"], record["corr_cd"] = cv_correlations(stats)
        except EstimationError:
            pass
    try:
        c_ab, c_ad = _joint_scaled_excess_moments(stats, None, None)
    except EstimationError:
        return record
    record["c_ab_hat"], record["c_ad_hat"] = c_ab, c_ad
    record["asymptotic_rvr"] = _asymptotic_rvr(stats, c_ab, c_ad)
    return record


def _report(diagnostics: dict) -> DependenceReport:
    """The report of one dataset's diagnostics or of their run averages."""
    return DependenceReport(**{key: diagnostics[key] for key in _REPORT_FIELDS})


def dependence_report(dataset: SemiSupervisedDataset, k: int,
                      k_source: int | None = None) -> DependenceReport:
    """Assemble the full dependence diagnostics for a dataset.

    The conditional moments are NaN when there are no joint exceedances
    (weak-dependence samples); all other fields are always populated. Raises
    EstimationError, with its reason, when the correlations are undefined.
    """
    return _dependence_report(SufficientStatistics.of(dataset, k, k_source))


def _dependence_report(stats: SufficientStatistics) -> DependenceReport:
    record = _diagnostics(stats)
    if math.isnan(record["corr_ab"]):  # exactly when cv_correlations raises
        cv_correlations(stats)  # raises the reason they are undefined
    return _report(record)
