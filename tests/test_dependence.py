import math
from unittest import mock

import numpy as np
import pytest

import tailcv.dependence
from tailcv import (
    EstimationError,
    SemiSupervisedDataset,
    asymptotic_rvr,
    asymptotic_rvr_formula,
    build_cv_variables,
    cv_correlations,
    dependence_report,
    tail_dependence,
)
from tailcv.simulate import _stream


# ---------------------------------------------------------- tail dependence

def test_comonotone_tail_dependence_is_one():
    rng = _stream(4, 0, 0)
    values = np.exp(rng.normal(0.0, 1.0, 200))
    assert tail_dependence(values, values, 20) == 1.0


def test_independent_tail_dependence_near_exceedance_fraction():
    lams = []
    for index in range(200):
        rng = _stream(123, index, 0)
        lams.append(tail_dependence(rng.random(10_000), rng.random(10_000), 1000))
    assert abs(np.mean(lams) - 0.1) < 0.02


def test_tail_dependence_rank_invariance():
    transforms = [np.exp, np.log, lambda x: x ** 3, lambda x: 2.0 * x + 7.0,
                  np.sqrt]
    for index in range(100):
        rng = _stream(55, index, 0)
        target = rng.random(120) + 0.5
        source = target * (0.5 + rng.random(120))
        base = tail_dependence(target, source, 12)
        f = transforms[index % len(transforms)]
        g = transforms[(index + 2) % len(transforms)]
        assert tail_dependence(f(target), g(source), 12) == base


def test_tail_dependence_bounds():
    rng = _stream(9, 0, 0)
    for k in (1, 5, 25, 49):
        value = tail_dependence(rng.random(50), rng.random(50), k)
        assert 0.0 <= value <= 50 / k
        assert value <= 1.0  # same-k thresholds cap the joint count at k


def test_tail_dependence_validation():
    with pytest.raises(ValueError):
        tail_dependence([1.0, 2.0, 3.0], [1.0, 2.0], 1)
    with pytest.raises(EstimationError, match="invalid k"):
        tail_dependence([1.0, 2.0], [1.0, 2.0], 2)


# ------------------------------------------------------------- correlations

def test_cv_correlations_perfect_for_identical_sides(tiny_dataset):
    stats = build_cv_variables(tiny_dataset, 2)
    corr_ab, corr_cd = cv_correlations(stats)
    assert abs(corr_ab - 1.0) < 1e-12
    assert abs(corr_cd - 1.0) < 1e-12


def test_cv_correlations_degenerate_variance():
    ds = SemiSupervisedDataset(paired_target=np.array([1.0, 2, 4, 8, 16]),
                               paired_source=np.ones(5))
    stats = build_cv_variables(ds, 2, k_source=2)
    with pytest.raises(EstimationError, match="degenerate control variate"):
        cv_correlations(stats)


# --------------------------------------------------------- closed-form RVR

def test_formula_scales_as_lambda_squared():
    base = asymptotic_rvr_formula(0.3, 0.1, 1.2, 0.4, 1000, 5000)
    doubled = asymptotic_rvr_formula(0.6, 0.1, 1.2, 0.4, 1000, 5000)
    assert doubled == 4.0 * base


def test_formula_zero_cases():
    assert asymptotic_rvr_formula(0.0, 0.1, 1.2, 0.4, 1000, 5000) == 0.0
    assert asymptotic_rvr_formula(0.9, 0.1, 1.2, 0.4, 1000, 0) == 0.0


def test_formula_validates_p():
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            asymptotic_rvr_formula(0.5, p, 1.0, 0.5, 1000, 5000)


def test_formula_grows_with_m():
    values = [asymptotic_rvr_formula(0.8, 0.1, 1.5, 0.5, 1000, m)
              for m in (1000, 5000, 20000)]
    assert values[0] < values[1] < values[2]


# ----------------------------------------------------------- data estimates

def test_asymptotic_rvr_scaling_invariance(theta5_dataset, theta5_config):
    k = theta5_config.k
    base = asymptotic_rvr(theta5_dataset, k, gamma_t_hat=0.25, gamma_s_hat=0.5)
    # Raising data to a power s scales all log-excesses by s and leaves
    # thresholds' ranks unchanged; matching gamma hats cancel the scale.
    s = 3.0
    powered = SemiSupervisedDataset(
        paired_target=theta5_dataset.paired_target ** s,
        paired_source=theta5_dataset.paired_source ** s,
        extra_source=theta5_dataset.extra_source ** s,
    )
    scaled = asymptotic_rvr(powered, k, gamma_t_hat=s * 0.25,
                            gamma_s_hat=s * 0.5)
    assert abs(scaled - base) < 1e-12 * max(1.0, abs(base))


def test_asymptotic_rvr_positive_on_dependent_data(theta5_dataset,
                                                   theta5_config):
    value = asymptotic_rvr(theta5_dataset, theta5_config.k)
    assert 0.0 < value < 1.5


def test_asymptotic_rvr_m_zero(theta5_dataset, theta5_config):
    trimmed = SemiSupervisedDataset(
        paired_target=theta5_dataset.paired_target,
        paired_source=theta5_dataset.paired_source,
    )
    assert asymptotic_rvr(trimmed, theta5_config.k) == 0.0


def test_asymptotic_rvr_requires_positive_indices(theta5_dataset,
                                                  theta5_config):
    with pytest.raises(ValueError):
        asymptotic_rvr(theta5_dataset, theta5_config.k, gamma_t_hat=-0.5)


def test_no_joint_exceedances_is_an_error():
    # Target and source attain their maxima at different rows.
    target = np.array([1.0, 2.0, 3.0, 4.0, 50.0, 5.0])
    source = np.array([50.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    ds = SemiSupervisedDataset(paired_target=target, paired_source=source)
    with pytest.raises(EstimationError, match="tail dependence too weak"):
        asymptotic_rvr(ds, 1)


# ----------------------------------------------------------------- report

def test_dependence_report_fields(theta5_dataset, theta5_config):
    report = dependence_report(theta5_dataset, theta5_config.k)
    assert 0.0 <= report.lambda_hat <= 1.0
    assert not report.lambda_clipped
    assert report.p_hat == theta5_config.k / theta5_config.n
    for value in (report.corr_ab, report.corr_cd, report.c_ab_hat,
                  report.c_ad_hat):
        assert np.isfinite(value)


def test_dependence_report_computes_the_correlations_once(theta5_dataset,
                                                          theta5_config):
    with mock.patch.object(tailcv.dependence, "cv_correlations",
                           wraps=cv_correlations) as spy:
        report = dependence_report(theta5_dataset, theta5_config.k)
        assert spy.call_count == 1
        assert np.isfinite(report.corr_ab) and np.isfinite(report.corr_cd)
        # Where they are undefined, the report still raises their reason.
        five = np.array([1.0, 2, 4, 8, 16])
        for source, reason in ((five - 20.0, "log-transform undefined"),
                               (np.ones(5), "degenerate control variate")):
            ds = SemiSupervisedDataset(paired_target=five, paired_source=source)
            with pytest.raises(EstimationError, match=reason):
                dependence_report(ds, 2)


def test_c_ad_is_exactly_zero_when_every_target_exceedance_is_joint():
    # Comonotone pairs at k_source > k: mean(z_t - 1) is 0 in exact arithmetic.
    values = np.exp(_stream(1, 0, 0).normal(0.0, 1.0, 200))
    ds = SemiSupervisedDataset(paired_target=values,
                               paired_source=values * (1.0 + values))
    report = dependence_report(ds, 20, 30)
    assert report.lambda_hat == 1.0
    assert report.c_ad_hat == 0.0 and math.copysign(1.0, report.c_ad_hat) == 1.0
    # A given gamma_t_hat scales z_t otherwise, so the mean is computed.
    stats = build_cv_variables(ds, 20, 30)
    hill_t = stats.target.means[0] / stats.target.means[2]
    _, c_ad = tailcv.dependence._joint_scaled_excess_moments(stats, 2 * hill_t, None)
    assert c_ad == pytest.approx(-0.5)


def test_dependence_report_weak_dependence_nan_moments():
    target = np.array([1.0, 2.0, 3.0, 4.0, 50.0, 5.0])
    source = np.array([50.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    ds = SemiSupervisedDataset(paired_target=target, paired_source=source)
    report = dependence_report(ds, 1)
    assert report.lambda_hat == 0.0
    assert np.isnan(report.c_ab_hat) and np.isnan(report.c_ad_hat)
    assert np.isfinite(report.corr_ab)
