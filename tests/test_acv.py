from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tailcv import (
    AcvCoefficients,
    EstimationError,
    Exceedances,
    SufficientStatistics,
    acv_ratio_coefficients,
    build_cv_variables,
    corrected_ratio,
    cv_coefficient,
    generate_dataset,
    hill,
    moment_statistics,
    variance_difference_plugin,
)

LN2 = np.log(2.0)

# Binary patterns over 8 points with every cross-covariance exactly zero
# (each pair of distinct patterns overlaps in exactly 2 of 8 positions).
ORTH_C = np.array([1.0, 1, 0, 0, 1, 1, 0, 0])
ORTH_D = np.array([1.0, 0, 1, 0, 1, 0, 1, 0])
ORTH_B = np.array([0.0, 1, 0, 1, 1, 0, 1, 0])
ORTH_A = 2.0 * ORTH_C


def frac_cov(x, y):
    n = len(x)
    mx = sum(x, Fraction(0)) / n
    my = sum(y, Fraction(0)) / n
    return sum((xi - mx) * (yi - my) for xi, yi in zip(x, y)) / (n - 1)


def fraction_coefficients(a, b, c, d, r):
    """Independent exact-rational evaluation of the optimal (alpha, beta)."""
    a, b, c, d = ([Fraction(v) for v in seq] for seq in (a, b, c, d))
    r = Fraction(r)
    var_b, var_d = frac_cov(b, b), frac_cov(d, d)
    c_ab, c_ad = frac_cov(a, b), frac_cov(a, d)
    c_bc, c_bd, c_cd = frac_cov(b, c), frac_cov(b, d), frac_cov(c, d)
    det = var_b * var_d - c_bd * c_bd
    alpha = (var_d * c_ab - r * var_d * c_bc + r * c_bd * c_cd - c_bd * c_ad) / det
    beta = (c_bd * c_ab - r * c_bd * c_bc + r * var_b * c_cd - var_b * c_ad) / (r * det)
    return float(alpha), float(beta)


# ------------------------------------------------------------- statistics

def test_moment_statistics_matches_numpy():
    a = [1.0, 2.0, 4.0, 7.0]
    b = [0.0, 1.0, 1.0, 3.0]
    stats = moment_statistics(a, b)
    np.testing.assert_allclose(stats.means, [3.5, 1.25])
    np.testing.assert_allclose(stats.covariance, np.cov(np.vstack([a, b]), ddof=1))
    assert stats.count == 4
    np.testing.assert_allclose(np.diag(stats.covariance),
                               [np.var(a, ddof=1), np.var(b, ddof=1)])


def test_moment_statistics_validation():
    with pytest.raises(ValueError):
        moment_statistics([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        moment_statistics([1.0])


# --------------------------------------------------------- cv_coefficient

def test_cv_coefficient_perfect_control():
    a = np.array([1.0, 2.0, 5.0, 9.0])
    assert cv_coefficient(a, a) == 1.0


def test_cv_coefficient_orthogonal():
    assert cv_coefficient([1.0, -1, 1, -1], [1.0, 1, -1, -1]) == 0.0


def test_cv_coefficient_hand_example():
    assert abs(cv_coefficient([1, 2, 3, 4], [2, 4, 6, 8]) - 0.5) < 1e-15


def test_cv_coefficient_degenerate_control():
    with pytest.raises(EstimationError, match="degenerate control variate"):
        cv_coefficient([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


# ------------------------------------------------- optimized coefficients

def test_coefficients_collapse_to_one_for_identical_controls():
    rng = np.random.default_rng(3)
    c = (rng.random(50) < 0.3).astype(float)
    a = c * rng.exponential(1.0, 50)
    coeffs = acv_ratio_coefficients(a, a, c, c, r_plugin=1.7)
    assert not coeffs.degenerate
    assert abs(coeffs.alpha - 1.0) < 1e-10
    assert abs(coeffs.beta - 1.0) < 1e-10


def test_coefficients_zero_for_orthogonal_controls():
    coeffs = acv_ratio_coefficients(ORTH_A, ORTH_B, ORTH_C, ORTH_D, r_plugin=1.5)
    assert not coeffs.degenerate
    assert coeffs.alpha == 0.0 and coeffs.beta == 0.0


def test_coefficients_match_fraction_oracle():
    a = [0.0, 0.0, 1.0, 2.0]
    c = [0.0, 0.0, 1.0, 1.0]
    b = [0.0, 1.0, 1.0, 2.0]
    d = [0.0, 1.0, 1.0, 1.0]
    expected_alpha, expected_beta = fraction_coefficients(a, b, c, d, Fraction(3, 2))
    coeffs = acv_ratio_coefficients(a, b, c, d, r_plugin=1.5)
    assert abs(coeffs.alpha - expected_alpha) < 1e-12
    assert abs(coeffs.beta - expected_beta) < 1e-12


def test_coefficients_match_linear_solve_oracle(theta5_dataset, theta5_config):
    # Independent route: (alpha, -r beta) solves the 2x2 control Gram system.
    stats = build_cv_variables(theta5_dataset, theta5_config.k)
    a, c = stats.target.excess, stats.target.indicator
    b, d = stats.source.excess, stats.source.indicator
    r = hill(theta5_dataset.paired_target, theta5_config.k).value
    cov = np.cov(np.vstack([a, b, c, d]), ddof=1)
    gram = np.array([[cov[1, 1], cov[1, 3]], [cov[1, 3], cov[3, 3]]])
    rhs = np.array([cov[0, 1] - r * cov[1, 2], cov[0, 3] - r * cov[2, 3]])
    solution = np.linalg.solve(gram, rhs)
    coeffs = acv_ratio_coefficients(a, b, c, d, r_plugin=r)
    assert abs(coeffs.alpha - solution[0]) < 1e-12
    assert abs(coeffs.beta - (-solution[1] / r)) < 1e-12


def test_coefficients_degenerate_on_colinear_controls():
    c = np.array([1.0, 0, 1, 0, 1, 0])
    a = c * 2.0
    coeffs = acv_ratio_coefficients(a, 3.0 * c, c, c, r_plugin=2.0)
    assert coeffs.degenerate
    assert coeffs.alpha == 0.0 and coeffs.beta == 0.0


def test_coefficients_degenerate_on_zero_plugin():
    coeffs = acv_ratio_coefficients(ORTH_A, ORTH_B, ORTH_C, ORTH_D, r_plugin=0.0)
    assert coeffs.degenerate


def test_coefficients_need_three_points():
    with pytest.raises(ValueError):
        acv_ratio_coefficients([1.0, 2], [1.0, 2], [1.0, 0], [1.0, 0], 1.0)


def test_coefficients_no_exceedances():
    zeros = np.zeros(5)
    with pytest.raises(EstimationError, match="no exceedances"):
        acv_ratio_coefficients(zeros, [1.0, 2, 3, 4, 5], zeros,
                               [1.0, 0, 1, 0, 1], 1.0)


def test_coefficient_scale_equivariance(theta5_dataset, theta5_config):
    stats = build_cv_variables(theta5_dataset, theta5_config.k)
    a, c = stats.target.excess, stats.target.indicator
    b, d = stats.source.excess, stats.source.indicator
    b_all, _, d_all = stats.source.full
    scale = 37.0
    r = hill(theta5_dataset.paired_target, theta5_config.k).value
    base = acv_ratio_coefficients(a, b, c, d, r)
    scaled = acv_ratio_coefficients(a, scale * b, c, d, r)
    assert abs(scaled.alpha - base.alpha / scale) < 1e-10 * abs(base.alpha)
    assert abs(scaled.beta - base.beta) < 1e-10 * abs(base.beta)
    est_base = corrected_ratio(a, b_all, c, d_all, base)
    est_scaled = corrected_ratio(a, scale * b_all, c, d_all, scaled)
    assert abs(est_scaled - est_base) < 1e-10


@given(st.integers(min_value=0, max_value=10_000))
def test_coefficients_finite_on_simulated_data(seed):
    rng = np.random.default_rng(seed)
    n = 40
    u = rng.random(n)
    c = (u > 0.6).astype(float)
    d = (u + 0.05 * rng.random(n) > 0.6).astype(float)
    a = c * rng.exponential(1.0, n)
    b = d * rng.exponential(1.0, n)
    if not c.any():
        return
    coeffs = acv_ratio_coefficients(a, b, c, d, r_plugin=1.0)
    assert np.isfinite(coeffs.alpha) and np.isfinite(coeffs.beta)
    if coeffs.degenerate:
        assert coeffs.alpha == 0.0 and coeffs.beta == 0.0
    else:
        # Gram determinant of a real covariance matrix is non-negative.
        assert coeffs.determinant > 0.0


# -------------------------------------------------------- corrected ratio

def test_corrected_ratio_m_zero_is_baseline_bitwise(tiny_dataset):
    stats = build_cv_variables(tiny_dataset, 2)
    a, c = stats.target.excess, stats.target.indicator
    coeffs = AcvCoefficients(alpha=0.87, beta=-1.3, determinant=1.0,
                             degenerate=False)
    assert (corrected_ratio(a, stats.source.excess, c, stats.source.indicator,
                            coeffs) == a.mean() / c.mean())


def test_corrected_ratio_zero_coefficients_is_baseline_bitwise():
    rng = np.random.default_rng(8)
    num = rng.random(10)
    den = (rng.random(10) > 0.4).astype(float)
    num_all = np.concatenate([num, rng.random(6)])
    den_all = np.concatenate([den, np.ones(6)])
    coeffs = AcvCoefficients(alpha=0.0, beta=0.0, determinant=1.0,
                             degenerate=False)
    result = corrected_ratio(num, num_all, den, den_all, coeffs)
    assert result == num.mean() / den.mean()


def test_corrected_ratio_hand_example(tiny_dataset):
    from tailcv import SemiSupervisedDataset
    ds = SemiSupervisedDataset(
        paired_target=tiny_dataset.paired_target,
        paired_source=tiny_dataset.paired_source,
        extra_source=np.full(5, 16.0),
    )
    stats = build_cv_variables(ds, 2)
    b_all, _, d_all = stats.source.full
    coeffs = AcvCoefficients(alpha=1.0, beta=1.0, determinant=1.0,
                             degenerate=False)
    assert abs(corrected_ratio(stats.target.excess, b_all, stats.target.indicator,
                               d_all, coeffs) - 13.0 * LN2 / 7.0) < 1e-12


def test_corrected_ratio_degenerate_denominator():
    zeros = np.zeros(4)
    coeffs = AcvCoefficients(alpha=0.0, beta=0.0, determinant=1.0,
                             degenerate=False)
    with pytest.raises(EstimationError, match="degenerate denominator"):
        corrected_ratio(zeros, zeros, zeros, zeros, coeffs)


# ---------------------------------------------- variance difference plug-in

def hand_statistics(a, c, b_all, d_all):
    """Statistics of hand-made columns: a, c over n rows, b, d over n + m."""
    n, h_all = a.size, b_all * b_all
    target = Exceedances(k=int(c.sum()), threshold=1.0, indicator=c, excess=a,
                         square=a * a)
    source = Exceedances(k=int(d_all[:n].sum()), threshold=1.0,
                         indicator=d_all[:n], excess=b_all[:n], square=h_all[:n],
                         full=(b_all, h_all, d_all) if b_all.size > n else None)
    return SufficientStatistics(target, source, m=b_all.size - n)


def orthogonal_statistics():
    return hand_statistics(ORTH_A, ORTH_C, np.concatenate([ORTH_B, [0.5, 0.0]]),
                           np.concatenate([ORTH_D, [1.0, 0.0]]))


def test_variance_difference_zero_when_m_zero(tiny_dataset):
    v = build_cv_variables(tiny_dataset, 2)
    assert variance_difference_plugin(v, gamma_hat=1.5 * LN2) == 0.0


def test_variance_difference_exactly_zero_for_orthogonal_controls():
    v = orthogonal_statistics()
    assert variance_difference_plugin(v, gamma_hat=2.0) == 0.0


def test_variance_difference_degenerate_controls():
    c = np.array([1.0, 0, 1, 0, 1, 0])
    v = hand_statistics(2.0 * c, c, 3.0 * c, c)
    with pytest.raises(EstimationError, match="degenerate control variate"):
        variance_difference_plugin(v, gamma_hat=2.0)


def test_variance_difference_tracks_empirical_difference(theta5_config):
    # Plug-in averaged over replications vs the across-replication variance gap.
    reps = 1000
    plug = np.empty(reps)
    values_hill = np.empty(reps)
    values_transferred = np.empty(reps)
    from tailcv import transferred_hill_from_variables
    for index in range(reps):
        ds = generate_dataset(theta5_config, index)
        v = build_cv_variables(ds, theta5_config.k, theta5_config.k_source)
        baseline = hill(ds.paired_target, theta5_config.k)
        plug[index] = variance_difference_plugin(v, baseline.value)
        values_hill[index] = baseline.value
        values_transferred[index] = transferred_hill_from_variables(v).value
    empirical = (np.var(values_hill, ddof=1)
                 - np.var(values_transferred, ddof=1))
    assert plug.mean() > 0.0
    assert abs(plug.mean() - empirical) < 0.30 * empirical
