import warnings
from fractions import Fraction
from types import SimpleNamespace

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
    cv_correlations,
    generate_dataset,
    hill,
    log_excess_indicators,
    moment_statistics,
    variance_difference_plugin,
)
from tailcv.acv import _coefficients

LN2 = np.log(2.0)

# Binary patterns over 8 points with every cross-covariance exactly zero
# (each pair of distinct patterns overlaps in exactly 2 of 8 positions).
ORTH_C = np.array([1.0, 1, 0, 0, 1, 1, 0, 0])
ORTH_D = np.array([1.0, 0, 1, 0, 1, 0, 1, 0])
ORTH_B = np.array([0.0, 1, 0, 1, 1, 0, 1, 0])
ORTH_A = 2.0 * ORTH_C


def full_columns(dataset, threshold):
    """Source log-excess and indicator columns over all n + m values, coupled first."""
    return log_excess_indicators(
        np.concatenate([dataset.paired_source, dataset.extra_source]), threshold)


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


# Pairs whose moments leave float64's range: an overflowing quotient, an
# inf/inf, and a covariance that overflows to NaN without a warning.
OVERFLOWING_PAIRS = (
    ([1e270, -1e270, 2e270], [1e-39, -1e-39, 3e-39]),
    ([1e98, -1e98, 2e98], [1e230, -1e230, 3e230]),
    ([5.6e195, -3.8e196, 2.6e195], [-6.3e177, 5.5e176, 4.1e177]),
)


# The last pair's covariance overflows to inf and NaN without a warning; the
# second case's mean overflows with one.
@pytest.mark.parametrize("a, b", [OVERFLOWING_PAIRS[2],
                                  ([1e308, 1e308, 1.0], [1.0, 2.0, 3.0])])
def test_moment_statistics_are_finite_or_raise(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError, match="degenerate control variate"):
            moment_statistics(a, b)


@pytest.mark.parametrize("a, b", OVERFLOWING_PAIRS)
def test_public_coefficients_are_finite_or_raise(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError, match="degenerate control variate"):
            cv_coefficient(a, b)
        with pytest.raises(EstimationError, match="degenerate control variate"):
            acv_ratio_coefficients(a, b, [1, 0, 1], [1, 1, 0], 0.5)


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
    b_all, d_all = full_columns(theta5_dataset, stats.source.threshold)
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


# ------------------------------------- scalar algebra on Python floats


def float64_coefficients(cov, rows, r_plugin):
    """The coefficient pair in numpy float64 scalars, indexing the ndarray."""
    a, b, c, d = rows
    var_b, var_d = cov[b, b], cov[d, d]
    cov_ab, cov_ad = cov[a, b], cov[a, d]
    cov_bc, cov_bd, cov_cd = cov[b, c], cov[b, d], cov[c, d]
    determinant = var_b * var_d - cov_bd * cov_bd
    if ((determinant <= 1e-12 * var_b * var_d)
            | (abs(cov_bd) >= (1.0 - 1e-10) * np.sqrt(var_b * var_d))) or r_plugin == 0.0:
        return 0.0, 0.0, float(determinant), True
    r = float(r_plugin)
    alpha = (var_d * cov_ab - r * var_d * cov_bc
             + r * cov_bd * cov_cd - cov_bd * cov_ad) / determinant
    beta = (cov_bd * cov_ab - r * cov_bd * cov_bc
            + r * var_b * cov_cd - var_b * cov_ad) / (r * determinant)
    return float(alpha), float(beta), float(determinant), False


def float64_correlations(cov):
    out = []
    for x, y in ((0, 2), (4, 5)):
        if cov[x, x] == 0.0 or cov[y, y] == 0.0:
            raise EstimationError("degenerate control variate")
        value = cov[x, y] / np.sqrt(cov[x, x]) / np.sqrt(cov[y, y])
        out.append(float(min(max(value, -1.0), 1.0)))
    return out[0], out[1]


def hex_outcome(func):
    """Each float's exact bits (or an EstimationError's message), and the
    messages of the warnings the call gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = tuple(x.hex() if isinstance(x, float) else x for x in func())
        except EstimationError as error:
            value = f"EstimationError: {error}"
    return value, {str(warning.message) for warning in caught}


SPECIAL_CORRELATIONS = [1.0, -1.0, 1.0 - 1e-10, 1.0 - 1e-11, -(1.0 - 1e-11), 0.0]


@st.composite
def covariances(draw):
    """Symmetric 6x6 matrices with non-negative variances near 1e-300 to
    1e300, correlations that are random, exactly +-1 (singular) or within
    1e-10 of it (near-singular), and at times a zero, subnormal or
    non-finite entry."""
    scale = [draw(st.floats(0.5, 2.0)) * 10.0 ** draw(st.sampled_from(
        [-150, -75, -6, 0, 6, 75, 150])) for _ in range(6)]
    cov = np.diag(np.square(scale))
    for i in range(6):
        for j in range(i):
            rho = draw(st.one_of(st.floats(-1.0, 1.0),
                                 st.sampled_from(SPECIAL_CORRELATIONS)))
            cov[i, j] = cov[j, i] = rho * scale[i] * scale[j]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, 5)), draw(st.integers(0, 5))
        cov[i, j] = cov[j, i] = draw(st.sampled_from([0.0, 5e-324, np.inf, np.nan]))
    return cov


@given(covariances(), st.one_of(st.floats(), st.sampled_from(
    [0.0, 0.25, 1e-300, -1e-300, 1e300])))
def test_python_float_algebra_equals_float64_algebra(cov, r_plugin):
    # Python floats round + - * / and sqrt as float64 scalars do, and they
    # never warn where float64 scalars would not. No ZeroDivisionError,
    # OverflowError or ValueError may escape.
    stats = SimpleNamespace(_entries=cov.tolist)
    for rows in ((0, 2, 4, 5), (1, 3, 4, 5)):
        new, new_warnings = hex_outcome(lambda: _coefficients(
            cov.tolist(), rows, r_plugin))
        old, old_warnings = hex_outcome(lambda: float64_coefficients(cov, rows, r_plugin))
        assert new == old and new_warnings <= old_warnings
    new, new_warnings = hex_outcome(lambda: cv_correlations(stats))
    old, old_warnings = hex_outcome(lambda: float64_correlations(cov))
    assert new == old and new_warnings <= old_warnings


def test_statistics_keep_their_covariance_as_python_floats(theta5_dataset, theta5_config):
    stats = SufficientStatistics.of(theta5_dataset, theta5_config.k)
    assert all(type(x) is float for row in stats.entries for x in row)


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
    b_all, d_all = full_columns(ds, stats.source.threshold)
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

def hand_side(excess, indicator, n, values=None):
    """One side of hand-made columns; the rows past the first n are its extras.

    ``values`` are the n + m source values the columns are the log-excesses
    of, over the threshold 1.0; the target side needs none.
    """
    columns = (excess, excess * excess, indicator)
    m = excess.size - n
    means = tuple(column[:n].sum() / n for column in columns)
    full_means = tuple((column[:n].sum() + column[n:].sum()) / (n + m)
                       for column in columns) if m else means
    count = int(indicator[:n].sum())
    return Exceedances(k=count, threshold=1.0, indicator=indicator[:n], count=count,
                       m=m, excess=excess[:n], square=columns[1][:n], means=means,
                       full_means=full_means,
                       values=None if values is None else values[:n])


def hand_statistics(a, c, source):
    """Statistics of hand-made target columns a, c over n rows and n + m source
    values, whose threshold is 1.0."""
    b_all, d_all = log_excess_indicators(source, 1.0)
    return SufficientStatistics(hand_side(a, c, a.size),
                                hand_side(b_all, d_all, a.size, source))


def orthogonal_statistics():
    # The source exceeds 1.0 in the rows of ORTH_D, at 4.0 in two and 2.0 in
    # the other two, one of each where ORTH_C is 1: every cross-covariance
    # of (a, c) with (b, d) is zero, and so is its raw sum, exactly.
    source = np.array([4.0, 0.5, 4.0, 0.5, 2.0, 0.5, 2.0, 0.5, 1.5, 0.5])
    return hand_statistics(ORTH_A, ORTH_C, source)


def test_variance_difference_zero_when_m_zero(tiny_dataset):
    v = build_cv_variables(tiny_dataset, 2)
    assert variance_difference_plugin(v, gamma_hat=1.5 * LN2) == 0.0


def test_variance_difference_exactly_zero_for_orthogonal_controls():
    v = orthogonal_statistics()
    assert variance_difference_plugin(v, gamma_hat=2.0) == 0.0


def test_variance_difference_degenerate_controls():
    c = np.array([1.0, 0, 1, 0, 1, 0])
    v = hand_statistics(2.0 * c, c, np.where(c > 0, np.exp(3.0), 0.5))
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
