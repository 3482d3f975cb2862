import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tailcv import (
    EstimationError,
    ExperimentConfig,
    Marginal,
    Method,
    SemiSupervisedDataset,
    SufficientStatistics,
    build_cv_variables,
    generate_dataset,
    hill,
    moment,
    run_rvr_experiment,
    transferred_hill,
    transferred_hill_from_variables,
    transferred_moment,
    variance_difference_plugin,
)


def degenerate_source_dataset():
    # Source exceedance log-excesses are all equal, so (b, d) are colinear
    # over the coupled rows and the coefficient system is singular.
    return SemiSupervisedDataset(
        paired_target=np.array([1.0, 2.0, 4.0, 8.0, 16.0]),
        paired_source=np.array([1.0, 2.0, 4.0, 4.0, 4.0]),
        extra_source=np.array([3.0, 5.0, 4.0]),
    )


# ------------------------------------------------------ fallback identities

def test_m_zero_equals_hill_bitwise(tiny_dataset):
    transferred = transferred_hill(tiny_dataset, 2)
    baseline = hill(tiny_dataset.paired_target, 2)
    assert transferred.value == baseline.value
    assert transferred.variance_estimate == baseline.variance_estimate
    assert transferred.method is Method.TRANSFERRED_HILL
    assert transferred.coefficients is not None


def test_m_zero_equals_moment_bitwise(tiny_dataset):
    transferred = transferred_moment(tiny_dataset, 2)
    baseline = moment(tiny_dataset.paired_target, 2)
    assert transferred.value == baseline.value


def test_degenerate_coefficients_fall_back_to_hill_bitwise():
    ds = degenerate_source_dataset()
    transferred = transferred_hill(ds, 2, k_source=3)
    baseline = hill(ds.paired_target, 2)
    assert transferred.coefficients.degenerate
    assert transferred.coefficients.alpha == 0.0
    assert transferred.coefficients.beta == 0.0
    assert transferred.value == baseline.value
    assert transferred.variance_estimate == baseline.variance_estimate


def test_degenerate_coefficients_fall_back_to_moment_bitwise():
    ds = degenerate_source_dataset()
    transferred = transferred_moment(ds, 2, k_source=3)
    baseline = moment(ds.paired_target, 2)
    assert transferred.coefficients.degenerate
    assert transferred.coefficients.degenerate_second
    assert transferred.value == baseline.value


def test_one_exceedance_per_side_falls_back_to_hill_bitwise():
    # At k = 1 the one source log-excess sits where d = 1, so b = b_max * d
    # and the Hill coefficient system is singular: an n-sweep at its default
    # k (1 below n = 15) gives a Hill RVR of exactly 0.
    config = ExperimentConfig(gamma_t=0.5, theta=5.0, n=5, m=200,
                              source_marginal=Marginal.pareto(1.0), seed=7)
    for index in range(30):
        ds = generate_dataset(config, index)
        transferred = transferred_hill(ds, 1)
        assert transferred.coefficients.degenerate
        assert transferred.value == hill(ds.paired_target, 1).value


# ------------------------------------------------------------- diagnostics

def test_transferred_hill_records_coefficients(theta5_dataset, theta5_config):
    est = transferred_hill(theta5_dataset, theta5_config.k)
    assert est.method is Method.TRANSFERRED_HILL
    assert est.k == theta5_config.k and est.k_eff == theta5_config.k
    assert not est.coefficients.degenerate
    assert np.isfinite(est.coefficients.alpha)
    assert np.isfinite(est.coefficients.beta)
    assert est.coefficients.alpha_prime is None
    assert est.variance_estimate >= 0.0


def test_transferred_moment_records_both_pairs(theta5_dataset, theta5_config):
    est = transferred_moment(theta5_dataset, theta5_config.k)
    coeffs = est.coefficients
    assert est.method is Method.TRANSFERRED_MOMENT
    assert np.isfinite(coeffs.alpha_prime) and np.isfinite(coeffs.beta_prime)
    assert coeffs.degenerate_second is not None


def test_from_variables_matches_dataset_route(theta5_dataset, theta5_config):
    v = build_cv_variables(theta5_dataset, theta5_config.k,
                           theta5_config.k_source)
    assert (transferred_hill_from_variables(v).value
            == transferred_hill(theta5_dataset, theta5_config.k).value)


def test_variance_estimate_never_negative(theta5_config):
    for index in range(50):
        ds = generate_dataset(theta5_config, index)
        est = transferred_hill(ds, theta5_config.k)
        assert est.variance_estimate >= 0.0


def test_transferred_hill_reduces_variance(theta5_dataset, theta5_config):
    baseline = hill(theta5_dataset.paired_target, theta5_config.k)
    transferred = transferred_hill(theta5_dataset, theta5_config.k)
    assert transferred.variance_estimate <= baseline.variance_estimate


@st.composite
def positive_target_datasets(draw):
    # Values on a grid of quarters, so ties are common and a power keeps
    # distinct targets distinct; sources may go non-positive.
    n = draw(st.integers(min_value=3, max_value=30))
    m = draw(st.integers(min_value=0, max_value=20))
    targets = st.integers(min_value=4, max_value=400).map(lambda i: i / 4)
    sources = st.integers(min_value=-20, max_value=400).map(lambda i: i / 4)
    dataset = SemiSupervisedDataset(
        paired_target=draw(st.lists(targets, min_size=n, max_size=n)),
        paired_source=draw(st.lists(sources, min_size=n, max_size=n)),
        extra_source=draw(st.lists(sources, min_size=m, max_size=m)))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    return dataset, k, draw(st.integers(min_value=1, max_value=n - 1))


@given(positive_target_datasets(), st.floats(min_value=0.1, max_value=10.0))
def test_a_power_of_the_target_scales_both_hill_estimates(case, power):
    # Log-excesses of y**power are power times those of y, so the Hill
    # estimate and, through coefficients that scale with it, the
    # transferred one scale by the power.
    dataset, k, k_source = case
    powered = SemiSupervisedDataset(paired_target=dataset.paired_target ** power,
                                    paired_source=dataset.paired_source,
                                    extra_source=dataset.extra_source)
    for estimate in (lambda ds: hill(ds.paired_target, k),
                     lambda ds: transferred_hill(ds, k, k_source)):
        try:
            value = estimate(dataset).value
        except EstimationError:
            with pytest.raises(EstimationError):
                estimate(powered)
            continue
        assert math.isclose(estimate(powered).value, power * value, rel_tol=1e-10)


def near_singular_dataset(spread):
    """Eight source exceedances of 1.0, log-excesses 0.5 apart by up to ``spread``.

    As ``spread`` shrinks, b nears a multiple of d over the coupled rows and
    corr(b, d) nears the ceiling past which the controls count as singular.
    """
    rng = np.random.default_rng(1)
    target = 1.0 + rng.pareto(2.0, 40)
    above = np.exp(0.5 * (1.0 + spread * rng.random(8)))
    below = 0.2 + 0.8 * rng.random(32)
    below[-1] = 1.0  # the source threshold at k_source = 8
    return SemiSupervisedDataset(target, np.concatenate([above, below]),
                                 np.full(5, 2.0))


def test_controls_singular_in_the_plug_in_alone_report_the_baseline_variance():
    # The coefficients read the deviation-form covariance, the plug-in its
    # raw-sum entries. A rounding apart, they can disagree within a few 1e-6
    # (relative) of the spread where the controls turn singular: there the
    # plug-in can raise where the coefficients are not degenerate.
    def singular(spread):
        stats = SufficientStatistics.of(near_singular_dataset(spread), 10, 8)
        degenerate = stats.coefficients(1, 0.5)[3]
        try:
            variance_difference_plugin(stats, 0.5)
        except EstimationError as error:
            assert str(error) == "degenerate control variate"
            return degenerate, True
        return degenerate, False

    low, high = 1e-9, 1e-1  # the coefficients are singular at low only
    for _ in range(60):
        middle = math.sqrt(low * high)
        low, high = (middle, high) if singular(middle)[0] else (low, middle)
    spreads = [spread for spread in low * (1.0 + 1e-9 * np.arange(-6000, 6001, 5))
               if singular(spread) == (False, True)]
    assert spreads
    for spread in spreads:
        dataset = near_singular_dataset(spread)
        estimate = transferred_hill(dataset, 10, 8)
        assert not estimate.coefficients.degenerate
        assert (estimate.variance_estimate
                == hill(dataset.paired_target, 10).variance_estimate)


# -------------------------------------------------------------- estimation

def test_no_exceedances_propagates():
    ds = SemiSupervisedDataset(paired_target=np.array([1.0, 3.0, 3.0, 3.0]),
                               paired_source=np.array([1.0, 2.0, 4.0, 8.0]))
    with pytest.raises(EstimationError, match="no exceedances"):
        transferred_hill(ds, 2)


def test_consistency_improves_with_sample_size():
    mads = []
    for n in (500, 1000, 2000, 4000):
        config = ExperimentConfig(
            gamma_t=0.25, theta=5.0, n=n, m=5 * n,
            source_marginal=Marginal.pareto(0.5), replications=400, seed=11,
        )
        report = run_rvr_experiment(config)
        values = report.estimates["transferred_hill"]
        mads.append(np.nanmean(np.abs(values - 0.25)))
    for previous, current in zip(mads, mads[1:]):
        assert current <= previous * 1.10
    assert mads[-1] < mads[0]
