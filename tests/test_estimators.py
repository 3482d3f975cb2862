import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tailcv import (
    EstimationError,
    Marginal,
    Method,
    SemiSupervisedDataset,
    hill,
    hill_plot,
    moment,
    moment_from_log_moments,
    transferred_moment,
)
from tailcv.simulate import _stream

LN2 = np.log(2.0)


def top_k_hill(sample, k):
    """Independent oracle: average log-ratio of the top k order statistics
    to the (n-k)-th order statistic."""
    ordered = np.sort(np.asarray(sample, dtype=float))
    threshold = ordered[len(ordered) - k - 1]
    return float(np.mean(np.log(ordered[-k:]) - np.log(threshold)))


# ----------------------------------------------------------------- hill

def test_hill_hand_example():
    est = hill([1, 2, 4, 8, 16], 2)
    assert abs(est.value - 1.5 * LN2) < 1e-12
    assert est.method is Method.HILL
    assert (est.k, est.k_eff) == (2, 2)
    assert abs(est.variance_estimate - (1.5 * LN2) ** 2 / 2) < 1e-12
    assert est.coefficients is None


def test_hill_tied_sample_no_exceedances():
    with pytest.raises(EstimationError, match="no exceedances"):
        hill([1, 2, 3, 3, 3], 2)


def test_hill_rejects_nonpositive_threshold():
    with pytest.raises(EstimationError, match="log-transform undefined"):
        hill([-1.0, 0.5, 1.0, 2.0], 3)


def test_hill_form_equivalence_on_random_samples():
    # Ratio-of-means form vs the top-k order-statistic form, tie-free inputs.
    rng = _stream(2024, 0, 0)
    for _ in range(1000):
        n = int(rng.integers(5, 60))
        sample = np.exp(rng.normal(0.0, 1.5, n)) + 1e-6
        k = int(rng.integers(1, n))
        assert abs(hill(sample, k).value - top_k_hill(sample, k)) < 1e-12


def test_hill_consistent_on_pareto():
    rng = _stream(99, 0, 0)
    sample = Marginal.pareto(0.5).quantile(rng.random(100_000))
    assert abs(hill(sample, 10_000).value - 0.5) < 0.02


@given(st.floats(min_value=0.001, max_value=1000.0))
def test_hill_scale_invariance(scale):
    rng = _stream(7, 0, 0)
    sample = np.exp(rng.normal(0.0, 1.0, 50))
    base = hill(sample, 10).value
    assert abs(hill(scale * sample, 10).value - base) < 1e-9


# ---------------------------------------------------------------- moment

def test_moment_hand_example():
    est = moment([1, 2, 4, 8, 16], 2)
    # M1 = 1.5 ln 2, M2 = 2.5 (ln 2)^2, value = M1 + 1 - 0.5/(1 - 0.9)
    assert abs(est.value - (1.5 * LN2 - 4.0)) < 1e-12
    assert est.method is Method.MOMENT


def test_moment_single_exceedance_degenerate():
    # One exceedance forces M2 == M1^2, so the second-moment term blows up;
    # so do tied exceedances. In floats 1 - M1**2/M2 can round to a few ulps
    # instead of 0 (the last two samples), which must fail the same way, for
    # the transferred estimator with m = 0 too.
    for sample, k in (([1.0, 2.0, 4.0], 1), ([0.1, 2.0, 3.0], 1),
                      ([0.5, 1.0] + [7.0] * 5, 5)):
        with pytest.raises(EstimationError, match="moment estimator undefined"):
            moment(sample, k)
        dataset = SemiSupervisedDataset(paired_target=sample,
                                        paired_source=np.arange(len(sample)) + 1.0)
        with pytest.raises(EstimationError, match="moment estimator undefined"):
            transferred_moment(dataset, k)


def test_moment_consistent_on_pareto():
    rng = _stream(99, 0, 0)
    sample = Marginal.pareto(0.5).quantile(rng.random(100_000))
    assert abs(moment(sample, 10_000).value - 0.5) < 0.05


def test_moment_from_log_moments_guards():
    with pytest.raises(EstimationError, match="moment estimator undefined"):
        moment_from_log_moments(1.0, 0.0)
    with pytest.raises(EstimationError, match="moment estimator undefined"):
        moment_from_log_moments(1.0, 1.0)
    # Cauchy-Schwarz violations allowed only in non-strict mode.
    with pytest.raises(EstimationError, match="moment estimator undefined"):
        moment_from_log_moments(2.0, 1.0, strict=True)
    assert np.isfinite(moment_from_log_moments(2.0, 1.0, strict=False))


# -------------------------------------------------------------- hill plot

def test_hill_plot_hand_example():
    series = hill_plot([1, 2, 4, 8, 16], 1, 2)
    np.testing.assert_array_equal(series.k_values, [1, 2])
    np.testing.assert_allclose(series.estimates, [LN2, 1.5 * LN2], atol=1e-12)


def test_hill_plot_single_k():
    series = hill_plot([1, 2, 4, 8, 16], 2, 2)
    assert len(series.k_values) == 1
    assert series.estimates[0] == hill([1, 2, 4, 8, 16], 2).value


def test_hill_plot_records_failures_as_nan():
    # k = 1, 2 put the threshold at the tied maximum: no strict exceedances.
    series = hill_plot([1.0, 5.0, 5.0, 5.0], 1, 3)
    assert np.isnan(series.estimates[0]) and np.isnan(series.estimates[1])
    assert np.isfinite(series.estimates[2])


def test_hill_plot_flat_on_pareto():
    rng = _stream(1, 0, 0)
    sample = Marginal.pareto(0.5).quantile(rng.random(10_000))
    series = hill_plot(sample, 200, 2000, 100)
    assert np.nanmax(np.abs(series.estimates - 0.5)) < 0.05


@pytest.mark.parametrize("k_min,k_max,step", [(0, 2, 1), (1, 5, 1), (3, 2, 1),
                                              (1, 2, 0)])
def test_hill_plot_invalid_ranges(k_min, k_max, step):
    with pytest.raises((EstimationError, ValueError)):
        hill_plot([1, 2, 4, 8, 16], k_min, k_max, step)


def test_empty_sample_errors():
    with pytest.raises(EstimationError, match="empty sample"):
        hill([], 1)
