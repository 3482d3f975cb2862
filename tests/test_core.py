import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tailcv import (
    ESTIMATORS,
    EstimationError,
    EviEstimate,
    ExperimentConfig,
    Marginal,
    Method,
    SemiSupervisedDataset,
    SufficientStatistics,
    TransferCoefficients,
    asymptotic_rvr,
    build_cv_variables,
    dependence_report,
    exceedances,
    generate_dataset,
    hill,
    hill_plot,
    log_excess_indicators,
    moment,
    order_statistics,
    source_threshold_scan,
    tail_dependence,
    threshold_at,
    transferred_hill,
    transferred_moment,
)

LN2 = np.log(2.0)

positive_samples = arrays(
    np.float64, st.integers(min_value=2, max_value=40),
    elements=st.floats(min_value=0.01, max_value=1e6,
                       allow_nan=False, allow_infinity=False),
)


# ---------------------------------------------------------------- ordering

def test_order_statistics_sorts():
    np.testing.assert_array_equal(order_statistics([3, 1, 2]), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(order_statistics([5]), [5.0])
    np.testing.assert_array_equal(order_statistics([2, 2, 1]), [1.0, 2.0, 2.0])


def test_order_statistics_empty():
    with pytest.raises(EstimationError, match="empty sample"):
        order_statistics([])


def test_threshold_at_examples():
    assert threshold_at([1, 2, 4, 8, 16], 2) == 4.0
    assert threshold_at([1, 2, 4, 8, 16], 4) == 1.0
    assert threshold_at([7, 7, 7, 7], 1) == 7.0


@pytest.mark.parametrize("k", [0, 5, 6, -1])
def test_threshold_at_invalid_k(k):
    with pytest.raises(EstimationError, match="invalid k"):
        threshold_at([1, 2, 4, 8, 16], k)


@given(positive_samples, st.data())
def test_threshold_at_matches_order_statistics(sample, data):
    k = data.draw(st.integers(min_value=1, max_value=len(sample) - 1))
    assert threshold_at(sample, k) == order_statistics(sample)[len(sample) - k - 1]


_K_CONFIG = ExperimentConfig(gamma_t=0.5, theta=5.0, n=50, m=100, k=5,
                             source_marginal=Marginal.pareto(1.0), replications=2)

# Every public argument that counts extremes, with the name its error gives;
# each call takes the dataset and the value under test.
_K_ARGUMENTS = {
    "hill": ("k", lambda data, k: hill(data.paired_target, k)),
    "moment": ("k", lambda data, k: moment(data.paired_target, k)),
    "transferred_hill": ("k", lambda data, k: transferred_hill(data, k)),
    "transferred_moment": ("k", lambda data, k: transferred_moment(data, k)),
    "threshold_at": ("k", lambda data, k: threshold_at(data.paired_target, k)),
    "tail_dependence": ("k", lambda data, k: tail_dependence(
        data.paired_target, data.paired_source, k)),
    "dependence_report": ("k", lambda data, k: dependence_report(data, k)),
    "asymptotic_rvr": ("k", lambda data, k: asymptotic_rvr(data, k)),
    "hill_plot k_min": ("k_min", lambda data, k: hill_plot(data.paired_target, k, 20)),
    "hill_plot k_max": ("k_max", lambda data, k: hill_plot(data.paired_target, 1, k)),
    "hill_plot step": ("step", lambda data, k: hill_plot(data.paired_target, 1, 20, k)),
    "source_threshold_scan": ("l", lambda data, l: source_threshold_scan(
        _K_CONFIG, [l])),
}


@pytest.mark.parametrize("value", [2.5, 10.9, "3", "7", np.float64(2.0), np.int64(5)],
                         ids=repr)
@pytest.mark.parametrize("call", list(_K_ARGUMENTS))
def test_every_k_and_l_must_be_an_integer(call, value):
    # Floats in range used to be truncated and strings parsed without a word.
    name, run = _K_ARGUMENTS[call]
    data = generate_dataset(_K_CONFIG, 0)
    if isinstance(value, np.integer):  # an integer of any type is accepted
        run(data, value)
    else:
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            run(data, value)


# ------------------------------------------------------- log-excess pieces

def test_log_excess_indicators_hand_case():
    a, c = log_excess_indicators(np.array([1.0, 2, 4, 8, 16]), 4.0)
    np.testing.assert_allclose(a, [0, 0, 0, LN2, 2 * LN2], atol=1e-15)
    np.testing.assert_array_equal(c, [0, 0, 0, 1, 1])


def test_log_excess_strict_inequality():
    a, c = log_excess_indicators(np.array([4.0, 4.0, 5.0]), 4.0)
    np.testing.assert_array_equal(c, [0, 0, 1])
    assert a[0] == 0.0 and a[1] == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_log_excess_of_no_values_is_two_empty_columns():
    a, c = log_excess_indicators(np.array([]), 4.0)
    assert a.shape == c.shape == (0,)


def test_log_excess_nonpositive_threshold():
    with pytest.raises(EstimationError, match="log-transform undefined"):
        log_excess_indicators(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(EstimationError, match="log-transform undefined"):
        log_excess_indicators(np.array([1.0, 2.0]), -3.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("threshold", [np.inf, np.nan])
def test_log_excess_non_finite_threshold(threshold):
    with pytest.raises(EstimationError, match="log-transform undefined"):
        log_excess_indicators(np.array([-1.0, 0.0, 1.0, np.inf]), threshold)


@given(positive_samples, st.floats(min_value=0.01, max_value=1e6))
def test_log_excess_supported_on_exceedances(sample, threshold):
    a, c = log_excess_indicators(sample, threshold)
    assert np.all(a >= 0.0)
    assert np.all((c == 0) | (c == 1))
    np.testing.assert_array_equal(c == 1, sample > threshold)
    assert np.all(a[c == 0] == 0.0)
    # Strict positivity needs separation: one ulp above the threshold both
    # logs can round to the same double.
    assert np.all(a[sample > threshold * (1.0 + 1e-9)] > 0.0)


# ------------------------------------------------------------------ dataset

def test_dataset_validation():
    with pytest.raises(ValueError):
        SemiSupervisedDataset(paired_target=np.array([1.0, 2.0]),
                              paired_source=np.array([1.0]))
    with pytest.raises(ValueError):
        SemiSupervisedDataset(paired_target=np.array([1.0]),
                              paired_source=np.array([1.0]))
    with pytest.raises(ValueError):
        SemiSupervisedDataset(paired_target=np.array([1.0, np.nan]),
                              paired_source=np.array([1.0, 2.0]))


def test_dataset_counts_and_read_only():
    ds = SemiSupervisedDataset(paired_target=np.array([1.0, 2.0]),
                               paired_source=np.array([3.0, 4.0]),
                               extra_source=np.array([5.0]))
    assert (ds.n, ds.m) == (2, 1)
    with pytest.raises(ValueError):
        ds.paired_target[0] = 9.0


def test_dataset_defaults_empty_extras():
    ds = SemiSupervisedDataset(paired_target=np.array([1.0, 2.0]),
                               paired_source=np.array([3.0, 4.0]))
    assert ds.m == 0


# ------------------------------------------------------- tail columns

def test_build_cv_variables_hand_case(tiny_dataset):
    stats = build_cv_variables(tiny_dataset, k=2, k_source=2)
    target, source = stats.target, stats.source
    np.testing.assert_allclose(target.excess, [0, 0, 0, LN2, 2 * LN2], atol=1e-15)
    np.testing.assert_array_equal(target.indicator, [0, 0, 0, 1, 1])
    np.testing.assert_array_equal(source.excess, target.excess)
    np.testing.assert_array_equal(source.indicator, target.indicator)
    np.testing.assert_array_equal(target.square, target.excess ** 2)
    assert target.threshold == 4.0 and source.threshold == 4.0
    assert (stats.n, source.m) == (5, 0)


def test_build_cv_variables_tied_source_all_zero():
    ds = SemiSupervisedDataset(paired_target=np.array([1.0, 2, 4, 8, 16]),
                               paired_source=np.ones(5))
    source = build_cv_variables(ds, k=2, k_source=2).source
    np.testing.assert_array_equal(source.indicator, np.zeros(5))
    np.testing.assert_array_equal(source.excess, np.zeros(5))


def test_build_cv_variables_tied_target_empty_exceedances():
    ds = SemiSupervisedDataset(paired_target=np.array([1.0, 2, 3, 3, 3]),
                               paired_source=np.array([1.0, 2, 4, 8, 16]))
    target = build_cv_variables(ds, k=2, k_source=2).target
    assert target.threshold == 3.0
    np.testing.assert_array_equal(target.excess, np.zeros(5))
    np.testing.assert_array_equal(target.indicator, np.zeros(5))


def test_source_threshold_from_coupled_rows_only():
    # Extras larger than every coupled source value must not move the threshold.
    ds = SemiSupervisedDataset(paired_target=np.array([1.0, 2, 4, 8, 16]),
                               paired_source=np.array([1.0, 2, 4, 8, 16]),
                               extra_source=np.array([100.0, 200.0, 300.0]))
    source = build_cv_variables(ds, k=2, k_source=2).source
    assert source.threshold == 4.0
    _, indicator = log_excess_indicators(
        np.concatenate([ds.paired_source, ds.extra_source]), source.threshold)
    np.testing.assert_array_equal(indicator[5:], [1, 1, 1])
    assert source.m == 3
    assert source.full_means[2] == indicator.mean()


# Few distinct values, so coupled values tie and extras equal the threshold.
tail_values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                        st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0]))


@st.composite
def coupled_extra_k(draw):
    n = draw(st.integers(min_value=3, max_value=40))
    coupled = np.array(draw(st.lists(tail_values, min_size=n, max_size=n)))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    at_threshold = st.just(threshold_at(coupled, k))
    extra = draw(st.lists(st.one_of(tail_values, at_threshold), max_size=60))
    return coupled, np.array(extra, dtype=float), k


@given(coupled_extra_k())
def test_full_means_equal_means_of_concatenated_columns(case):
    coupled, extra, k = case
    with np.errstate(all="raise"):
        side = exceedances(coupled, k, extra=(extra,))
        means = side.full_means
    assert side.m == extra.size
    assert side.count == int(side.indicator.sum())
    if side.threshold <= 0:
        assert means is None
        return
    if not extra.size:
        assert means is side.means
    excess, indicator = log_excess_indicators(np.concatenate([coupled, extra]),
                                              side.threshold)
    assert means[2] == indicator.mean()
    for value, column in zip(means[:2], (excess, excess * excess)):
        assert abs(value - column.mean()) <= 1e-13 * column.mean()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=repr)
def test_non_finite_extras_raise(bad):
    # An infinite extra used to give infinite full means; a NaN one was
    # counted in m and never compared with the threshold.
    with pytest.raises(ValueError, match="finite values"):
        exceedances([1.0, 2, 3, 4, 5], 2, extra=([bad],))
    with pytest.raises(ValueError, match="finite values"):
        exceedances([1.0, 2, 3, 4, 5], 2, extra=([6.0], [1.0, bad]))


def test_extras_must_come_in_pieces():
    with pytest.raises(ValueError, match="one-dimensional pieces"):
        exceedances([1.0, 2, 3, 4, 5], 2, extra=[6.0, 7.0])


@pytest.mark.parametrize("extra", [np.array([6.0, 7.0, 1.5, 4.5]), np.array([0.5]),
                                   np.array([])], ids=["four", "one", "none"])
def test_a_one_dimensional_array_of_extras_is_one_piece(extra):
    coupled = [1.0, 2, 3, 4, 5]
    got, expected = (exceedances(coupled, 2, extra=form) for form in (extra, (extra,)))
    assert got.m == expected.m == extra.size
    for name, value in vars(expected).items():
        other = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert other.tobytes() == value.tobytes(), name
        else:
            assert repr(other) == repr(value), name


def test_statistics_build_no_full_length_column():
    # The bootstrap-wide shape: 500 coupled pairs and 24,500 extra values.
    config = ExperimentConfig(gamma_t=0.25, theta=5.0, n=500, m=24_500, k=50,
                              source_marginal=Marginal.standard_normal())
    dataset = generate_dataset(config, 0)
    tracemalloc.start()
    try:
        stats = SufficientStatistics.of(dataset, config.k)
        for method in Method:
            ESTIMATORS[method](stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (config.n + config.m) * 8


def test_cv_variables_tie_free_counts(theta5_dataset, theta5_config):
    stats = build_cv_variables(theta5_dataset, theta5_config.k,
                               theta5_config.k_source)
    assert stats.target.count == theta5_config.k
    assert stats.source.count == theta5_config.k_source


def test_target_scale_invariance(theta5_dataset, theta5_config):
    v = build_cv_variables(theta5_dataset, theta5_config.k).target
    scaled = SemiSupervisedDataset(
        paired_target=theta5_dataset.paired_target * 37.5,
        paired_source=theta5_dataset.paired_source,
        extra_source=theta5_dataset.extra_source,
    )
    w = build_cv_variables(scaled, theta5_config.k).target
    np.testing.assert_allclose(w.excess, v.excess, atol=1e-12)
    np.testing.assert_array_equal(w.indicator, v.indicator)


# ----------------------------------------------------------- method/estimate

def test_method_pairing():
    assert Method.TRANSFERRED_HILL.baseline is Method.HILL
    assert Method.TRANSFERRED_MOMENT.baseline is Method.MOMENT
    assert Method.TRANSFERRED_HILL.is_transferred
    assert not Method.HILL.is_transferred


def test_evi_estimate_coefficient_consistency():
    with pytest.raises(ValueError):
        EviEstimate(value=1.0, method=Method.HILL, k=2, k_eff=2,
                    coefficients=TransferCoefficients(alpha=1.0, beta=1.0))
    with pytest.raises(ValueError):
        EviEstimate(value=1.0, method=Method.TRANSFERRED_HILL, k=2, k_eff=2)
    with pytest.raises(ValueError):
        EviEstimate(value=1.0, method=Method.HILL, k=2, k_eff=2,
                    variance_estimate=-1.0)
