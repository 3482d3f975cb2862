"""One statistics object per replication gives the same bits as separate calls.

The reference below is the per-function code the package had before every
estimator and diagnostic read one ``SufficientStatistics`` object: each
function re-sorts, rebuilds the control-variate variables and its own
covariance, composed the way the replication record composed them. Each
covariance entry sums the products of its own two deviation rows, so it
does not depend on the other rows or on the BLAS kernel. ``ref_variables``
builds the control-variate columns (a, g, b, h, c, d) as that code did.
``threshold_at``, ``log_excess_indicators``, ``tail_dependence`` and
``moment_from_log_moments`` kept their code and are called directly.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tailcv import (
    ESTIMATORS,
    EstimationError,
    ExperimentConfig,
    Marginal,
    Method,
    SemiSupervisedDataset,
    SufficientStatistics,
    asymptotic_rvr_formula,
    build_cv_variables,
    cv_correlations,
    dependence_report,
    generate_dataset,
    hill,
    log_excess_indicators,
    moment,
    moment_from_log_moments,
    tail_dependence,
    threshold_at,
    transferred_hill,
    transferred_hill_from_variables,
    transferred_moment,
    transferred_moment_from_variables,
    variance_difference_plugin,
)
from tailcv.simulate import _replication_record, _run_replication

METHODS = tuple(Method)

# ------------------------------------------------ reference: separate calls


def ref_variables(ds, k, k_source):
    """The control-variate columns, as the package built them.

    a, c, g cover the n coupled targets; b, d, h cover all n + m source
    values, coupled first, over the threshold of the n coupled ones.
    """
    a, c = log_excess_indicators(ds.paired_target, threshold_at(ds.paired_target, k))
    b, d = log_excess_indicators(
        np.concatenate([ds.paired_source, ds.extra_source]),
        threshold_at(ds.paired_source, k_source))
    return SimpleNamespace(a=a, c=c, g=a * a, b=b, d=d, h=b * b, n=ds.n, m=ds.m)


def ref_ratio(excess, indicator):
    denom = indicator.mean()
    if denom == 0.0:
        raise EstimationError("no exceedances")
    return float(excess.mean() / denom), int(round(indicator.sum()))


def ref_log_moments(sample, k):
    excess, indicator = log_excess_indicators(sample, threshold_at(sample, k))
    m1, k_eff = ref_ratio(excess, indicator)
    return m1, float((excess * excess).mean() / indicator.mean()), k_eff


def ref_hill(sample, k):
    return ref_log_moments(sample, k)[0]


def ref_moment(sample, k):
    m1, m2, _ = ref_log_moments(sample, k)
    return moment_from_log_moments(m1, m2, strict=True)


def ref_cov(*rows):
    """np.cov(rows, ddof=1), with each entry from its own pair of rows."""
    deviations = [row - row.mean() for row in rows]
    scale = np.true_divide(1, rows[0].size - 1)
    return np.array([[np.einsum("k,k->", x, y) * scale for y in deviations]
                     for x in deviations])


def ref_degenerate(cov):
    var_b, var_d, cov_bd = cov[1, 1], cov[3, 3], cov[1, 3]
    determinant = var_b * var_d - cov_bd * cov_bd
    return determinant, (determinant <= 1e-12 * var_b * var_d
                         or abs(cov_bd) >= (1.0 - 1e-10) * np.sqrt(var_b * var_d))


def ref_coefficients(a, b, c, d, r):
    if a.size < 3:
        raise ValueError("need at least 3 coupled observations")
    cov = ref_cov(a, b, c, d)
    determinant, degenerate = ref_degenerate(cov)
    if degenerate or r == 0.0:
        return 0.0, 0.0, True
    alpha = (cov[3, 3] * cov[0, 1] - r * cov[3, 3] * cov[1, 2]
             + r * cov[1, 3] * cov[2, 3] - cov[1, 3] * cov[0, 3]) / determinant
    beta = (cov[1, 3] * cov[0, 1] - r * cov[1, 3] * cov[1, 2]
            + r * cov[1, 1] * cov[2, 3] - cov[1, 1] * cov[0, 3]) / (r * determinant)
    return float(alpha), float(beta), False


def ref_corrected(num, num_all, den, den_all, alpha, beta):
    n = num.size
    numerator = num.mean() + alpha * (num_all.mean() - num_all[:n].mean())
    denominator = den.mean() + beta * (den_all.mean() - den_all[:n].mean())
    if denominator == 0.0:
        raise EstimationError("degenerate denominator")
    return float(numerator / denominator)


def ref_plugin(v, gamma):
    n, m = v.n, v.m
    b, d = v.b[:n], v.d[:n]
    mean_c = v.c.mean()
    if mean_c == 0.0:
        raise EstimationError("no exceedances")
    cov = ref_cov(v.a, b, v.c, d)
    determinant, degenerate = ref_degenerate(cov)
    if degenerate:
        raise EstimationError("degenerate control variate")
    s_d = gamma * cov[1, 2] - cov[0, 1]
    s_b = gamma * cov[2, 3] - cov[0, 3]
    spread = float(np.var(s_d * d - s_b * b, ddof=1))
    return float(m / (n * (n + m)) * spread / (mean_c * mean_c * determinant))


def ref_transferred_hill(v):
    n = v.n
    r, k_eff = ref_ratio(v.a, v.c)
    alpha, beta, degenerate = ref_coefficients(v.a, v.b[:n], v.c, v.d[:n], r)
    value = ref_corrected(v.a, v.b, v.c, v.d, alpha, beta)
    variance = r * r / k_eff
    if not degenerate:
        variance -= ref_plugin(v, r)
    return value, max(variance, 0.0)


def ref_transferred_moment(v):
    n = v.n
    m1, _ = ref_ratio(v.a, v.c)
    m2, _ = ref_ratio(v.g, v.c)
    first = ref_coefficients(v.a, v.b[:n], v.c, v.d[:n], m1)
    second = ref_coefficients(v.g, v.h[:n], v.c, v.d[:n], m2)
    return moment_from_log_moments(
        ref_corrected(v.a, v.b, v.c, v.d, *first[:2]),
        ref_corrected(v.g, v.h, v.c, v.d, *second[:2]), strict=False)


def ref_cv_correlations(v):
    n = v.n
    out = []
    for x, y in ((v.a, v.b[:n]), (v.c, v.d[:n])):
        if np.var(x) == 0.0 or np.var(y) == 0.0:
            raise EstimationError("degenerate control variate")
        cov = ref_cov(x, y)  # then np.corrcoef's steps
        value = cov[0, 1] / np.sqrt(cov[0, 0]) / np.sqrt(cov[1, 1])
        out.append(float(np.clip(value, -1.0, 1.0)))
    return out[0], out[1]


def ref_scaled_moments(ds, k, k_source):
    gamma_t = ref_hill(ds.paired_target, k)
    gamma_s = ref_hill(ds.paired_source, k_source)
    if gamma_t <= 0 or gamma_s <= 0:
        raise ValueError("scaled log-excesses need positive index estimates")
    target, source = ds.paired_target, ds.paired_source
    t_threshold, s_threshold = threshold_at(target, k), threshold_at(source, k_source)
    if t_threshold <= 0 or s_threshold <= 0:
        raise EstimationError("log-transform undefined")
    joint = (target > t_threshold) & (source > s_threshold)
    if not joint.any():
        raise EstimationError("tail dependence too weak to estimate")
    z_t = (np.log(target[joint]) - np.log(t_threshold)) / gamma_t
    z_s = (np.log(source[joint]) - np.log(s_threshold)) / gamma_s
    return float(((z_t - 1.0) * z_s).mean()), float((z_t - 1.0).mean())


REF_ESTIMATORS = {
    Method.HILL: lambda v: ref_ratio(v.a, v.c)[0],
    Method.MOMENT: lambda v: moment_from_log_moments(
        ref_ratio(v.a, v.c)[0], ref_ratio(v.g, v.c)[0], strict=True),
    Method.TRANSFERRED_HILL: lambda v: ref_transferred_hill(v)[0],
    Method.TRANSFERRED_MOMENT: ref_transferred_moment,
}


def ref_record(ds, k, k_source, estimators):
    """The replication record, one function call per quantity."""
    nan = float("nan")
    record = dict.fromkeys(("lambda_hat", "corr_ab", "corr_cd", "c_ad_hat",
                            "c_ab_hat", "p_hat", "asymptotic_rvr"), nan)
    try:
        v = ref_variables(ds, k, k_source)
    except EstimationError:
        v = None
    for method in estimators:
        value = nan
        try:
            if v is not None:
                value = REF_ESTIMATORS[method](v)
            elif method is Method.HILL:
                value = ref_hill(ds.paired_target, k)
            elif method is Method.MOMENT:
                value = ref_moment(ds.paired_target, k)
        except EstimationError:
            pass
        record[method.value] = value
    record["lambda_hat"] = tail_dependence(ds.paired_target, ds.paired_source, k)
    if v is not None:
        try:
            record["corr_ab"], record["corr_cd"] = ref_cv_correlations(v)
        except EstimationError:
            pass
        record["p_hat"] = float(round(v.c.sum())) / ds.n
    try:
        c_ab, c_ad = ref_scaled_moments(ds, k, k_source)
    except ValueError:  # EstimationError included
        return record
    record["c_ab_hat"], record["c_ad_hat"] = c_ab, c_ad
    record["asymptotic_rvr"] = asymptotic_rvr_formula(
        min(record["lambda_hat"], 1.0), k / ds.n, c_ab, c_ad, ds.n, ds.m)
    return record


def bits(record):
    return {key: np.float64(value).tobytes() for key, value in record.items()}


def outcome(func):
    """The value's bits, or the marker of an EstimationError."""
    try:
        return np.float64(func()).tobytes()
    except EstimationError:
        return "EstimationError"


# ------------------------------------------------------ replication records

CASES = {
    "pareto": dict(source_marginal=Marginal.pareto(0.5)),
    "normal": dict(source_marginal=Marginal.standard_normal()),
    "normal_negative_threshold": dict(source_marginal=Marginal.standard_normal(),
                                      n=200, m=300, k=150),
    "beta": dict(source_marginal=Marginal.beta(2.0)),
    "k_source_below_k": dict(source_marginal=Marginal.pareto(0.5), k_source=70),
    "k_source_above_k": dict(source_marginal=Marginal.pareto(1.0), k_source=140),
    "m_zero": dict(source_marginal=Marginal.pareto(0.5), m=0),
    "n_three": dict(source_marginal=Marginal.pareto(0.5), n=3, m=10, k=1),
    "n_three_k_two": dict(source_marginal=Marginal.pareto(0.5), n=3, m=10, k=2,
                          k_source=1),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_replication_record_matches_separate_calls(case):
    kwargs = dict(gamma_t=0.25, theta=5.0, n=1000, m=5000, k=100,
                  replications=40, seed=20260826)
    kwargs.update(CASES[case])
    config = ExperimentConfig(**kwargs)
    for index in range(config.replications):
        dataset = generate_dataset(config, index)
        expected = ref_record(dataset, config.k, config.k_source,
                              config.estimators)
        assert bits(_run_replication(config, index)) == bits(expected), index


# ------------------------------------------- public functions, any dataset

finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0]))


@st.composite
def datasets(draw):
    n = draw(st.integers(min_value=3, max_value=25))
    m = draw(st.integers(min_value=0, max_value=15))
    values = st.lists(finite, min_size=n, max_size=n)
    dataset = SemiSupervisedDataset(
        paired_target=draw(values), paired_source=draw(values),
        extra_source=draw(st.lists(finite, min_size=m, max_size=m)))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    k_source = draw(st.integers(min_value=1, max_value=n - 1))
    return dataset, k, k_source


# The top two targets tie, so there are no target exceedances: p_hat is 0.0
# and the correlations are undefined.
@example((SemiSupervisedDataset(paired_target=[1.0, 2.0, 2.0],
                                paired_source=[1.0, 2.0, 3.0]), 1, 1))
@given(datasets())
def test_one_object_equals_separate_calls_on_any_dataset(case):
    dataset, k, k_source = case
    stats = SufficientStatistics.of(dataset, k, k_source)
    assert (bits(_replication_record(stats, METHODS))
            == bits(ref_record(dataset, k, k_source, METHODS)))
    target = dataset.paired_target
    assert outcome(lambda: hill(target, k).value) == outcome(lambda: ref_hill(target, k))
    assert (outcome(lambda: moment(target, k).value)
            == outcome(lambda: ref_moment(target, k)))
    for public, reference in ((transferred_hill, ref_transferred_hill),
                              (transferred_moment, ref_transferred_moment)):
        def expected_value():
            value = reference(ref_variables(dataset, k, k_source))
            return value[0] if isinstance(value, tuple) else value

        assert (outcome(lambda: public(dataset, k, k_source).value)
                == outcome(expected_value))


@given(datasets(), st.floats(min_value=-5.0, max_value=5.0))
def test_variable_readers_equal_separate_calls(case, gamma):
    dataset, k, k_source = case
    stats = build_cv_variables(dataset, k, k_source)
    readers = (lambda: variance_difference_plugin(stats, gamma),
               lambda: transferred_hill_from_variables(stats).variance_estimate,
               lambda: transferred_moment_from_variables(stats).value,
               lambda: cv_correlations(stats)[0],
               lambda: cv_correlations(stats)[1])
    try:
        v = ref_variables(dataset, k, k_source)
    except EstimationError as error:
        # The columns are undefined. The plug-in and the correlations give
        # that reason; the estimators may first find no target exceedances.
        for reader in readers:
            with pytest.raises(EstimationError) as raised:
                reader()
            assert str(raised.value) in (str(error), "no exceedances")
        return
    references = (lambda: ref_plugin(v, gamma),
                  lambda: ref_transferred_hill(v)[1],
                  lambda: ref_transferred_moment(v),
                  lambda: ref_cv_correlations(v)[0],
                  lambda: ref_cv_correlations(v)[1])
    for reader, reference in zip(readers, references):
        assert outcome(reader) == outcome(reference)


@given(datasets())
def test_estimates_and_diagnostics_are_finite_or_raise(case):
    dataset, k, k_source = case
    target = dataset.paired_target
    for estimate in (lambda: hill(target, k), lambda: moment(target, k),
                     lambda: transferred_hill(dataset, k, k_source),
                     lambda: transferred_moment(dataset, k, k_source)):
        try:
            result = estimate()
        except EstimationError:
            continue
        assert math.isfinite(result.value)
        assert (result.variance_estimate is None
                or math.isfinite(result.variance_estimate))
    try:
        report = dependence_report(dataset, k, k_source)
    except EstimationError:
        return
    for value in (report.lambda_hat, report.corr_ab, report.corr_cd, report.p_hat):
        assert math.isfinite(value)


def test_dependence_report_reads_one_object(theta5_dataset, theta5_config):
    k = theta5_config.k
    report = dependence_report(theta5_dataset, k, 80)
    v = ref_variables(theta5_dataset, k, 80)
    assert (report.corr_ab, report.corr_cd) == ref_cv_correlations(v)
    assert (report.c_ab_hat, report.c_ad_hat) == ref_scaled_moments(
        theta5_dataset, k, 80)
    assert report.lambda_hat == tail_dependence(theta5_dataset.paired_target,
                                                theta5_dataset.paired_source, k)


# ------------------------------------------------------------- fallbacks

def test_m_zero_shift_is_exactly_zero(theta5_dataset, theta5_config):
    no_extra = SemiSupervisedDataset(paired_target=theta5_dataset.paired_target,
                                     paired_source=theta5_dataset.paired_source)
    stats = SufficientStatistics.of(no_extra, theta5_config.k)
    assert stats.source.full_means is stats.source.means
    assert stats.variance_difference(0.25) == 0.0
    assert (ESTIMATORS[Method.TRANSFERRED_HILL](stats).value
            == hill(no_extra.paired_target, theta5_config.k).value)


def test_one_moment_matrix_per_dataset(theta5_dataset, theta5_config):
    stats = SufficientStatistics.of(theta5_dataset, theta5_config.k)
    assert stats.moments.covariance.shape == (6, 6)
    v = ref_variables(theta5_dataset, theta5_config.k, theta5_config.k)
    n = v.n
    expected = ref_cov(v.a, v.g, v.b[:n], v.h[:n], v.c, v.d[:n])
    assert np.array_equal(stats.moments.covariance, expected)


def test_invalid_k_source_fails_only_the_transferred_estimators(theta5_dataset):
    stats = SufficientStatistics.of(theta5_dataset, 100, theta5_dataset.n)
    assert stats.source is None and stats.missing == "invalid k"
    assert (ESTIMATORS[Method.HILL](stats).value
            == hill(theta5_dataset.paired_target, 100).value)
    for method in (Method.TRANSFERRED_HILL, Method.TRANSFERRED_MOMENT):
        with pytest.raises(EstimationError, match="invalid k"):
            ESTIMATORS[method](stats)


def test_two_pairs_raise_estimation_error_on_the_control_path():
    pairs = SemiSupervisedDataset(paired_target=np.array([1.0, 2.0]),
                                  paired_source=np.array([1.0, 3.0]),
                                  extra_source=np.array([2.0, 5.0]))
    assert hill(pairs.paired_target, 1).value == math.log(2.0)
    for estimator in (transferred_hill, transferred_moment):
        with pytest.raises(EstimationError, match="at least 3 coupled"):
            estimator(pairs, 1)
    with pytest.raises(EstimationError, match="at least 3 coupled"):
        dependence_report(pairs, 1)
