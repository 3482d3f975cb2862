"""One statistics object per replication gives the same bits as separate calls.

The reference below is the per-function code the package had before every
estimator and diagnostic read one ``SufficientStatistics`` object: each
function re-sorts, rebuilds the control-variate variables and its own
covariance, composed the way the replication record composed them. Each
covariance entry sums the products of its own two deviation rows, so it
does not depend on the other rows or on the BLAS kernel. ``ref_variables``
builds the control-variate columns (a, g, b, h, c, d) as that code did;
``ref_full_mean`` takes a full-sample mean over them as the package does,
summing the coupled rows and the exceeding extras separately.
``threshold_at``, ``tail_dependence`` and ``moment_from_log_moments`` kept
their code and are called directly. ``log_excess_indicators`` is called
directly too, but it builds its columns with the package's own
``core._exceedances``; ``sorted_side`` rebuilds a side's columns from a
full sort and one mask, independently of the package. The
plug-in's reference (``ref_plugin``) takes its covariance entries in
raw-sum form, as the plug-in does, adding up the source exceedances one at
a time from the largest value down; ``deviation_plugin`` checks its digits
against the deviation form.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tailcv import (
    ESTIMATORS,
    EstimationError,
    Exceedances,
    ExperimentConfig,
    Marginal,
    Method,
    SemiSupervisedDataset,
    SufficientStatistics,
    asymptotic_rvr,
    asymptotic_rvr_formula,
    build_cv_variables,
    cv_correlations,
    dependence_report,
    exceedances,
    generate_dataset,
    hill,
    hill_plot,
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
from tailcv.dependence import _dependence_report, _diagnostics, _joint_scaled_excess_moments
from tailcv.simulate import (
    _ROLE_BOOTSTRAP,
    _estimate_values,
    _replication_record,
    _resample_values,
    _run_replication,
    _stream,
)

METHODS = tuple(Method)

# ------------------------------------------------ reference: separate calls


def ref_variables(ds, k, k_source):
    """The control-variate columns, as the package built them.

    a, c, g cover the n coupled targets; b, d, h cover all n + m source
    values, coupled first, over the threshold of the n coupled ones.
    """
    a, c = log_excess_indicators(ds.paired_target, threshold_at(ds.paired_target, k))
    source_threshold = threshold_at(ds.paired_source, k_source)
    b, d = log_excess_indicators(
        np.concatenate([ds.paired_source, ds.extra_source]), source_threshold)
    return SimpleNamespace(a=a, c=c, g=a * a, b=b, d=d, h=b * b, n=ds.n, m=ds.m,
                           source=ds.paired_source, source_threshold=source_threshold)


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


def ref_degenerate(var_b, var_d, cov_bd):
    determinant = var_b * var_d - cov_bd * cov_bd
    return determinant, (determinant <= 1e-12 * var_b * var_d
                         or abs(cov_bd) >= (1.0 - 1e-10) * np.sqrt(var_b * var_d))


def ref_coefficients(a, b, c, d, r):
    if a.size < 3:
        raise ValueError("need at least 3 coupled observations")
    cov = ref_cov(a, b, c, d)
    determinant, degenerate = ref_degenerate(cov[1, 1], cov[3, 3], cov[1, 3])
    if degenerate or r == 0.0:
        return 0.0, 0.0, True
    alpha = (cov[3, 3] * cov[0, 1] - r * cov[3, 3] * cov[1, 2]
             + r * cov[1, 3] * cov[2, 3] - cov[1, 3] * cov[0, 3]) / determinant
    beta = (cov[1, 3] * cov[0, 1] - r * cov[1, 3] * cov[1, 2]
            + r * cov[1, 1] * cov[2, 3] - cov[1, 1] * cov[0, 3]) / (r * determinant)
    return float(alpha), float(beta), False


def ref_full_mean(column, indicator, n):
    """Mean over all n + m rows: the coupled column sum plus the sum over the
    exceeding extras, in input order, divided by n + m."""
    if column.size == n:
        return column.mean()
    extras = column[n:][indicator[n:] > 0.0]
    return (np.add.reduce(column[:n]) + np.add.reduce(extras)) / column.size


def ref_corrected(num, num_all, den, den_all, alpha, beta):
    n = num.size
    numerator = num.mean() + alpha * (ref_full_mean(num_all, den_all, n)
                                      - num_all[:n].mean())
    denominator = den.mean() + beta * (ref_full_mean(den_all, den_all, n)
                                       - den_all[:n].mean())
    if denominator == 0.0:
        raise EstimationError("degenerate denominator")
    return float(numerator / denominator)


def quadratic_spread(e, s_d, s_b, b, d):
    """Var(s_d*d - s_b*b) from the (b, d) entries."""
    return s_d * s_d * e.var_d + s_b * s_b * e.var_b - 2.0 * s_d * s_b * e.cov_bd


def sample_spread(e, s_d, s_b, b, d):
    """Var(s_d*d - s_b*b) by its definition, over the n coupled rows."""
    return float(np.var(s_d * d - s_b * b, ddof=1))


def ref_prefix_entries(v):
    """The seven (a, b, c, d) covariance entries the plug-in reads, raw-sum form.

    Sums run over the coupled source exceedances one at a time, from the
    largest value down (ties in row order), with each log taken less the
    log of the largest value. With T the threshold's log taken the same
    way and j the exceedance count, b = (L - T) d gives Σb = ΣL - jT,
    Σb² = ΣL² - 2TΣL + jT², Σab = Σ(aL) - TΣa and Σbc = Σ(cL) - TΣc; then
    Cov(x, y) = (Σxy - Σx mean(y)) / (n - 1).
    """
    n = v.n
    rows = sorted(np.flatnonzero(v.d[:n]), key=lambda row: -v.source[row])
    logs = np.log(v.source[rows])
    origin = logs[0] if rows else 0.0
    sum_l = sum_ll = sum_a = sum_al = sum_c = sum_cl = 0.0
    for row, log in zip(rows, logs - origin):
        a, c = v.a[row], v.c[row]
        sum_l += log
        sum_ll += log * log
        sum_a += a
        sum_al += a * log
        sum_c += c
        sum_cl += c * log
    t, j = np.log(v.source_threshold) - origin, len(rows)
    mean_a, mean_c = v.a.mean(), v.c.mean()
    sum_b = sum_l - j * t
    sum_bb = sum_ll - 2.0 * t * sum_l + j * t * t
    scale = 1 / (n - 1)
    return SimpleNamespace(
        var_b=(sum_bb - sum_b * (sum_b / n)) * scale,
        var_d=(j - j * (j / n)) * scale,
        cov_bd=(sum_b - sum_b * (j / n)) * scale,
        cov_ab=(sum_al - t * sum_a - sum_b * mean_a) * scale,
        cov_ad=(sum_a - j * mean_a) * scale,
        cov_bc=(sum_cl - t * sum_c - sum_b * mean_c) * scale,
        cov_cd=(sum_c - j * mean_c) * scale)


def ref_plugin(v, gamma, spread=quadratic_spread):
    n, m = v.n, v.m
    b, d = v.b[:n], v.d[:n]
    mean_c = v.c.mean()
    if mean_c == 0.0:
        raise EstimationError("no exceedances")
    e = ref_prefix_entries(v)
    determinant, degenerate = ref_degenerate(e.var_b, e.var_d, e.cov_bd)
    if degenerate:
        raise EstimationError("degenerate control variate")
    s_d = gamma * e.cov_bc - e.cov_ab
    s_b = gamma * e.cov_cd - e.cov_ad
    return float(m / (n * (n + m)) * spread(e, s_d, s_b, b, d)
                 / (mean_c * mean_c * determinant))


def deviation_plugin(v, gamma):
    """The plug-in from the deviation-form covariance of the (a, b, c, d) columns."""
    n, m = v.n, v.m
    cov = ref_cov(v.a, v.b[:n], v.c, v.d[:n])
    determinant = cov[1, 1] * cov[3, 3] - cov[1, 3] * cov[1, 3]
    s_d = gamma * cov[1, 2] - cov[0, 1]
    s_b = gamma * cov[2, 3] - cov[0, 3]
    spread = s_d * s_d * cov[3, 3] + s_b * s_b * cov[1, 1] - 2.0 * s_d * s_b * cov[1, 3]
    return float(m / (n * (n + m)) * spread / (v.c.mean() ** 2 * determinant))


def ref_transferred_hill(v):
    n = v.n
    r, k_eff = ref_ratio(v.a, v.c)
    alpha, beta, degenerate = ref_coefficients(v.a, v.b[:n], v.c, v.d[:n], r)
    value = ref_corrected(v.a, v.b, v.c, v.d, alpha, beta)
    variance = r * r / k_eff
    if not degenerate:
        try:
            variance -= ref_plugin(v, r)
        except EstimationError:  # singular in the plug-in's entries alone
            pass
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
    # With every target exceedance joint, mean(z_t - 1) is 0 at the Hill gamma_t.
    every = joint.sum() == (target > t_threshold).sum()
    return (float(((z_t - 1.0) * z_s).mean()),
            0.0 if every else float((z_t - 1.0).mean()))


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


@given(datasets(), st.floats(min_value=-5.0, max_value=5.0))
def test_plug_in_spread_is_the_variance_of_the_combination(case, gamma):
    # The plug-in reads the spread from three covariance entries; by its
    # definition it is the sample variance of s_d*d - s_b*b.
    dataset, k, k_source = case
    stats = SufficientStatistics.of(dataset, k, k_source)
    try:
        value = variance_difference_plugin(stats, gamma)
    except EstimationError:
        return
    assert value >= 0.0
    expected = ref_plugin(ref_variables(dataset, k, k_source), gamma, sample_spread)
    assert math.isclose(value, expected, rel_tol=1e-6)


def test_plug_in_spread_on_theta5_replications(theta5_config):
    k = theta5_config.k
    for index in range(100):
        dataset = generate_dataset(theta5_config, index)
        gamma = hill(dataset.paired_target, k).value
        for l in (20, 60, 100, 140, 400):
            stats = SufficientStatistics.of(dataset, k, l)
            value = variance_difference_plugin(stats, gamma)
            expected = ref_plugin(ref_variables(dataset, k, l), gamma, sample_spread)
            assert value > 0.0
            assert math.isclose(value, expected, rel_tol=1e-12), (index, l)


@pytest.mark.parametrize("scale, offset", [(1e6, 0.0), (1e-6, 0.0), (1e-3, 1e3),
                                           (1e-6, 1e3)])
def test_plug_in_keeps_its_digits_far_from_one(theta5_config, scale, offset):
    # The raw sums take each log less the log of the largest value, so Σb²
    # does not cancel j (ln t)² against ΣL² when the source sits far from 1.
    k = theta5_config.k
    for index in range(5):
        dataset = generate_dataset(theta5_config, index)
        moved = SemiSupervisedDataset(dataset.paired_target,
                                      offset + scale * dataset.paired_source,
                                      offset + scale * dataset.extra_source)
        gamma = hill(moved.paired_target, k).value
        for l in (20, 100, 400):
            stats = SufficientStatistics.of(moved, k, l)
            value = variance_difference_plugin(stats, gamma)
            expected = deviation_plugin(ref_variables(moved, k, l), gamma)
            assert math.isclose(value, expected, rel_tol=1e-10), (index, l)
        assert transferred_hill(moved, k).variance_estimate > 0.0


def tied_source_dataset():
    """80 shuffled coupled rows, 40 of their sources tied at 5.0.

    The other sources are 15 distinct values in 6..20 and 25 below 1. The
    distinct Pareto targets rank with the sources, so 5 of the k = 20
    target exceedances sit on tied rows.
    """
    rng = np.random.default_rng(3)
    source = np.concatenate([np.sort(rng.uniform(6.0, 20.0, 15))[::-1],
                             np.full(40, 5.0),
                             np.sort(rng.uniform(0.0, 1.0, 25))[::-1]])
    target = np.sort(rng.pareto(2.0, 80))[::-1] + 1.0
    rows = rng.permutation(80)
    return SemiSupervisedDataset(target[rows], source[rows], np.ones(400))


def test_plug_in_sums_tied_sources_in_row_order():
    # Σa and Σ(aL) over the tied rows have these bits only in row order, the
    # order of the oracle's stable sort, so an unstable sort fails here.
    dataset = tied_source_dataset()
    gamma = hill(dataset.paired_target, 20).value
    for l in (61, 64, 69, 74):
        stats = SufficientStatistics.of(dataset, 20, l)
        value = variance_difference_plugin(stats, gamma)
        assert value == ref_plugin(ref_variables(dataset, 20, l), gamma), l


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
    assert variance_difference_plugin(stats, 0.25) == 0.0
    assert (ESTIMATORS[Method.TRANSFERRED_HILL](stats).value
            == hill(no_extra.paired_target, theta5_config.k).value)


def test_one_moment_matrix_per_dataset(theta5_dataset, theta5_config):
    stats = SufficientStatistics.of(theta5_dataset, theta5_config.k)
    assert np.array(stats.entries).shape == (6, 6)
    v = ref_variables(theta5_dataset, theta5_config.k, theta5_config.k)
    n = v.n
    expected = ref_cov(v.a, v.g, v.b[:n], v.h[:n], v.c, v.d[:n])
    assert np.array_equal(np.array(stats.entries), expected)


def test_of_applies_the_k_rule_of_the_studies(theta5_dataset):
    ds = theta5_dataset
    with pytest.raises(EstimationError, match="^invalid k$"):
        SufficientStatistics.of(ds, 100, ds.n)
    # Both integer checks come before either range check, as in ExperimentConfig.
    for k in (100, 0):
        with pytest.raises(ValueError, match="^k_source must be an integer$") as error:
            SufficientStatistics.of(ds, k, "3")
        assert type(error.value) is ValueError
    for public in (transferred_hill, transferred_moment, dependence_report,
                   asymptotic_rvr):
        with pytest.raises(EstimationError, match="^invalid k$"):
            public(ds, 100, ds.n)


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


# Each reason the control covariance can be missing, with the dataset and k
# that give it (no dataset: the statistics of one side alone) and λ̂ there.
MISSING_CASES = {
    "no source sample": (None, 3, None),
    "log-transform undefined": (SemiSupervisedDataset(
        np.arange(1.0, 11.0), -np.arange(10.0), [1.0, 2.0]), 3, 0.0),
    "need at least 3 coupled observations": (SemiSupervisedDataset(
        [1.0, 2.0], [1.0, 2.0], [3.0]), 1, 1.0),
}


@pytest.mark.parametrize("reason", list(MISSING_CASES))
def test_every_reader_of_a_missing_covariance_raises_its_reason(reason):
    dataset, k, lambda_hat = MISSING_CASES[reason]
    if dataset is None:
        stats = SufficientStatistics(exceedances(np.arange(1.0, 11.0), k))
        public = []
    else:
        stats = SufficientStatistics.of(dataset, k)
        public = [lambda f=f: f(dataset, k) for f in (
            transferred_hill, transferred_moment, dependence_report, asymptotic_rvr)]
    assert stats.missing == reason
    readers = [
        lambda: stats.coefficients(1, 1.0),
        lambda: stats.coefficients(2, 1.0),
        lambda: stats.corrected_ratio(1, 0.0, 0.0),
        lambda: stats.corrected_ratio(2, 0.0, 0.0),
        lambda: variance_difference_plugin(stats, 0.5),
        lambda: cv_correlations(stats),
        lambda: ESTIMATORS[Method.TRANSFERRED_HILL](stats),
        lambda: ESTIMATORS[Method.TRANSFERRED_MOMENT](stats),
        lambda: _dependence_report(stats),
        lambda: _joint_scaled_excess_moments(stats, None, None),
    ]
    for reader in readers + public:
        with pytest.raises(EstimationError, match=f"^{reason}$"):
            reader()
    record = _diagnostics(stats)
    assert record.pop("lambda_hat") == stats.lambda_hat == lambda_hat
    assert all(math.isnan(value) for value in record.values())


# ------------------------------------- bootstrap resamples read the pool


def ref_subsample(pool, n_sub, with_replacement, seed, index):
    """A resample as a dataset of its own, as bootstrap_study built it, with
    the resample's rows and its extras in pieces."""
    rng = _stream(seed, index, _ROLE_BOOTSTRAP)
    if with_replacement:
        chosen = rng.integers(0, pool.n, size=n_sub)
        rest = np.setdiff1d(np.arange(pool.n), chosen)
    else:
        permutation = rng.permutation(pool.n)
        chosen, rest = permutation[:n_sub], permutation[n_sub:]
    subsample = SemiSupervisedDataset(
        pool.paired_target[chosen], pool.paired_source[chosen],
        np.concatenate([pool.paired_source[rest], pool.extra_source]))
    return subsample, chosen, (pool.paired_source[rest], pool.extra_source)


def state(stats):
    """Every field of a statistics object and of its sides, as bits."""
    sides = []
    for side in (stats.target, stats.source):
        if side is not None:
            sides.append((side.k, side.count, repr((side.threshold, side.m,
                                                    side.means, side.full_means)))
                         + tuple(None if column is None else column.tobytes()
                                 for column in (side.indicator, side.excess, side.square)))
    return sides, repr(stats.lambda_hat), stats.missing, covariance_bytes(stats)


def covariance_bytes(stats):
    """The bits of the control covariance, or None where it is missing."""
    return None if stats.missing else np.array(stats.entries).tobytes()


def readings(stats, gamma):
    """Every estimate and diagnostic the object gives, or its error."""
    def reading(func):
        try:
            return repr(func())
        except EstimationError as error:
            return f"EstimationError: {error}"

    return ([bits(_replication_record(stats, METHODS)),
             reading(lambda: variance_difference_plugin(stats, gamma))]
            + [reading(lambda: ESTIMATORS[method](stats)) for method in METHODS])


def assert_resample_bits(pool, n_sub, k, k_source, with_replacement, seed, index):
    subsample, chosen, pieces = ref_subsample(pool, n_sub, with_replacement, seed, index)
    expected = SufficientStatistics.of(subsample, k, k_source)
    in_place = SufficientStatistics._of_pool(
        pool.paired_target[chosen], pool.paired_source[chosen], pieces, k, k_source)
    assert state(in_place) == state(expected)
    assert readings(in_place, 0.3) == readings(expected, 0.3)
    assert bits(_resample_values(pool, n_sub, k, k_source, METHODS, with_replacement,
                                 seed, index)) == bits(_estimate_values(expected, METHODS))


# n_sub equal to the pool size leaves no rest; ties and values <= 0 included.
@example((SemiSupervisedDataset(paired_target=[1.0, 2.0, 2.0, 3.0],
                                paired_source=[-1.0, 0.0, 2.0, 2.0],
                                extra_source=[2.0, 0.5]), 1, 2), 4, True, 0, 0)
@given(datasets(), st.integers(min_value=3, max_value=25), st.booleans(),
       st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=99))
def test_resample_read_in_place_equals_its_own_dataset(case, n_sub, with_replacement,
                                                       seed, index):
    pool, k, k_source = case
    n_sub = min(n_sub, pool.n)
    assert_resample_bits(pool, n_sub, min(k, n_sub - 1), min(k_source, n_sub - 1),
                         with_replacement, seed, index)


POOLS = {
    "normal": lambda ds: ds,
    "no_extras": lambda ds: SemiSupervisedDataset(ds.paired_target, ds.paired_source),
    "ties": lambda ds: SemiSupervisedDataset(np.round(ds.paired_target, 1),
                                             np.round(ds.paired_source, 0),
                                             np.round(ds.extra_source, 0)),
}


@pytest.mark.parametrize("with_replacement", [False, True])
@pytest.mark.parametrize("pool", sorted(POOLS))
def test_resamples_of_a_normal_source_pool(pool, with_replacement):
    # A standard-normal source: about half its values, and some thresholds,
    # are <= 0.
    config = ExperimentConfig(gamma_t=0.25, theta=5.0, n=400, m=600,
                              source_marginal=Marginal.standard_normal())
    dataset = POOLS[pool](generate_dataset(config, 0))
    for n_sub, k, k_source in ((60, 6, 8), (60, 30, 45), (dataset.n, 40, 40)):
        for index in range(10):
            assert_resample_bits(dataset, n_sub, k, k_source, with_replacement, 5, index)


# ------------------------------------------------ each column summed once


@given(datasets())
def test_means_equal_column_means_bit_for_bit(case):
    dataset, k, k_source = case
    stats = SufficientStatistics.of(dataset, k, k_source)
    for side in (stats.target, stats.source):
        if side is not None and side.excess is not None:
            columns = (side.excess, side.square, side.indicator)
            assert repr(side.means) == repr(tuple(column.mean() for column in columns))
    source = stats.source
    if source is not None and source.excess is not None:
        b, d = log_excess_indicators(
            np.concatenate([dataset.paired_source, dataset.extra_source]),
            source.threshold)
        assert repr(source.full_means) == repr(tuple(
            ref_full_mean(column, d, dataset.n) for column in (b, b * b, d)))


@given(datasets(), st.lists(st.integers(min_value=0, max_value=15), max_size=4))
def test_extras_in_pieces_equal_their_concatenation(case, cuts):
    dataset, k, _ = case
    extra = dataset.extra_source
    pieces = np.split(extra, sorted(min(cut, extra.size) for cut in cuts))
    whole = exceedances(dataset.paired_source, k, extra=(extra,))
    split = exceedances(dataset.paired_source, k, extra=pieces)
    assert (whole.k, whole.count, repr((whole.threshold, whole.m, whole.means,
                                        whole.full_means))) == (
        split.k, split.count, repr((split.threshold, split.m, split.means,
                                    split.full_means)))
    for name in ("indicator", "excess", "square"):
        assert np.array_equal(getattr(whole, name), getattr(split, name))


# ------------------------------------- thresholds by selection, not sorting


def sorted_side(coupled, k, extra=()):
    """One side as the package built it from a full sort: the threshold is
    the (n-k)-th entry of ``np.sort``, and the count a rounded float sum."""
    coupled = np.asarray(coupled, dtype=float)
    n, m = coupled.size, sum(np.size(piece) for piece in extra)
    threshold = float(np.sort(coupled)[n - k - 1])
    mask = coupled > threshold
    indicator = mask.astype(float)
    count = int(round(indicator.sum()))
    if threshold <= 0:
        return Exceedances(k, threshold, indicator, count, m)
    excess = np.zeros(n)
    excess[mask] = np.log(coupled[mask]) - np.log(threshold)
    square = excess * excess
    sums = [np.add.reduce(column) for column in (excess, square, indicator)]
    means = full_means = tuple(total / n for total in sums)
    if m:
        above = np.concatenate([piece[piece > threshold] for piece in extra])
        log_excess = np.log(above) - np.log(threshold)
        more = (np.add.reduce(log_excess), np.add.reduce(log_excess * log_excess),
                above.size)
        full_means = tuple((own + add) / (n + m) for own, add in zip(sums, more))
    return Exceedances(k, threshold, indicator, count, m, excess, square, means,
                       full_means, coupled)


def sorted_statistics(dataset, k, k_source, extra):
    target = sorted_side(dataset.paired_target, k)
    source = sorted_side(dataset.paired_source, k_source, extra)
    at_k = np.sort(dataset.paired_source)[dataset.n - k - 1]
    joint = np.count_nonzero((dataset.paired_target > target.threshold)
                             & (dataset.paired_source > at_k))
    return SufficientStatistics(target, source, float(joint / k))


def side_state(side):
    """Every field of a side as bits. Selection and a sort may pick either of
    two tied zeros, so a zero threshold's sign is dropped (``+ 0.0``): a
    threshold <= 0 takes no log, and no output shows it."""
    return ((side.k, side.count, side.m,
             repr((side.threshold + 0.0, side.means, side.full_means)))
            + tuple(None if column is None else column.tobytes()
                    for column in (side.indicator, side.excess, side.square,
                                   side.values)))


def selection_state(stats):
    return (side_state(stats.target), side_state(stats.source),
            repr(stats.lambda_hat), stats.missing, covariance_bytes(stats))


levels = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
tied = st.one_of(st.floats(allow_nan=False, allow_infinity=False), levels, levels)


@st.composite
def tied_datasets(draw):
    """Datasets whose values often tie, with values <= 0 and zeros of both signs."""
    n = draw(st.integers(min_value=3, max_value=25))
    m = draw(st.integers(min_value=0, max_value=15))
    values = st.lists(tied, min_size=n, max_size=n)
    dataset = SemiSupervisedDataset(
        paired_target=draw(values), paired_source=draw(values),
        extra_source=draw(st.lists(tied, min_size=m, max_size=m)))
    k = draw(st.one_of(st.sampled_from([1, n - 1]), st.integers(1, n - 1)))
    k_source = draw(st.one_of(st.just(k), st.sampled_from([1, n - 1]),
                              st.integers(1, n - 1)))
    return dataset, k, k_source


# Both zeros tie at the threshold, on each side and among the extras.
@example((SemiSupervisedDataset(paired_target=[-0.0, 0.0, -0.0, 0.0, 1.0, 2.0],
                                paired_source=[0.0, -0.0, 3.0, -0.0, 0.0, 1.0],
                                extra_source=[-0.0, 0.0, 4.0]), 2, 3), [1])
@example((SemiSupervisedDataset(paired_target=[2.0, 2.0, 2.0, 1.0],
                                paired_source=[2.0, 1.0, 2.0, 2.0],
                                extra_source=[2.0, 5.0]), 1, 3), [])
@given(tied_datasets(), st.lists(st.integers(min_value=0, max_value=15), max_size=3))
def test_selection_gives_the_state_a_sort_gives(case, cuts):
    dataset, k, k_source = case
    extra = dataset.extra_source
    pieces = tuple(np.split(extra, sorted(min(cut, extra.size) for cut in cuts)))
    for coupled, order, more in ((dataset.paired_target, k, ()),
                                 (dataset.paired_source, k_source, pieces)):
        side, reference = exceedances(coupled, order, extra=more), sorted_side(
            coupled, order, more)
        assert side.threshold == reference.threshold
        assert side_state(side) == side_state(reference)
    expected = selection_state(sorted_statistics(dataset, k, k_source, pieces))
    assert selection_state(SufficientStatistics._of_pool(
        dataset.paired_target, dataset.paired_source, pieces, k, k_source)) == expected
    assert selection_state(SufficientStatistics.of(dataset, k, k_source)) == expected


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=repr)
def test_non_finite_samples_keep_their_messages(bad):
    sample = [1.0, 2.0, bad, 4.0, 5.0]
    message = "^sample contains non-finite entries$"
    funcs = (exceedances, hill, moment, lambda values, k: hill_plot(values, k, 3))
    for func in funcs:
        with pytest.raises(ValueError, match=message) as error:
            func(sample, 2)
        assert type(error.value) is ValueError
    with pytest.raises(ValueError,
                       match="^extra must be one-dimensional pieces of finite values$"):
        exceedances([1.0, 2.0, 3.0, 4.0, 5.0], 2, extra=([6.0], [bad]))
    for func in (exceedances, hill, moment):
        with pytest.raises(EstimationError, match="^empty sample$"):
            func([], 1)
    for shape in ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], 3.0):  # 2-d and 0-d
        for func in funcs:
            with pytest.raises(ValueError, match="^sample must be one-dimensional$"):
                func(shape, 2)


# ------------------------------------------- both sides' columns as one block


def block_state(stats):
    """The columns, means, full means, covariance, λ̂ and joint rows of a
    statistics object."""
    sides = (stats.target, stats.source)
    columns = [side.indicator.tobytes() for side in sides] + [
        column.tobytes() for side in sides if side.excess is not None
        for column in (side.excess, side.square)]
    joint = np.flatnonzero(stats.target.indicator * stats.source.indicator)
    return (columns, repr([(side.means, side.full_means) for side in sides]),
            covariance_bytes(stats),
            repr(stats.lambda_hat), joint.tolist(), stats.missing)


def reference_block_state(dataset, k, k_source, pieces):
    """``block_state`` of two sides each built alone by ``sorted_side``
    (its exceeding values logged alone and scattered into +0.0, each column
    summed alone), with the covariance from ``ref_cov``."""
    target = sorted_side(dataset.paired_target, k)
    source = sorted_side(dataset.paired_source, k_source, pieces)
    entries, missing = None, "log-transform undefined"
    if target.excess is not None and source.excess is not None:
        entries = ref_cov(target.excess, target.square, source.excess, source.square,
                          target.indicator, source.indicator).tolist()
        missing = None
    at_k = np.sort(dataset.paired_source)[dataset.n - k - 1]
    joint = (dataset.paired_target > target.threshold) & (dataset.paired_source > at_k)
    return block_state(SimpleNamespace(
        target=target, source=source, entries=entries,
        lambda_hat=float(np.count_nonzero(joint) / k), missing=missing))


# Ties at both thresholds and values <= 0; then a target and a source whose
# threshold is not positive, each with the other side's positive; then
# n = 3 with k != k_source and extras in two pieces.
@example((SemiSupervisedDataset(paired_target=[2.0, 2.0, 3.0, -1.0, 0.0, 2.0],
                                paired_source=[1.0, 4.0, 1.0, 0.0, -2.0, 1.0],
                                extra_source=[1.0, 5.0, -1.0]), 2, 3), [1])
@example((SemiSupervisedDataset(paired_target=[-1.0, 0.0, 0.0, 2.0],
                                paired_source=[1.0, 2.0, 3.0, 4.0],
                                extra_source=[6.0]), 1, 2), [])
@example((SemiSupervisedDataset(paired_target=[1.0, 2.0, 3.0, 4.0],
                                paired_source=[-3.0, -2.0, 0.0, 4.0],
                                extra_source=[6.0, -1.0]), 2, 1), [1])
@example((SemiSupervisedDataset(paired_target=[1.0, 3.0, 2.0],
                                paired_source=[2.0, 1.0, 3.0],
                                extra_source=[4.0, 0.5, 3.0, 2.5]), 1, 2), [1, 3])
@given(tied_datasets(), st.lists(st.integers(min_value=0, max_value=15), max_size=3))
def test_block_gives_the_state_of_sides_built_apart(case, cuts):
    # The block logs every value clipped at its threshold, so a value at or
    # below it gives ln(t) - ln(t) = +0.0 only if np.log gives a value the
    # same bits wherever it sits in an array; the masked reference logs the
    # exceeding values alone.
    dataset, k, k_source = case
    extra = dataset.extra_source
    pieces = tuple(np.split(extra, sorted(min(cut, extra.size) for cut in cuts)))
    stats = SufficientStatistics._of_pool(dataset.paired_target,
                                          dataset.paired_source, pieces, k, k_source)
    assert block_state(stats) == reference_block_state(dataset, k, k_source, pieces)
    for side, coupled in ((stats.target, dataset.paired_target),
                          (stats.source, dataset.paired_source)):
        if side.excess is not None:
            assert side.excess.base is side.indicator.base is not None
            assert side.values is coupled
    if stats.missing is None:
        assert stats.target.excess.base is stats.source.excess.base
        # Sides that share no block give the same bits.
        apart = SufficientStatistics(
            *(replace(side, excess=side.excess.copy())
              for side in (stats.target, stats.source)), stats.lambda_hat)
        assert apart.target.excess.base is None
        assert block_state(apart) == block_state(stats)


# ----------------------------------------- study values without estimate objects


def assert_values_equal_estimates(stats):
    values = _estimate_values(stats, METHODS)
    expected = {}
    for method in METHODS:
        try:
            expected[method.value] = ESTIMATORS[method](stats).value
        except EstimationError:
            expected[method.value] = float("nan")
    assert bits(values) == bits(expected)
    return values


# One target and one source exceedance: the controls b = e d are collinear,
# so the coefficients are degenerate, and the moment is undefined (its only
# log-excess equals its mean). Then m = 0, and two tied target exceedances.
@example((SemiSupervisedDataset(paired_target=[1.0, 2.0, 3.0, 9.0],
                                paired_source=[1.0, 5.0, 2.0, 3.0],
                                extra_source=[7.0, 1.0]), 1, 1))
@example((SemiSupervisedDataset(paired_target=[1.0, 2.0, 3.0, 9.0, 4.0],
                                paired_source=[1.0, 5.0, 2.0, 3.0, 6.0]), 2, 3))
@example((SemiSupervisedDataset(paired_target=[1.0, 2.0, 5.0, 5.0, 3.0],
                                paired_source=[1.0, 5.0, 2.0, 3.0, 6.0],
                                extra_source=[4.0, 8.0]), 2, 2))
@given(datasets())
def test_study_values_equal_the_estimates_values(case):
    dataset, k, k_source = case
    stats = SufficientStatistics.of(dataset, k, k_source)
    assert_values_equal_estimates(stats)
    # The estimate objects keep the coefficients and the variance.
    try:
        v = ref_variables(dataset, k, k_source)
        r, _ = ref_ratio(v.a, v.c)
        expected = ref_coefficients(v.a, v.b[:v.n], v.c, v.d[:v.n], r)
        variance = ref_transferred_hill(v)[1]
    except ValueError:  # EstimationError included
        return
    estimate = ESTIMATORS[Method.TRANSFERRED_HILL](stats)
    record = estimate.coefficients
    assert (record.alpha, record.beta, record.degenerate) == expected
    assert (record.alpha_prime, record.beta_prime, record.degenerate_second) == (
        None, None, None)
    assert np.float64(estimate.variance_estimate).tobytes() == np.float64(
        variance).tobytes()


def test_study_values_cover_degenerate_and_undefined_cases():
    # The explicit examples above reach every path the test names.
    single = SufficientStatistics.of(SemiSupervisedDataset(
        [1.0, 2.0, 3.0, 9.0], [1.0, 5.0, 2.0, 3.0], [7.0, 1.0]), 1, 1)
    values = assert_values_equal_estimates(single)
    assert ESTIMATORS[Method.TRANSFERRED_HILL](single).coefficients.degenerate
    assert math.isnan(values["moment"]) and math.isnan(values["transferred_moment"])
    assert values["transferred_hill"] == values["hill"]
    no_extra = SufficientStatistics.of(SemiSupervisedDataset(
        [1.0, 2.0, 3.0, 9.0, 4.0], [1.0, 5.0, 2.0, 3.0, 6.0]), 2, 3)
    values = assert_values_equal_estimates(no_extra)
    assert not ESTIMATORS[Method.TRANSFERRED_HILL](no_extra).coefficients.degenerate
    assert values["transferred_hill"] == values["hill"]
    assert values["transferred_moment"] == values["moment"]
