import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from dataclasses import astuple, replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

import tailcv
from tailcv import (
    EstimationError,
    ExperimentConfig,
    Marginal,
    Method,
    SemiSupervisedDataset,
    bootstrap_study,
    generate_dataset,
    hill,
    marginal_for_evi,
    run_rvr_experiment,
    sample_gumbel_copula,
    source_threshold_scan,
    build_cv_variables,
    variance_difference_plugin,
)
from tailcv.simulate import (
    _KEY_BLOCK,
    _ROLE_COUPLED,
    _ROLE_EXTRA,
    _open_unit,
    _scan_block,
    _stream,
    _stream_keys,
)


# ---------------------------------------------------------------- marginals

def test_pareto_quantile_hand_values():
    assert abs(Marginal.pareto(1.0, y_m=1.0).quantile(0.75) - 4.0) < 1e-12
    assert abs(Marginal.pareto(1.0, y_m=1.0).quantile(1e-15) - 1.0) < 1e-12


def test_beta_quantile_hand_value():
    assert abs(Marginal.beta(2.0).quantile(0.75) - 0.5) < 1e-12


def test_normal_quantile_values():
    normal = Marginal.standard_normal()
    assert normal.quantile(0.5) == 0.0
    assert abs(normal.quantile(0.975) - 1.959963984540054) < 1e-9


@pytest.mark.parametrize("marginal", [Marginal.pareto(0.5),
                                      Marginal.standard_normal(),
                                      Marginal.beta(2.0)])
def test_quantile_rejects_nan_uniforms(marginal):
    for u in (np.array([0.5, np.nan]), np.array([np.nan, 0.5]), np.nan):
        with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
            marginal.quantile(u)


def test_marginal_evi():
    assert Marginal.pareto(0.7).evi == 0.7
    assert Marginal.standard_normal().evi == 0.0
    assert Marginal.beta(4.0).evi == -0.25


def test_marginal_for_evi_families():
    assert marginal_for_evi(0.5).family == "pareto"
    assert marginal_for_evi(0.0).family == "normal"
    negative = marginal_for_evi(-0.5)
    assert negative.family == "beta"
    assert abs(negative.evi + 0.5) < 1e-15


def test_marginal_validation():
    with pytest.raises(ValueError):
        Marginal.pareto(-1.0)
    with pytest.raises(ValueError):
        Marginal.beta(0.0)
    with pytest.raises(ValueError):
        Marginal.pareto(1.0).quantile(0.0)
    with pytest.raises(ValueError):
        Marginal.pareto(1.0).quantile(1.0)


@pytest.mark.parametrize("factory,name", [
    (lambda value: Marginal.pareto(value), "gamma"),
    (lambda value: Marginal.pareto(1.0, y_m=value), "y_m"),
    (lambda value: Marginal.beta(value), "shape_b"),
    (lambda value: marginal_for_evi(value), "gamma"),
], ids=["pareto-gamma", "pareto-y_m", "beta-shape_b", "marginal_for_evi"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_marginal_rejects_non_finite_parameters(factory, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        factory(value)


@pytest.mark.parametrize("gamma,y_m,accepted", [
    # The power alone overflows once 53 * gamma >= 1024.
    (19.3, 1e-3, True), (19.4, 1e-3, False),
    # Then y_m times the power does.
    (0.5, 1e300, True), (0.5, 1e301, False),
])
def test_pareto_quantile_is_finite_at_the_largest_uniform(gamma, y_m, accepted):
    if not accepted:
        with pytest.raises(ValueError, match="^pareto marginal overflows"):
            Marginal.pareto(gamma, y_m)
        return
    largest = Marginal.pareto(gamma, y_m)._quantile(_open_unit(np.ones(1)))
    assert np.isfinite(largest).all()


def test_marginal_ignores_parameters_its_family_does_not_use():
    normal = Marginal(family="normal", gamma=float("nan"), shape_b=float("inf"))
    assert normal.quantile(0.5) == 0.0
    assert Marginal(family="beta", shape_b=2.0, gamma=float("nan")).evi == -0.5


def test_pareto_quantile_cdf_round_trip():
    marginal = Marginal.pareto(0.5, y_m=1e-3)
    u = np.linspace(0.001, 0.999, 97)
    np.testing.assert_allclose(marginal.cdf(marginal.quantile(u)), u,
                               atol=1e-12)


# ------------------------------------------------------------------ copula

def test_copula_rejects_theta_below_one():
    rng = _stream(0, 0, 0)
    with pytest.raises(ValueError):
        sample_gumbel_copula(0.9, 10, rng)
    # NaN gave NaN uniforms and infinity a ZeroDivisionError.
    for theta in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^theta must be finite$"):
            sample_gumbel_copula(theta, 10, rng)


def test_copula_outputs_in_open_interval():
    rng = _stream(0, 0, 0)
    for theta in (1.0, 2.0, 10.0):
        u1, u2 = sample_gumbel_copula(theta, 10_000, rng)
        for u in (u1, u2):
            assert u.min() > 0.0 and u.max() < 1.0


def test_open_unit_clips_in_place_with_the_bits_of_np_clip():
    tiny = np.finfo(float).tiny
    values = [0.0, 5e-324, tiny, 0.5, 1.0 - 2.0 ** -53, 1.0, np.nan]
    expected = np.clip(np.array(values), tiny, np.nextafter(1.0, 0.0))
    u = np.array(values)
    assert _open_unit(u) is u
    assert u.tobytes() == expected.tobytes()


@pytest.mark.parametrize("gamma_s", [0.5, 0.0, -0.25])
def test_generation_has_the_bits_of_the_checked_quantile(gamma_s):
    # Generation applies the quantile formula unchecked to clipped uniforms.
    config = ExperimentConfig(gamma_t=0.25, theta=5.0, n=300, m=200,
                              source_marginal=marginal_for_evi(gamma_s),
                              replications=2, seed=9)
    dataset = generate_dataset(config, 1)
    u_target, u_source = sample_gumbel_copula(
        config.theta, config.n, _stream(config.seed, 1, _ROLE_COUPLED))
    u_extra = np.clip(_stream(config.seed, 1, _ROLE_EXTRA).random(config.m),
                      np.finfo(float).tiny, np.nextafter(1.0, 0.0))
    for values, marginal, u in (
            (dataset.paired_target, config.target_marginal, u_target),
            (dataset.paired_source, config.source_marginal, u_source),
            (dataset.extra_source, config.source_marginal, u_extra)):
        assert values.tobytes() == marginal.quantile(u).tobytes()
    for edge in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"strictly inside \(0, 1\)"):
            config.source_marginal.quantile(edge)


def test_copula_independence_at_theta_one():
    rng = _stream(31, 0, 0)
    u1, u2 = sample_gumbel_copula(1.0, 100_000, rng)
    assert abs(stats.kendalltau(u1, u2).statistic) < 0.01


# ------------------------------------------------------------------- config

def test_config_defaults():
    config = ExperimentConfig(gamma_t=0.5, theta=2.0, n=1000, m=500,
                              source_marginal=Marginal.pareto(1.0))
    assert config.k == 100
    assert config.k_source == 100
    assert config.estimators == (Method.HILL, Method.MOMENT,
                                 Method.TRANSFERRED_HILL,
                                 Method.TRANSFERRED_MOMENT)


@pytest.mark.parametrize("n", [3, 4, 5, 14, 15])
def test_default_k_is_at_least_one(n):
    # round(0.1 * n) is 0 for n <= 5, which used to raise "invalid k".
    config = ExperimentConfig(gamma_t=0.5, theta=2.0, n=n, m=10,
                              source_marginal=Marginal.pareto(1.0))
    assert config.k == config.k_source == max(1, round(0.1 * n))


def test_config_accepts_method_names():
    config = ExperimentConfig(gamma_t=0.5, theta=2.0, n=100, m=0,
                              source_marginal=Marginal.pareto(1.0),
                              estimators=("hill", "transferred_hill"))
    assert config.estimators == (Method.HILL, Method.TRANSFERRED_HILL)


@pytest.mark.parametrize("kwargs", [
    dict(gamma_t=-1.0), dict(theta=0.5), dict(n=1), dict(m=-1),
    dict(k=0), dict(k=1000), dict(replications=0), dict(seed=-1),
    dict(estimators=("hill", "hill")),
    # Two pairs used to pass here and abort the study mid-run.
    dict(n=2, k=1),
    # So did a theta whose copula draws can overflow (theta = 200 did).
    dict(theta=20.5),
])
def test_config_validation(kwargs):
    base = dict(gamma_t=0.5, theta=2.0, n=1000, m=500,
                source_marginal=Marginal.pareto(1.0))
    base.update(kwargs)
    with pytest.raises(ValueError):
        ExperimentConfig(**base)


@pytest.mark.parametrize("name", ["gamma_t", "theta", "y_m"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_config_rejects_non_finite_parameters(name, value):
    # NaN passed every comparison here and failed in replication 0 with a
    # non-finite dataset.
    base = dict(gamma_t=0.5, theta=2.0, n=100, m=50,
                source_marginal=Marginal.pareto(1.0))
    base[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        ExperimentConfig(**base)


# ------------------------------------------------------------------ datasets

def test_generate_dataset_shapes_and_determinism():
    config = ExperimentConfig(gamma_t=0.5, theta=5.0, n=200, m=300,
                              source_marginal=Marginal.pareto(1.0), seed=42)
    first = generate_dataset(config, 7)
    again = generate_dataset(config, 7)
    np.testing.assert_array_equal(first.paired_target, again.paired_target)
    np.testing.assert_array_equal(first.paired_source, again.paired_source)
    np.testing.assert_array_equal(first.extra_source, again.extra_source)
    assert (first.n, first.m) == (200, 300)
    other = generate_dataset(config, 8)
    assert not np.array_equal(first.paired_target, other.paired_target)


def test_generate_dataset_m_zero():
    config = ExperimentConfig(gamma_t=0.5, theta=5.0, n=50, m=0,
                              source_marginal=Marginal.pareto(1.0))
    assert generate_dataset(config, 0).m == 0


def test_extra_uniform_of_zero_does_not_abort_the_study():
    # Generator.random returns exactly 0.0 with probability 2**-53 per draw.
    class ZeroFirst:
        def __init__(self, rng):
            self.rng = rng

        def random(self, size):
            u = self.rng.random(size)
            u[0] = 0.0
            return u

    def stream(seed, index, role):
        rng = _stream(seed, index, role)
        return ZeroFirst(rng) if role == _ROLE_EXTRA else rng

    config = ExperimentConfig(gamma_t=0.25, theta=5.0, n=100, m=50, k=10,
                              source_marginal=Marginal.standard_normal(),
                              replications=3, seed=5)
    plain = generate_dataset(config, 0)
    with mock.patch("tailcv.simulate._stream", stream):
        stubbed = generate_dataset(config, 0)
        report = run_rvr_experiment(config, workers=1)
    assert np.isfinite(stubbed.extra_source[0])
    np.testing.assert_array_equal(stubbed.extra_source[1:], plain.extra_source[1:])
    np.testing.assert_array_equal(stubbed.paired_source, plain.paired_source)
    assert report.replications == 3


def test_generate_dataset_strong_dependence_log_correlation():
    config = ExperimentConfig(gamma_t=0.25, theta=10.0, n=1000, m=0,
                              source_marginal=Marginal.pareto(0.5), seed=3)
    for index in range(10):
        ds = generate_dataset(config, index)
        corr = np.corrcoef(np.log(ds.paired_target),
                           np.log(ds.paired_source))[0, 1]
        assert corr > 0.9


def test_source_marginal_families_generate():
    for marginal in (Marginal.standard_normal(), Marginal.beta(2.0)):
        config = ExperimentConfig(gamma_t=0.5, theta=3.0, n=100, m=50,
                                  source_marginal=marginal)
        ds = generate_dataset(config, 0)
        assert ds.n == 100 and ds.m == 50


# ----------------------------------------------------------------- runner

def test_runner_reports_requested_estimators_only():
    config = ExperimentConfig(gamma_t=0.5, theta=5.0, n=200, m=400,
                              source_marginal=Marginal.pareto(1.0),
                              replications=30, estimators=("hill",))
    report = run_rvr_experiment(config)
    assert set(report.estimates) == {"hill"}
    assert report.pairs == ()
    assert report.replications == 30


def test_runner_requires_two_replications():
    config = ExperimentConfig(gamma_t=0.5, theta=5.0, n=200, m=0,
                              source_marginal=Marginal.pareto(1.0),
                              replications=1)
    with pytest.raises(ValueError):
        run_rvr_experiment(config)


def test_runner_deterministic_across_reruns():
    config = ExperimentConfig(gamma_t=0.5, theta=5.0, n=200, m=400,
                              source_marginal=Marginal.pareto(1.0),
                              replications=40, seed=99)
    first = run_rvr_experiment(config)
    again = run_rvr_experiment(config)
    parallel = run_rvr_experiment(config, workers=2)
    for name in first.estimates:
        np.testing.assert_array_equal(first.estimates[name],
                                      again.estimates[name])
        np.testing.assert_array_equal(first.estimates[name],
                                      parallel.estimates[name])
    assert first.pairs == again.pairs
    assert parallel.to_dict() == first.to_dict()


COLD_START = textwrap.dedent('''
    import sys

    import numpy as np

    def loaded():
        return sorted(name for name in sys.modules
                      if name.split(".")[0] in ("scipy", "concurrent"))

    import tailcv.cli
    from tailcv import ExperimentConfig, Marginal, run_rvr_experiment

    assert loaded() == [], loaded()
    u = np.linspace(1e-9, 1 - 1e-9, 1001)
    for marginal in (Marginal.pareto(0.5), Marginal.beta(3.0)):
        marginal.cdf(marginal.quantile(u))
    config = ExperimentConfig(gamma_t=0.5, theta=2.0, n=50, m=20,
                              source_marginal=Marginal.pareto(1.0),
                              replications=3)
    run_rvr_experiment(config, workers=1)
    from tailcv import bootstrap_study, generate_dataset
    bootstrap_study(generate_dataset(config, 0), n_sub=30, resamples=3, k=3)
    assert loaded() == [], loaded()

    normal = Marginal.standard_normal()
    quantile, cdf = normal.quantile(u), normal.cdf(u * 16 - 8)
    from scipy.special import ndtr, ndtri
    assert quantile.tobytes() == ndtri(u).tobytes()
    assert cdf.tobytes() == ndtr(u * 16 - 8).tobytes()
    print("ok")
''')


def test_cold_start_loads_neither_scipy_nor_the_process_pool():
    # pytest's own process already holds scipy, so a fresh interpreter
    # checks what importing the package and a serial Pareto study and
    # bootstrap load.
    root = os.path.dirname(os.path.dirname(os.path.abspath(tailcv.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_runner_flags_unstable_configuration():
    # k = 1 leaves one exceedance, where the moment estimator is undefined:
    # 1 - m1**2/m2 is 0, or a few ulps after rounding, in every replication.
    config = ExperimentConfig(gamma_t=1.0, theta=1.0, n=10, m=0, k=1,
                              source_marginal=Marginal.pareto(1.0),
                              replications=20, estimators=("moment",))
    with pytest.raises(EstimationError, match="unstable configuration: "
                       "moment failed in 20/20 replications"):
        run_rvr_experiment(config)


def test_runner_rvr_from_reported_variances():
    config = ExperimentConfig(gamma_t=0.5, theta=5.0, n=200, m=400,
                              source_marginal=Marginal.pareto(1.0),
                              replications=60, seed=12)
    report = run_rvr_experiment(config)
    for pair in report.pairs:
        expected = ((pair.variance_baseline - pair.variance_transferred)
                    / pair.variance_baseline)
        assert pair.rvr == expected
        assert pair.variance_baseline >= 0.0
        assert pair.variance_transferred >= 0.0


def test_report_to_dict_is_json_clean():
    pareto = ExperimentConfig(gamma_t=0.5, theta=5.0, n=200, m=400,
                              source_marginal=Marginal.pareto(1.0),
                              replications=30, seed=1)
    # k = 150 puts the normal source threshold below zero in every
    # replication, so the control diagnostics are NaN throughout.
    normal = ExperimentConfig(gamma_t=0.5, theta=5.0, n=200, m=400,
                              source_marginal=Marginal.standard_normal(),
                              k=150, replications=30, seed=1,
                              estimators=("hill", "moment"))
    for config in (pareto, normal):
        payload = run_rvr_experiment(config).to_dict()
        json.dumps(payload, allow_nan=False)
        assert list(payload) == ["config", "replications", "summaries", "pairs",
                                 "dependence", "asymptotic_rvr_mean"]
        assert payload["config"]["n"] == 200
        assert set(payload["summaries"]) == {m.value for m in config.estimators}
        for summary in payload["summaries"].values():
            assert list(summary) == ["mean", "variance", "bias", "failures"]
    assert payload["config"]["source_marginal"] == {"family": "normal"}
    assert payload["dependence"]["corr_ab"] is None
    assert payload["asymptotic_rvr_mean"] is None


def test_the_traced_readers_are_the_functions_that_run():
    # The benchmark times a reader by wrapping its module-level name, so that
    # name must hold the code the studies and estimators call.
    config = ExperimentConfig(gamma_t=0.25, theta=10.0, n=1000, m=5000, k=100,
                              source_marginal=Marginal.pareto(0.5),
                              replications=2, seed=20260826)
    dependence = tailcv.dependence
    with mock.patch.object(dependence, "cv_correlations",
                           wraps=dependence.cv_correlations) as correlations:
        tailcv.simulate._run_replication(config, 0)
    assert correlations.call_count == 1
    dataset = generate_dataset(config, 0)
    stats = tailcv.SufficientStatistics.of(dataset, config.k)
    with mock.patch.object(tailcv.transfer, "variance_difference_plugin",
                           wraps=tailcv.transfer.variance_difference_plugin) as plug_in:
        tailcv.simulate._estimate_values(stats, config.estimators)
        assert plug_in.call_count == 0
        estimate = tailcv.transferred_hill(dataset, config.k)
    assert plug_in.call_count == 1
    assert not estimate.coefficients.degenerate


# ------------------------------------------------------------------- scan

def test_scan_single_l_matches_direct_computation():
    config = ExperimentConfig(gamma_t=0.5, theta=5.0, n=200, m=400,
                              source_marginal=Marginal.pareto(1.0),
                              replications=25, seed=6)
    points = source_threshold_scan(config, [20])
    direct = []
    for index in range(config.replications):
        ds = generate_dataset(config, index)
        baseline = hill(ds.paired_target, config.k)
        variables = build_cv_variables(ds, config.k, 20)
        direct.append(baseline.variance_estimate
                      - variance_difference_plugin(variables, baseline.value))
    assert points[0].l == 20
    assert points[0].median == np.median(direct)
    assert points[0].failed == 0


def test_scan_independent_source_matches_baseline_variance():
    config = ExperimentConfig(gamma_t=0.25, theta=1.0, n=1000, m=5000,
                              source_marginal=Marginal.pareto(0.5), k=100,
                              replications=300, seed=5)
    point = source_threshold_scan(config, [100])[0]
    baseline = np.median([
        hill(generate_dataset(config, index).paired_target, 100).variance_estimate
        for index in range(config.replications)
    ])
    assert abs(point.median / baseline - 1.0) < 0.10


def test_scan_validates_l_range():
    config = ExperimentConfig(gamma_t=0.5, theta=5.0, n=200, m=0,
                              source_marginal=Marginal.pareto(1.0),
                              replications=5)
    with pytest.raises(EstimationError, match="invalid k"):
        source_threshold_scan(config, [0])
    with pytest.raises(EstimationError, match="invalid k"):
        source_threshold_scan(config, [200])
    with pytest.raises(ValueError):
        source_threshold_scan(config, [])


def public_scan_cell(dataset, k, l):
    """One scan cell from the public calls; NaN where they raise."""
    try:
        baseline = hill(dataset.paired_target, k)
        variables = build_cv_variables(dataset, k, l)
        return (baseline.variance_estimate
                - variance_difference_plugin(variables, baseline.value))
    except EstimationError:
        return float("nan")


def scan_cells(config, l_values, indices):
    """The scan's cells of replications ``indices``, one row per replication,
    from one block."""
    return _scan_block(config, np.array(l_values), indices).T


def cell_bits(values):
    return [None if np.isnan(value) else np.float64(value).tobytes()
            for value in values]


# Few levels, so ties are common; the source may go non-positive.
levels = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0]),
                   st.floats(min_value=-5.0, max_value=1e4))


@st.composite
def coupled_samples(draw):
    n = draw(st.integers(min_value=3, max_value=40))
    m = draw(st.integers(min_value=0, max_value=20))
    dataset = SemiSupervisedDataset(
        paired_target=draw(st.lists(levels, min_size=n, max_size=n)),
        paired_source=draw(st.lists(levels, min_size=n, max_size=n)),
        extra_source=draw(st.lists(levels, min_size=m, max_size=m)))
    return dataset, draw(st.integers(min_value=1, max_value=n - 1))


def assert_scan_cells_equal_the_public_plug_in(datasets, k, l_values):
    """One scan block of ``datasets``, all of one n and m, one row each."""
    config = ExperimentConfig(gamma_t=0.5, theta=2.0, n=datasets[0].n,
                              m=datasets[0].m, source_marginal=Marginal.pareto(1.0),
                              k=k, replications=len(datasets))
    pairs = [(dataset.paired_target, dataset.paired_source) for dataset in datasets]
    with mock.patch("tailcv.simulate._coupled_pairs",
                    lambda config, index: pairs[index]):
        rows = scan_cells(config, l_values, range(len(datasets)))
    for dataset, row in zip(datasets, rows):
        assert cell_bits(row) == cell_bits(
            [public_scan_cell(dataset, k, l) for l in l_values])


@given(coupled_samples())
def test_scan_cells_equal_the_public_plug_in(case):
    dataset, k = case
    assert_scan_cells_equal_the_public_plug_in([dataset], k,
                                               tuple(range(1, dataset.n)))


@st.composite
def scan_subsets(draw):
    """A coupled sample, k and l values, any order, all below n - 1.

    With l_max < n - 1 the scan sorts only the rows at or above its
    (l_max + 1)-th largest source value. A quarter of the sources are one
    repeated value.
    """
    dataset, k = draw(coupled_samples())
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        dataset = SemiSupervisedDataset(
            dataset.paired_target, np.full(dataset.n, draw(levels)),
            dataset.extra_source)
    l_values = draw(st.lists(st.integers(min_value=1, max_value=dataset.n - 2),
                             min_size=1, max_size=8))
    return dataset, k, tuple(l_values)


def hand_scan_case(source, l_values):
    target = np.arange(1.0, len(source) + 1.0)
    return (SemiSupervisedDataset(target, np.array(source), np.ones(4)), 3,
            l_values)


def tied_source_case(l_values):
    """80 shuffled rows, 40 sources tied at 5.0 and 5 target exceedances among them.

    The other sources are 15 distinct values in 6..20 and 25 below 1, and
    the distinct Pareto targets rank with the sources; k = 20.
    """
    rng = np.random.default_rng(3)
    source = np.concatenate([np.sort(rng.uniform(6.0, 20.0, 15))[::-1],
                             np.full(40, 5.0),
                             np.sort(rng.uniform(0.0, 1.0, 25))[::-1]])
    target = np.sort(rng.pareto(2.0, 80))[::-1] + 1.0
    rows = rng.permutation(80)
    return (SemiSupervisedDataset(target[rows], source[rows], np.ones(400)), 20,
            l_values)


@given(scan_subsets())
# One source value throughout.
@example(hand_scan_case([2.0] * 7, (1, 3)))
# ranked = [3, 2, 1, 1, 1, 1, 0.5]: ranked[l_max] ties with rows after it.
@example(hand_scan_case([1.0, 3.0, 1.0, 2.0, 1.0, 0.5, 1.0], (2, 1)))
# ranked = [2, 1, 0, 0, -1, -1, -1]: thresholds at and below 0, tied.
@example(hand_scan_case([-1.0, 0.0, 2.0, -1.0, 0.0, -1.0, 1.0], (4, 1, 2, 3)))
# The sums over the tied rows have the public bits only in row order, so an
# unstable sort of the top rows fails here.
@example(tied_source_case((61, 64, 69, 74)))
def test_scan_cells_over_some_l_equal_the_public_plug_in(case):
    dataset, k, l_values = case
    assert_scan_cells_equal_the_public_plug_in([dataset], k, l_values)


@st.composite
def scan_blocks(draw):
    """One to four different coupled samples of one n and m, k and l values.

    A quarter of the sources are one repeated value. The rows' thresholds,
    counts above them and baseline failures differ, so a block mixes them.
    """
    n = draw(st.integers(min_value=3, max_value=40))
    m = draw(st.integers(min_value=0, max_value=20))
    datasets = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        source = draw(st.lists(levels, min_size=n, max_size=n))
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            source = [source[0]] * n
        datasets.append(SemiSupervisedDataset(
            draw(st.lists(levels, min_size=n, max_size=n)), source,
            draw(st.lists(levels, min_size=m, max_size=m))))
    l_values = draw(st.lists(st.integers(min_value=1, max_value=n - 1),
                             min_size=1, max_size=8))
    return datasets, draw(st.integers(min_value=1, max_value=n - 1)), tuple(l_values)


@given(scan_blocks())
# One block: a constant source, thresholds at and below 0, ties at the cut,
# and a target with no exceedances.
@example(([SemiSupervisedDataset(np.arange(1.0, 8.0), source, np.ones(4))
           for source in ([2.0] * 7, [-1.0, 0.0, 2.0, -1.0, 0.0, -1.0, 1.0],
                          [1.0, 3.0, 1.0, 2.0, 1.0, 0.5, 1.0])]
          + [SemiSupervisedDataset(np.ones(7), np.arange(7.0), np.ones(4))],
          3, (1, 2, 4, 6)))
def test_scan_blocks_of_mixed_rows_equal_the_public_plug_in(case):
    assert_scan_cells_equal_the_public_plug_in(*case)


def test_scan_draws_only_the_coupled_pairs():
    config = ExperimentConfig(gamma_t=0.25, theta=5.0, n=1000, m=5000, k=100,
                              source_marginal=Marginal.pareto(0.5),
                              replications=4, seed=11)
    l_values = (20, 60, 100, 140, 400)
    roles = []

    def stream(seed, index, role):
        roles.append(role)
        return _stream(seed, index, role)

    with mock.patch("tailcv.simulate._stream", stream):
        source_threshold_scan(config, l_values, workers=1)
        rows = scan_cells(config, l_values, range(config.replications))
    assert roles == [_ROLE_COUPLED] * (2 * config.replications)
    for index, row in enumerate(rows):
        dataset = generate_dataset(config, index)
        assert dataset.m == config.m
        assert cell_bits(row) == cell_bits(
            [public_scan_cell(dataset, config.k, l) for l in l_values])


def test_config_rejects_a_target_quantile_that_overflows():
    # The largest targets would overflow the Pareto quantile at this index.
    with pytest.raises(ValueError, match="^pareto marginal overflows"):
        ExperimentConfig(gamma_t=200.0, theta=2.0, n=200, m=50, k=20,
                         source_marginal=Marginal.pareto(0.5), replications=2)


def test_scan_rejects_a_non_finite_coupled_value_as_generate_dataset_does():
    config = ExperimentConfig(gamma_t=0.5, theta=2.0, n=200, m=50, k=20,
                              source_marginal=Marginal.pareto(0.5),
                              replications=2)
    target, source = tailcv.simulate._coupled_pairs(config, 0)
    target[np.argmax(target)] = np.inf
    message = "paired_target contains non-finite entries"
    with mock.patch("tailcv.simulate._coupled_pairs", return_value=(target, source)):
        with pytest.raises(ValueError, match=message):
            generate_dataset(config, 0)
        with pytest.raises(ValueError, match=message):
            source_threshold_scan(config, [20], workers=1)


def test_scan_rejects_a_non_finite_source_value_as_generate_dataset_does():
    config = ExperimentConfig(gamma_t=0.5, theta=2.0, n=200, m=50, k=20,
                              source_marginal=Marginal.pareto(0.5),
                              replications=2)
    target, source = tailcv.simulate._coupled_pairs(config, 0)
    source[np.argmin(source)] = np.nan
    message = "paired_source contains non-finite entries"
    with mock.patch("tailcv.simulate._coupled_pairs", return_value=(target, source)):
        with pytest.raises(ValueError, match=message):
            generate_dataset(config, 0)
        with pytest.raises(ValueError, match=message):
            source_threshold_scan(config, [20], workers=1)


def test_scan_summaries_mix_finite_and_failed_cells():
    # Near l = n/2 the normal source threshold is positive in some
    # replications only, so those columns mix finite and failed cells.
    config = ExperimentConfig(gamma_t=0.5, theta=3.0, n=60, m=40,
                              source_marginal=Marginal.standard_normal(), k=6,
                              replications=30, seed=3)
    l_values = tuple(range(15, 46))
    points = source_threshold_scan(config, l_values)
    matrix = scan_cells(config, l_values, range(config.replications))
    failed = np.isnan(matrix).sum(axis=0)
    assert failed[0] == 0 and failed[-1] == config.replications
    assert np.any((failed > 0) & (failed < config.replications))
    # Keep a column with one finite cell, where numpy takes both neighbours
    # and gamma at its top bound, and a partial count held by two columns.
    counts = config.replications - failed
    assert np.any(counts == 1)
    partial = counts[(counts > 0) & (counts < config.replications)]
    assert np.unique(partial, return_counts=True)[1].max() >= 2
    assert_points_summarize(points, matrix.T)


def assert_points_summarize(points, columns):
    """Each point has numpy's percentiles of its column's finite cells, bit for
    bit, and counts its negative and failed cells."""
    for point, column in zip(points, columns):
        finite = column[np.isfinite(column)]
        if finite.size:
            expected = np.percentile(finite, [25.0, 50.0, 75.0])
        else:
            expected = np.full(3, np.nan)
        assert cell_bits([point.q1, point.median, point.q3]) == cell_bits(expected)
        assert point.negative_count == np.count_nonzero(finite < 0)
        assert point.failed == column.size - finite.size


@st.composite
def scan_columns(draw):
    """Scan cells as (l, replication) columns: 0 to 3 finite cells each,
    the rest NaN, with ties and zeros.

    A column's zeros share one sign. A scan cell is never -0.0 (it is
    x - y with x = value² / count), and where +0.0 and -0.0 tie, numpy's
    percentile takes whichever its partition leaves in place.
    """
    replications = draw(st.integers(min_value=1, max_value=6))
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        zero = draw(st.sampled_from([0.0, -0.0]))
        finite = draw(st.lists(
            st.one_of(st.sampled_from([zero, 1.0, -1.0, 2.5]),
                      st.floats(min_value=-1e6, max_value=1e6).map(
                          lambda value: value or zero)),
            max_size=min(3, replications)))
        column = finite + [np.nan] * (replications - len(finite))
        columns.append(draw(st.permutations(column)))
    return np.array(columns)


@given(scan_columns())
# numpy's top-bound rule: one cell has both neighbours at it and gamma 1.
@example(np.array([[-0.0]]))
@example(np.array([[np.nan, -0.0, np.nan], [-0.0, 2.5, -0.0], [np.nan] * 3]))
def test_scan_quartiles_equal_numpys_percentile(columns):
    config = ExperimentConfig(gamma_t=0.5, theta=2.0, n=40, m=0, k=4,
                              source_marginal=Marginal.pareto(1.0),
                              replications=columns.shape[1])
    l_values = tuple(range(1, len(columns) + 1))
    with mock.patch("tailcv.simulate._scan_block",
                    lambda config, l_index, block: columns[:, list(block)]):
        points = source_threshold_scan(config, l_values)
    assert_points_summarize(points, columns)


def test_scan_blocks_give_every_cell_the_public_plug_in(monkeypatch):
    # Blocks of 3 over 11 replications of a normal source, so thresholds at
    # or below 0 fall in every block. Replication 4, mid-block, has a target
    # with no exceedances, so its baseline fails; replication 7 has its
    # source rounded, so values tie at the cut of the partial sort.
    config = ExperimentConfig(gamma_t=0.5, theta=3.0, n=40, m=30, k=4,
                              source_marginal=Marginal.standard_normal(),
                              replications=11, seed=8)
    l_values = tuple(range(1, 30))
    coupled = tailcv.simulate._coupled_pairs

    def pairs(config, index):
        target, source = coupled(config, index)
        if index == 4:
            target = np.ones_like(target)
        if index == 7:
            source = np.round(source, 1)
        return target, source

    blocks = []

    def spy(config, l_index, indices):
        blocks.append((indices, _scan_block(config, l_index, indices)))
        return blocks[-1][1]

    monkeypatch.setattr(tailcv.simulate, "_coupled_pairs", pairs)
    monkeypatch.setattr(tailcv.simulate, "_scan_block", spy)
    monkeypatch.setattr(tailcv.simulate, "_SCAN_BLOCK_CELLS", 3 * len(l_values))
    points = source_threshold_scan(config, l_values)
    assert [list(indices) for indices, _ in blocks] == [
        [0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10]]
    matrix = np.hstack([cells for _, cells in blocks]).T
    for index, row in enumerate(matrix):
        dataset = generate_dataset(config, index)
        assert cell_bits(row) == cell_bits(
            [public_scan_cell(dataset, config.k, l) for l in l_values])
    # Around the failed baseline, finite cells and cells over thresholds at
    # or below 0.
    assert np.isnan(matrix[4]).all()
    for index in (3, 5):
        assert np.isfinite(matrix[index, 1])
        assert np.sort(pairs(config, index)[1])[::-1][max(l_values)] <= 0
    cut = config.n - 1 - max(l_values)
    source = pairs(config, 7)[1]
    assert np.count_nonzero(source == np.partition(source, cut)[cut]) > 1
    assert [point.failed for point in points] == np.isnan(matrix).sum(axis=0).tolist()


def test_scan_points_are_equal_at_one_and_two_workers():
    # Three blocks and one replication more, over every l of a normal source.
    l_values = range(1, 60)
    length = tailcv.simulate._SCAN_BLOCK_CELLS // len(l_values)
    config = ExperimentConfig(gamma_t=0.5, theta=3.0, n=60, m=40, k=6,
                              source_marginal=Marginal.standard_normal(),
                              replications=3 * length + 1, seed=5)
    serial, parallel = (
        [value for point in source_threshold_scan(config, l_values, workers=workers)
         for value in astuple(point)] for workers in (1, 2))
    assert cell_bits(serial) == cell_bits(parallel)


def test_a_wide_scan_holds_one_block_of_records_at_a_time():
    # With 4 blocks the peak exceeds the peak with 1 block by at most twice
    # the 3 more blocks' cells (returned, then joined); a scan that held
    # every replication's record at once would exceed it by far more.
    config = ExperimentConfig(gamma_t=0.25, theta=5.0, n=1000, m=5000, k=100,
                              source_marginal=Marginal.pareto(0.5),
                              replications=1, seed=2)
    l_values = range(1, config.n)
    length = tailcv.simulate._SCAN_BLOCK_CELLS // len(l_values)
    source_threshold_scan(config, l_values)
    peaks = []
    for blocks in (1, 4):
        tracemalloc.start()
        try:
            source_threshold_scan(
                replace(config, replications=blocks * length), l_values)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    more_cells = 3 * length * len(l_values) * np.dtype(float).itemsize
    assert peaks[1] - peaks[0] <= 2 * more_cells


# --------------------------------------------------------------- bootstrap

@pytest.fixture(scope="module")
def bootstrap_pool():
    config = ExperimentConfig(gamma_t=0.25, theta=5.0, n=6000, m=0,
                              source_marginal=Marginal.pareto(0.5),
                              replications=2, seed=42)
    return generate_dataset(config, 0)


def test_bootstrap_deterministic(bootstrap_pool):
    # Resamples are keyed by (seed, index, role), so neither a rerun nor the
    # worker count moves a bit.
    for with_replacement in (False, True):
        study = partial(bootstrap_study, bootstrap_pool, n_sub=500,
                        resamples=20, k=50, seed=3,
                        with_replacement=with_replacement)
        first, again = study(), study()
        parallel = study(workers=2)
        for other in (again, parallel):
            assert other.estimates.keys() == first.estimates.keys()
            for name, values in first.estimates.items():
                assert other.estimates[name].tobytes() == values.tobytes()
            assert other.failures == first.failures


def test_bootstrap_pool_is_pickled_at_most_once_per_worker(bootstrap_pool,
                                                           monkeypatch):
    # Each worker receives the pool once, when it starts, never with a chunk
    # of resamples; a forked worker inherits it without any pickling.
    pickled = []
    reduce = SemiSupervisedDataset.__reduce_ex__

    def counted(self, protocol):
        pickled.append(protocol)
        return reduce(self, protocol)

    monkeypatch.setattr(SemiSupervisedDataset, "__reduce_ex__", counted)
    bootstrap_study(bootstrap_pool, n_sub=100, resamples=400, k=10,
                    estimators=("hill",), seed=3, workers=2)
    assert len(pickled) <= 2
    if multiprocessing.get_start_method() == "fork":
        assert pickled == []


def test_bootstrap_full_pool_single_resample(bootstrap_pool):
    result = bootstrap_study(bootstrap_pool, n_sub=bootstrap_pool.n,
                             resamples=1, k=100, estimators=("hill",), seed=0)
    full = hill(bootstrap_pool.paired_target, 100).value
    assert abs(result.successful("hill")[0] - full) < 1e-12


def test_bootstrap_variance_reduction(bootstrap_pool):
    result = bootstrap_study(bootstrap_pool, n_sub=1000, resamples=500, k=100,
                             seed=7)
    var_hill = np.var(result.successful("hill"), ddof=1)
    var_transferred = np.var(result.successful("transferred_hill"), ddof=1)
    assert var_transferred < var_hill


def test_bootstrap_validation(bootstrap_pool):
    with pytest.raises(ValueError):
        bootstrap_study(bootstrap_pool, n_sub=bootstrap_pool.n + 1,
                        resamples=5, k=10)
    with pytest.raises(ValueError):
        bootstrap_study(bootstrap_pool, n_sub=1, resamples=5, k=10)
    with pytest.raises(ValueError, match="at least 3"):
        bootstrap_study(bootstrap_pool, n_sub=2, resamples=5, k=1)
    with pytest.raises(ValueError):
        bootstrap_study(bootstrap_pool, n_sub=100, resamples=0, k=10)
    # Every resample has n_sub coupled rows, so k must be below n_sub.
    for k, k_source in ((100, None), (0, None), (10, 100)):
        with pytest.raises(ValueError, match="invalid k"):
            bootstrap_study(bootstrap_pool, n_sub=100, resamples=5, k=k,
                            k_source=k_source)
    # Resamples follow the worker rule of the other studies.
    with pytest.raises(ValueError, match="^workers must be at least 1$"):
        bootstrap_study(bootstrap_pool, n_sub=100, resamples=5, k=10, workers=0)


@pytest.mark.parametrize("study,kwargs,message", [
    ("config", dict(seed=1.5), "seed must be an integer"),
    ("config", dict(seed=2.0), "seed must be an integer"),
    ("config", dict(seed="3"), "seed must be an integer"),
    ("config", dict(seed=2 ** 64), "seed must be a 64-bit unsigned integer"),
    ("config", dict(n=50.0), "n must be an integer"),
    ("config", dict(m=10.0), "m must be an integer"),
    ("config", dict(replications=2.0), "replications must be an integer"),
    ("config", dict(k=5.0), "k must be an integer"),
    ("config", dict(k_source=5.5), "k_source must be an integer"),
    ("bootstrap", dict(seed=-1), "seed must be a 64-bit unsigned integer"),
    ("bootstrap", dict(seed=2 ** 64), "seed must be a 64-bit unsigned integer"),
    ("bootstrap", dict(seed=1.5), "seed must be an integer"),
    ("bootstrap", dict(n_sub=100.0), "n_sub must be an integer"),
    ("bootstrap", dict(resamples=2.5), "resamples must be an integer"),
    ("bootstrap", dict(k=10.0), "k must be an integer"),
    ("bootstrap", dict(k_source=5.5), "k_source must be an integer"),
    *[(study, dict(workers=workers), "workers must be an integer")
      for study in ("rvr", "scan", "bootstrap") for workers in (2.0, 1.5, "2")],
])
def test_integer_inputs_are_checked_before_any_draw(bootstrap_pool, study,
                                                    kwargs, message):
    # These used to fail inside replication or resample 0 with numpy's
    # message, or (k_source=5.5) to be truncated without a word; a float or
    # string worker count raised a TypeError.
    stream = mock.Mock(side_effect=AssertionError("a stream was drawn"))
    base = dict(gamma_t=0.5, theta=2.0, n=50, m=10, k=5,
                source_marginal=Marginal.pareto(1.0), replications=2)
    with mock.patch("tailcv.simulate._stream", stream):
        with pytest.raises(ValueError, match=f"^{message}$"):
            if study == "config":
                run_rvr_experiment(ExperimentConfig(**{**base, **kwargs}))
            elif study == "rvr":
                run_rvr_experiment(ExperimentConfig(**base), **kwargs)
            elif study == "scan":
                source_threshold_scan(ExperimentConfig(**base), [5], **kwargs)
            else:
                bootstrap_study(bootstrap_pool, **{
                    **dict(n_sub=100, resamples=2, k=10), **kwargs})
    stream.assert_not_called()


def test_studies_ignore_the_workers_variable(bootstrap_pool, monkeypatch):
    # The library takes its process count from the workers argument alone;
    # only the command line reads TAILCV_WORKERS.
    config = ExperimentConfig(gamma_t=0.5, theta=5.0, n=200, m=400,
                              source_marginal=Marginal.pareto(1.0),
                              replications=6, seed=4)

    def run_all():
        report = run_rvr_experiment(config)
        points = source_threshold_scan(config, (10, 20))
        result = bootstrap_study(bootstrap_pool, n_sub=200, resamples=4, k=20,
                                 seed=1)
        return [cell_bits(values) for values in (
            *report.estimates.values(), *result.estimates.values(),
            [value for point in points for value in astuple(point)])]

    monkeypatch.delenv("TAILCV_WORKERS", raising=False)
    unset = run_all()
    monkeypatch.setenv("TAILCV_WORKERS", "abc")
    assert run_all() == unset


def test_bootstrap_with_replacement_smoke(bootstrap_pool):
    result = bootstrap_study(bootstrap_pool, n_sub=500, resamples=10, k=50,
                             estimators=("hill", "transferred_hill"), seed=1,
                             with_replacement=True)
    assert result.with_replacement
    assert len(result.successful("hill")) == 10


def test_stream_roles_are_distinct():
    coupled = _stream(5, 0, 0).random(8)
    extra = _stream(5, 0, 1).random(8)
    assert not np.array_equal(coupled, extra)


def _seed_sequence_stream(seed, index, role):
    """The generator ``_stream`` stands for, built from a SeedSequence."""
    sequence = np.random.SeedSequence(entropy=seed, spawn_key=(index, role))
    return np.random.Generator(np.random.Philox(sequence))


# Each index below 2**32 is one 32-bit word of the key's input, and each one
# from there to 2**64 two; a block of keys ends at 1023 and the next starts at
# 1024.
_WORD_EDGES = (0, 1023, 1024, 2 ** 32 - 1, 2 ** 32, 2 ** 40)


@given(seed=st.integers(0, 2 ** 64 - 1),
       index=st.sampled_from(_WORD_EDGES) | st.integers(0, 2 ** 64 - 1),
       role=st.integers(0, 2))
@example(seed=0, index=0, role=0)
@example(seed=2 ** 64 - 1, index=2 ** 32, role=2)
@example(seed=2 ** 32, index=2 ** 32 - 1, role=1)
def test_stream_draws_equal_the_seed_sequence_generators(seed, index, role):
    expected = _seed_sequence_stream(seed, index, role)
    block, offset = divmod(index, _KEY_BLOCK)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no integer overflow warning either
        keys = _stream_keys.__wrapped__(seed, block)
    key = expected.bit_generator.state["state"]["key"]
    assert keys[offset, role].tolist() == key.tolist()
    assert _stream(seed, index, role).random(8).tobytes() == expected.random(8).tobytes()


def test_a_negative_replication_index_keeps_seed_sequences_error():
    config = ExperimentConfig(gamma_t=0.25, theta=5.0, n=100, m=50,
                              source_marginal=Marginal.pareto(0.5))
    for index in (-1, -2000):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            generate_dataset(config, index)


def test_stream_generator_pickles_and_resumes():
    rng = _stream(20260826, 1500, _ROLE_EXTRA)
    rng.random(3)
    resumed = pickle.loads(pickle.dumps(rng))
    assert resumed.random(16).tobytes() == rng.random(16).tobytes()
    expected = _seed_sequence_stream(20260826, 1500, _ROLE_EXTRA)
    expected.random(3 + 16)
    assert resumed.random(16).tobytes() == expected.random(16).tobytes()


def test_stream_key_cache_is_bounded():
    maxsize = _stream_keys.cache_info().maxsize
    assert maxsize is not None
    for seed in range(maxsize + 3):
        _stream(seed, 0, 0)
    assert _stream_keys.cache_info().currsize == maxsize
