import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from tailcv import (
    ExperimentConfig,
    Marginal,
    Method,
    SufficientStatistics,
    bootstrap_study,
    generate_dataset,
    hill,
    run_rvr_experiment,
    simulate,
    transferred_hill,
)
from tailcv.cli import (
    load_data_file,
    load_experiment_config,
    main,
    write_semi_supervised_csv,
)

MIXED_CSV = "target,source\n1.0,2.0\n2.0,3.0\n4.0,5.0\n,9.0\n"

FIVE_POINT_CSV = ("target,source\n"
                  "1,1\n2,2\n4,3\n8,4\n16,5\n")

TINY_CONFIG = """\
# small study for fast tests
gamma_t = 0.5
gamma_s = 1.0
theta = 5.0
n = 100
m = 200
replications = 30
seed = 7
"""


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# (theta, replications) of each shipped config; every other design value is
# the headline study's.
SHIPPED_CONFIGS = {
    "headline.cfg": (10.0, 2000),
    "weak.cfg": (1.4, 2000),
    "sweep-base.cfg": (5.0, 2000),
    "scan.cfg": (5.0, 800),
}


@pytest.fixture()
def data_path(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(MIXED_CSV)
    return str(path)


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "study.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


# -------------------------------------------------------------- data files

def test_load_data_file_counts(data_path):
    data = load_data_file(data_path)
    assert data.dataset.n == 3
    assert data.dataset.m == 1
    np.testing.assert_array_equal(data.dataset.paired_target, [1.0, 2.0, 4.0])
    np.testing.assert_array_equal(data.dataset.extra_source, [9.0])


def test_load_data_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,x\n1,2\n3,4\n5,6\n")
    with pytest.raises(ValueError, match="header"):
        load_data_file(str(path))


def test_load_data_file_rejects_non_finite(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("target,source\n1,2\nnan,4\n5,6\n")
    with pytest.raises(ValueError, match=":3:"):
        load_data_file(str(path))


def test_load_data_file_rejects_wrong_cell_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("target,source\n1,2,3\n4,5\n6,7\n")
    with pytest.raises(ValueError, match="expected 2 cells"):
        load_data_file(str(path))


def test_load_data_file_rejects_short_files(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("target,source\n1,2\n3,4\n")
    with pytest.raises(ValueError, match="at least 3 coupled rows"):
        load_data_file(str(path))


def test_load_data_file_skips_blank_lines(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("target,source\n1,2\n\n3,4\n\n5,6\n")
    assert load_data_file(str(path)).dataset.n == 3


@pytest.mark.parametrize("text,message", [
    ("target,source\n1,2\nabc,4\n5,6\n7,8\n", "3: not a number: 'abc'"),
    ("target,source\n1,2\n3,4\n5,6\n,x7\n", "5: not a number: 'x7'"),
    ("target,source\n1,2\n3, inf\n5,6\n", "3: non-finite value 'inf'"),
    ("target,source\n1,2\n3,4\n5\n7,8\n", "4: expected 2 cells, got 1"),
    ("target,source\n1,2\n3,4,5\n", "3: expected 2 cells, got 3"),
    ("source,target\n1,2\n3,4\n5,6\n", "1: header must be 'target,source'"),
    # The source cell is read first, and a filled target needs a source.
    ("target,source\n1,2\nbad,worse\n", "3: not a number: 'worse'"),
    ("target,source\n1,2\n3, \n", "3: not a number: ''"),
    ("", "1: empty file"),
])
def test_load_data_file_error_messages(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_data_file(str(path))
    assert str(info.value) == f"{path}:{message}"


def test_load_data_file_too_few_coupled_rows_message(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("target,source\n1,2\n,3\n4,5\n,6\n")
    with pytest.raises(ValueError) as info:
        load_data_file(str(path))
    assert str(info.value) == f"{path}: needs at least 3 coupled rows, got 2"


def test_load_data_file_skip_rule_and_file_order(tmp_path):
    # A row is skipped when every cell is blank, whatever its cell count;
    # cells are stripped, and both arrays keep file order.
    path = tmp_path / "gaps.csv"
    path.write_text("target, source \n 3 , 0.5\n,,\n , \n\n,7\n1,2\n"
                    "  \n ,9.25 \n-2,4e-3\n, ,\n")
    dataset = load_data_file(str(path)).dataset
    np.testing.assert_array_equal(dataset.paired_target, [3.0, 1.0, -2.0])
    np.testing.assert_array_equal(dataset.paired_source, [0.5, 2.0, 4e-3])
    np.testing.assert_array_equal(dataset.extra_source, [7.0, 9.25])


def test_csv_round_trip_preserves_estimates(tmp_path, theta5_dataset):
    path = tmp_path / "round.csv"
    write_semi_supervised_csv(str(path), theta5_dataset)
    reloaded = load_data_file(str(path)).dataset
    np.testing.assert_array_equal(reloaded.paired_target,
                                  theta5_dataset.paired_target)
    np.testing.assert_array_equal(reloaded.extra_source,
                                  theta5_dataset.extra_source)
    direct = transferred_hill(theta5_dataset, 100)
    from_file = transferred_hill(reloaded, 100)
    assert from_file.value == direct.value
    assert from_file.variance_estimate == direct.variance_estimate


# ---------------------------------------------------------------- configs

def test_load_experiment_config_full(config_path):
    config = load_experiment_config(config_path)
    assert config.n == 100
    assert config.m == 200
    assert config.k == 10
    assert config.theta == 5.0
    assert config.source_marginal == Marginal.pareto(1.0)
    assert config.replications == 30


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")),
                         ids=lambda path: path.name)
def test_load_shipped_config(path):
    config = load_experiment_config(str(path))
    assert (config.n, config.m, config.k) == (1000, 5000, 100)
    assert config.source_marginal == Marginal.pareto(0.5)
    assert config.seed == 20260826
    assert (config.theta, config.replications) == SHIPPED_CONFIGS[path.name]


def test_config_gamma_s_sign_dispatch(tmp_path):
    # The sign of gamma_s picks the family, as in rvr-sweep --vary gamma_s.
    base = "gamma_t = 0.5\ntheta = 2.0\nn = 50\nm = 0\n"
    for lines, expected in (
            ("gamma_s = 0.0\n", Marginal.standard_normal()),
            ("gamma_s = 0.5\n", Marginal.pareto(0.5)),
            ("gamma_s = 0.5\ny_m = 0.25\n", Marginal.pareto(0.5, 0.25)),
            ("gamma_s = -0.5\n", Marginal.beta(2.0)),
            ("gamma_s = -0.25\n", Marginal.beta(4.0))):
        path = tmp_path / "dispatch.cfg"
        path.write_text(base + lines)
        assert load_experiment_config(str(path)).source_marginal == expected


@pytest.mark.parametrize("text,fragment", [
    ("gamma_t = 0.5\ntheta = 2.0\nn = 50\nm = 0\nwat = 1\ngamma_s = 1\n",
     "unknown key"),
    ("gamma_t = 0.5\ngamma_t = 0.6\ntheta = 2\nn = 50\nm = 0\ngamma_s = 1\n",
     "duplicate key"),
    ("gamma_t = 0.5\ntheta = 2.0\nn = fifty\nm = 0\ngamma_s = 1\n",
     "bad value"),
    ("gamma_t = 0.5\ntheta = 2.0\nn = 50\ngamma_s = 1\n", "missing required"),
    ("gamma_t = 0.5\ntheta = 2.0\nn = 50\nm = 0\n",
     "missing required keys: gamma_s"),
    # The old source-family spellings stop at their line.
    ("gamma_t = 0.5\ntheta = 2.0\nn = 50\nm = 0\nsource_marginal = pareto\n"
     "gamma_s = 0.5\n", "bad.cfg:5: unknown key 'source_marginal'"),
    ("gamma_t = 0.5\ntheta = 2.0\nn = 50\nm = 0\nsource_marginal = beta\n"
     "shape_b = 2.0\n", "bad.cfg:5: unknown key 'source_marginal'"),
    ("gamma_t = 0.5\ntheta = 2.0\nn = 50\nm = 0\nsource_marginal = cauchy\n",
     "bad.cfg:5: unknown key 'source_marginal'"),
    ("gamma_t = 0.5\ntheta = 2.0\nn = 50\nm = 0\ngamma_s = 0.5\n"
     "source_marginal = normal\n", "bad.cfg:6: unknown key 'source_marginal'"),
    ("gamma_t = 0.5\ntheta = 2.0\nn = 50\nm = 0\ngamma_s = -0.5\n"
     "shape_b = 2.0\n", "bad.cfg:6: unknown key 'shape_b'"),
    ("gamma_t = 0.5\ntheta = 2.0\nn = 50\nm = 0\ngamma_s = 1\n"
     "estimators = hill, median\n", "unknown estimator 'median'"),
])
def test_config_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ValueError, match=fragment):
        load_experiment_config(str(path))


def test_config_estimator_list(tmp_path):
    path = tmp_path / "est.cfg"
    path.write_text("gamma_t = 0.5\ntheta = 2.0\nn = 50\nm = 0\n"
                    "gamma_s = 1\nestimators = hill, transferred_hill\n")
    config = load_experiment_config(str(path))
    assert tuple(m.value for m in config.estimators) == ("hill",
                                                         "transferred_hill")


# ----------------------------------------------------------- estimate CLI

def test_estimate_auto_methods_and_diagnostics(tmp_path, data_path, capsys):
    # k = 1 leaves a single exceedance, so moment-type estimators fail and
    # are reported as diagnostics rather than aborting the run.
    assert main(["estimate", "--data", data_path, "--k", "1"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert set(payload["estimates"]) == {"hill", "transferred_hill"}
    assert payload["n"] == 3 and payload["m"] == 1
    assert payload["k"] == 1 and payload["k_source"] == 1
    assert "diagnostic: moment:" in captured.err
    hill_record = payload["estimates"]["hill"]
    assert abs(hill_record["value"] - math.log(2.0)) < 1e-15
    assert hill_record["coefficients"] is None
    record_keys = {"value", "k", "k_eff", "variance_estimate", "coefficients"}
    for record in payload["estimates"].values():
        assert set(record) == record_keys
    coefficients = payload["estimates"]["transferred_hill"]["coefficients"]
    assert set(coefficients) == {"alpha", "beta", "alpha_prime", "beta_prime",
                                 "degenerate", "degenerate_second"}
    # At k = 4 the source threshold is the smallest coupled source, -1.5, so
    # only the baselines remain and there is no dependence report.
    path = tmp_path / "negative.csv"
    path.write_text("target,source\n1,-1.5\n2,-0.5\n4,-1.0\n8,0.2\n16,1.1\n,0.4\n")
    assert main(["estimate", "--data", str(path), "--k", "4"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert set(payload["estimates"]) == {"hill", "moment"}
    assert payload["dependence"] is None
    assert ("diagnostic: dependence report unavailable: log-transform undefined"
            in captured.err)


def test_estimate_explicit_failure_is_fatal(data_path, capsys):
    assert main(["estimate", "--data", data_path, "--k", "1",
                 "--methods", "moment"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: moment:" in captured.err


@pytest.mark.parametrize("replication,clipped", [(15, True), (14, False)])
def test_estimate_reports_clipped_variance(tmp_path, capsys, replication,
                                           clipped):
    # In replication 15 of the headline study the plug-in reduction exceeds
    # the baseline variance of transferred Hill; in 14 it does not.
    config = load_experiment_config(str(CONFIG_DIR / "headline.cfg"))
    path = tmp_path / "headline.csv"
    write_semi_supervised_csv(str(path), generate_dataset(config, replication))
    assert main(["estimate", "--data", str(path), "--k", "100"]) == 0
    captured = capsys.readouterr()
    record = json.loads(captured.out)["estimates"]["transferred_hill"]
    assert not record["coefficients"]["degenerate"]
    assert (record["variance_estimate"] == 0.0) == clipped
    line = "diagnostic: transferred_hill: variance estimate clipped at 0"
    assert (line in captured.err.splitlines()) == clipped


def test_only_the_estimate_readers_compute_the_plug_in_variance(tmp_path, capsys):
    # The studies keep the estimates' values alone, so they never call the
    # plug-in; transferred_hill() and `tailcv estimate` still report it.
    config = ExperimentConfig(gamma_t=0.25, theta=5.0, n=200, m=400, k=20,
                              source_marginal=Marginal.pareto(0.5),
                              replications=10, seed=3)
    dataset = generate_dataset(config, 0)
    path = tmp_path / "data.csv"
    write_semi_supervised_csv(str(path), dataset)
    calls = []
    plug_in = SufficientStatistics.variance_difference

    def spy(stats, gamma_hat):
        calls.append(gamma_hat)
        return plug_in(stats, gamma_hat)

    with mock.patch.object(SufficientStatistics, "variance_difference", spy):
        report = run_rvr_experiment(config, workers=1)
        resamples = bootstrap_study(dataset, n_sub=100, resamples=10, k=10,
                                    workers=1)
        assert calls == []
        assert report.summaries["transferred_hill"].failures == 0
        assert resamples.failures["transferred_hill"] == 0
        assert transferred_hill(dataset, config.k).variance_estimate > 0.0
        assert len(calls) == 1
        assert main(["estimate", "--data", str(path), "--k", "20"]) == 0
        assert len(calls) == 2
    record = json.loads(capsys.readouterr().out)["estimates"]["transferred_hill"]
    assert record["variance_estimate"] > 0.0


def test_estimate_writes_json_file(tmp_path, data_path):
    out = tmp_path / "est.json"
    assert main(["estimate", "--data", data_path, "--k", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["estimates"]["hill"]["k_eff"] == 1


def test_estimate_rejects_unknown_method(data_path, capsys):
    assert main(["estimate", "--data", data_path, "--k", "1",
                 "--methods", "median"]) == 1
    assert "unknown estimator" in capsys.readouterr().err


def test_estimate_invalid_k_exit_code(data_path, capsys):
    # Hill never reads the source side, so only the up-front check sees an
    # invalid --k-source.
    for k_flags in (["--k", "99"], ["--k", "1", "--k-source", "3"]):
        assert main(["estimate", "--data", data_path, *k_flags,
                     "--methods", "hill"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: hill: invalid k" in captured.err


@pytest.mark.parametrize("k_flags", [["--k", "99"], ["--k", "1", "--k-source", "3"]])
def test_estimate_invalid_k_without_methods_exits_one(data_path, capsys, k_flags):
    assert main(["estimate", "--data", data_path, *k_flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: invalid k" in captured.err


def test_estimate_without_any_estimate_exits_one(tmp_path, capsys):
    # At k = 2 the target threshold is -2, so every default method fails.
    data = tmp_path / "negative.csv"
    data.write_text("target,source\n1,1\n-1,2\n-2,3\n-3,4\n,5\n")
    out = tmp_path / "estimates.json"
    assert main(["estimate", "--data", str(data), "--k", "2",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("diagnostic: ") == 4
    assert captured.err.endswith("error: no method gave an estimate\n")
    assert not out.exists()


# ----------------------------------------------------------- simulate CLI

def test_simulate_writes_report_and_estimates(tmp_path, config_path, capsys):
    out = tmp_path / "runs"
    assert main(["simulate", "--config", config_path, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "wrote" in captured.err

    report = json.loads((out / "rvr_report.json").read_text())
    assert report["replications"] == 30
    assert report["config"]["n"] == 100

    expected = run_rvr_experiment(load_experiment_config(config_path))
    lines = (out / "estimates.csv").read_text().splitlines()
    assert lines[0] == "replication,method,value"
    assert len(lines) == 1 + 30 * 4
    rep, method, value = lines[1].split(",")
    assert (int(rep), method) == (0, "hill")
    assert float(value) == expected.estimates["hill"][0]


def test_simulate_pairs_methods_in_method_order(tmp_path):
    path = tmp_path / "reversed.cfg"
    path.write_text(TINY_CONFIG + "estimators = "
                    "transferred_moment,moment,transferred_hill,hill\n")
    report = run_rvr_experiment(load_experiment_config(str(path)))
    assert [(pair.baseline, pair.transferred) for pair in report.pairs] == [
        (Method.HILL, Method.TRANSFERRED_HILL),
        (Method.MOMENT, Method.TRANSFERRED_MOMENT)]


OVERFLOW_ERROR = ("error: pareto marginal overflows: its quantile at "
                  "u = 1 - 2**-53 is not finite\n")


@pytest.mark.parametrize("key", ["gamma_t", "gamma_s"])
def test_simulate_rejects_an_overflowing_pareto_before_any_replication(
        tmp_path, capsys, monkeypatch, key):
    text = "".join(row + "\n" for row in TINY_CONFIG.splitlines()
                   if not row.startswith(key + " "))
    path = tmp_path / "overflow.cfg"
    path.write_text(text + f"{key} = 60\n")
    monkeypatch.setattr("tailcv.simulate.generate_dataset", mock.Mock(
        side_effect=AssertionError("a replication ran")))
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == OVERFLOW_ERROR
    assert not out.exists()


def test_simulate_rejects_a_theta_above_the_bound_before_any_replication(
        tmp_path, capsys, monkeypatch):
    # At theta = 200 the copula's draws overflowed and the study stopped
    # partway with "paired_target contains non-finite entries".
    path = tmp_path / "theta.cfg"
    path.write_text(TINY_CONFIG.replace("theta = 5.0", "theta = 200"))
    monkeypatch.setattr("tailcv.simulate.generate_dataset", mock.Mock(
        side_effect=AssertionError("a replication ran")))
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: theta must be <= 20\n"
    assert not out.exists()


def test_rvr_sweep_checks_every_theta_before_the_first_study(
        tmp_path, config_path, capsys, monkeypatch):
    monkeypatch.setattr("tailcv.simulate.generate_dataset", mock.Mock(
        side_effect=AssertionError("a replication ran")))
    out = tmp_path / "sweep"
    assert main(["rvr-sweep", "--config", config_path, "--vary", "theta",
                 "--values", "2,21", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: theta must be <= 20\n"
    assert not out.exists()


def test_rvr_sweep_checks_every_point_before_the_first_study(
        tmp_path, config_path, capsys, monkeypatch):
    monkeypatch.setattr("tailcv.simulate.generate_dataset", mock.Mock(
        side_effect=AssertionError("a replication ran")))
    out = tmp_path / "sweep"
    assert main(["rvr-sweep", "--config", config_path, "--vary", "gamma_t",
                 "--values", "0.5,60", "--out", str(out)]) == 1
    assert capsys.readouterr().err == OVERFLOW_ERROR
    assert not out.exists()


@pytest.mark.parametrize("line,message", [
    ("theta = nan", "theta must be finite"),
    ("gamma_t = inf", "gamma_t must be finite"),
    ("y_m = -inf", "y_m must be finite"),
    ("gamma_s = nan", "gamma must be finite"),
])
def test_simulate_rejects_non_finite_config_before_any_replication(
        tmp_path, capsys, monkeypatch, line, message):
    key = line.split(" ")[0]
    text = "".join(row + "\n" for row in TINY_CONFIG.splitlines()
                   if not row.startswith(key + " "))
    path = tmp_path / "bad.cfg"
    path.write_text(text + line + "\n")
    monkeypatch.setattr("tailcv.simulate.generate_dataset", mock.Mock(
        side_effect=AssertionError("a replication ran")))
    out = tmp_path / "runs"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "", "1.5", "0"])
def test_simulate_names_a_bad_workers_variable(tmp_path, config_path, capsys,
                                                monkeypatch, value):
    # These used to fail naming neither the variable nor its value. The four
    # study subcommands read the variable; estimate and hill-plot never do.
    monkeypatch.setenv("TAILCV_WORKERS", value)
    pool = tmp_path / "five.csv"
    pool.write_text(FIVE_POINT_CSV)
    studies = (
        ["simulate", "--config", config_path, "--out", str(tmp_path / "runs")],
        ["rvr-sweep", "--config", config_path, "--vary", "theta",
         "--values", "2", "--out", str(tmp_path / "sweep")],
        ["threshold-scan", "--config", config_path, "--l-min", "5",
         "--l-max", "6"],
        ["bootstrap", "--data", str(pool), "--n-sub", "4", "--resamples", "2",
         "--k", "1"],
    )
    for argv in studies:
        assert main(argv) == 1, argv[0]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: TAILCV_WORKERS must be a positive integer, got '{value}'\n")
    assert not (tmp_path / "runs").exists() and not (tmp_path / "sweep").exists()
    assert main(["estimate", "--data", str(pool), "--k", "2"]) == 0
    assert main(["hill-plot", "--data", str(pool), "--k-min", "1",
                 "--k-max", "2"]) == 0


def test_study_subcommands_pass_the_workers_variable(tmp_path, config_path,
                                                     capsys, monkeypatch):
    # The studies run serially here; the spy records the count they were given.
    monkeypatch.setenv("TAILCV_WORKERS", "3")
    given = []
    serial = simulate._map_replications

    def spy(func, count, workers):
        given.append(workers)
        return serial(func, count, 1)

    monkeypatch.setattr(simulate, "_map_replications", spy)
    pool = tmp_path / "five.csv"
    pool.write_text(FIVE_POINT_CSV)
    assert main(["simulate", "--config", config_path,
                 "--out", str(tmp_path / "runs")]) == 0
    assert main(["rvr-sweep", "--config", config_path, "--vary", "theta",
                 "--values", "2,3", "--out", str(tmp_path / "sweep")]) == 0
    assert main(["threshold-scan", "--config", config_path, "--l-min", "5",
                 "--l-max", "6"]) == 0
    assert main(["bootstrap", "--data", str(pool), "--n-sub", "4",
                 "--resamples", "2", "--k", "1", "--methods", "hill"]) == 0
    capsys.readouterr()
    assert given == [3] * 5


def test_simulate_seed_override(tmp_path):
    # Two configs that differ only in their seed give different studies.
    outputs = []
    for seed in (123, 124):
        path = tmp_path / f"seed-{seed}.cfg"
        path.write_text(TINY_CONFIG.replace("seed = 7", f"seed = {seed}"))
        out = tmp_path / str(seed)
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        outputs.append((out / "estimates.csv").read_text())
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("command", [
    ["simulate", "--out", "runs"],
    ["rvr-sweep", "--vary", "theta", "--values", "2", "--out", "sweep"],
    ["threshold-scan", "--l-min", "10", "--l-max", "12"],
], ids=lambda command: command[0])
def test_config_studies_take_their_seed_from_the_config(
        tmp_path, config_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert main([command[0], "--config", config_path, *command[1:],
                 "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --seed 1" in captured.err
    assert [path.name for path in tmp_path.iterdir()] == ["study.cfg"]


# ---------------------------------------------------------------- sweeps

def test_rvr_sweep_table(tmp_path, config_path):
    out = tmp_path / "sweep"
    assert main(["rvr-sweep", "--config", config_path, "--vary", "theta",
                 "--values", "1.5,5", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "theta,pair,rvr,var_base,var_new,lambda_hat"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    assert sorted({row[0] for row in rows}) == ["1.5", "5"]
    assert {row[1] for row in rows} == {"hill", "moment"}
    for row in rows:
        assert math.isfinite(float(row[2]))


def test_rvr_sweep_over_n_rescales_k(tmp_path, config_path):
    out = tmp_path / "sweep_n"
    assert main(["rvr-sweep", "--config", config_path, "--vary", "n",
                 "--values", "80,160", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 5


def test_rvr_sweep_over_the_smallest_n(tmp_path, config_path):
    # The sweep resets k to its default, which is 1 for n = 3..5. The moment
    # estimator is undefined at k = 1, so only the Hill pair is studied, and
    # transferred Hill falls back to Hill there: its RVR is exactly 0.
    with open(config_path, "a") as handle:
        handle.write("estimators = hill,transferred_hill\n")
    out = tmp_path / "sweep_small_n"
    assert main(["rvr-sweep", "--config", config_path, "--vary", "n",
                 "--values", "3,4,5", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [[n, "hill"] for n in "345"]
    assert [float(row.split(",")[2]) for row in rows] == [0.0, 0.0, 0.0]


# ------------------------------------------------------- hill-plot CLI

def test_hill_plot_table(tmp_path, capsys):
    path = tmp_path / "five.csv"
    path.write_text(FIVE_POINT_CSV)
    assert main(["hill-plot", "--data", str(path), "--k-min", "1",
                 "--k-max", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,estimate"
    k1, v1 = lines[1].split(",")
    k2, v2 = lines[2].split(",")
    assert (int(k1), int(k2)) == (1, 2)
    assert abs(float(v1) - math.log(2.0)) < 1e-15
    assert abs(float(v2) - 1.5 * math.log(2.0)) < 1e-15


# -------------------------------------------------- threshold-scan CLI

def test_threshold_scan_table(tmp_path, config_path, capsys):
    assert main(["threshold-scan", "--config", config_path, "--l-min", "5",
                 "--l-max", "15", "--step", "5"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "l,median,q1,q3,negative_count,failed"
    assert [line.split(",")[0] for line in lines[1:]] == ["5", "10", "15"]
    for line in lines[1:]:
        cells = line.split(",")
        assert math.isfinite(float(cells[1]))
        assert int(cells[4]) >= 0 and int(cells[5]) >= 0
    best = min(lines[1:], key=lambda line: float(line.split(",")[1]))
    assert (f"median analytic variance minimized at l = {best.split(',')[0]}\n"
            in captured.err)


@pytest.mark.parametrize("step", ["0", "-1"])
def test_threshold_scan_rejects_nonpositive_step(config_path, capsys, step):
    assert main(["threshold-scan", "--config", config_path, "--l-min", "5",
                 "--l-max", "15", "--step", step]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: step must be positive" in captured.err


def test_threshold_scan_without_finite_medians(tmp_path, capsys):
    # Above l = n/2 the normal source threshold is negative, so the plug-in
    # fails in every replication and every median is NaN.
    path = tmp_path / "normal.cfg"
    path.write_text(TINY_CONFIG.replace("gamma_s = 1.0", "gamma_s = 0.0"))
    assert main(["threshold-scan", "--config", str(path), "--l-min", "60",
                 "--l-max", "62"]) == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert [row[0] for row in rows] == ["60", "61", "62"]
    assert all(row[1] == "" and row[5] == "30" for row in rows)
    assert "no finite median at any l" in captured.err
    assert "minimized" not in captured.err


# ------------------------------------------------------- bootstrap CLI

def test_bootstrap_table(tmp_path, capsys):
    config = ExperimentConfig(gamma_t=0.5, theta=5.0, n=300, m=100,
                              source_marginal=Marginal.pareto(1.0), seed=2)
    path = tmp_path / "pool.csv"
    write_semi_supervised_csv(str(path), generate_dataset(config, 0))
    assert main(["bootstrap", "--data", str(path), "--n-sub", "100",
                 "--resamples", "5", "--k", "20", "--methods",
                 "hill,transferred_hill", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "method,resample,value"
    rows = [line.split(",") for line in lines[1:]]
    assert 1 <= len(rows) <= 10
    assert {row[0] for row in rows} <= {"hill", "transferred_hill"}
    # At k = 1 the moment estimator fails in every resample.
    assert main(["bootstrap", "--data", str(path), "--n-sub", "100",
                 "--resamples", "5", "--k", "1", "--methods", "moment"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "method,resample,value\n"
    assert "diagnostic: moment: 5 failed resamples" in captured.err


def test_bootstrap_keeps_its_seed_flag(data_path, capsys):
    # bootstrap reads no config file, so --seed stays its one seed setting.
    tables = []
    for seed in ("1", "2", "1"):
        assert main(["bootstrap", "--data", data_path, "--n-sub", "3",
                     "--resamples", "4", "--k", "1", "--with-replacement",
                     "--methods", "hill", "--seed", seed]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[2] != tables[1]


def test_bootstrap_rejects_a_negative_seed_with_the_config_message(
        data_path, capsys, monkeypatch):
    # This used to fail in resample 0 with numpy's own message.
    monkeypatch.setattr("tailcv.simulate._stream", mock.Mock(
        side_effect=AssertionError("a resample ran")))
    assert main(["bootstrap", "--data", data_path, "--n-sub", "3",
                 "--resamples", "5", "--k", "1", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == (
        "error: seed must be a 64-bit unsigned integer\n")


# ------------------------------------------------------------ exit codes

def test_unknown_flag_exits_two(capsys):
    assert main(["estimate", "--nope"]) == 2
    capsys.readouterr()


def test_missing_file_exits_one(capsys):
    assert main(["estimate", "--data", "/no/such/file.csv", "--k", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_stdout_stays_machine_readable(data_path, capsys):
    main(["estimate", "--data", data_path, "--k", "1"])
    captured = capsys.readouterr()
    json.loads(captured.out)
