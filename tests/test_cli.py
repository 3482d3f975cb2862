import json
import math
from pathlib import Path

import numpy as np
import pytest

from tailcv import (
    ExperimentConfig,
    Marginal,
    generate_dataset,
    hill,
    run_rvr_experiment,
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
    base = "gamma_t = 0.5\ntheta = 2.0\nn = 50\nm = 0\n"
    normal = tmp_path / "normal.cfg"
    normal.write_text(base + "gamma_s = 0.0\n")
    assert load_experiment_config(str(normal)).source_marginal.family == "normal"
    beta = tmp_path / "beta.cfg"
    beta.write_text(base + "gamma_s = -0.25\n")
    marginal = load_experiment_config(str(beta)).source_marginal
    assert marginal.family == "beta"
    assert abs(marginal.evi + 0.25) < 1e-15
    # An explicit family takes its parameter from gamma_s or shape_b.
    for lines, expected in (
            ("source_marginal = pareto\ngamma_s = 0.5\n", Marginal.pareto(0.5)),
            ("source_marginal = beta\nshape_b = 2.0\n", Marginal.beta(2.0)),
            ("source_marginal = beta\ngamma_s = -0.5\n", Marginal.beta(2.0))):
        explicit = tmp_path / "explicit.cfg"
        explicit.write_text(base + lines)
        assert load_experiment_config(str(explicit)).source_marginal == expected


@pytest.mark.parametrize("text,fragment", [
    ("gamma_t = 0.5\ntheta = 2.0\nn = 50\nm = 0\nwat = 1\ngamma_s = 1\n",
     "unknown key"),
    ("gamma_t = 0.5\ngamma_t = 0.6\ntheta = 2\nn = 50\nm = 0\ngamma_s = 1\n",
     "duplicate key"),
    ("gamma_t = 0.5\ntheta = 2.0\nn = fifty\nm = 0\ngamma_s = 1\n",
     "bad value"),
    ("gamma_t = 0.5\ntheta = 2.0\nn = 50\ngamma_s = 1\n", "missing required"),
    ("gamma_t = 0.5\ntheta = 2.0\nn = 50\nm = 0\n", "source_marginal"),
    ("gamma_t = 0.5\ntheta = 2.0\nn = 50\nm = 0\nsource_marginal = pareto\n",
     "pareto source needs gamma_s > 0"),
    ("gamma_t = 0.5\ntheta = 2.0\nn = 50\nm = 0\nsource_marginal = beta\n"
     "gamma_s = 0.5\n", "beta source needs shape_b or negative gamma_s"),
    ("gamma_t = 0.5\ntheta = 2.0\nn = 50\nm = 0\nsource_marginal = cauchy\n",
     "unknown source_marginal 'cauchy'"),
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


def test_simulate_seed_override(tmp_path, config_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["simulate", "--config", config_path, "--out", str(out_a),
          "--seed", "123"])
    main(["simulate", "--config", config_path, "--out", str(out_b),
          "--seed", "124"])
    text_a = (out_a / "estimates.csv").read_text()
    text_b = (out_b / "estimates.csv").read_text()
    assert text_a != text_b


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
    path.write_text(TINY_CONFIG.replace("gamma_s = 1.0",
                                        "source_marginal = normal"))
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
