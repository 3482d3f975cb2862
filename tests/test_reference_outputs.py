"""Committed reference outputs of the CLI's subcommands.

Each case runs ``tailcv.cli.main`` in-process and compares every file it
writes with ``reference_outputs.json``. When this machine has the numpy
version and the enabled SIMD features the file records, each output must
have the stored SHA-256 digest. Otherwise numpy may dispatch to other
kernels (without AVX-512 they move values by up to about 1.4e-11 relative),
so the outputs are compared cell by cell: numbers at a relative tolerance of
``RTOL``, and every other cell, an empty (non-finite) one included, as
identical text.

After a change that moves bits on purpose, regenerate the file with

    PYTHONPATH=src python tests/test_reference_outputs.py --write
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile

import numpy as np
import pytest

from tailcv import ExperimentConfig, Marginal, generate_dataset
from tailcv.cli import main, write_semi_supervised_csv

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")
REFERENCE_PATH = os.path.join(HERE, "reference_outputs.json")
RTOL = 1e-10

OUTPUTS = ("estimate.json", "estimate-k-source.json", "simulate/rvr_report.json",
           "simulate/estimates.csv", "simulate-weak/rvr_report.json",
           "simulate-weak/estimates.csv", "threshold-scan.csv",
           "threshold-scan-normal.csv", "bootstrap.csv", "bootstrap-replacement.csv",
           "hill-plot.csv", "rvr-sweep/sweep.csv", "simulate-full/rvr_report.json",
           "simulate-full/estimates.csv", "threshold-scan-full.csv")


def _platform() -> tuple:
    """numpy's version and the sorted names of the SIMD features it enabled."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return np.__version__, sorted(name for name, on in umath.__cpu_features__.items()
                                  if on)


def _config(name: str, directory: str, copy: str, **values) -> str:
    """``configs/<name>`` copied to ``directory/<copy>`` with these keys' values."""
    with open(os.path.join(CONFIGS, name)) as handle:
        text = handle.read()
    for key, value in values.items():
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    path = os.path.join(directory, copy)
    with open(path, "w") as handle:
        handle.write(text)
    return path


def _outputs(directory: str) -> dict:
    """Run every case in ``directory``; the bytes of each file in OUTPUTS."""
    # A seeded pool of 2,000 rows: 800 coupled pairs and 1,200 extra values.
    pool = os.path.join(directory, "pool.csv")
    config = ExperimentConfig(gamma_t=0.25, theta=5.0, n=800, m=1200,
                              source_marginal=Marginal.pareto(0.5), seed=11)
    write_semi_supervised_csv(pool, generate_dataset(config, 0))
    out = {name: os.path.join(directory, name) for name in OUTPUTS}
    bootstrap = ["bootstrap", "--data", pool, "--n-sub", "300", "--resamples", "40",
                 "--k", "30", "--seed", "5"]
    # The scan over every l of a normal source takes thresholds at or below 0
    # and, at l = 999, keeps every row of its selection.
    normal = _config("scan.cfg", directory, "scan-normal.cfg", gamma_s=0,
                     replications=20)
    runs = (
        ["estimate", "--data", pool, "--k", "30", "--out", out["estimate.json"]],
        ["estimate", "--data", pool, "--k", "30", "--k-source", "45",
         "--out", out["estimate-k-source.json"]],
        ["simulate", "--config",
         _config("headline.cfg", directory, "headline.cfg", replications=50),
         "--out", os.path.join(directory, "simulate")],
        ["simulate", "--config", _config("weak.cfg", directory, "weak.cfg",
                                         replications=50),
         "--out", os.path.join(directory, "simulate-weak")],
        ["threshold-scan", "--config",
         _config("scan.cfg", directory, "scan.cfg", replications=20),
         "--l-min", "60", "--l-max", "140", "--out", out["threshold-scan.csv"]],
        # The full-size study and scan, the only cases past replication 49.
        # The study's 2,000 replications cross the 1,024-index blocks in which
        # the streams' keys are derived.
        ["simulate", "--config", os.path.join(CONFIGS, "headline.cfg"),
         "--out", os.path.join(directory, "simulate-full")],
        ["threshold-scan", "--config", os.path.join(CONFIGS, "scan.cfg"),
         "--l-min", "60", "--l-max", "140", "--out", out["threshold-scan-full.csv"]],
        ["threshold-scan", "--config", normal, "--l-min", "1", "--l-max", "999",
         "--out", out["threshold-scan-normal.csv"]],
        ["rvr-sweep", "--config",
         _config("sweep-base.cfg", directory, "sweep-base.cfg", replications=20),
         "--vary", "theta", "--values", "2,5,10",
         "--out", os.path.join(directory, "rvr-sweep")],
        bootstrap + ["--out", out["bootstrap.csv"]],
        bootstrap + ["--with-replacement", "--out", out["bootstrap-replacement.csv"]],
        ["hill-plot", "--data", pool, "--k-min", "10", "--k-max", "790",
         "--step", "10", "--out", out["hill-plot.csv"]],
    )
    with contextlib.redirect_stderr(io.StringIO()) as err:
        for argv in runs:
            if main(argv) != 0:
                raise RuntimeError(f"tailcv {argv[0]} failed: {err.getvalue()}")
    outputs = {}
    for name, path in out.items():
        with open(path, "rb") as handle:
            outputs[name] = handle.read()
    return outputs


def _leaves(value, path: str):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}/{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}/{index}")
    else:
        yield path, value


def _cells(name: str, data: bytes) -> list:
    """An output's cells as rows of text: a CSV's rows, or a JSON file's leaves."""
    text = data.decode()
    if name.endswith(".csv"):
        return list(csv.reader(io.StringIO(text)))
    return [[path, json.dumps(value)] for path, value in _leaves(json.loads(text), "")]


def _number(text: str):
    """The cell's value when it is a finite number, else None."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _mismatches(got: list, expected: list, rtol: float) -> list:
    """The cells of ``got`` that differ from ``expected``, numbers beyond ``rtol``."""
    if [len(row) for row in got] != [len(row) for row in expected]:
        return ["the outputs differ in shape"]
    found = []
    for index, (row, reference) in enumerate(zip(got, expected)):
        for cell, stored in zip(row, reference):
            value, target = _number(cell), _number(stored)
            if value is None or target is None:
                same = cell == stored
            else:
                same = math.isclose(value, target, rel_tol=rtol, abs_tol=0.0)
            if not same:
                found.append(f"row {index} ({row[0]}): {cell!r} != {stored!r}")
    return found


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _outputs(str(tmp_path_factory.mktemp("reference")))


@pytest.mark.parametrize("name", OUTPUTS)
def test_output_matches_its_reference(reference, outputs, name):
    stored, data = reference["outputs"][name], outputs[name]
    if _platform() == (reference["numpy"], reference["cpu_features"]):
        assert hashlib.sha256(data).hexdigest() == stored["sha256"], \
            _mismatches(_cells(name, data), stored["cells"], 0.0)[:5]
    else:
        assert _mismatches(_cells(name, data), stored["cells"], RTOL) == []


def test_tolerance_takes_a_kernel_shift_but_not_a_larger_change():
    expected = [["l", "median"], ["60", "0.25"], ["61", ""]]

    def moved(factor, last=""):
        return [["l", "median"], ["60", repr(0.25 * factor)], ["61", last]]

    assert _mismatches(moved(1 + 1.4e-11), expected, RTOL) == []
    assert _mismatches(moved(1 + 1e-9), expected, RTOL) != []
    assert _mismatches(moved(1.0, "0.5"), expected, RTOL) != []  # NaN pattern
    assert _mismatches(moved(1.0)[:2], expected, RTOL) != []
    # No absolute slack: rounding residue does not pass for a stored 0.0.
    assert _mismatches([["c_ad_hat", "1.9e-17"]], [["c_ad_hat", "0.0"]], RTOL) != []


def _write() -> None:
    version, features = _platform()
    with tempfile.TemporaryDirectory() as directory:
        outputs = _outputs(directory)
    reference = {"numpy": version, "cpu_features": features, "outputs": {
        name: {"sha256": hashlib.sha256(data).hexdigest(),
               "cells": _cells(name, data)} for name, data in outputs.items()}}
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_reference_outputs.py --write")
    _write()
