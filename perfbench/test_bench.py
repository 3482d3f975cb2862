"""Self-test of the benchmark: a few replications per workload.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run as bench
from tracing import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = os.path.dirname(bench.HERE)
SMALL = {"headline-study": 4, "threshold-scan": 3, "bootstrap-wide": 6}


@pytest.fixture(scope="module")
def spec():
    return bench.load_spec(ROOT)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_run_reports_every_metric_and_passes_checks(spec, name, seed, trace):
    result = bench.run(ROOT, name, seed, seconds=0, trace=bool(trace),
                       size=SMALL[name], segments=1)
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    lines = bench.summary_lines(result)
    for metric, unit in expected.items():
        assert any(line.split()[:1] == [metric] and line.split()[2] == unit
                   for line in lines), metric
    assert result["correct"], result["errors"]
    assert 1 <= result["attempted"] and 0 <= result["failed"] <= result["attempted"]
    # Untraced and traced calls gave bit-identical estimates.
    assert len(result["fingerprints"]) == 1
    traced = len(result["traced_call_seconds"])
    assert traced == (bench.TRACED_PASSES if trace else 0)


def _perturb(name, output):
    if name == "threshold-scan":
        first = output[0]
        return (dataclasses.replace(first, median=first.median * 2),) + output[1:]
    estimates = {key: values.copy() for key, values in output.estimates.items()}
    estimates["hill"][0] += 1e-12
    return dataclasses.replace(output, estimates=estimates)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_output_check_catches_a_changed_value(name):
    tailcv = bench.import_tailcv(ROOT)
    workload = WORKLOADS[name](tailcv, ROOT, 7, os.path.join(ROOT, bench.OUT_DIR),
                               SMALL[name])
    os.makedirs(workload.out_dir, exist_ok=True)
    workload.prepare()
    workload.load()
    output = workload.call()
    assert workload.check(output)[1] == []
    made, mismatches = workload.check(_perturb(name, output))
    assert 1 <= len(mismatches) <= made


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "headline-study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_every_per_layer_name_maps_to_a_traced_function(spec):
    names = [m["name"] for m in spec["per_layer"] if m["name"] != bench.OVERHEAD]
    tracer = Tracer(names)
    assert sorted(tracer.loader_names + tracer.pass_names) == sorted(names)
    with pytest.raises(ValueError, match="no traced function"):
        Tracer(names + ["core.no_such_function_us"])
