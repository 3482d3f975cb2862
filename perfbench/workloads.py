"""The three benchmark workloads and their output checks.

Each workload drives tailcv only through its public calls, resolved on the
package at call time so that the traced run's wrappers see them. A workload
is built from a workload seed; the same seed gives the same inputs.

* ``headline-study``: the paper's headline study, ``configs/headline.cfg``
  (theta=10, n=1000, k=100, m=5000), timed in calls of 20 replications.
  Every module runs in every replication.
* ``threshold-scan``: the criterion-7 design (the headline at theta=5),
  scanned over l = 60..140. Each replication is 81 CV builds and plug-ins;
  ``transfer`` and ``dependence`` never run.
* ``bootstrap-wide``: a 25,000-row ``target,source`` CSV pool (normal
  source) loaded with the CLI loader and resampled; no generation and no
  dependence diagnostics, long arrays instead of short ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import numpy as np

DEFAULT_SEED = 20260826
SCAN_L_VALUES = range(60, 141)
SCAN_CHECK_L = (60, 100, 140)
BOOTSTRAP_N_SUB = 500
BOOTSTRAP_K = 50
BOOTSTRAP_SHORT = 3

# Replications (resamples) per timed call. Calls are short, 7-120 ms: host
# speed on a shared machine swings by up to 2x within seconds, and many
# short calls let a run find its least-disturbed ones. Each call also pays
# a fixed cost outside its replications (the study's summaries; 81 column
# summaries in the scan): about 1% of a headline call, 4% of a scan call
# and 0.5% of a bootstrap call (README.md).
FULL_SIZES = {"headline-study": 20, "threshold-scan": 4,
              "bootstrap-wide": 5}


def _same(a: float, b: float) -> bool:
    """Bit-for-bit equality, NaN equal to NaN."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _digest(*parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part if isinstance(part, bytes) else str(part).encode())
    return sha.hexdigest()


def _method_stats(estimates: dict) -> dict[str, str]:
    out = {}
    for name, values in estimates.items():
        finite = values[np.isfinite(values)]
        out[f"{name}.mean"] = f"{finite.mean():.4e}"
        out[f"{name}.variance"] = f"{np.var(finite, ddof=1):.4e}"
    return out


class Workload:
    """One named workload: input preparation, load, timed call and checks."""

    name = ""

    def __init__(self, tailcv, root: str, seed: int, out_dir: str,
                 size: int | None = None):
        self.tailcv = tailcv
        self.root = root
        self.seed = int(seed)
        self.out_dir = out_dir
        self.size = FULL_SIZES[self.name] if size is None else int(size)
        self.full_size = size is None

    def prepare(self) -> None:
        """Generate inputs; not part of set-up time."""

    def probe_args(self) -> list[str]:
        """Arguments for the set-up probe: loader kind and input path."""
        raise NotImplementedError

    def load(self) -> None:
        """The set-up work done after import: parse the config or load the CSV."""
        raise NotImplementedError

    def call(self):
        raise NotImplementedError

    def warm_up(self) -> None:
        """A small call through the same code, before anything is timed."""
        raise NotImplementedError

    def replications(self, output) -> int:
        raise NotImplementedError

    def operations(self, output) -> tuple[int, int]:
        """(attempted, failed) operations of one call."""
        raise NotImplementedError

    def check(self, output) -> tuple[int, list[str]]:
        """(comparisons made, mismatch messages), valid on any seed."""
        raise NotImplementedError

    def reference_output(self, output):
        """The output whose values are compared with the stored reference."""
        return output

    def reference_values(self, output) -> dict[str, str]:
        """Values compared with the stored default-seed reference."""
        raise NotImplementedError

    def fingerprint(self, output) -> str:
        """Digest of every output bit, to compare calls with each other."""
        raise NotImplementedError


class _HeadlineConfig(Workload):
    """A workload built from ``configs/headline.cfg``."""

    def _config_path(self) -> str:
        return os.path.join(self.root, "configs", "headline.cfg")

    def probe_args(self):
        return ["config", self._config_path()]


class HeadlineStudy(_HeadlineConfig):
    name = "headline-study"

    def load(self):
        config = self.tailcv.cli.load_experiment_config(self._config_path())
        self.study = dataclasses.replace(config, seed=self.seed)
        self.config = dataclasses.replace(self.study, replications=self.size)

    def call(self):
        return self.tailcv.run_rvr_experiment(self.config, workers=1)

    def reference_output(self, output):
        """The whole study of the config file, as the acceptance tests run it."""
        return self.tailcv.run_rvr_experiment(self.study, workers=1)

    def warm_up(self):
        small = dataclasses.replace(self.config, replications=2)
        self.tailcv.run_rvr_experiment(small, workers=1)

    def replications(self, output):
        return output.replications

    def operations(self, output):
        values = np.concatenate(list(output.estimates.values()))
        return values.size, int(np.count_nonzero(~np.isfinite(values)))

    def check(self, output):
        tc, config = self.tailcv, self.config
        reps = config.replications
        estimators = {
            "hill": lambda ds: tc.hill(ds.paired_target, config.k),
            "moment": lambda ds: tc.moment(ds.paired_target, config.k),
            "transferred_hill": lambda ds: tc.transferred_hill(
                ds, config.k, config.k_source),
            "transferred_moment": lambda ds: tc.transferred_moment(
                ds, config.k, config.k_source),
        }
        made, mismatches = 0, []
        for index in sorted({0, 1, reps // 2, reps - 1}):
            dataset = tc.generate_dataset(config, index)
            for name, estimate in estimators.items():
                try:
                    expected = estimate(dataset).value
                except tc.EstimationError:
                    expected = float("nan")
                got = output.estimates[name][index]
                made += 1
                if not _same(got, expected):
                    mismatches.append(f"replication {index} {name}: "
                                      f"run {got!r} != direct {expected!r}")
        return made, mismatches

    def reference_values(self, output):
        out = {f"rvr.{pair.baseline.value}": f"{pair.rvr:.4f}"
               for pair in output.pairs}
        dependence = dataclasses.asdict(output.dependence)
        for key in ("lambda_hat", "corr_ab", "corr_cd", "c_ab_hat", "c_ad_hat",
                    "p_hat"):
            out[f"dependence.{key}"] = f"{dependence[key]:.4f}"
        out["asymptotic_rvr_mean"] = f"{output.asymptotic_rvr_mean:.4f}"
        out.update(_method_stats(output.estimates))
        return out

    def fingerprint(self, output):
        arrays = [output.estimates[name].tobytes()
                  for name in sorted(output.estimates)]
        return _digest(json.dumps(output.to_dict(), sort_keys=True), *arrays)


class ThresholdScan(_HeadlineConfig):
    name = "threshold-scan"

    def load(self):
        config = self.tailcv.cli.load_experiment_config(self._config_path())
        self.config = dataclasses.replace(config, theta=5.0, seed=self.seed,
                                          replications=self.size)

    def call(self):
        return self.tailcv.source_threshold_scan(self.config, SCAN_L_VALUES,
                                                 workers=1)

    def warm_up(self):
        small = dataclasses.replace(self.config, replications=1)
        self.tailcv.source_threshold_scan(small, (60, 140), workers=1)

    def replications(self, output):
        return self.config.replications

    def operations(self, output):
        return (self.config.replications * len(output),
                sum(point.failed for point in output))

    @staticmethod
    def argmin_l(output) -> int:
        return output[int(np.argmin([point.median for point in output]))].l

    def check(self, output):
        """Recompute whole l columns cell by cell and compare the summaries."""
        tc, config = self.tailcv, self.config
        by_l = {point.l: point for point in output}
        columns = sorted(set(SCAN_CHECK_L) | {self.argmin_l(output)})
        cells = {l: [] for l in columns}
        for index in range(config.replications):
            dataset = tc.generate_dataset(config, index)
            try:
                baseline = tc.hill(dataset.paired_target, config.k)
            except tc.EstimationError:
                baseline = None
            for l in columns:
                value = float("nan")
                if baseline is not None:
                    try:
                        variables = tc.build_cv_variables(dataset, config.k, l)
                        value = (baseline.variance_estimate
                                 - tc.variance_difference_plugin(
                                     variables, baseline.value))
                    except ValueError:  # EstimationError included
                        pass
                cells[l].append(value)
        made, mismatches = 0, []
        for l in columns:
            column = np.array(cells[l])
            finite = column[np.isfinite(column)]
            if finite.size:
                q1, median, q3 = np.percentile(finite, [25.0, 50.0, 75.0])
            else:
                q1 = median = q3 = float("nan")
            expected = {"q1": q1, "median": median, "q3": q3,
                        "negative_count": int(np.count_nonzero(finite < 0)),
                        "failed": int(column.size - finite.size)}
            for key, value in expected.items():
                got = getattr(by_l[l], key)
                made += 1
                if not _same(got, value):
                    mismatches.append(f"l={l} {key}: run {got!r} != "
                                      f"direct {value!r}")
        return made, mismatches

    def reference_values(self, output):
        best = self.argmin_l(output)
        point = next(p for p in output if p.l == best)
        return {"argmin_l": str(best), "median_at_argmin": f"{point.median:.4e}"}

    def fingerprint(self, output):
        return _digest(repr(output))


class BootstrapWide(Workload):
    name = "bootstrap-wide"

    def _pool_path(self) -> str:
        return os.path.join(self.out_dir, "bootstrap-pool.csv")

    def prepare(self):
        tc = self.tailcv
        config = tc.ExperimentConfig(
            gamma_t=0.25, theta=5.0, n=5000, m=20000,
            source_marginal=tc.Marginal.standard_normal(), k=500,
            replications=1, seed=self.seed)
        tc.cli.write_semi_supervised_csv(self._pool_path(),
                                         tc.generate_dataset(config, 0))

    def probe_args(self):
        return ["data", self._pool_path()]

    def load(self):
        self.pool = self.tailcv.cli.load_data_file(self._pool_path()).dataset

    def _study(self, resamples: int):
        return self.tailcv.bootstrap_study(self.pool, n_sub=BOOTSTRAP_N_SUB,
                                           resamples=resamples, k=BOOTSTRAP_K)

    def call(self):
        return self._study(self.size)

    def warm_up(self):
        self._study(2)

    def replications(self, output):
        return output.resamples

    def operations(self, output):
        values = np.concatenate(list(output.estimates.values()))
        return values.size, sum(output.failures.values())

    def check(self, output):
        """A short run must reproduce the first resamples of the full run."""
        short_count = min(BOOTSTRAP_SHORT, self.size)
        short = self._study(short_count)
        made, mismatches = 0, []
        for name, values in short.estimates.items():
            for index in range(short_count):
                made += 1
                got = output.estimates[name][index]
                if not _same(got, values[index]):
                    mismatches.append(f"resample {index} {name}: full run "
                                      f"{got!r} != short run {values[index]!r}")
        return made, mismatches

    def reference_values(self, output):
        return _method_stats(output.estimates)

    def fingerprint(self, output):
        arrays = [output.estimates[name].tobytes()
                  for name in sorted(output.estimates)]
        return _digest(*arrays)


WORKLOADS = {cls.name: cls for cls in (HeadlineStudy, ThresholdScan,
                                       BootstrapWide)}
