"""Command-line surface: data ingestion, configs, and report emission.

Subcommands
-----------
estimate        point estimates + dependence report for a CSV dataset (JSON)
simulate        replicated variance-reduction study (rvr_report.json + estimates.csv)
rvr-sweep       re-run the study over a parameter grid (sweep.csv)
hill-plot       estimate-versus-k table for the coupled target sample (CSV)
threshold-scan  analytic-variance scan over the source extremes count (CSV)
bootstrap       subsample-and-reestimate value table (CSV)

Data files are CSV with header ``target,source``; an empty target cell marks
an unpaired source row. Config files are flat ``key = value`` text. All CSV
numbers carry 17 significant digits so files re-parse to the exact binary
values; diagnostics go to stderr, never into data streams.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .acv import SufficientStatistics
from .core import EstimationError, SemiSupervisedDataset, _json_fields
from .dependence import _dependence_report
from .estimators import hill_plot
from .simulate import (
    DEFAULT_ESTIMATORS,
    ExperimentConfig,
    Marginal,
    _normalize_estimators,
    _validated_k,
    bootstrap_study,
    marginal_for_evi,
    run_rvr_experiment,
    source_threshold_scan,
)
from .transfer import ESTIMATORS

__all__ = [
    "DataFile",
    "load_data_file",
    "write_semi_supervised_csv",
    "load_experiment_config",
    "main",
]

_HEADER = ("target", "source")


@dataclass(frozen=True)
class DataFile:
    """A parsed semi-supervised data file and its provenance path."""

    path: str
    dataset: SemiSupervisedDataset


def _parse_cell(text: str, path: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{path}:{line}: not a number: '{text}'") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{line}: non-finite value '{text}'")
    return value


def load_data_file(path: str) -> DataFile:
    """Parse a target,source CSV file into a dataset with provenance.

    Rows with a non-empty target cell form the coupled set, rows with an
    empty target cell the unpaired source extras, both in file order. At
    least 3 coupled rows are required. Malformed content is reported with
    its 1-based line number.
    """
    targets: list[float] = []
    sources: list[float] = []
    extras: list[float] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}:1: empty file") from None
        if tuple(cell.strip() for cell in header) != _HEADER:
            raise ValueError(f"{path}:1: header must be 'target,source'")
        for line, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{line}: expected 2 cells, got {len(row)}")
            target_cell, source_cell = (cell.strip() for cell in row)
            source = _parse_cell(source_cell, path, line)
            if target_cell:
                targets.append(_parse_cell(target_cell, path, line))
                sources.append(source)
            else:
                extras.append(source)
    if len(targets) < 3:
        raise ValueError(f"{path}: needs at least 3 coupled rows, got {len(targets)}")
    dataset = SemiSupervisedDataset(
        paired_target=np.array(targets),
        paired_source=np.array(sources),
        extra_source=np.array(extras),
    )
    return DataFile(path=path, dataset=dataset)


def _fmt(value: float) -> str:
    # 17 significant digits: exact binary round-trip for float64.
    if not math.isfinite(value):
        return ""
    return f"{value:.17g}"


def write_semi_supervised_csv(path: str, dataset: SemiSupervisedDataset) -> None:
    """Write a dataset in the target,source format that load_data_file reads."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_HEADER)
        for target, source in zip(dataset.paired_target, dataset.paired_source):
            writer.writerow([_fmt(target), _fmt(source)])
        for source in dataset.extra_source:
            writer.writerow(["", _fmt(source)])


_CONFIG_TYPES = {
    "gamma_t": float,
    "gamma_s": float,
    "theta": float,
    "y_m": float,
    "shape_b": float,
    "n": int,
    "m": int,
    "k": int,
    "k_source": int,
    "replications": int,
    "seed": int,
    "estimators": str,
    "source_marginal": str,
}
_REQUIRED_CONFIG_KEYS = ("gamma_t", "theta", "n", "m")


def _resolve_source_marginal(raw: dict, path: str) -> Marginal:
    family = raw.get("source_marginal")
    gamma_s = raw.get("gamma_s")
    shape_b = raw.get("shape_b")
    y_m = raw.get("y_m", 1e-3)
    if family is None:
        if gamma_s is None:
            raise ValueError(f"{path}: set source_marginal or gamma_s")
        return marginal_for_evi(gamma_s, y_m)
    if family == "pareto":
        if gamma_s is None or gamma_s <= 0:
            raise ValueError(f"{path}: pareto source needs gamma_s > 0")
        return Marginal.pareto(gamma_s, y_m)
    if family == "normal":
        return Marginal.standard_normal()
    if family == "beta":
        if shape_b is not None:
            return Marginal.beta(shape_b)
        if gamma_s is not None and gamma_s < 0:
            return Marginal.beta(-1.0 / gamma_s)
        raise ValueError(f"{path}: beta source needs shape_b or negative gamma_s")
    raise ValueError(f"{path}: unknown source_marginal '{family}'")


def load_experiment_config(path: str) -> ExperimentConfig:
    """Parse a flat key = value config file into an ExperimentConfig.

    Keys mirror the config fields (gamma_t, theta, n, m, k, k_source,
    replications, seed, estimators, y_m) plus the source-marginal spelling
    (source_marginal = pareto|normal|beta with gamma_s/shape_b, or gamma_s
    alone with the family inferred from its sign). '#' starts a comment.
    Unknown and duplicate keys are errors with their 1-based line number.
    """
    raw: dict = {}
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{line_number}: expected 'key = value'")
            key, _, value = text.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{line_number}: unknown key '{key}'")
            if key in raw:
                raise ValueError(f"{path}:{line_number}: duplicate key '{key}'")
            try:
                raw[key] = _CONFIG_TYPES[key](value)
            except ValueError:
                raise ValueError(
                    f"{path}:{line_number}: bad value for '{key}': '{value}'"
                ) from None
    missing = [key for key in _REQUIRED_CONFIG_KEYS if key not in raw]
    if missing:
        raise ValueError(f"{path}: missing required keys: {', '.join(missing)}")
    marginal = _resolve_source_marginal(raw, path)
    # The other keys name ExperimentConfig fields. It parses the comma-separated
    # estimator names and gives the fields left out their defaults.
    kwargs = {key: value for key, value in raw.items()
              if key not in ("gamma_s", "shape_b", "source_marginal")}
    return ExperimentConfig(source_marginal=marginal, **kwargs)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _cmd_estimate(args) -> int:
    data = load_data_file(args.data)
    dataset = data.dataset
    print(f"loaded {data.path}: n={dataset.n} coupled, m={dataset.m} extra",
          file=sys.stderr)
    explicit = args.methods is not None
    if explicit:
        methods = _normalize_estimators(args.methods)
    else:
        methods = tuple(method for method in DEFAULT_ESTIMATORS
                        if dataset.m >= 1 or not method.is_transferred)
    # Rejected first, as ExperimentConfig rejects it: an estimator that never
    # reads the source would not notice an invalid k_source. With --methods
    # the error names the first method, as an estimator's failure does.
    try:
        _validated_k(args.k, args.k_source, dataset.n)
    except ValueError as exc:
        if not explicit:
            raise
        print(f"error: {methods[0].value}: {exc}", file=sys.stderr)
        return 1
    stats = SufficientStatistics.of(dataset, args.k, args.k_source)
    estimates = {}
    for method in methods:
        try:
            estimate = ESTIMATORS[method](stats)
        except EstimationError as exc:
            if explicit:
                print(f"error: {method.value}: {exc}", file=sys.stderr)
                return 1
            print(f"diagnostic: {method.value}: {exc}", file=sys.stderr)
            continue
        # The method already keys the record.
        estimates[method.value] = _json_fields(estimate, omit=("method",))
    try:
        dependence = _json_fields(_dependence_report(stats))
    except EstimationError as exc:
        print(f"diagnostic: dependence report unavailable: {exc}",
              file=sys.stderr)
        dependence = None
    payload = {
        "n": dataset.n,
        "m": dataset.m,
        "k": args.k,
        "k_source": args.k_source if args.k_source is not None else args.k,
        "estimates": estimates,
        "dependence": dependence,
    }
    _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def _load_config_with_overrides(args) -> ExperimentConfig:
    config = load_experiment_config(args.config)
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return config


def _write_csv(path: str | None, header: list, rows: list) -> None:
    def render(out):
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    if path is None:
        render(sys.stdout)
    else:
        with open(path, "w", newline="") as handle:
            render(handle)


def _cmd_simulate(args) -> int:
    config = _load_config_with_overrides(args)
    report = run_rvr_experiment(config, workers=args.workers)
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "rvr_report.json")
    with open(report_path, "w") as handle:
        json.dump(report.to_dict(), handle, indent=2)
        handle.write("\n")
    rows = []
    for replication in range(report.replications):
        for method in config.estimators:
            value = report.estimates[method.value][replication]
            rows.append([replication, method.value, _fmt(value)])
    _write_csv(os.path.join(args.out, "estimates.csv"),
               ["replication", "method", "value"], rows)
    for pair in report.pairs:
        print(f"{pair.transferred.value} vs {pair.baseline.value}: "
              f"rvr={pair.rvr:.4f}", file=sys.stderr)
    print(f"wrote {report_path}", file=sys.stderr)
    return 0


_SWEEP_CASTS = {key: _CONFIG_TYPES[key]
                for key in ("theta", "m", "n", "gamma_t", "gamma_s")}


def _config_with(config: ExperimentConfig, vary: str, value) -> ExperimentConfig:
    if vary == "gamma_s":
        return replace(config, source_marginal=marginal_for_evi(value, config.y_m))
    if vary == "n":
        # k and k_source revert to their defaults for the new sample size.
        return replace(config, n=value, k=None, k_source=None)
    return replace(config, **{vary: value})


def _cmd_rvr_sweep(args) -> int:
    config = _load_config_with_overrides(args)
    cast = _SWEEP_CASTS[args.vary]
    try:
        values = [cast(piece.strip()) for piece in args.values.split(",")
                  if piece.strip()]
    except ValueError:
        raise ValueError(f"bad --values list: '{args.values}'") from None
    if not values:
        raise ValueError("empty --values list")
    rows = []
    for value in values:
        point = _config_with(config, args.vary, value)
        report = run_rvr_experiment(point, workers=args.workers)
        for pair in report.pairs:
            rows.append([
                _fmt(float(value)) if isinstance(value, float) else value,
                pair.baseline.value,
                _fmt(pair.rvr),
                _fmt(pair.variance_baseline),
                _fmt(pair.variance_transferred),
                _fmt(report.dependence.lambda_hat),
            ])
        print(f"{args.vary}={value}: done", file=sys.stderr)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "sweep.csv"),
               [args.vary, "pair", "rvr", "var_base", "var_new", "lambda_hat"],
               rows)
    return 0


def _cmd_hill_plot(args) -> int:
    dataset = load_data_file(args.data).dataset
    series = hill_plot(dataset.paired_target, args.k_min, args.k_max, args.step)
    rows = [[int(k), _fmt(estimate)]
            for k, estimate in zip(series.k_values, series.estimates)]
    _write_csv(args.out, ["k", "estimate"], rows)
    return 0


def _cmd_threshold_scan(args) -> int:
    if args.step < 1:
        raise ValueError("step must be positive")
    config = _load_config_with_overrides(args)
    l_values = range(args.l_min, args.l_max + 1, args.step)
    points = source_threshold_scan(config, l_values, workers=args.workers)
    rows = [[point.l, _fmt(point.median), _fmt(point.q1), _fmt(point.q3),
             point.negative_count, point.failed] for point in points]
    _write_csv(args.out, ["l", "median", "q1", "q3", "negative_count", "failed"],
               rows)
    medians = np.array([point.median for point in points])
    if np.isnan(medians).all():
        print("median analytic variance: no finite median at any l",
              file=sys.stderr)
    else:
        best = points[int(np.nanargmin(medians))]
        print(f"median analytic variance minimized at l = {best.l}",
              file=sys.stderr)
    return 0


def _cmd_bootstrap(args) -> int:
    dataset = load_data_file(args.data).dataset
    result = bootstrap_study(
        dataset, n_sub=args.n_sub, resamples=args.resamples, k=args.k,
        estimators=DEFAULT_ESTIMATORS if args.methods is None else args.methods,
        seed=args.seed, k_source=args.k_source,
        with_replacement=args.with_replacement,
    )
    rows = []
    for name, values in result.estimates.items():
        for resample, value in enumerate(values):
            if math.isfinite(value):
                rows.append([name, resample, _fmt(value)])
    for name, count in result.failures.items():
        if count:
            print(f"diagnostic: {name}: {count} failed resamples",
                  file=sys.stderr)
    _write_csv(args.out, ["method", "resample", "value"], rows)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailcv",
        description="Tail-index estimation with transfer from a correlated "
                    "source sample.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="point estimates for a CSV dataset")
    p_est.add_argument("--data", required=True, help="target,source CSV file")
    p_est.add_argument("--k", type=int, required=True,
                       help="number of target extremes")
    p_est.add_argument("--k-source", type=int, default=None,
                       help="number of source extremes (default: k)")
    p_est.add_argument("--methods", default=None,
                       help="comma-separated estimators (default: baselines, "
                            "plus transferred when extras exist)")
    p_est.add_argument("--out", default=None, help="JSON path (default: stdout)")
    p_est.set_defaults(func=_cmd_estimate)

    p_sim = sub.add_parser("simulate", help="replicated variance study")
    p_sim.add_argument("--config", required=True, help="key = value config file")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_sim.add_argument("--workers", type=int, default=None,
                       help="process count (default: TAILCV_WORKERS or 1)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("rvr-sweep", help="variance study over a grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--vary", required=True, choices=sorted(_SWEEP_CASTS))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values for the varied parameter")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--workers", type=int, default=None)
    p_sweep.set_defaults(func=_cmd_rvr_sweep)

    p_plot = sub.add_parser("hill-plot", help="estimate-versus-k table")
    p_plot.add_argument("--data", required=True)
    p_plot.add_argument("--k-min", type=int, required=True)
    p_plot.add_argument("--k-max", type=int, required=True)
    p_plot.add_argument("--step", type=int, default=1)
    p_plot.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_plot.set_defaults(func=_cmd_hill_plot)

    p_scan = sub.add_parser("threshold-scan",
                            help="analytic variance over source extremes counts")
    p_scan.add_argument("--config", required=True)
    p_scan.add_argument("--l-min", type=int, required=True)
    p_scan.add_argument("--l-max", type=int, required=True)
    p_scan.add_argument("--step", type=int, default=1)
    p_scan.add_argument("--seed", type=int, default=None)
    p_scan.add_argument("--workers", type=int, default=None)
    p_scan.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_scan.set_defaults(func=_cmd_threshold_scan)

    p_boot = sub.add_parser("bootstrap", help="subsample-and-reestimate table")
    p_boot.add_argument("--data", required=True)
    p_boot.add_argument("--n-sub", type=int, required=True,
                        help="coupled rows per resample")
    p_boot.add_argument("--resamples", type=int, required=True)
    p_boot.add_argument("--k", type=int, required=True)
    p_boot.add_argument("--k-source", type=int, default=None)
    p_boot.add_argument("--methods", default=None)
    p_boot.add_argument("--seed", type=int, default=0)
    p_boot.add_argument("--with-replacement", action="store_true")
    p_boot.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_boot.set_defaults(func=_cmd_bootstrap)
    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (EstimationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
