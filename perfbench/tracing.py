"""Span tracer that times tailcv's layers from outside the package.

Only the traced run installs it. It replaces each layer function at every
module attribute that resolves to it (``threshold_at`` lives in ``core``,
``estimators`` and ``dependence``; ``build_cv_variables`` in ``core``,
``simulate`` and ``transfer``), so calls are caught whichever module makes
them. Spans stay in memory until the run ends.

The per-layer metric names are listed only in BENCHMARK.json: a name is
``<stem>_us`` or ``<stem>_calls`` for a stem in the target tables below,
or one of DERIVED_METRICS.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

import numpy as np

# (metric stem, module that defines it, attribute, kind). A "span" records
# a span and a call count; a "count" wrapper only counts, so the callee's time
# stays in its caller's self time. "rep" opens the per-replication span.
FUNCTION_TARGETS = (
    ("simulate.generate", "simulate", "generate_dataset", "span"),
    ("simulate.copula", "simulate", "sample_gumbel_copula", "span"),
    ("core.build_cv", "core", "build_cv_variables", "span"),
    ("estimators.hill", "estimators", "hill", "span"),
    ("acv.coefficients", "acv", "acv_ratio_coefficients", "span"),
    ("acv.corrected_ratio", "acv", "corrected_ratio", "span"),
    ("acv.variance_plugin", "acv", "variance_difference_plugin", "span"),
    ("transfer.hill", "transfer", "transferred_hill_from_variables", "span"),
    ("transfer.moment", "transfer", "transferred_moment_from_variables", "span"),
    ("dependence.tail_dependence", "dependence", "tail_dependence", "span"),
    ("dependence.cv_correlations", "dependence", "cv_correlations", "span"),
    ("dependence.scaled_moments", "dependence", "_joint_scaled_excess_moments",
     "span"),
    ("dependence.resolve_gamma", "dependence", "_resolve_gamma_hats", "count"),
    ("core.threshold", "core", "threshold_at", "count"),
    ("core.log_excess", "core", "log_excess_indicators", "count"),
    ("acv.moment_statistics", "acv", "moment_statistics", "count"),
    ("cli.load_config", "cli", "load_experiment_config", "span"),
    ("cli.load_data", "cli", "load_data_file", "span"),
    ("simulate.rep", "simulate", "_run_replication", "rep"),
    ("simulate.rep", "simulate", "_scan_replication", "rep"),
    ("simulate.bootstrap", "simulate", "bootstrap_study", "bootstrap"),
    ("simulate.stream", "simulate", "_stream", "stream"),
)

# (metric stem, module, class, method): methods are wrapped on the class.
METHOD_TARGETS = (
    ("simulate.quantile", "simulate", "Marginal", "quantile"),
    ("core.dataset", "core", "SemiSupervisedDataset", "__post_init__"),
)

MODULES = ("core", "estimators", "acv", "transfer", "dependence", "simulate",
           "cli")

REP = "simulate.rep"
BOOTSTRAP = "simulate.bootstrap"

# Stems that may appear in per-layer metric names.
STEMS = frozenset(target[0] for target in FUNCTION_TARGETS + METHOD_TARGETS)
LOADERS = ("cli.load_config", "cli.load_data")
# Per-layer metrics that are not a stem's self time or call count.
DERIVED_METRICS = ("simulate.self_us", "simulate.rep_us_p50",
                   "simulate.rep_us_p90", "acv.degenerate_frac",
                   "transfer.error_frac")


def metric_stem(name: str, suffix: str) -> str:
    """The traced function behind a per-layer metric ``<stem><suffix>``."""
    stem = name[:-len(suffix)]
    if stem not in STEMS:
        raise ValueError(f"per-layer metric {name}: no traced function {stem}")
    return stem


class Tracer:
    """Spans and call counts for one traced pass.

    ``names`` are the per-layer metrics it reports (BENCHMARK.json lists
    them). A span is ``[name, start, end, parent index, replication id,
    raised]``.
    """

    def __init__(self, names):
        self.loader_names = [n for n in names if n[:-3] in LOADERS]
        self.pass_names = [n for n in names if n not in self.loader_names]
        for name in self.pass_names:  # fail now on a name with no stem
            if name not in DERIVED_METRICS:
                suffix = "_calls" if name.endswith("_calls") else "_us"
                metric_stem(name, suffix)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.rep = -1
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                self.rep, False]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        self.counts[name] += 1
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self.stack.pop()

    def _top_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _wrap(self, stem: str, kind: str, fn):
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[stem] += 1
                return fn(*args, **kwargs)
            return counted

        if kind == "stream":
            # bootstrap_study has no per-resample function: each resample
            # starts by drawing its stream, so that call opens the next
            # resample's span.
            @functools.wraps(fn)
            def stream(*args, **kwargs):
                self.counts[stem] += 1
                if self._top_name() in (BOOTSTRAP, REP):
                    if self._top_name() == REP:
                        self._close(self.spans[self.stack[-1]])
                    self.rep = args[1]
                    self._open(REP)
                return fn(*args, **kwargs)
            return stream

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if kind == "rep":
                self.rep = args[-1]
            span = self._open(stem)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                if kind == "bootstrap" and self._top_name() == REP:
                    self._close(self.spans[self.stack[-1]])
                self._close(span)
            if stem == "acv.coefficients":
                self.counts["acv.degenerate"] += bool(result.degenerate)
            return result
        return spanned

    # -- installation ------------------------------------------------------

    def install(self, tailcv) -> None:
        """Wrap every target at every module attribute bound to it."""
        modules = [tailcv] + [getattr(tailcv, name) for name in MODULES]
        for stem, owner, attr, kind in FUNCTION_TARGETS:
            original = getattr(getattr(tailcv, owner), attr)
            wrapper = self._wrap(stem, kind, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapper)
        for stem, owner, cls_name, attr in METHOD_TARGETS:
            cls = getattr(getattr(tailcv, owner), cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(stem, "span", original))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()

    def reset(self) -> None:
        """Start a new pass; the caller keeps the old spans if it needs them."""
        if self.stack:
            raise RuntimeError("reset with open spans")
        self.spans = []
        self.counts = Counter()
        self.rep = -1

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        durations = np.array([s[2] - s[1] for s in self.spans])
        covered = np.zeros(len(self.spans))
        for span, duration in zip(self.spans, durations):
            if span[3] >= 0:
                covered[span[3]] += duration
        totals: Counter = Counter()
        for span, duration, child in zip(self.spans, durations, covered):
            totals[span[0]] += duration - child
        return dict(totals)

    def pass_metrics(self) -> dict[str, float]:
        """The per-layer metrics of a workload pass, other than the loaders'.

        ``<stem>_us`` is self time in µs per replication and
        ``<stem>_calls`` calls per replication, for a stem in STEMS.
        """
        rep_us = np.array([(s[2] - s[1]) * 1e6 for s in self.spans
                           if s[0] == REP])
        reps = rep_us.size
        if reps == 0:
            raise RuntimeError("traced pass recorded no replications")
        totals = self.self_times()
        fits = self.counts["acv.coefficients"]
        transfer = [s[5] for s in self.spans
                    if s[0] in ("transfer.hill", "transfer.moment")]
        derived = {
            "simulate.self_us": totals[REP] * 1e6 / reps,
            "simulate.rep_us_p50": float(np.percentile(rep_us, 50)),
            "simulate.rep_us_p90": float(np.percentile(rep_us, 90)),
            "acv.degenerate_frac": (self.counts["acv.degenerate"] / fits
                                    if fits else 0.0),
            "transfer.error_frac": (sum(transfer) / len(transfer)
                                    if transfer else 0.0),
        }
        metrics = {}
        for name in self.pass_names:
            if name in DERIVED_METRICS:
                metrics[name] = derived[name]
            elif name.endswith("_calls"):
                metrics[name] = self.counts[metric_stem(name, "_calls")] / reps
            else:
                metrics[name] = (totals.get(metric_stem(name, "_us"), 0.0)
                                 * 1e6 / reps)
        return metrics

    def loader_metrics(self) -> dict[str, float]:
        """Median µs per call of each input loader, 0.0 for one not called."""
        out = {}
        for name in self.loader_names:
            stem = metric_stem(name, "_us")
            durations = [(s[2] - s[1]) * 1e6 for s in self.spans
                         if s[0] == stem]
            out[name] = float(np.median(durations)) if durations else 0.0
        return out


@contextlib.contextmanager
def installed(tailcv, names):
    """A tracer of the named metrics, wrapped around tailcv for the block."""
    tracer = Tracer(names)
    tracer.install(tailcv)
    try:
        yield tracer
    finally:
        tracer.uninstall()


def write_spans(path: str, passes: list[list[list]]) -> None:
    """Write spans as CSV: pass, name, start/end in ns, parent, rep, raised."""
    origin = min((p[0][1] for p in passes if p), default=0.0)
    with open(path, "w") as handle:
        handle.write("pass,name,start_ns,end_ns,parent,rep,raised\n")
        for number, spans in enumerate(passes):
            for name, start, end, parent, rep, raised in spans:
                handle.write(
                    f"{number},{name},{round((start - origin) * 1e9)},"
                    f"{round((end - origin) * 1e9)},{parent},{rep},"
                    f"{int(raised)}\n")
