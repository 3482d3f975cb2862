"""Benchmark for tailcv: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload headline-study --seed 20260826 \
        --seconds 30 --trace 0

Workloads are listed in BENCHMARK.json, which also names every metric and
its unit. ``--trace 0`` measures the end-to-end metrics with nothing
wrapped. ``--trace 1`` makes the same unwrapped calls and, between them,
calls with each layer wrapped (see tracing.py) for half as long again; those
give the per-layer metrics. Everything runs in one process with
``workers=1`` and BLAS/OpenMP pinned to one thread, except the set-up
probes, fresh processes run one at a time.

The last line of standard output is the JSON result. Full results with run
metadata, and the spans of a traced run, go to ``.perfbench_out/``.
"""

import os

# Pinned before numpy is first imported, and inherited by the set-up probes.
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer, installed, write_spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
REQUIRED_FILES = (os.path.join("src", "tailcv", "__init__.py"),
                  os.path.join("configs", "headline.cfg"))
SEGMENTS = 7
SETUP_PROBES = 2  # per segment
OVERHEAD = "trace.overhead_frac"
TRACED_PASSES = 2  # at least; their call counts must match exactly


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)


def import_tailcv(root: str):
    """Import tailcv from the checkout's src/, never from elsewhere."""
    missing = [path for path in REQUIRED_FILES
               if not os.path.isfile(os.path.join(root, path))]
    if missing:
        raise BenchmarkError(f"not a tailcv checkout: missing {', '.join(missing)}")
    src = os.path.join(root, "src")
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    tailcv = importlib.import_module("tailcv")
    importlib.import_module("tailcv.cli")
    location = os.path.dirname(os.path.abspath(tailcv.__file__))
    if location != os.path.join(src, "tailcv"):
        raise BenchmarkError(f"tailcv imported from {tailcv.__file__}, not {src}")
    return tailcv


def host_probe_ms() -> float:
    """Median time of a fixed pure-numpy job; informational only."""
    data = np.random.default_rng(0).random(100_000)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(5):
            np.sort(data)
            np.log(data).sum()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def setup_seconds(root: str, workload) -> float:
    """Seconds from process start to the first replication, in a fresh process.

    A run reports the least of its samples: like the fastest calls, the
    fastest set-up is the one least disturbed by other load on the host.
    """
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"), root,
               *workload.probe_args()]
    start = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True, timeout=120,
                          check=False)
    if done.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1]) - start


def timed_calls(workload, seconds: float, min_calls: int,
                tracer: Tracer | None = None) -> list[dict]:
    """Call the workload for ``seconds`` (at least min_calls times).

    A call is started only if one more call as long as the last one ends
    before the deadline, so a run never overshoots by a whole call. With a
    tracer, each call is one traced pass with its own spans and metrics.
    """
    calls = []
    deadline = time.perf_counter() + seconds
    while (len(calls) < min_calls
           or time.perf_counter() + calls[-1]["seconds"] <= deadline):
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        output = workload.call()
        elapsed = time.perf_counter() - start
        attempted, failed = workload.operations(output)
        calls.append({"seconds": elapsed,
                      "replications": workload.replications(output),
                      "attempted": attempted, "failed": failed,
                      "fingerprint": workload.fingerprint(output),
                      "output": output if not calls else None})
        if tracer is not None:
            calls[-1].update(metrics=tracer.pass_metrics(), spans=tracer.spans)
    return calls


def reps_per_s(calls: list[dict]) -> float:
    """Replications per second of the fastest call.

    Host speed on a shared machine swings by up to 2x within seconds, and a
    run's median call follows it, as does the median of its fastest 5% or
    25% of calls. The fastest of many short calls is the least-disturbed
    measurement of the same work. It grows with the number of calls a run
    makes, but little: half as many calls lower it by about 1%, 5% at most.
    """
    return max(c["replications"] / c["seconds"] for c in calls)


def traced_calls(tailcv, workload, seconds: float, names) -> list[dict]:
    """Traced passes for ``seconds``, at least TRACED_PASSES of them."""
    with installed(tailcv, names) as tracer:
        return timed_calls(workload, seconds, TRACED_PASSES, tracer)


def loader_us(tailcv, workload, names) -> dict[str, float]:
    """Traced µs per call of the input loaders."""
    with installed(tailcv, names) as tracer:
        for _ in range(SEGMENTS):
            workload.load()
        return tracer.loader_metrics()


def metadata(root: str, args_used: dict) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30,
                              check=False)
        commit = done.stdout.strip() if done.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "thread_pins": THREAD_PINS,
        "workers": 1,
        **args_used,
    }


def check_reference(workload, output,
                    reference: dict) -> tuple[int, list[str], bool]:
    """Compare with the stored default-seed values at their printed precision."""
    if workload.seed != reference["default_seed"] or not workload.full_size:
        return 0, [], False
    stored = reference["workloads"][workload.name]
    got = workload.reference_values(workload.reference_output(output))
    mismatches = [f"reference {key}: run {got.get(key)} != stored {value}"
                  for key, value in stored["values"].items()
                  if got.get(key) != value]
    return len(stored["values"]), mismatches, True


def per_layer_metrics(names: list[str], calls: list[dict], passes: list[dict],
                      loaders: dict[str, float]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes, and exact-count guard errors.

    Call counts and failures must be equal in every traced pass; times are
    medians over the passes.
    """
    metrics, errors = dict(loaders), []
    for key in names:
        if key in metrics:
            continue
        values = [p["metrics"][key] for p in passes]
        if key.endswith("_calls"):
            if len(set(values)) != 1:
                errors.append(f"count guard: {key} differs between traced "
                              f"passes: {sorted(set(values))}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    if len({p["failed"] for p in passes}) != 1:
        errors.append("count guard: failures differ between traced passes")
    metrics[OVERHEAD] = 1.0 - reps_per_s(passes) / reps_per_s(calls)
    return metrics, errors


def run(root: str, workload_name: str, seed: int, seconds: float, trace: bool,
        size: int | None = None, segments: int = SEGMENTS) -> dict:
    """Run one workload and return the full result (metrics and metadata)."""
    spec = load_spec(root)
    reference = load_reference()
    tailcv = import_tailcv(root)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[workload_name](tailcv, root, seed, out_dir, size)
    workload.prepare()
    probe_before = host_probe_ms()

    traced_names = [m["name"] for m in spec["per_layer"]
                    if m["name"] != OVERHEAD]
    workload.load()
    workload.warm_up()
    # The run is cut into segments, each two set-up probes (or a stretch of
    # traced calls) followed by unwrapped calls. Host speed drifts within a
    # run, so set-up samples and traced calls are spread over all of it.
    setup, calls, passes = [], [], []
    for _ in range(segments):
        if trace:
            passes += traced_calls(tailcv, workload, seconds / segments / 2,
                                   traced_names)
        else:
            setup += [setup_seconds(root, workload)
                      for _ in range(SETUP_PROBES)]
        calls += timed_calls(workload, seconds / segments, min_calls=1)
    first = calls[0]["output"]

    errors: list[str] = []
    checks_made, mismatches = workload.check(first)
    errors += mismatches
    made, mismatches, reference_checked = check_reference(workload, first,
                                                          reference)
    checks_made += made
    errors += mismatches

    fingerprints = [c["fingerprint"] for c in calls + passes]
    for index, fingerprint in enumerate(fingerprints[1:], start=1):
        checks_made += 1
        if fingerprint != fingerprints[0]:
            kind = "traced" if index >= len(calls) else "untraced"
            errors.append(f"call {index} ({kind}) gave other outputs than call 0")

    attempted = sum(c["attempted"] for c in calls + passes) + checks_made
    failed = sum(c["failed"] for c in calls + passes) + len(errors)
    if trace:
        metrics, guard_errors = per_layer_metrics(
            traced_names, calls, passes,
            loader_us(tailcv, workload, traced_names))
        errors += guard_errors
        write_spans(os.path.join(out_dir, f"spans-{workload_name}-{seed}.csv"),
                    [p["spans"] for p in passes])
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"reps_per_s": reps_per_s(calls),
                   "setup_s": min(setup),
                   "peak_rss_mb": rss_kib / 1024}
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    probe_after = host_probe_ms()

    result = {
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
        "failed_frac": failed / attempted,
        "errors": errors,
        "reference_checked": reference_checked,
        "call_seconds": [c["seconds"] for c in calls],
        "traced_call_seconds": [p["seconds"] for p in passes],
        "setup_samples_s": setup,
        "replications_per_call": workload.size,
        "fingerprints": sorted(set(fingerprints)),
        "metadata": metadata(root, {
            "workload": workload_name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "host_probe_ms": {"before": probe_before,
                                                   "after": probe_after}}),
    }
    if trace and seed == DEFAULT_SEED:
        result["baseline_counts"] = reference["workloads"][workload_name][
            "baseline_counts"]
    path = os.path.join(out_dir,
                        f"result-{workload_name}-{seed}-trace{int(trace)}.json")
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1)
    return result


def summary_lines(result: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, then the checks."""
    meta = result["metadata"]
    probe = meta["host_probe_ms"]
    baseline = result.get("baseline_counts", {})
    lines = [f"workload {meta['workload']} seed {meta['seed']} "
             f"run {meta['seconds']} s trace {meta['trace']} "
             f"calls {len(result['call_seconds'])} x "
             f"{result['replications_per_call']} replications"]
    for name, metric in result["metrics"].items():
        extra = f"  (baseline {baseline[name]})" if name in baseline else ""
        lines.append(f"  {name:<29} {metric['value']:.6g} {metric['unit']}{extra}")
    lines += [
        f"  {'failed_frac':<29} {result['failed_frac']:.6g} ratio "
        f"({result['failed']} of {result['attempted']} operations)",
        f"  host_probe_ms before {probe['before']:.3f} "
        f"after {probe['after']:.3f} (informational)",
        f"  reference values checked: {result['reference_checked']}",
    ]
    lines += [f"  ERROR {message}" for message in result["errors"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    for line in summary_lines(result):
        print(line)
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
