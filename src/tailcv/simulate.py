"""Synthetic data generation and the replicated variance-reduction study.

Coupled (target, source) pairs are drawn from a Gumbel copula with Pareto,
standard normal, or Beta marginals; m extra source observations come from
fresh uniforms through the same source marginal. The experiment runner
replicates dataset generation and estimation, reporting empirical variances,
relative variance reduction (RVR) per estimator pair, and averaged dependence
diagnostics. Every random draw is a pure function of (seed, replication
index, variable role) through counter-based Philox streams, so replications
can run in any order or in parallel with bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from .acv import SufficientStatistics, _variance_differences
from .core import (
    EstimationError,
    Method,
    SemiSupervisedDataset,
    _check_finite_entries,
    _column_block,
    _integer,
    _json_fields,
    _source_sums,
    _valid_k,
    _validated_k,
)
from .dependence import _DIAGNOSTICS, DependenceReport, _diagnostics, _report
from .transfer import ESTIMATORS

__all__ = [
    "Marginal",
    "marginal_for_evi",
    "sample_gumbel_copula",
    "ExperimentConfig",
    "generate_dataset",
    "EstimatorSummary",
    "RvrPair",
    "RvrReport",
    "run_rvr_experiment",
    "ThresholdScanPoint",
    "source_threshold_scan",
    "BootstrapResult",
    "bootstrap_study",
]

# Variable roles keying the per-replication RNG streams.
_ROLE_COUPLED = 0
_ROLE_EXTRA = 1
_ROLE_BOOTSTRAP = 2

DEFAULT_ESTIMATORS = tuple(Method)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): INIT_A
# and MULT_A start and step hashmix's multiplier, INIT_B and MULT_B those of
# generate_state, and MIX_MULT_L and MIX_MULT_R are mix's multipliers; all
# act on 32-bit words, in a pool of 4.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
# Stream keys are derived for this many replication indices at a time.
_KEY_BLOCK = 1024
# Philox's starting counter, 0, as an array: Philox splits an int counter
# into words in a Python loop, about half its construction time.
_PHILOX_COUNTER = np.zeros(4, dtype=np.uint64)
_PHILOX_COUNTER.flags.writeable = False


def _stream(seed: int, index: int, role: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, replication index, role).

    It is ``Generator(Philox(SeedSequence(entropy=seed, spawn_key=(index,
    role))))``, draw for draw, with the Philox key read from
    ``_stream_keys``' table of the index's block instead of from a new
    SeedSequence. That table repeats SeedSequence's arithmetic with its
    constants (``_INIT_A``, ``_MULT_A``, ``_INIT_B``, ``_MULT_B``, ``_MIX_L``,
    ``_MIX_R``, from numpy/random/bit_generator.pyx) for a block of indices
    at once. The bit generator's ``seed_seq`` holds only the key, so it
    cannot spawn child sequences; nothing in tailcv spawns.
    """
    from ._philox_key import PhiloxKey  # loads numpy.random on the first stream

    block, offset = divmod(index, _KEY_BLOCK)
    key = _stream_keys(seed, block)[offset, role]
    return np.random.Generator(np.random.Philox(PhiloxKey(key), counter=_PHILOX_COUNTER))


def _words(value: int) -> list:
    """The 32-bit words of a non-negative int, lowest first, as SeedSequence
    reads it: one word below 2**32 (0 included), two below 2**64, and so on.
    A negative int raises SeedSequence's ValueError."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(hash_const: int, multiplier: int):
    """SeedSequence's word hash, whose constant steps by ``multiplier`` on
    each call: hashmix from (_INIT_A, _MULT_A), generate_state from
    (_INIT_B, _MULT_B). The masks keep ints to 32 bits; uint32 arrays wrap."""
    def hash_word(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * multiplier & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16
    return hash_word


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words."""
    result = (x * _MIX_L - y * _MIX_R) & _MASK32
    return result ^ result >> 16


@lru_cache(maxsize=2)
def _stream_keys(seed: int, block: int) -> np.ndarray:
    """Philox keys of indices block * _KEY_BLOCK + (0 .. _KEY_BLOCK - 1) by
    role 0-2, shape (_KEY_BLOCK, 3, 2) uint64: what
    ``SeedSequence(entropy=seed, spawn_key=(index, role)).generate_state(2,
    np.uint64)`` gives.

    SeedSequence reads the seed's words padded with zeros to the pool size,
    then the index's words, then the role's. It hashes the first four into
    the pool and mixes the pool's words with each other, which depends on the
    seed alone and runs on ints. Each later word is hashed and mixed into
    every pool word; that runs on uint32 arrays, the index's lowest word down
    the rows and the role across the columns. A block starts at a multiple of
    2**10, so its indices share every word but the lowest, and the lowest
    does not carry.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    words = _words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                pool[target] = _mix(pool[target], hashmix(pool[source]))

    def column(values):
        return [np.full((1, 1), value, dtype=np.uint32) for value in values]

    start = block * _KEY_BLOCK
    lowest = np.arange(_KEY_BLOCK, dtype=np.uint32)[:, None] + (start & _MASK32)
    pool = column(pool)
    for word in (column(words[_POOL_SIZE:]) + [lowest] + column(_words(start)[1:])
                 + [np.arange(_ROLE_BOOTSTRAP + 1, dtype=np.uint32)]):
        for target in range(_POOL_SIZE):
            pool[target] = _mix(pool[target], hashmix(word))
    # generate_state(2, np.uint64): four words from the pool, read as two
    # little-endian 64-bit words.
    state = np.stack(list(map(_hasher(_INIT_B, _MULT_B), pool)), axis=-1)
    keys = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    keys.flags.writeable = False  # the cache hands this one array to every caller
    return keys


# The parameters each marginal family reads.
_FAMILY_PARAMETERS = {"pareto": ("gamma", "y_m"), "normal": (), "beta": ("shape_b",)}

# The smallest and largest uniforms that generation draws (see ``_open_unit``).
_SMALLEST_UNIFORM = float(np.finfo(float).tiny)
_LARGEST_UNIFORM = math.nextafter(1.0, 0.0)

# Above this theta the copula's stable variate can come out non-finite and stop a
# study partway; at 20 that needs an angle within about 1e-16 of 0 or pi.
_THETA_MAX = 20.0


def _check_finite(instance, names) -> None:
    """Reject NaN and infinite fields, which every comparison lets through."""
    for name in names:
        if not math.isfinite(getattr(instance, name)):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class Marginal:
    """Marginal distribution specification for data generation.

    Families: "pareto" with tail index ``gamma`` > 0 and left endpoint
    ``y_m`` (cdf 1 - (y/y_m)**(-1/gamma) written with the index as the
    quantile exponent: quantile y_m*(1-u)**(-gamma)); "normal" for the
    standard normal (index 0); "beta" for Beta(1, shape_b) with quantile
    1 - (1-u)**(1/shape_b) and index -1/shape_b. A Pareto must have a finite
    quantile at 1 - 2**-53, the largest uniform that generation draws.
    """

    family: str
    gamma: float = 1.0
    y_m: float = 1e-3
    shape_b: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILY_PARAMETERS:
            raise ValueError(f"unknown marginal family '{self.family}'")
        _check_finite(self, _FAMILY_PARAMETERS[self.family])
        if self.family == "pareto":
            if self.gamma <= 0 or self.y_m <= 0:
                raise ValueError("pareto marginal needs gamma > 0 and y_m > 0")
            try:
                # As ``_quantile`` evaluates it: the power first, then y_m.
                largest = self.y_m * (1.0 - _LARGEST_UNIFORM) ** (-self.gamma)
            except OverflowError:
                largest = math.inf
            if not math.isfinite(largest):
                raise ValueError("pareto marginal overflows: its quantile at "
                                 "u = 1 - 2**-53 is not finite")
        if self.family == "beta" and self.shape_b <= 0:
            raise ValueError("beta marginal needs shape_b > 0")

    @staticmethod
    def pareto(gamma: float, y_m: float = 1e-3) -> "Marginal":
        return Marginal(family="pareto", gamma=gamma, y_m=y_m)

    @staticmethod
    def standard_normal() -> "Marginal":
        return Marginal(family="normal")

    @staticmethod
    def beta(shape_b: float) -> "Marginal":
        return Marginal(family="beta", shape_b=shape_b)

    @property
    def evi(self) -> float:
        """The extreme value index of this marginal."""
        if self.family == "pareto":
            return self.gamma
        if self.family == "normal":
            return 0.0
        return -1.0 / self.shape_b

    def quantile(self, u):
        """Quantile function at u in (0, 1); accepts arrays.

        Checks that every u lies strictly inside (0, 1), then applies the
        family's formula (``_quantile``).
        """
        arr = np.asarray(u, dtype=float)
        if arr.size and not (np.min(arr) > 0.0 and np.max(arr) < 1.0):
            raise ValueError("u must lie strictly inside (0, 1)")
        return self._quantile(arr)

    def _quantile(self, u: np.ndarray) -> np.ndarray:
        """The family's quantile formula on a float array, unchecked."""
        if self.family == "pareto":
            return self.y_m * (1.0 - u) ** (-self.gamma)
        if self.family == "normal":
            from scipy.special import ndtri  # loaded by normal marginals only
            return ndtri(u)
        return 1.0 - (1.0 - u) ** (1.0 / self.shape_b)

    def cdf(self, y):
        """Distribution function (used by round-trip checks)."""
        arr = np.asarray(y, dtype=float)
        if self.family == "pareto":
            return 1.0 - (arr / self.y_m) ** (-1.0 / self.gamma)
        if self.family == "normal":
            from scipy.special import ndtr
            return ndtr(arr)
        return 1.0 - (1.0 - arr) ** self.shape_b

    def to_dict(self) -> dict:
        names = _FAMILY_PARAMETERS[self.family]
        return {"family": self.family, **{name: getattr(self, name) for name in names}}


def marginal_for_evi(gamma: float, y_m: float = 1e-3) -> Marginal:
    """Marginal with the requested extreme value index.

    Positive gamma gives Pareto(gamma, y_m), zero the standard normal, and
    negative gamma the bounded Beta(1, -1/gamma).
    """
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    if gamma > 0:
        return Marginal.pareto(gamma, y_m)
    if gamma == 0:
        return Marginal.standard_normal()
    return Marginal.beta(-1.0 / gamma)


def sample_gumbel_copula(theta: float, count: int,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample pairs from the Gumbel copula with parameter theta >= 1.

    Uses the Marshall-Olkin frailty construction: a positive stable variate S
    of index 1/theta from the Chambers-Mallows-Stuck formula, two standard
    exponentials E1, E2, and U_i = exp(-(E_i/S)**(1/theta)). theta = 1 is the
    independence copula and is returned as plain uniforms. Outputs are nudged
    into the open interval (0, 1) by ``_open_unit`` as a numeric guard
    (relevant only with probability below 1e-19 per draw).

    Returns
    -------
    (u1, u2) : pair of np.ndarray of length ``count``
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if theta < 1.0:
        raise ValueError("theta must be >= 1")
    if count <= 0:
        raise ValueError("count must be positive")
    if theta == 1.0:
        u1 = rng.random(count)
        u2 = rng.random(count)
    else:
        index = 1.0 / theta
        angle = rng.uniform(0.0, np.pi, count)
        scale = rng.standard_exponential(count)
        stable = (np.sin(index * angle) / np.sin(angle) ** (1.0 / index)) * (
            np.sin((1.0 - index) * angle) / scale) ** ((1.0 - index) / index)
        e1 = rng.standard_exponential(count)
        e2 = rng.standard_exponential(count)
        u1 = np.exp(-((e1 / stable) ** index))
        u2 = np.exp(-((e2 / stable) ** index))
    return _open_unit(u1), _open_unit(u2)


def _open_unit(u: np.ndarray) -> np.ndarray:
    """Uniforms clipped in place into [tiny, 1 - 2**-53], strictly inside (0, 1).

    Only values outside that range move, and NaN stays NaN, as with
    ``np.clip``; ``u`` itself is returned. ``Generator.random`` returns 0.0
    with probability 2**-53 per draw, and the quantile formulas need
    ``0 < u < 1``, so generation applies them to these uniforms unchecked.
    """
    np.maximum(u, _SMALLEST_UNIFORM, out=u)
    return np.minimum(u, _LARGEST_UNIFORM, out=u)


def _normalize_estimators(estimators) -> tuple[Method, ...]:
    """Methods from Method members, their names, or comma-separated names."""
    if isinstance(estimators, str):
        estimators = [name.strip() for name in estimators.split(",") if name.strip()]
    known = {method.value for method in Method}
    methods = []
    for name in estimators:
        if not isinstance(name, Method) and name not in known:
            raise ValueError(f"unknown estimator '{name}'")
        methods.append(Method(name))
    if len(set(methods)) != len(methods):
        raise ValueError("duplicate estimators requested")
    if not methods:
        raise ValueError("at least one estimator required")
    return tuple(methods)


def _seed(value) -> int:
    seed = _integer(value, "seed")
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return seed


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of a replicated semi-supervised tail-estimation study.

    ``gamma_t`` is the target Pareto index (the target marginal is always
    Pareto(gamma_t, y_m)); ``source_marginal`` may be any supported family.
    ``k`` defaults to max(1, round(0.1 * n)) and ``k_source`` to ``k``.
    """

    gamma_t: float
    theta: float
    n: int
    m: int
    source_marginal: Marginal
    k: int | None = None
    k_source: int | None = None
    replications: int = 1000
    seed: int = 0
    estimators: tuple[Method, ...] = DEFAULT_ESTIMATORS
    y_m: float = 1e-3

    def __post_init__(self):
        _check_finite(self, ("gamma_t", "theta", "y_m"))
        for name in ("n", "m", "replications"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.gamma_t <= 0:
            raise ValueError("gamma_t must be positive")
        if self.theta < 1.0:
            raise ValueError("theta must be >= 1")
        if self.theta > _THETA_MAX:
            raise ValueError(f"theta must be <= {_THETA_MAX:g}")
        if self.n < 3:
            raise ValueError("n must be at least 3")
        if self.m < 0:
            raise ValueError("m must be non-negative")
        if self.y_m <= 0:
            raise ValueError("y_m must be positive")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        self.target_marginal  # rejects a target quantile that overflows
        k = max(1, round(0.1 * self.n)) if self.k is None else self.k
        k, k_source = _validated_k(k, self.k_source, self.n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "k_source", k_source)
        object.__setattr__(self, "estimators",
                           _normalize_estimators(self.estimators))

    @cached_property
    def target_marginal(self) -> Marginal:
        """Pareto(gamma_t, y_m), built and checked once per config."""
        return Marginal.pareto(self.gamma_t, self.y_m)


def _coupled_pairs(config: ExperimentConfig, replication_index: int) -> tuple:
    """The n coupled (target, source) values of one replication (role 0)."""
    rng = _stream(config.seed, replication_index, _ROLE_COUPLED)
    u_target, u_source = sample_gumbel_copula(config.theta, config.n, rng)
    return (config.target_marginal._quantile(u_target),
            config.source_marginal._quantile(u_source))


def generate_dataset(config: ExperimentConfig,
                     replication_index: int) -> SemiSupervisedDataset:
    """Generate one replication's dataset, deterministic in (seed, index).

    The n coupled pairs use the copula stream (role 0); the m extra source
    values use fresh uniforms from the extras stream (role 1) through the
    source marginal.
    """
    extra = np.empty(0)
    if config.m > 0:
        rng_extra = _stream(config.seed, replication_index, _ROLE_EXTRA)
        extra = config.source_marginal._quantile(_open_unit(rng_extra.random(config.m)))
    return SemiSupervisedDataset(*_coupled_pairs(config, replication_index), extra)


def _nanmean(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    return float(finite.mean()) if finite.size else float("nan")


def _nanvar(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    return float(np.var(finite, ddof=1)) if finite.size >= 2 else float("nan")


def _run_replication(config: ExperimentConfig, replication_index: int) -> dict:
    """One replication: dataset, requested estimates, dependence diagnostics."""
    dataset = generate_dataset(config, replication_index)
    return _replication_record(
        SufficientStatistics.of(dataset, config.k, config.k_source),
        config.estimators)


def _replication_record(stats: SufficientStatistics, estimators) -> dict:
    """Estimates and diagnostics of one dataset, NaN where one fails."""
    return {**_diagnostics(stats), **_estimate_values(stats, estimators)}


def _estimate_values(stats: SufficientStatistics, methods) -> dict:
    """Each method's estimate of one dataset by name, NaN where it fails.

    Only the values are kept, so no estimate object is built: the
    transferred Hill value comes without its plug-in variance.
    """
    values = {}
    for method in methods:
        try:
            values[method.value] = ESTIMATORS[method](stats, estimate=False)
        except EstimationError:
            values[method.value] = float("nan")
    return values


_task = None  # a pool worker's func, set once at its start, not sent per chunk


def _set_task(func) -> None:
    global _task
    _task = func


def _call_task(item):
    return _task(item)


def _map_replications(func, items, workers: int) -> list:
    """Apply func to each item (an index or a block of them), in a pool of
    ``workers`` processes, in item order."""
    workers = _integer(workers, "workers")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if workers == 1 or len(items) <= 1:
        return [func(item) for item in items]
    # Imported here so that serial runs never load the pool's modules.
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, len(items) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers, initializer=_set_task,
                             initargs=(func,)) as pool:
        return list(pool.map(_call_task, items, chunksize=chunksize))


def _columns(records, names) -> tuple[np.ndarray, np.ndarray]:
    """Per-index dict records as one row per name, and each row's failures.

    A failure is a value that is not finite, which is how a record marks a
    failed estimate.
    """
    columns = np.array([[record[name] for name in names] for record in records],
                       dtype=float).T.copy()
    return columns, np.count_nonzero(~np.isfinite(columns), axis=1)


@dataclass(frozen=True)
class EstimatorSummary:
    """Across-replication summary of one estimator."""

    method: Method
    mean: float
    variance: float
    bias: float
    failures: int


@dataclass(frozen=True)
class RvrPair:
    """Variance comparison of a transferred estimator against its baseline."""

    baseline: Method
    transferred: Method
    variance_baseline: float
    variance_transferred: float
    rvr: float


@dataclass(frozen=True)
class RvrReport:
    """Result of a replicated RVR experiment.

    ``estimates`` maps method names to per-replication value arrays (NaN for
    failed replications, which are excluded from the summaries and counted).
    ``dependence`` holds the per-field averages of the per-replication
    dependence diagnostics; ``asymptotic_rvr_mean`` averages the closed-form
    RVR approximation across replications.
    """

    config: ExperimentConfig
    replications: int
    estimates: dict = field(repr=False)
    summaries: dict
    pairs: tuple
    dependence: DependenceReport
    asymptotic_rvr_mean: float

    def to_dict(self) -> dict:
        """JSON-ready report without the per-replication estimates.

        The method already keys each summary, so its ``method`` field is
        left out.
        """
        return _json_fields(self, omit=("estimates", "method"))


def run_rvr_experiment(config: ExperimentConfig, workers: int = 1) -> RvrReport:
    """Run the replicated study and summarize variances, RVR, and diagnostics.

    Replications are independent and run in ``workers`` processes (default
    1, serial); the report is bit-identical for any worker count. An
    estimator failing in more than 10% of replications aborts with
    "unstable configuration", naming the estimator and its failure count.

    Parameters
    ----------
    config : ExperimentConfig
        Must request at least 2 replications.
    workers : int
        Process count for replication-level parallelism, at least 1.
    """
    if config.replications < 2:
        raise ValueError("need at least 2 replications")
    records = _map_replications(partial(_run_replication, config),
                                range(config.replications), workers)
    names = [method.value for method in config.estimators]
    columns, failed = _columns(records, names + list(_DIAGNOSTICS))
    estimates = dict(zip(names, columns))
    summaries = {}
    for method, values, failures in zip(config.estimators, columns, failed.tolist()):
        if failures > 0.1 * config.replications:
            raise EstimationError(
                f"unstable configuration: {method.value} failed in "
                f"{failures}/{config.replications} replications")
        mean = _nanmean(values)
        summaries[method.value] = EstimatorSummary(
            method=method, mean=mean, variance=_nanvar(values),
            bias=mean - config.gamma_t, failures=failures,
        )
    pairs = []
    for transferred in Method:
        baseline = transferred.baseline
        if (transferred.is_transferred and transferred in config.estimators
                and baseline in config.estimators):
            variance_baseline = summaries[baseline.value].variance
            variance_transferred = summaries[transferred.value].variance
            rvr = (variance_baseline - variance_transferred) / variance_baseline
            pairs.append(RvrPair(
                baseline=baseline, transferred=transferred,
                variance_baseline=variance_baseline,
                variance_transferred=variance_transferred, rvr=float(rvr),
            ))
    diagnostics = {key: _nanmean(values)
                   for key, values in zip(_DIAGNOSTICS, columns[len(names):])}
    return RvrReport(
        config=config, replications=config.replications, estimates=estimates,
        summaries=summaries, pairs=tuple(pairs), dependence=_report(diagnostics),
        asymptotic_rvr_mean=diagnostics["asymptotic_rvr"],
    )


@dataclass(frozen=True)
class ThresholdScanPoint:
    """Distribution summary of the analytic transferred-Hill variance at one l.

    ``negative_count`` counts replications whose analytic variance estimate
    was negative (retained in the quartiles, flagged here); ``failed`` counts
    replications where the plug-in was not computable at this l.
    """

    l: int
    median: float
    q1: float
    q3: float
    negative_count: int
    failed: int


# Replications a scan block holds: this many cells (replications times l
# values) over the l count, at least one. At 2,048 cells the block's arrays
# stay in cache, and the plug-in's numpy calls cost little per cell.
_SCAN_BLOCK_CELLS = 2048


def _scan_replication(config: ExperimentConfig, replication_index: int) -> tuple:
    """The n coupled (target, source) values of one replication, checked finite.

    ``_scan_block`` stacks them with the other replications of its block.
    """
    # No extra source value is drawn: m enters the plug-in only as a count.
    paired_target, source = _coupled_pairs(config, replication_index)
    _check_finite_entries(paired_target, "paired_target")
    _check_finite_entries(source, "paired_source")
    return paired_target, source


def _scan_block(config: ExperimentConfig, l_index: np.ndarray, block) -> np.ndarray:
    """The scan cells of the replications in ``block``, one row per l.

    The B replications' pairs, from ``_scan_replication``, stack into (B, n)
    target and source rows. One partition gives every target threshold, one
    (3, B, n) ``core._column_block`` the target columns, whose totals give
    each row's means and baseline Hill value and variance. ``core._source_sums``
    gives the (8, B, L) source sums, and one ``acv._variance_differences``
    call the plug-in at every cell. Each step is element-wise or along one
    row, so every cell has the bits of a replication evaluated alone. A row
    whose threshold is at or below 0, or with no exceedances, is all NaN.
    """
    targets, sources = map(np.array, zip(*(_scan_replication(config, index)
                                            for index in block)))
    k, n = config.k, config.n
    thresholds = np.partition(targets, -k - 1, axis=1)[:, -k - 1:-k]
    positive = thresholds > 0
    # A threshold at or below 0 is replaced by 1.0, so that no log warns;
    # its row's totals are then set to NaN.
    columns = _column_block(targets, np.where(positive, thresholds, 1.0))
    totals = np.add.reduce(columns, axis=-1)
    totals[:, ~positive[:, 0] | (totals[2] == 0)] = np.nan
    means = totals / n
    value = means[0] / means[2]
    variance = value * value / totals[2]
    differences = _variance_differences(
        _source_sums(sources, columns[0], columns[2], l_index),
        means[:, :, None], value[:, None], n, config.m)
    return (variance[:, None] - differences).T


# numpy's "linear" percentiles 25, 50 and 75, as fractions of the last index.
_QUARTILES = np.array([0.25, 0.5, 0.75])


def _linear_quartiles(columns: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.percentile(row[:count], [25, 50, 75])`` of each sorted row, as (3, L).

    numpy's "linear" method step for step, at every row at once: the
    virtual index (count - 1)·q and its floor; at or above the last index,
    both neighbours are the last cell and gamma is the virtual index less
    -1; then ``_lerp``'s two branches. A row with no cells gives NaN.
    """
    last = counts[:, None] - 1
    virtual = last * _QUARTILES
    previous = np.floor(virtual)
    top = virtual >= last
    rows = np.arange(len(columns))[:, None]
    below, above = (columns[rows, np.where(top, last, index).astype(np.intp)]
                    for index in (previous, previous + 1))
    gamma = virtual - np.where(top, -1.0, previous)
    diff = above - below
    quartiles = np.where(gamma >= 0.5, above - diff * (1 - gamma), below + diff * gamma)
    quartiles[counts == 0] = np.nan
    return quartiles.T


def source_threshold_scan(config: ExperimentConfig, l_values,
                          workers: int = 1) -> tuple:
    """Scan the source extremes count l for the analytic variance minimum.

    For each l, collects the plug-in analytic variance of the transferred
    Hill estimator (baseline plug-in variance minus the plug-in variance
    difference) across the configured replications and summarizes its
    distribution. Negative estimates are retained in the quartiles and
    counted per point; q1, median and q3 are numpy's linear percentiles of
    each l's finite cells, bit for bit, taken for every l at once.
    Replications run in blocks of about 2,048 cells (replications times l
    values): a block's B replications are (B, n) arrays, each row gives its
    sums at every l from one selection and sort, and one plug-in call takes
    the whole block. Blocks run in ``workers`` processes (default 1), with
    the same points at any count.

    Returns
    -------
    tuple of ThresholdScanPoint, one per l in input order.
    """
    l_tuple = tuple(_valid_k(l, config.n, "l") for l in l_values)
    if not l_tuple:
        raise ValueError("l_values must be non-empty")
    indices = range(config.replications)
    length = max(1, _SCAN_BLOCK_CELLS // len(l_tuple))
    blocks = [indices[start:start + length] for start in indices[::length]]
    columns = np.concatenate(_map_replications(
        partial(_scan_block, config, np.array(l_tuple)), blocks, workers), axis=1)
    # As NaN a failed cell sorts last, so a column's first `count` cells are
    # its finite ones, in order.
    failures = ~np.isfinite(columns)
    failed = np.count_nonzero(failures, axis=1)
    columns[failures] = np.nan
    columns.sort(axis=1)
    q1, median, q3 = _linear_quartiles(columns, columns.shape[1] - failed).tolist()
    negative = np.count_nonzero(columns < 0, axis=1)
    # Positional, in ThresholdScanPoint's field order.
    return tuple(map(ThresholdScanPoint, l_tuple, median, q1, q3,
                     negative.tolist(), failed.tolist()))


@dataclass(frozen=True)
class BootstrapResult:
    """Per-estimator value distributions across bootstrap resamples.

    ``estimates`` keeps one slot per resample (NaN where the estimator
    failed); ``successful`` gives the compacted value sequence.
    """

    estimates: dict
    failures: dict
    n_sub: int
    resamples: int
    with_replacement: bool

    def successful(self, method) -> np.ndarray:
        values = self.estimates[Method(method).value]
        return values[np.isfinite(values)]


def _resample_values(dataset: SemiSupervisedDataset, n_sub: int, k: int,
                     k_source: int, methods, with_replacement: bool, seed: int,
                     index: int) -> dict:
    """Estimates of one bootstrap resample by name, NaN where one fails."""
    rng = _stream(seed, index, _ROLE_BOOTSTRAP)
    if with_replacement:
        chosen = rng.integers(0, dataset.n, size=n_sub)
        rest = np.setdiff1d(np.arange(dataset.n), chosen)
    else:
        permutation = rng.permutation(dataset.n)
        chosen, rest = permutation[:n_sub], permutation[n_sub:]
    source = dataset.paired_source
    return _estimate_values(SufficientStatistics._of_pool(
        dataset.paired_target[chosen], source[chosen],
        (source[rest], dataset.extra_source), k, k_source), methods)


def bootstrap_study(dataset: SemiSupervisedDataset, n_sub: int, resamples: int,
                    k: int, estimators=DEFAULT_ESTIMATORS, seed: int = 0,
                    k_source: int | None = None, with_replacement: bool = False,
                    workers: int = 1) -> BootstrapResult:
    """Subsample the coupled pool and re-estimate, mimicking scarce targets.

    Each resample draws ``n_sub`` coupled pairs from the dataset's paired
    rows (without replacement by default; a subsample) to form the coupled
    set; the source values of the remaining pairs, then the extra_source
    rows, are the unpaired extras, all read in place from the pool (no copy).
    So a value sequence's spread is conditional on this one pool, with the
    pool as the control's full sample, and resamples overlap: it is not the
    sampling spread at (n_sub, m), which subsamples mimic only as n_sub/n -> 0
    (Politis, Romano & Wolf, *Subsampling*, 1999). At strong dependence a
    variance ratio from it overstates the RVR: at theta = 10 over 3 pools,
    Hill 0.80-0.89 and moment 0.88-0.95 against a Monte Carlo 0.738 and
    0.752. ``tailcv bootstrap`` prints no RVR.
    Estimator failures are excluded from the value sequences and counted.
    Resamples run in ``workers`` processes (default 1), same values at any count.

    Parameters
    ----------
    dataset : SemiSupervisedDataset
        The joint pool; its n paired rows are the subsampling population.
    n_sub : int
        Coupled-set size per resample, at most the pool size.
    resamples : int
        Number of resamples.
    k : int
        Number of target extremes within each resample, 1 <= k <= n_sub - 1.
    estimators : iterable of Method or str
    seed : int
        Stream key; same seed gives identical value sequences.
    k_source : int, optional
        Source extremes count, defaulting to k; also at most n_sub - 1.
    with_replacement : bool
        Draw the coupled set with replacement instead of subsampling.
    workers : int
        Process count for resample-level parallelism, at least 1.
    """
    methods = _normalize_estimators(estimators)
    n_sub, resamples = _integer(n_sub, "n_sub"), _integer(resamples, "resamples")
    seed = _seed(seed)
    if n_sub > dataset.n:
        raise ValueError("n_sub exceeds the coupled pool size")
    if n_sub < 3:
        raise ValueError("n_sub must be at least 3")
    if resamples < 1:
        raise ValueError("resamples must be positive")
    # Every resample has n_sub coupled rows, so k is valid in all or none.
    k, k_source = _validated_k(k, k_source, n_sub)
    records = _map_replications(
        partial(_resample_values, dataset, n_sub, k, k_source, methods,
                with_replacement, seed), range(resamples), workers)
    names = [method.value for method in methods]
    columns, failed = _columns(records, names)
    return BootstrapResult(estimates=dict(zip(names, columns)),
                           failures=dict(zip(names, failed.tolist())),
                           n_sub=n_sub, resamples=resamples,
                           with_replacement=bool(with_replacement))
