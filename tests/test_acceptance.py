"""End-to-end acceptance checks for the transferred tail-index estimators.

The reference study design is n = 1000 coupled pairs, k = 100 target
extremes, m = 5000 extra source observations, Pareto(0.25) target,
Pareto(0.5) source, Gumbel-copula dependence, 2000 replications at seed
20260826.  Each numbered test checks one acceptance criterion at its stated
tolerance and prints a single PASS/FAIL line (echoed again in the pytest
summary).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from tailcv import (
    AcvCoefficients,
    ExperimentConfig,
    Method,
    acv_ratio_coefficients,
    corrected_ratio,
    cv_coefficient,
    exceedances,
    generate_dataset,
    hill,
    marginal_for_evi,
    moment,
    run_rvr_experiment,
    sample_gumbel_copula,
    source_threshold_scan,
    tail_dependence,
    transferred_hill,
    transferred_moment,
)
from tailcv.simulate import _stream

SEED = 20260826
REPS = 2000
LN2 = math.log(2.0)


def _config(theta, gamma_t=0.25, gamma_s=0.5, m=5000, replications=REPS):
    return ExperimentConfig(
        gamma_t=gamma_t, theta=theta, n=1000, m=m,
        source_marginal=marginal_for_evi(gamma_s), k=100,
        replications=replications, seed=SEED,
    )


def _pair(report, baseline):
    for pair in report.pairs:
        if pair.baseline is baseline:
            return pair
    raise AssertionError(f"no pair with baseline {baseline}")


@pytest.fixture(scope="module")
def theta_runs():
    return {theta: run_rvr_experiment(_config(theta))
            for theta in (10.0, 1.4, 2.0, 5.0)}


@pytest.fixture(scope="module")
def gamma_t_sweep(theta_runs):
    reports = {0.25: theta_runs[5.0]}
    for gamma_t in (0.5, 1.0, 2.0):
        reports[gamma_t] = run_rvr_experiment(_config(5.0, gamma_t=gamma_t))
    return reports


@pytest.fixture(scope="module")
def gamma_s_sweep(gamma_t_sweep):
    reports = {0.5: gamma_t_sweep[0.5]}
    for gamma_s in (0.2, 1.0):
        reports[gamma_s] = run_rvr_experiment(
            _config(5.0, gamma_t=0.5, gamma_s=gamma_s))
    return reports


@pytest.fixture(scope="module")
def m_runs(theta_runs):
    reports = {5000: theta_runs[5.0]}
    for m in (1000, 20000):
        reports[m] = run_rvr_experiment(_config(5.0, m=m))
    return reports


def test_criterion_01_headline_rvr(theta_runs, check_criterion):
    report = theta_runs[10.0]
    hill_rvr = _pair(report, Method.HILL).rvr
    moment_rvr = _pair(report, Method.MOMENT).rvr
    ok = 0.66 <= hill_rvr <= 0.76 and 0.65 <= moment_rvr <= 0.77
    check_criterion(1, ok,
                    f"theta=10 RVR hill {hill_rvr:.4f} in [0.66, 0.76], "
                    f"moment {moment_rvr:.4f} in [0.65, 0.77]")


def test_criterion_02_weak_dependence_rvr(theta_runs, check_criterion):
    report = theta_runs[1.4]
    hill_rvr = _pair(report, Method.HILL).rvr
    moment_rvr = _pair(report, Method.MOMENT).rvr
    ok = 0.07 <= hill_rvr <= 0.17 and 0.05 <= moment_rvr <= 0.15
    check_criterion(2, ok,
                    f"theta=1.4 RVR hill {hill_rvr:.4f} in [0.07, 0.17], "
                    f"moment {moment_rvr:.4f} in [0.05, 0.15]")


def test_criterion_03_variance_never_inflated(theta_runs, check_criterion):
    ratios = {}
    for theta, report in theta_runs.items():
        pair = _pair(report, Method.HILL)
        ratios[theta] = pair.variance_transferred / pair.variance_baseline
    ok = all(ratio <= 1.02 for ratio in ratios.values())
    detail = ", ".join(f"theta={theta:g}: {ratio:.4f}"
                       for theta, ratio in sorted(ratios.items()))
    check_criterion(3, ok, f"var(transferred)/var(hill) <= 1.02 at {detail}")


def test_criterion_04_rvr_flat_in_tail_indices(gamma_t_sweep, gamma_s_sweep,
                                               check_criterion):
    # The hill-pair RVR is scale-equivariant in both tail indices, so its
    # range is gated; the moment pair mixes second log-moments and is only
    # reported for reference.
    def ranges(sweep):
        hill_rvrs = [_pair(r, Method.HILL).rvr for r in sweep.values()]
        moment_rvrs = [_pair(r, Method.MOMENT).rvr for r in sweep.values()]
        return (max(hill_rvrs) - min(hill_rvrs),
                max(moment_rvrs) - min(moment_rvrs))

    hill_t, moment_t = ranges(gamma_t_sweep)
    hill_s, moment_s = ranges(gamma_s_sweep)
    ok = hill_t <= 0.10 and hill_s <= 0.10
    check_criterion(4, ok,
                    f"hill RVR range: {hill_t:.4f} over gamma_t, "
                    f"{hill_s:.4f} over gamma_s (<= 0.10); moment ranges "
                    f"{moment_t:.4f}/{moment_s:.4f} informational")


def test_criterion_05_rvr_grows_with_extra_sample(m_runs, check_criterion):
    rvr = {m: _pair(report, Method.HILL).rvr for m, report in m_runs.items()}
    ok = rvr[1000] <= rvr[5000] + 0.03 and rvr[5000] <= rvr[20000] + 0.03
    check_criterion(5, ok,
                    f"RVR {rvr[1000]:.4f} (m=1000) <= {rvr[5000]:.4f} "
                    f"(m=5000) <= {rvr[20000]:.4f} (m=20000), 3-pt allowance")


def test_criterion_06_asymptotic_formula_tracks_empirical(theta_runs,
                                                          check_criterion):
    report = theta_runs[5.0]
    empirical = _pair(report, Method.HILL).rvr
    predicted = report.asymptotic_rvr_mean
    gap = abs(predicted - empirical)
    check_criterion(6, gap <= 0.10,
                    f"theta=5 asymptotic RVR {predicted:.4f} vs empirical "
                    f"{empirical:.4f}, gap {gap:.4f} <= 0.10")


def test_criterion_07_threshold_scan_minimizer(check_criterion):
    config = _config(5.0, replications=800)
    points = source_threshold_scan(config, range(60, 141))
    medians = [point.median for point in points]
    best = points[int(np.argmin(medians))].l
    check_criterion(7, 70 <= best <= 110,
                    f"median analytic variance minimized at l={best} "
                    f"in [70, 110]")


def test_criterion_08_dependence_diagnostics(theta_runs, check_criterion):
    strong = theta_runs[10.0].dependence
    weak = theta_runs[1.4].dependence
    ok = (0.90 <= strong.lambda_hat <= 0.96
          and 0.97 <= strong.corr_ab <= 1.0
          and 0.89 <= strong.corr_cd <= 0.95
          and 0.36 <= weak.lambda_hat <= 0.46)
    check_criterion(8, ok,
                    f"theta=10: lambda {strong.lambda_hat:.4f}, corr_ab "
                    f"{strong.corr_ab:.4f}, corr_cd {strong.corr_cd:.4f}; "
                    f"theta=1.4: lambda {weak.lambda_hat:.4f}")


def test_criterion_09_hand_oracles(tiny_dataset, check_criterion):
    errors = {}
    errors["hill"] = abs(hill([1, 2, 4, 8, 16], 2).value - 1.5 * LN2)
    errors["moment"] = abs(moment([1, 2, 4, 8, 16], 2).value
                           - (1.5 * LN2 - 4.0))
    errors["cv_coefficient"] = abs(cv_coefficient([1, 2, 3, 4], [2, 4, 6, 8])
                                   - 0.5)

    # Exact-rational route for the jointly optimal coefficients.
    a = [Fraction(v) for v in (0, 0, 1, 2)]
    c = [Fraction(v) for v in (0, 0, 1, 1)]
    b = [Fraction(v) for v in (0, 1, 1, 2)]
    d = [Fraction(v) for v in (0, 1, 1, 1)]
    r = Fraction(3, 2)

    def cov(x, y):
        mx = sum(x, Fraction(0)) / len(x)
        my = sum(y, Fraction(0)) / len(y)
        return sum((xi - mx) * (yi - my)
                   for xi, yi in zip(x, y)) / (len(x) - 1)

    var_b, var_d, c_bd = cov(b, b), cov(d, d), cov(b, d)
    det = var_b * var_d - c_bd * c_bd
    alpha = (var_d * cov(a, b) - r * var_d * cov(b, c)
             + r * c_bd * cov(c, d) - c_bd * cov(a, d)) / det
    beta = (c_bd * cov(a, b) - r * c_bd * cov(b, c)
            + r * var_b * cov(c, d) - var_b * cov(a, d)) / (r * det)
    coeffs = acv_ratio_coefficients([0.0, 0, 1, 2], [0.0, 1, 1, 2],
                                    [0.0, 0, 1, 1], [0.0, 1, 1, 1],
                                    r_plugin=1.5)
    errors["acv_alpha"] = abs(coeffs.alpha - float(alpha))
    errors["acv_beta"] = abs(coeffs.beta - float(beta))

    from tailcv import SemiSupervisedDataset
    ds = SemiSupervisedDataset(paired_target=tiny_dataset.paired_target,
                               paired_source=tiny_dataset.paired_source,
                               extra_source=np.full(5, 16.0))
    unit = AcvCoefficients(alpha=1.0, beta=1.0, determinant=1.0,
                           degenerate=False)
    target = exceedances(ds.paired_target, 2)
    b_all, _, d_all = exceedances(ds.paired_source, 2, extra=ds.extra_source).full
    errors["acv_estimate"] = abs(corrected_ratio(target.excess, b_all,
                                                 target.indicator, d_all, unit)
                                 - 13.0 * LN2 / 7.0)

    # Ratio-of-means form versus mean-over-top-k form on tie-free samples.
    rng = _stream(9, 0, 0)
    form_gap = 0.0
    for index in range(1000):
        size = 30 + index % 50
        data = np.exp(rng.standard_normal(size))
        k = 1 + index % (size - 1)
        ordered = np.sort(data)
        oracle = np.mean(np.log(ordered[size - k:])
                         - np.log(ordered[size - k - 1]))
        form_gap = max(form_gap, abs(hill(data, k).value - oracle))
    errors["hill_forms"] = form_gap

    worst = max(errors, key=errors.get)
    ok = errors[worst] < 1e-12
    check_criterion(9, ok,
                    f"hand oracles match to 1e-12 (worst: {worst} at "
                    f"{errors[worst]:.2e})")


def test_criterion_10_copula_sampler(check_criterion):
    u1, u2 = sample_gumbel_copula(2.0, 100_000, _stream(SEED, 0, 0))
    tau = stats.kendalltau(u1, u2).statistic
    ks1 = stats.kstest(u1, "uniform").pvalue
    ks2 = stats.kstest(u2, "uniform").pvalue
    v1, v2 = sample_gumbel_copula(10.0, 100_000, _stream(SEED, 1, 0))
    lam = tail_dependence(v1, v2, 1000)
    target = 2.0 - 2.0 ** 0.1
    ok = (abs(tau - 0.5) <= 0.01 and ks1 >= 1e-3 and ks2 >= 1e-3
          and abs(lam - target) <= 0.03)
    check_criterion(10, ok,
                    f"theta=2 tau {tau:.4f} (0.5 +/- 0.01), KS p {ks1:.3f}/"
                    f"{ks2:.3f} >= 1e-3; theta=10 tail dep {lam:.4f} "
                    f"({target:.4f} +/- 0.03)")


def test_criterion_11_fallbacks_determinism_invariance(check_criterion):
    failures = []

    # m = 0 collapses the transferred estimators onto the baselines exactly.
    no_extra = generate_dataset(_config(5.0, m=0, replications=2), 0)
    base_h, base_m = hill(no_extra.paired_target, 100), moment(
        no_extra.paired_target, 100)
    trans_h = transferred_hill(no_extra, 100)
    trans_m = transferred_moment(no_extra, 100)
    if not (trans_h.value == base_h.value
            and trans_h.variance_estimate == base_h.variance_estimate
            and trans_m.value == base_m.value):
        failures.append("m=0 fallback not bitwise")

    # Zero coefficients leave the ratio of means untouched, bit for bit.
    rng = _stream(11, 0, 0)
    num = rng.random(40)
    den = (rng.random(40) > 0.5).astype(float)
    zero = AcvCoefficients(alpha=0.0, beta=0.0, determinant=1.0,
                           degenerate=False)
    corrected = corrected_ratio(num, np.concatenate([num, rng.random(10)]),
                                den, np.concatenate([den, np.ones(10)]), zero)
    if corrected != num.mean() / den.mean():
        failures.append("zero-coefficient fallback not bitwise")

    # Reruns and worker counts must give byte-identical estimate streams.
    small = ExperimentConfig(gamma_t=0.25, theta=5.0, n=200, m=400,
                             source_marginal=marginal_for_evi(0.5), k=20,
                             replications=60, seed=SEED)
    serial = run_rvr_experiment(small, workers=1)
    rerun = run_rvr_experiment(small, workers=1)
    parallel = run_rvr_experiment(small, workers=2)
    for name in serial.estimates:
        blob = np.asarray(serial.estimates[name]).tobytes()
        if np.asarray(rerun.estimates[name]).tobytes() != blob:
            failures.append(f"rerun differs for {name}")
        if np.asarray(parallel.estimates[name]).tobytes() != blob:
            failures.append(f"workers=2 differs for {name}")

    # Joint-exceedance frequency depends only on ranks.
    transforms = (np.exp, np.log, lambda x: x ** 3, lambda x: 2.0 * x + 7.0,
                  np.sqrt)
    rng = _stream(12, 0, 0)
    for case in range(100):
        x = rng.random(80) + 0.5
        y = x * (0.5 + rng.random(80))
        k = 5 + case % 20
        base = tail_dependence(x, y, k)
        f = transforms[case % len(transforms)]
        g = transforms[(case + 2) % len(transforms)]
        if tail_dependence(f(x), g(y), k) != base:
            failures.append(f"rank invariance broken at case {case}")
            break

    check_criterion(11, not failures,
                    "fallback identities bitwise, reruns and worker counts "
                    "byte-identical, rank invariance on 100 cases"
                    + ("" if not failures else f" [{'; '.join(failures)}]"))
