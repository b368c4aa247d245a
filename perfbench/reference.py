"""Reference values for the workload outputs, computed without movingt.

Each function re-derives what a CLI report should contain from the
estimator's definition (README, PAPER.md): vectorized EMA recursions via
``scipy.signal.lfilter``, ``scipy.special.gammaln`` for the moment
constants and densities, a root-finder for the scale MLE and a
quasi-Newton GARCH(1,1) fit.  The program's outputs must agree with
these to 1e-9 relative, the numeric budget every change is held to.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq, minimize
from scipy.signal import lfilter
from scipy.special import gammaln

NU_GAUSSIAN = 1.0e6
_HALF_LOG_PI = 0.5 * math.log(math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# CLI defaults (README "Defaults" table)
ETA1, ETA2, ETA3 = 0.003, 0.05, 0.005
P_SIGMA, P1, P2 = 1.0, 1.0, 0.5
NU_ADJUST, NU_MIN, NU_CAP = 0.9, 1.1, 1000.0
FLOOR = 1e-20
WARMUP = INIT_PREFIX = 300
TABLE_SIZE = 256
K_MAX = 10
SWEEP_INV_NU = [i / 20.0 for i in range(21)]


def log_abs_moment(nu, p):
    """ln M(nu, p), M = E|T|^p ^ (1/p) for the unit-scale Student t."""
    nu = np.asarray(nu, dtype=np.float64)
    t = (0.5 * p * np.log(nu) + gammaln(0.5 * (p + 1.0)) + gammaln(0.5 * (nu - p))
         - _HALF_LOG_PI - gammaln(0.5 * nu)) / p
    gauss = (0.5 * p * math.log(2.0) + gammaln(0.5 * (p + 1.0)) - _HALF_LOG_PI) / p
    return np.where(nu >= NU_GAUSSIAN, gauss, t)


def t_log_pdf(nu, sigma, z):
    nu = np.asarray(nu, dtype=np.float64)
    with np.errstate(over="ignore"):
        t = (gammaln(0.5 * (nu + 1.0)) - gammaln(0.5 * nu) - 0.5 * np.log(nu * math.pi)
             - np.log(sigma) - 0.5 * (nu + 1.0) * np.log1p(z * z / nu))
        gauss = -_HALF_LOG_2PI - np.log(sigma) - 0.5 * z * z
    return np.where(nu >= NU_GAUSSIAN, gauss, t)


def nu_table(p1=P1, p2=P2, nu_min=NU_MIN, nu_cap=NU_CAP):
    """(ratio ascending, ln nu) for inverting R(nu) = M(nu, p1) / M(nu, p2)."""
    nu = np.exp(np.linspace(math.log(nu_min), math.log(nu_cap), TABLE_SIZE))
    nu[0], nu[-1] = nu_min, nu_cap
    ratio = np.exp(log_abs_moment(nu, p1) - log_abs_moment(nu, p2))
    order = np.argsort(ratio)
    return ratio[order], np.log(nu)[order]


def _ema_path(start, target, eta):
    """Pre-update EMA values m_t, m_{t+1} = m_t + eta (target_t - m_t)."""
    if eta == 0.0:
        return np.full(target.size, start)
    after = lfilter([eta], [1.0, eta - 1.0], target, zi=[(1.0 - eta) * start])[0]
    return np.concatenate(([start], after[:-1]))


def fold(x, state, nu_fixed=None, eta1=ETA1, p_sigma=P_SIGMA):
    """Estimate-then-update fold: per-step (mu, sigma, nu, log density)."""
    mu0, ms0, m10, m20 = state
    mu = _ema_path(mu0, x, eta1)
    d = np.abs(x - mu)
    m_sigma = _ema_path(ms0, d ** p_sigma, ETA2)
    if nu_fixed is None:
        m1 = np.maximum(_ema_path(m10, d ** P1, ETA3), FLOOR)
        m2 = np.maximum(_ema_path(m20, d ** P2, ETA3), FLOOR)
        ratio_asc, ln_nu = nu_table()
        r = np.exp(np.log(m1) / P1 - np.log(m2) / P2)
        nu = np.minimum(np.exp(np.interp(r, ratio_asc, ln_nu)) + NU_ADJUST, NU_CAP)
    else:
        nu = np.full(x.size, float(nu_fixed))
    sigma = np.exp(np.log(np.maximum(m_sigma, FLOOR)) / p_sigma - log_abs_moment(nu, p_sigma))
    return mu, sigma, nu, t_log_pdf(nu, sigma, (x - mu) / sigma)


def prefix_state(x, k, mu=None, p_sigma=P_SIGMA):
    prefix = x[:k]
    mu0 = float(prefix.mean()) if mu is None else mu
    d = np.abs(prefix - mu0)
    return (mu0, float(np.mean(d ** p_sigma)), float(np.mean(d ** P1)),
            float(np.mean(d ** P2)))


def fit_adaptive(x):
    """fit-adaptive: trajectory from t = INIT_PREFIX and its mean score."""
    mu, sigma, nu, logd = fold(x[INIT_PREFIX:], prefix_state(x, INIT_PREFIX))
    return {"mean_log_likelihood": float(np.mean(logd)),
            "last": [float(mu[-1]), float(sigma[-1]), float(nu[-1])],
            "rows": int(x.size - INIT_PREFIX)}


def fit_static(x):
    mu = float(x.mean())
    d = np.abs(x - mu)
    m_sigma, m1, m2 = (float(np.mean(d ** p)) for p in (P_SIGMA, P1, P2))
    ratio_asc, ln_nu = nu_table()
    nu_raw = float(np.exp(np.interp(m1 ** (1.0 / P1) / m2 ** (1.0 / P2), ratio_asc, ln_nu)))
    nu_adj = min(nu_raw + NU_ADJUST, NU_CAP)
    sigma = m_sigma ** (1.0 / P_SIGMA) / math.exp(float(log_abs_moment(nu_adj, P_SIGMA)))
    score = float(np.mean(t_log_pdf(nu_adj, sigma, (x - mu) / sigma)))
    return {"mu_hat": mu, "sigma_hat": sigma, "nu_raw": nu_raw,
            "nu_adjusted": nu_adj, "mean_loglik": score}


def tail_counts(x):
    """tail-table (adaptive): fold from t=0 seeded by the first 300 points."""
    mu, sigma, _, _ = fold(x, prefix_state(x, min(INIT_PREFIX, x.size)))
    z = np.abs(x - mu) / sigma
    return {"observed": [int(np.count_nonzero(z > k)) for k in range(1, K_MAX + 1)],
            "n_effective": int(x.size)}


def _sigma_mle(x2, nu):
    """Root of the scale score equation at mu = 0 (unique: it is monotone)."""
    if nu >= NU_GAUSSIAN:
        return math.sqrt(float(np.mean(x2)))

    def score(ln_sigma):
        z2 = x2 * math.exp(-2.0 * ln_sigma)
        return (nu + 1.0) * float(np.mean(z2 / (nu + z2))) - 1.0
    return math.exp(brentq(score, math.log(1e-8), math.log(1e2), xtol=1e-14, rtol=1e-15))


def garch_loglik_path(x, omega, alpha, beta, initial_var):
    sigma2 = np.empty(x.size)
    sigma2[0] = initial_var
    sigma2[1:] = lfilter([1.0], [1.0, -beta], omega + alpha * x[:-1] ** 2,
                         zi=[beta * initial_var])[0]
    return -0.5 * (2.0 * _HALF_LOG_2PI + np.log(sigma2) + x * x / sigma2)


def garch_fit(x):
    """Gaussian GARCH(1,1) MLE, full series, start variance = sample variance."""
    var = float(np.var(x))

    def unpack(u):
        s, f = 1.0 / (1.0 + np.exp(-u[1:]))
        return math.exp(u[0]), s * f, s * (1.0 - f)

    def neg(u):
        with np.errstate(all="ignore"):
            v = -float(np.mean(garch_loglik_path(x, *unpack(u), var)))
        return v if math.isfinite(v) else 1e12

    best = None
    for a0, b0 in ((0.05, 0.90), (0.10, 0.85), (0.02, 0.96), (0.20, 0.70)):
        s0 = a0 + b0
        u0 = np.array([math.log(var * (1.0 - s0)), math.log(s0 / (1.0 - s0)),
                       math.log(a0 / b0)])
        res = minimize(neg, u0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 20000,
                                "maxfev": 20000})
        res = minimize(neg, res.x, method="BFGS", options={"gtol": 1e-12})
        if best is None or res.fun < best.fun:
            best = res
    return (*unpack(best.x), var)


def sweep(x):
    """sweep: static sigma-MLE and adaptive sigma per fixed nu, plus GARCH."""
    scored = x[WARMUP:]
    x2 = scored * scored
    rows = []
    for inv in SWEEP_INV_NU:
        nu = NU_GAUSSIAN if inv == 0.0 else 1.0 / inv
        sigma = _sigma_mle(x2, nu)
        static = float(np.mean(t_log_pdf(nu, sigma, scored / sigma)))
        p_eff = P_SIGMA if P_SIGMA < nu else 0.5 * nu
        state = prefix_state(x, WARMUP, mu=0.0, p_sigma=p_eff)
        logd = fold(scored, state, nu_fixed=nu, eta1=0.0, p_sigma=p_eff)[3]
        rows.append([inv, static, float(np.mean(logd))])
    garch = float(np.mean(garch_loglik_path(x, *garch_fit(x))[WARMUP:]))
    return {"rows": rows, "garch_loglik": garch}
