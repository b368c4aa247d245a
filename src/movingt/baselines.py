"""Reference models: static sigma MLE at fixed (mu, nu), and GARCH(1,1).

The GARCH comparison is Gaussian-scored.  Scale MLE uses golden-section
search on ln(sigma), which is well conditioned across the multi-decade
sigma ranges nonstationary series produce.

scipy is imported inside the GARCH functions, the only users of it, so
commands that never fit or filter a GARCH model load numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import StudentTParams, log_pdf
from .errors import DomainError, SeriesTooShortError

__all__ = [
    "GarchParams",
    "GarchFit",
    "fit_sigma_mle",
    "garch_filter",
    "fit_garch_mle",
    "simulate_garch",
]

_LOG_SIGMA_LO = math.log(1e-8)
_LOG_SIGMA_HI = math.log(1e2)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GarchParams:
    """sigma2_t = omega + alpha*x_{t-1}^2 + beta*sigma2_{t-1}."""

    omega: float
    alpha: float
    beta: float
    initial_var: float

    def __post_init__(self):
        for name, v in (("omega", self.omega), ("alpha", self.alpha),
                        ("beta", self.beta), ("initial_var", self.initial_var)):
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
        if self.omega <= 0.0:
            raise DomainError(f"omega must be > 0, got {self.omega!r}")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise DomainError("alpha and beta must be >= 0")
        if self.alpha + self.beta >= 1.0:
            raise DomainError(
                f"alpha + beta must be < 1 for covariance stationarity, "
                f"got {self.alpha + self.beta!r}")
        if self.initial_var <= 0.0:
            raise DomainError(f"initial_var must be > 0, got {self.initial_var!r}")


@dataclass(frozen=True)
class GarchFit(GarchParams):
    """Fitted GarchParams plus how the fit ended.

    persistence_clamped is True when the optimum's alpha + beta rounded
    to 1 or above and beta was stepped down to the largest value that
    keeps the model covariance stationary.
    """

    persistence_clamped: bool = False


def fit_sigma_mle(xs, mu: float, nu: float):
    """Maximize the mean log-likelihood over sigma at fixed (mu, nu).

    Golden-section search on ln(sigma) over [ln 1e-8, ln 1e2] to 1e-10;
    returns (sigma_hat, attained mean log-likelihood).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise SeriesTooShortError("cannot fit sigma on an empty series")
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError(f"nu must be finite and > 0, got {nu!r}")

    def objective(ln_sigma: float) -> float:
        params = StudentTParams(mu, math.exp(ln_sigma), nu)
        return float(np.mean(log_pdf(params, xs)))

    a, b = _LOG_SIGMA_LO, _LOG_SIGMA_HI
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = objective(c)
    fd = objective(d)
    while b - a > 1e-10:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = objective(d)
    ln_opt = 0.5 * (a + b)
    return math.exp(ln_opt), objective(ln_opt)


def garch_filter(xs, params: GarchParams, warmup: int = 0):
    """Causal variance recursion plus out-of-sample Gaussian scoring.

    Returns (sigma_path, mean_gaussian_loglik); the mean skips the first
    `warmup` points, matching the adaptive module's convention.
    """
    from scipy.signal import lfilter

    xs = np.asarray(xs, dtype=np.float64)
    n = xs.size
    if n == 0:
        raise SeriesTooShortError("cannot filter an empty series")
    if not (0 <= warmup < n):
        raise DomainError(f"warmup must be in [0, {n}), got {warmup!r}")
    sigma2 = np.empty(n)
    sigma2[0] = params.initial_var
    if n > 1:
        driven = params.omega + params.alpha * xs[:-1] ** 2
        sigma2[1:] = lfilter([1.0], [1.0, -params.beta], driven,
                             zi=[params.beta * params.initial_var])[0]
    ll = -0.5 * (_LOG_2PI + np.log(sigma2) + xs ** 2 / sigma2)
    return np.sqrt(sigma2), float(np.mean(ll[warmup:]))


def _garch_mean_loglik(xs, omega: float, alpha: float, beta: float,
                       initial_var: float) -> float:
    # inline variant of garch_filter without parameter validation,
    # for use inside the optimizer where trial points may be extreme
    from scipy.signal import lfilter

    n = xs.size
    sigma2 = np.empty(n)
    sigma2[0] = initial_var
    if n > 1:
        driven = omega + alpha * xs[:-1] ** 2
        sigma2[1:] = lfilter([1.0], [1.0, -beta], driven,
                             zi=[beta * initial_var])[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ll = -0.5 * (_LOG_2PI + np.log(sigma2) + xs ** 2 / sigma2)
        out = float(np.mean(ll))
    return out if math.isfinite(out) else -1e12


# (alpha, beta) pairs seeding the simplex search; omega is chosen so the
# implied unconditional variance matches the sample variance
_GARCH_STARTS = (
    (0.05, 0.90), (0.10, 0.85), (0.05, 0.80), (0.20, 0.70),
    (0.02, 0.96), (0.10, 0.88), (0.15, 0.75), (0.30, 0.60),
)


def _expit(u: float) -> float:
    if u >= 0.0:
        return 1.0 / (1.0 + math.exp(-u))
    e = math.exp(u)
    return e / (1.0 + e)


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _stationary_beta(alpha: float, beta: float) -> float:
    """Largest beta' <= beta with alpha + beta' < 1 in floating point.

    Steps beta down by ulps.  Starting at min(beta, 1 - alpha) gives the
    same result in a few steps, also when beta is so small that its ulps
    barely move the sum.
    """
    if alpha + beta < 1.0:
        return beta
    beta = min(beta, 1.0 - alpha)
    while beta > 0.0 and alpha + beta >= 1.0:
        beta = math.nextafter(beta, 0.0)
    return beta


def fit_garch_mle(xs) -> GarchFit:
    """In-sample Gaussian MLE of (omega, alpha, beta).

    Derivative-free simplex search from 8 fixed starting points, with
    the constraints enforced through a log/logit reparameterization
    (omega = e^w, alpha = s*f, beta = s*(1-f), s = persistence in (0,1),
    f = fraction in (0,1)).  Deterministic for identical inputs.  On
    strongly regime-switching data the optimum sits at the integrated
    (IGARCH) boundary and s rounds to 1; beta is then stepped down by
    ulps to the nearest stationary value and the fit says so in
    `persistence_clamped`.
    """
    from scipy.optimize import minimize

    xs = np.asarray(xs, dtype=np.float64)
    if xs.size < 100:
        raise SeriesTooShortError(
            f"GARCH fit requires at least 100 points, got {xs.size}")
    var = float(np.var(xs))
    if var <= 0.0:
        raise SeriesTooShortError("series has zero variance; nothing to fit")

    def unpack(u):
        omega = math.exp(u[0])
        s = _expit(u[1])
        f = _expit(u[2])
        return omega, s * f, s * (1.0 - f)

    def neg_loglik(u):
        omega, alpha, beta = unpack(u)
        return -_garch_mean_loglik(xs, omega, alpha, beta, var)

    best = None
    for a0, b0 in _GARCH_STARTS:
        s0 = a0 + b0
        u0 = np.array([math.log(var * (1.0 - s0)), _logit(s0), _logit(a0 / s0)])
        res = minimize(neg_loglik, u0, method="Nelder-Mead",
                       options={"xatol": 1e-7, "fatol": 1e-12,
                                "maxiter": 4000, "maxfev": 4000})
        if best is None or res.fun < best.fun:
            best = res
    omega, alpha, beta = unpack(best.x)
    stationary_beta = _stationary_beta(alpha, beta)
    return GarchFit(omega=omega, alpha=alpha, beta=stationary_beta,
                    initial_var=var,
                    persistence_clamped=stationary_beta != beta)


def simulate_garch(rng: np.random.Generator, n: int,
                   params: GarchParams) -> np.ndarray:
    """Simulate a Gaussian GARCH(1,1) path of length n."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n!r}")
    z = rng.standard_normal(n)
    xs = np.empty(n)
    sigma2 = params.initial_var
    for t in range(n):
        xs[t] = math.sqrt(sigma2) * z[t]
        sigma2 = params.omega + params.alpha * xs[t] ** 2 + params.beta * sigma2
    return xs
