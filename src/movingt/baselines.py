"""Reference models: static sigma MLE at fixed (mu, nu), and GARCH(1,1).

The GARCH comparison is Gaussian-scored.  Scale MLE uses golden-section
search on ln(sigma), which is well conditioned across the multi-decade
sigma ranges nonstationary series produce.

The GARCH variance recursion is a numpy doubling scan.  The GARCH fit
is a bounded quasi-Newton search (scipy.optimize's L-BFGS-B) on the
analytic gradient; it imports scipy.optimize when it runs, the only
scipy module the package uses, so commands that never fit a GARCH model
load numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import StudentTParams, log_pdf
from .errors import DomainError, NonConvergenceError, SeriesTooShortError

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


def _ar1_scan(u, beta: float) -> np.ndarray:
    """y_t = u_t + beta * y_{t-1} with y_{-1} = 0.

    Doubling scan: after the pass with lag k, y_t holds
    sum_{j<2k} beta^j u_{t-j}, so log2(n) numpy passes replace the
    loop.  beta**k is one pow per pass, not repeated squaring, whose
    error would grow with k.
    """
    y = np.array(u, dtype=np.float64)
    k = 1
    while k < y.size:
        y[k:] += beta ** k * y[:-k]
        k *= 2
    return y


def _garch_variance(x2, omega: float, alpha: float, beta: float,
                    initial_var: float) -> np.ndarray:
    """sigma2_0 = initial_var, then omega + alpha*x2_{t-1} + beta*sigma2_{t-1}."""
    u = np.empty(x2.size)
    u[0] = initial_var
    u[1:] = omega + alpha * x2[:-1]
    return _ar1_scan(u, beta)


def garch_filter(xs, params: GarchParams, warmup: int = 0):
    """Causal variance recursion plus out-of-sample Gaussian scoring.

    Returns (sigma_path, mean_gaussian_loglik); the mean skips the first
    `warmup` points, matching the adaptive module's convention.
    """
    xs = np.asarray(xs, dtype=np.float64)
    n = xs.size
    if n == 0:
        raise SeriesTooShortError("cannot filter an empty series")
    if warmup < 0:
        raise DomainError(f"warmup must be >= 0, got {warmup!r}")
    if warmup >= n:
        raise SeriesTooShortError(
            f"warmup={warmup} leaves nothing to score in {n} points")
    x2 = xs * xs
    sigma2 = _garch_variance(x2, params.omega, params.alpha, params.beta,
                             params.initial_var)
    ll = -0.5 * (_LOG_2PI + np.log(sigma2) + x2 / sigma2)
    return np.sqrt(sigma2), float(np.mean(ll[warmup:]))


def _garch_mean_loglik(xs, omega: float, alpha: float, beta: float,
                       initial_var: float):
    """Mean Gaussian log-likelihood of the filter and its gradient.

    Returns (value, d value / d(omega, alpha, beta)).  No parameter
    validation: the optimizer's trial points may sit on the bounds.
    d sigma2_t / dp follows the variance recursion driven by 1,
    x2_{t-1} and sigma2_{t-1}; the gradient sums those paths against
    w_t = d value / d sigma2_t, which equals running the same recursion
    backwards over w once (lam_j = sum_{t>=j} beta^(t-j) w_t) and
    summing lam against the three drives.  The sums are elementwise
    products, not BLAS calls: BLAS threads cost more than they save at
    this size.
    """
    n = xs.size
    x2 = xs * xs
    sigma2 = _garch_variance(x2, omega, alpha, beta, initial_var)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z2 = x2 / sigma2
        value = -0.5 * (_LOG_2PI + float(np.mean(np.log(sigma2) + z2)))
        lam = _ar1_scan((0.5 * (z2 - 1.0) / sigma2)[::-1], beta)[-2::-1]
        grad = np.array([np.sum(lam), np.sum(lam * x2[:-1]),
                         np.sum(lam * sigma2[:-1])]) / n
    if not (math.isfinite(value) and np.all(np.isfinite(grad))):
        return -1e12, np.zeros(3)
    return value, grad


# (alpha, beta) pairs seeding the search, tried in this order; omega
# starts where the implied unconditional variance matches the sample
# variance
_GARCH_STARTS = (
    (0.05, 0.90), (0.10, 0.85), (0.05, 0.80), (0.20, 0.70),
    (0.02, 0.96), (0.10, 0.88), (0.15, 0.75), (0.30, 0.60),
)
# ln(omega) search range around ln(var): omega from ~1e-20 var to ~10 var
_LN_OMEGA_BELOW_VAR = 46.0
_LN_OMEGA_ABOVE_VAR = 2.3
# optima of two starts that agree this closely (relative) are the same
_STARTS_AGREE_RTOL = 1e-10
# no relative-reduction stop: each start runs until its projected
# gradient vanishes or its line search reaches the rounding floor of the
# objective, so the optimum is as good as the objective can resolve
_LBFGSB_OPTIONS = {"ftol": 0.0, "gtol": 1e-12}


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


def _unpack(u):
    """(omega, alpha, beta) from the search coordinates (ln omega, s, f)."""
    w, s, f = (float(v) for v in u)
    return math.exp(w), s * f, s * (1.0 - f)


def fit_garch_mle(xs) -> GarchFit:
    """In-sample Gaussian MLE of (omega, alpha, beta).

    Bounded quasi-Newton search (L-BFGS-B) with the analytic gradient
    over (ln omega, s, f), where s = alpha + beta and f = alpha / s are
    both bounded to [0, 1] and ln omega to a range around ln var(x).
    The fixed starts run in order until a second start reaches the best
    optimum so far (to 1e-10 relative) and one of them reported
    convergence; the best such converged start is returned.  Raises
    NonConvergenceError when no start that reaches the best optimum
    reported convergence.  Deterministic for identical inputs.  On
    strongly regime-switching data the optimum sits at the integrated
    (IGARCH) boundary s = 1; beta is then stepped down by ulps to the
    nearest stationary value and the fit says so in
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
    ln_var = math.log(var)
    bounds = [(ln_var - _LN_OMEGA_BELOW_VAR, ln_var + _LN_OMEGA_ABOVE_VAR),
              (0.0, 1.0), (0.0, 1.0)]

    def neg_loglik(u):
        omega, alpha, beta = _unpack(u)
        s, f = u[1], u[2]
        value, (g_omega, g_alpha, g_beta) = _garch_mean_loglik(
            xs, omega, alpha, beta, var)
        return -value, -np.array([g_omega * omega,
                                  g_alpha * f + g_beta * (1.0 - f),
                                  (g_alpha - g_beta) * s])

    # a start can end at the rounding floor of the objective without
    # reporting convergence, on an optimum that other starts confirm; so
    # the search stops once two starts reach the best optimum and one of
    # them converged, and returns the best converged one
    runs = []
    for a0, b0 in _GARCH_STARTS:
        s0 = a0 + b0
        runs.append(minimize(
            neg_loglik, [math.log(var * (1.0 - s0)), s0, a0 / s0], jac=True,
            method="L-BFGS-B", bounds=bounds, options=_LBFGSB_OPTIONS))
        best_fun = min(r.fun for r in runs)
        tol = _STARTS_AGREE_RTOL * abs(best_fun)
        at_best = [r for r in runs if abs(r.fun - best_fun) <= tol]
        if len(at_best) > 1 and any(r.success for r in at_best):
            break
    converged = [r for r in at_best if r.success]
    if not converged:
        raise NonConvergenceError(
            "GARCH fit did not converge: "
            + "; ".join(str(r.message) for r in at_best))
    best = min(converged, key=lambda r: r.fun)
    omega, alpha, beta = _unpack(best.x)
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
