"""Reference models: static sigma MLE at fixed (mu, nu), and GARCH(1,1).

This module fits; `evaluation` scores.  The scale MLE returns sigma
alone.  It solves the score equation in ln(sigma), which is well
conditioned across the multi-decade sigma ranges nonstationary series
produce.  The GARCH filter returns its model as a trajectory, as the
fold does: center 0, sigma_t, nu at the Gaussian limit and each point's
log-density from `distribution.log_density` at that limit.  Only the
fit's objective keeps its own Gaussian formula, with its derivatives.

The GARCH variance recursion is a numpy doubling scan.  The GARCH fit is
a projected Newton search (Bertsekas 1982) with the exact Hessian of the
Bollerslev (1986) likelihood inside box bounds; its 3x3 algebra runs on
Python floats.  The module, like the package, needs numpy alone; scipy
serves only the benchmark's independent reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptive import ParamTrajectory
from .distribution import NU_GAUSSIAN, log_density
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
# the scale root is found to this absolute tolerance in ln(sigma)
_SIGMA_XTOL = 1e-14
_SIGMA_MAX_ITER = 200
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

    Solves the scale score equation in ln(sigma) on [ln 1e-8, ln 1e2],
    clamped to that bracket; returns sigma_hat.  For Student t the score
    (nu + 1) mean(z^2 / (nu + z^2)) - 1, z = (x - mu) / sigma, strictly
    decreases in ln(sigma), so its root is the unique maximizer; it is
    found by Newton's method, with a bisection step whenever Newton
    leaves the bracket that the signs seen so far allow.  It stops once
    a Newton step, a bisection step or the bracket is within 1e-14 in
    ln(sigma).  At nu >= NU_GAUSSIAN the maximizer is
    sigma^2 = mean((x - mu)^2).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise SeriesTooShortError("cannot fit sigma on an empty series")
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError(f"nu must be finite and > 0, got {nu!r}")
    d2 = xs - mu
    d2 *= d2
    if nu >= NU_GAUSSIAN:
        mean_d2 = float(np.mean(d2))
        ln_sigma = 0.5 * math.log(mean_d2) if mean_d2 > 0.0 else _LOG_SIGMA_LO
        ln_sigma = min(max(ln_sigma, _LOG_SIGMA_LO), _LOG_SIGMA_HI)
    else:
        ln_sigma = _t_scale_root(d2, nu)
    return math.exp(ln_sigma)


def _t_scale_score(d2, nu: float, ln_sigma: float):
    """(score, d score / d ln sigma) of the Student-t scale at squared
    deviations d2; r = z^2 / (nu + z^2)."""
    r = d2 * math.exp(-2.0 * ln_sigma)
    r /= r + nu
    value = (nu + 1.0) * float(np.mean(r)) - 1.0
    r *= 1.0 - r
    return value, -2.0 * (nu + 1.0) * float(np.mean(r))


def _t_scale_root(d2, nu: float) -> float:
    """Root in [ln 1e-8, ln 1e2] of the Student-t scale score, clamped.

    The bracket test admits its ends: a Newton step below half an ulp
    of x leaves x where it is, on an end of the bracket, and must stop
    the loop rather than send it bisecting down to `_SIGMA_XTOL`.
    """
    lo, hi = _LOG_SIGMA_LO, _LOG_SIGMA_HI
    if _t_scale_score(d2, nu, lo)[0] <= 0.0:
        return lo
    if _t_scale_score(d2, nu, hi)[0] >= 0.0:
        return hi
    x = min(max(0.5 * math.log(float(np.mean(d2))), lo), hi)
    for _ in range(_SIGMA_MAX_ITER):
        value, slope = _t_scale_score(d2, nu, x)
        if value > 0.0:
            lo = x
        else:
            hi = x
        step = value / slope if slope < 0.0 else math.inf
        nxt = x - step
        if not lo <= nxt <= hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= _SIGMA_XTOL or hi - lo <= _SIGMA_XTOL:
            return nxt
        x = nxt
    raise NonConvergenceError(
        f"scale MLE at nu={nu!r} did not converge in {_SIGMA_MAX_ITER} steps")


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


def garch_filter(xs, params: GarchParams) -> ParamTrajectory:
    """The causal variance recursion over xs as a trajectory from t = 0:
    center 0, sigma_t, nu at the Gaussian limit, and the out-of-sample
    Gaussian log-density of each point."""
    xs = np.asarray(xs, dtype=np.float64)
    n = xs.size
    if n == 0:
        raise SeriesTooShortError("cannot filter an empty series")
    sigma = np.sqrt(_garch_variance(xs * xs, params.omega, params.alpha,
                                    params.beta, params.initial_var))
    return ParamTrajectory(
        start=0, mu=np.broadcast_to(0.0, n), sigma=sigma,
        nu=np.broadcast_to(NU_GAUSSIAN, n),
        log_density=log_density(xs, 0.0, sigma, NU_GAUSSIAN))


def _garch_mean_loglik(xs, omega: float, alpha: float, beta: float,
                       initial_var: float):
    """Mean Gaussian log-likelihood of the filter, its gradient and Hessian.

    Returns (value, gradient, Hessian) in (omega, alpha, beta), or
    (-inf, 0, 0) where any of them is not finite.  No parameter
    validation: the optimizer's trial points may sit on the bounds.  The
    first derivatives D^p_t = d sigma2_t / dp follow the variance
    recursion driven by 1, x2_{t-1} and sigma2_{t-1}.  The second
    derivatives are nonzero only in the pairs with beta, and follow it
    driven by D^omega_{t-1}, D^alpha_{t-1} and 2 D^beta_{t-1}.
    Derivative paths summed against w_t = d value / d sigma2_t equal the
    backward recursion over w (lam_j = sum_{t>=j} beta^(t-j) w_t) summed
    against their drives, so
    the gradient and the second-derivative terms take one backward scan
    between them; the curvature term sums d2 value / d sigma2_t^2 against
    the products of the forward D paths.  The sums are elementwise
    products, not BLAS calls: BLAS threads cost more than they save at
    this size.
    """
    n = xs.size
    x2 = xs * xs
    sigma2 = _garch_variance(x2, omega, alpha, beta, initial_var)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z2 = x2 / sigma2
        # in place: at ~1e4-1e5 points numpy does not elide temporaries,
        # and fresh ones cost more than the arithmetic
        terms = np.log(sigma2)
        terms += z2
        value = -0.5 * (_LOG_2PI + float(np.mean(terms)))
        w = z2 - 1.0
        w *= 0.5
        w /= sigma2
        curv = 0.5 - z2
        curv /= sigma2
        curv /= sigma2
        curv = curv[1:]
        lam = _ar1_scan(w[:0:-1], beta)[::-1]
        drives = (np.ones(n - 1), x2[:-1], sigma2[:-1])
        paths = [_ar1_scan(u, beta) for u in drives]
        grad = np.array([np.einsum("i,i->", lam, u) for u in drives]) / n
        hess = np.empty((3, 3))
        for i in range(3):
            for j in range(i, 3):
                hess[i, j] = hess[j, i] = np.einsum(
                    "i,i,i->", curv, paths[i], paths[j])
        beta_pairs = [np.einsum("i,i->", lam[1:], d[:-1]) for d in paths]
        beta_pairs[2] *= 2.0
        hess[:, 2] += beta_pairs
        hess[2, :2] = hess[:2, 2]
        hess /= n
    if not (math.isfinite(value) and np.all(np.isfinite(grad))
            and np.all(np.isfinite(hess))):
        # a failed evaluation: no line search accepts a point on it
        return -math.inf, np.zeros(3), np.zeros((3, 3))
    return value, grad, hess


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
# Newton iterations per start
_NEWTON_MAX_ITER = 200
# widest band next to a bound in which a variable pushed outward counts
# as active (Bertsekas's epsilon)
_ACTIVE_BAND = 1e-9
# largest move of ln(omega) in one step: far from the optimum Newton's
# quadratic model overshoots in ln(omega), toward the flat omega -> 0 end
_MAX_LN_OMEGA_STEP = 1.0
# Armijo sufficient-decrease fraction
_ARMIJO = 1e-4
# a start converges once the predicted decrease of the full step is at
# the rounding floor of the objective
_DECREASE_FLOOR = 4.0 * math.ulp(1.0)


@dataclass(frozen=True)
class _Start:
    """Where one start of the search ended."""

    fun: float
    x: tuple
    success: bool
    message: str


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
    w, s, f = u
    return math.exp(w), s * f, s * (1.0 - f)


def _neg_loglik(xs, var: float, u):
    """-value, its gradient and Hessian in (ln omega, s, f), as floats.

    Chain rule through omega = e^w, alpha = s f, beta = s (1 - f): the
    Hessian is J^T H J plus the gradient against the second derivatives
    of the map (d2 omega / dw2 = omega, d2 alpha / ds df = 1,
    d2 beta / ds df = -1).
    """
    omega, alpha, beta = _unpack(u)
    _, s, f = u
    value, grad, hess = _garch_mean_loglik(xs, omega, alpha, beta, var)
    go, ga, gb = grad.tolist()
    (hoo, hoa, hob), (_, haa, hab), (_, _, hbb) = hess.tolist()
    g = 1.0 - f
    hws = omega * (hoa * f + hob * g)
    hwf = omega * s * (hoa - hob)
    hss = f * f * haa + 2.0 * f * g * hab + g * g * hbb
    hsf = s * (f * haa + (g - f) * hab - g * hbb) + ga - gb
    hff = s * s * (haa - 2.0 * hab + hbb)
    hww = omega * omega * hoo + go * omega
    return (-value,
            [-go * omega, -(ga * f + gb * g), -(ga - gb) * s],
            [[-hww, -hws, -hwf], [-hws, -hss, -hsf], [-hwf, -hsf, -hff]])


def _cholesky_solve(a, b):
    """x with a x = b for a small symmetric matrix; None unless a is PD."""
    k = len(b)
    low = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1):
            r = a[i][j] - sum(low[i][m] * low[j][m] for m in range(j))
            if i == j:
                if not r > 0.0:
                    return None
                low[i][i] = math.sqrt(r)
            else:
                low[i][j] = r / low[j][j]
    y = []
    for i in range(k):
        y.append((b[i] - sum(low[i][m] * y[m] for m in range(i))) / low[i][i])
    x = [0.0] * k
    for i in reversed(range(k)):
        x[i] = (y[i] - sum(low[m][i] * x[m] for m in range(i + 1, k))) \
            / low[i][i]
    return x


def _newton_direction(hess, grad):
    """-H^{-1} g, with H shifted toward its diagonal until it is PD.

    The modified-Newton shift adds tau * |H_ii| to the diagonal (1 where
    H_ii is 0), so the fallback does not depend on the coordinates'
    scales; tau grows tenfold from 1e-6.
    """
    neg = [-v for v in grad]
    x = _cholesky_solve(hess, neg)
    tau = 1e-6
    while x is None:
        shifted = [[h + tau * (abs(h) or 1.0) if i == j else h
                    for j, h in enumerate(row)] for i, row in enumerate(hess)]
        x = _cholesky_solve(shifted, neg)
        tau *= 10.0
    return x


def _project(u, lower, upper):
    return [min(max(v, lo), hi) for v, lo, hi in zip(u, lower, upper)]


def _search_direction(u, grad, hess, lower, upper):
    """(step, active) of one projected Newton iteration.

    Variables within the epsilon band of a bound whose gradient pushes
    outward are active and take a diagonally scaled gradient step; the
    others take a Newton step on their block of the Hessian.  The band
    shrinks with the projected gradient, so near the optimum only the
    variables on a bound stay active.
    """
    gap = math.sqrt(sum(
        (v - p) ** 2 for v, p in zip(
            u, _project([v - g for v, g in zip(u, grad)], lower, upper))))
    band = min(_ACTIVE_BAND, gap)
    active = [(v <= lo + band and g > 0.0) or (v >= hi - band and g < 0.0)
              for v, g, lo, hi in zip(u, grad, lower, upper)]
    free = [i for i in range(3) if not active[i]]
    step = [-g / (abs(hess[i][i]) or 1.0) for i, g in enumerate(grad)]
    if free:
        newton = _newton_direction([[hess[i][j] for j in free] for i in free],
                                   [grad[i] for i in free])
        for i, d in zip(free, newton):
            step[i] = d
    shrink = min(1.0, _MAX_LN_OMEGA_STEP / (abs(step[0]) or 1.0))
    return [d * shrink for d in step], active


def _projected_newton(xs, var: float, u0, lower, upper) -> _Start:
    """Minimize -value over the box by projected Newton (Bertsekas 1982).

    Armijo backtracking runs along the projection arc
    u(t) = P(u + t step); the predicted decrease is t times the free
    variables' decrease plus the active ones' first-order change.  The
    start converges once the full step predicts a decrease within 4 eps
    of the objective's magnitude (at least 1).  It fails when the arc
    shows no decrease above that floor or the iteration cap is reached.
    It fails at once, with an infinite objective, at an iterate whose
    value or derivatives (after the chain rule) are not finite.  Each
    iterate's derivatives come from the evaluation that accepted it.
    """
    u = _project(u0, lower, upper)
    fun, grad, hess = _neg_loglik(xs, var, u)
    for _ in range(_NEWTON_MAX_ITER):
        if not all(map(math.isfinite, [fun, *grad, *hess[0], *hess[1],
                                       *hess[2]])):
            return _Start(math.inf, tuple(u), False,
                          "the likelihood or its derivatives are not finite")
        floor = _DECREASE_FLOOR * max(abs(fun), 1.0)
        step, active = _search_direction(u, grad, hess, lower, upper)
        free_decrease = -sum(g * d for g, d, a in zip(grad, step, active)
                             if not a)

        def predicted(t, trial):
            return t * free_decrease + sum(
                g * (v - w) for g, v, w, a in zip(grad, u, trial, active) if a)

        t = 1.0
        trial = _project([v + d for v, d in zip(u, step)], lower, upper)
        if predicted(t, trial) <= floor:
            return _Start(fun, tuple(u), True, "converged")
        while True:
            trial_fun, trial_grad, trial_hess = _neg_loglik(xs, var, trial)
            if fun - trial_fun >= _ARMIJO * predicted(t, trial):
                break
            t *= 0.5
            trial = _project([v + t * d for v, d in zip(u, step)],
                             lower, upper)
            if predicted(t, trial) <= floor:
                return _Start(fun, tuple(u), False,
                              "line search found no decrease above the "
                              "rounding floor")
        u, fun, grad, hess = trial, trial_fun, trial_grad, trial_hess
    return _Start(fun, tuple(u), False,
                  f"no convergence in {_NEWTON_MAX_ITER} iterations")


def fit_garch_mle(xs) -> GarchFit:
    """In-sample Gaussian MLE of (omega, alpha, beta).

    Projected Newton search with the exact Hessian over (ln omega, s, f),
    where s = alpha + beta and f = alpha / s are both bounded to [0, 1]
    and ln omega to a range around ln var(x).  The fixed starts run in
    order until a second start reaches the best optimum so far (to 1e-10
    relative) and one of them converged; the best such converged start
    is returned.  Raises NonConvergenceError when no start that reaches
    the best optimum converged.  Deterministic for identical inputs.  On
    strongly regime-switching data the optimum sits at the integrated
    (IGARCH) boundary s = 1; beta is then stepped down by ulps to the
    nearest stationary value and the fit says so in
    `persistence_clamped`.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size < 100:
        raise SeriesTooShortError(
            f"GARCH fit requires at least 100 points, got {xs.size}")
    var = float(np.var(xs))
    if var <= 0.0:
        raise SeriesTooShortError("series has zero variance; nothing to fit")
    ln_var = math.log(var)
    lower = (ln_var - _LN_OMEGA_BELOW_VAR, 0.0, 0.0)
    upper = (ln_var + _LN_OMEGA_ABOVE_VAR, 1.0, 1.0)

    # a start can end at the rounding floor of the objective without
    # converging, on an optimum that other starts confirm; so the search
    # stops once two starts reach the best optimum and one of them
    # converged, and returns the best converged one
    runs = []
    for a0, b0 in _GARCH_STARTS:
        s0 = a0 + b0
        runs.append(_projected_newton(
            xs, var, (math.log(var * (1.0 - s0)), s0, a0 / s0), lower, upper))
        best_fun = min(r.fun for r in runs)
        tol = _STARTS_AGREE_RTOL * abs(best_fun)
        # failed starts all end at inf, where only equality holds
        at_best = [r for r in runs
                   if r.fun == best_fun or abs(r.fun - best_fun) <= tol]
        if len(at_best) > 1 and any(r.success for r in at_best):
            break
    converged = [r for r in at_best if r.success]
    if not converged:
        raise NonConvergenceError(
            "GARCH fit did not converge: "
            + "; ".join(dict.fromkeys(r.message for r in at_best)))
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
