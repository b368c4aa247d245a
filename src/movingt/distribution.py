"""Student's t-distribution: log-density, CDF, sampling, absolute moments.

All gamma-function arithmetic happens in the log domain so that large
degrees of freedom never overflow.  Beyond ``NU_GAUSSIAN`` (1e6) the
distribution is numerically indistinguishable from a Gaussian at double
precision, and the Gaussian limit is substituted outright.  The tails
come from one formula, the regularized incomplete beta in ``cdf``;
log-gamma is ``math.lgamma``.  ``StudentTParams`` is a frozen
dataclass whose ``__init__``, written by hand because ``adaptive.step``
builds one per call, checks the fields and stores them in the instance
dict without the generated init's ``object.__setattr__`` per field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentMomentError, DomainError, NonConvergenceError

__all__ = [
    "NU_GAUSSIAN",
    "StudentTParams",
    "log_density",
    "cdf",
    "abs_central_moment",
]

#: degrees of freedom at and beyond which the Gaussian limit is used
NU_GAUSSIAN = 1.0e6

_HALF_LOG_PI = 0.5 * math.log(math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True, init=False)
class StudentTParams:
    """Location mu, scale sigma > 0 and degrees of freedom nu > 0."""

    mu: float
    sigma: float
    nu: float

    def __init__(self, mu, sigma, nu):
        # one chained comparison for the common valid case (NaN fails it);
        # the checks below name the first bad field
        if not (-math.inf < mu < math.inf and 0.0 < sigma < math.inf
                and 0.0 < nu < math.inf):
            for name, v in (("mu", mu), ("sigma", sigma), ("nu", nu)):
                if not math.isfinite(v):
                    raise DomainError(f"{name} must be finite, got {v!r}")
            if sigma <= 0.0:
                raise DomainError(f"sigma must be > 0, got {sigma!r}")
            if nu <= 0.0:
                raise DomainError(f"nu must be > 0, got {nu!r}")
        # stored straight into the instance dict, as `adaptive.EmaState`
        # is: the generated init of a frozen dataclass sets each field
        # through object.__setattr__, and `adaptive.step` builds one of
        # these on every call
        d = self.__dict__
        d["mu"] = mu
        d["sigma"] = sigma
        d["nu"] = nu


def _lgamma_of(a) -> np.ndarray:
    """math.lgamma elementwise."""
    a = np.asarray(a)
    return np.fromiter(map(math.lgamma, a.ravel().tolist()), np.float64,
                       count=a.size).reshape(a.shape)


def log_density(x, mu, sigma, nu):
    """ln rho(x) for location mu, scale sigma and nu degrees of freedom,
    elementwise over arguments that broadcast together; nu is one value
    or one per point, and nu >= NU_GAUSSIAN is the Gaussian limit."""
    nu = np.asarray(nu, dtype=np.float64)
    gauss = nu >= NU_GAUSSIAN
    # the Student-t terms are evaluated at a finite stand-in where the
    # Gaussian branch is taken, so lgamma never sees a huge argument
    nu_t = np.minimum(nu, NU_GAUSSIAN)
    log_norm = np.where(
        gauss, -_HALF_LOG_2PI,
        _lgamma_of(0.5 * (nu_t + 1.0)) - _lgamma_of(0.5 * nu_t)
        - 0.5 * np.log(nu_t * math.pi))
    z = (x - mu) / sigma
    with np.errstate(over="ignore"):  # z*z may hit inf; -inf out is correct
        tail = np.where(gauss, 0.5 * z * z,
                        0.5 * (nu_t + 1.0) * np.log1p(z * z / nu_t))
    return log_norm - np.log(sigma) - tail


def cdf(params: StudentTParams, x: float) -> float:
    """P(X <= x) from the lower tail (1/2) I_{nu/(nu+z^2)}(nu/2, 1/2), which
    keeps its relative precision however far out z is; the upper side is
    1 minus it, and the Gaussian limit is the complementary error function."""
    if math.isnan(x):
        raise DomainError("cdf is undefined at NaN")
    z = (x - params.mu) / params.sigma
    if params.nu >= NU_GAUSSIAN:
        return 0.5 * math.erfc(-z / math.sqrt(2.0))
    nu, zz = params.nu, z * z
    # 1 - x passed as well: near z = 0 the subtraction would lose it
    lower = 0.5 * _betainc(0.5 * nu, 0.5, nu / (nu + zz), zz / (nu + zz))
    return lower if z < 0.0 else 1.0 - lower


def _beta_cf(a: float, b: float, x: float, max_iter: int = 10_000,
             eps: float = 1e-15) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise NonConvergenceError(
        f"incomplete beta continued fraction stalled for a={a}, b={b}, x={x}")


def _betainc(a: float, b: float, x: float, y: float | None = None) -> float:
    """Regularized incomplete beta I_x(a, b); ``y`` is 1 - x.

    Continued-fraction evaluation with the usual symmetric split, so that
    the fraction always runs in its rapidly convergent regime.  Absolute
    error is ~1e-14 for moderate a, b (up to ~1e3); for very large
    parameters the log-beta prefactor limits accuracy to ~1e-9.  ``y``
    defaults to ``1.0 - x``; a caller may pass it more precisely.
    """
    for name, v in (("a", a), ("b", b)):
        if not math.isfinite(v) or v <= 0.0:
            raise DomainError(f"requires finite {name} > 0, got {v!r}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"requires x in [0, 1], got {x!r}")
    if y is None:
        y = 1.0 - x
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    ln_prefactor = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                    + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_prefactor) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(ln_prefactor) * _beta_cf(b, a, y) / b


def _log_abs_moment(nu: float, p: float) -> float:
    # ln M(nu, p) unchecked, for callers that guarantee 0 < p < nu
    if nu >= NU_GAUSSIAN:
        return (0.5 * p * math.log(2.0) + math.lgamma(0.5 * (p + 1.0))
                - _HALF_LOG_PI) / p
    return (0.5 * p * math.log(nu) + math.lgamma(0.5 * (p + 1.0))
            + math.lgamma(0.5 * (nu - p)) - _HALF_LOG_PI
            - math.lgamma(0.5 * nu)) / p


def abs_central_moment(nu: float, p: float) -> float:
    """M(nu, p) = E[|x|^p]^{1/p} for the standardized distribution.

    Finite only for 0 < p < nu; raises DivergentMomentError otherwise.
    This constant links the empirical absolute moment m_p of scaled data
    to the scale parameter via sigma = m_p^{1/p} / M(nu, p).
    """
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError(f"nu must be finite and > 0, got {nu!r}")
    if not (math.isfinite(p) and p > 0.0):
        raise DomainError(f"p must be finite and > 0, got {p!r}")
    if p >= nu:
        raise DivergentMomentError(
            f"E|x|^p diverges for p >= nu (p={p}, nu={nu})")
    return math.exp(_log_abs_moment(nu, p))


def draw(rng: np.random.Generator, params: StudentTParams, n: int) -> np.ndarray:
    """n i.i.d. draws using the supplied generator (normal over chi-square)."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n!r}")
    z = rng.standard_normal(n)
    v = 2.0 * rng.standard_gamma(0.5 * params.nu, n)
    t = z / np.sqrt(v / params.nu)
    return params.mu + params.sigma * t
