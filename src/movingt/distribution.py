"""Student's t-distribution: density, CDF, sampling, absolute moments.

All gamma-function arithmetic happens in the log domain so that large
degrees of freedom never overflow.  Beyond ``NU_GAUSSIAN`` (1e6) the
distribution is numerically indistinguishable from a Gaussian at double
precision, and the Gaussian limit is substituted outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentMomentError, DomainError
from .special_math import regularized_incomplete_beta

__all__ = [
    "NU_GAUSSIAN",
    "StudentTParams",
    "log_pdf",
    "cdf",
    "abs_central_moment",
    "log_abs_central_moment",
]

#: degrees of freedom at and beyond which the Gaussian limit is used
NU_GAUSSIAN = 1.0e6

_HALF_LOG_PI = 0.5 * math.log(math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class StudentTParams:
    """Location mu, scale sigma > 0 and degrees of freedom nu > 0."""

    mu: float
    sigma: float
    nu: float

    def __post_init__(self):
        # one chained comparison for the common valid case (NaN fails it);
        # the checks below name the first bad field
        if (-math.inf < self.mu < math.inf and 0.0 < self.sigma < math.inf
                and 0.0 < self.nu < math.inf):
            return
        for name, v in (("mu", self.mu), ("sigma", self.sigma), ("nu", self.nu)):
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
        if self.sigma <= 0.0:
            raise DomainError(f"sigma must be > 0, got {self.sigma!r}")
        if self.nu <= 0.0:
            raise DomainError(f"nu must be > 0, got {self.nu!r}")


def log_pdf(params: StudentTParams, x):
    """Log-density, stable in the log domain; accepts scalars or arrays."""
    z = (np.asarray(x, dtype=np.float64) - params.mu) / params.sigma
    with np.errstate(over="ignore"):  # z*z may hit inf; -inf out is correct
        if params.nu >= NU_GAUSSIAN:
            out = -_HALF_LOG_2PI - math.log(params.sigma) - 0.5 * z * z
        else:
            nu = params.nu
            const = (math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu)
                     - 0.5 * math.log(nu * math.pi) - math.log(params.sigma))
            out = const - 0.5 * (nu + 1.0) * np.log1p(z * z / nu)
    return out if out.ndim else float(out)


def cdf(params: StudentTParams, x: float) -> float:
    """P(X <= x) via the regularized incomplete beta representation."""
    if math.isnan(x):
        raise DomainError("cdf is undefined at NaN")
    z = (x - params.mu) / params.sigma
    if params.nu >= NU_GAUSSIAN:
        return 0.5 * math.erfc(-z / math.sqrt(2.0))
    if z == 0.0:
        return 0.5
    nu = params.nu
    if math.isinf(z):
        return 1.0 if z > 0 else 0.0
    zz = z * z
    tail = regularized_incomplete_beta(0.5, 0.5 * nu, zz / (nu + zz))
    return 0.5 + 0.5 * tail if z > 0.0 else 0.5 - 0.5 * tail


def log_abs_central_moment(nu: float, p: float) -> float:
    """ln of E[|x|^p]^{1/p} for the unit-scale, zero-location distribution."""
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError(f"nu must be finite and > 0, got {nu!r}")
    if not (math.isfinite(p) and p > 0.0):
        raise DomainError(f"p must be finite and > 0, got {p!r}")
    if p >= nu:
        raise DivergentMomentError(
            f"E|x|^p diverges for p >= nu (p={p}, nu={nu})")
    return _log_abs_moment(nu, p)


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
    return math.exp(log_abs_central_moment(nu, p))


def draw(rng: np.random.Generator, params: StudentTParams, n: int) -> np.ndarray:
    """n i.i.d. draws using the supplied generator (normal over chi-square)."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n!r}")
    z = rng.standard_normal(n)
    v = 2.0 * rng.standard_gamma(0.5 * params.nu, n)
    t = z / np.sqrt(v / params.nu)
    return params.mu + params.sigma * t
