"""Whole-sample moments and the one copy of the moments-to-parameters maps.

sigma = m_p^{1/p} / M(nu, p); nu inverts m_{p1}^{1/p1} / m_{p2}^{1/p2}
through a precomputed monotone table, plus an additive adjustment
(default 0.9) before the cap.  The maps are vectorized: the moving
estimator's fold applies them to its EMA moment paths, the static fit
to the whole-sample moments.  `adaptive.step` holds their scalar form.
The scale map `sigma_of` gives sigma alone; a caller that scores takes
the log-density from `distribution.log_density`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional

import numpy as np

from .distribution import (_HALF_LOG_PI, NU_GAUSSIAN, _lgamma_of,
                           abs_central_moment)
from .errors import (DegenerateDataError, DomainError, MonotonicityError,
                     SeriesTooShortError)

__all__ = [
    "DEFAULT_NU_CAP",
    "DEFAULT_NU_ADJUSTMENT",
    "compute_moments",
    "build_nu_table",
    "raw_nu",
    "adjusted_nu",
    "sigma_of",
    "static_fit",
]

DEFAULT_NU_CAP = 1000.0
DEFAULT_NU_ADJUSTMENT = 0.9
_GRID_SIZE = 256  # points of the log nu grid behind the inversion table


def compute_moments(xs, powers, mu="mean"):
    """(mu_hat, moments): the center and the absolute central moments
    m_p = mean(|x - mu_hat|^p) of xs, one for each power in order.

    ``mu`` is either the literal string "mean" (use the sample mean) or a
    fixed numeric center.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise SeriesTooShortError("cannot compute moments of an empty series")
    powers = tuple(float(p) for p in powers)
    if any(p <= 0.0 or not math.isfinite(p) for p in powers):
        raise DomainError(f"powers must be finite and > 0, got {powers}")
    if mu == "mean":
        mu_hat = float(xs.mean())
    else:
        mu_hat = float(mu)
        if not math.isfinite(mu_hat):
            raise DomainError(f"fixed mu must be finite, got {mu!r}")
    d = np.abs(xs - mu_hat)
    by_power = {}
    for p in powers:
        if p not in by_power:
            with np.errstate(over="ignore"):
                by_power[p] = float(np.mean(d ** p))
            if not math.isfinite(by_power[p]):
                raise _power_overflow(p)
    return mu_hat, tuple(by_power[p] for p in powers)


def _power_overflow(p: float) -> DomainError:
    """The error for a power whose absolute moments overflow float64."""
    return DomainError(f"the absolute moment of power {p!r} overflows "
                       "float64 on this data; choose a smaller power")


def build_nu_table(p1: float, p2: float, nu_min: float = None,
                   nu_cap: float = DEFAULT_NU_CAP):
    """(nu_grid, ratio_grid): R(nu) = M(nu, p1) / M(nu, p2) tabulated on a
    log-spaced nu grid from nu_min to nu_cap, checked strictly monotone."""
    for name, p in (("p1", p1), ("p2", p2)):
        if not (math.isfinite(p) and p > 0.0):
            raise DomainError(f"{name} must be finite and > 0, got {p!r}")
    if p1 == p2:
        raise DomainError("p1 and p2 must differ (ratio is identically 1)")
    if nu_min is None:
        nu_min = max(p1, p2) + 0.1
    if nu_min <= max(p1, p2):
        raise DomainError(f"nu_min must exceed max(p1, p2)={max(p1, p2)}, "
                          f"got {nu_min!r}")
    if not nu_cap > nu_min:
        raise DomainError(f"nu_cap must exceed nu_min, got {nu_cap!r}")
    if nu_cap > NU_GAUSSIAN:
        # the ratio is flat in the Gaussian limit, so it cannot be inverted
        raise DomainError(f"nu_cap must be <= {NU_GAUSSIAN:g} (the Gaussian "
                          f"limit), got {nu_cap!r}")

    nu_grid = np.exp(np.linspace(math.log(nu_min), math.log(nu_cap),
                                 _GRID_SIZE))
    nu_grid[0] = nu_min
    nu_grid[-1] = nu_cap
    ratio = np.array([abs_central_moment(nu, p1) / abs_central_moment(nu, p2)
                      for nu in nu_grid])
    diffs = np.diff(ratio)
    if not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
        raise MonotonicityError(
            f"moment ratio is not strictly monotone for p1={p1}, p2={p2} "
            f"on nu in [{nu_min}, {nu_cap}]")
    return nu_grid, ratio


@lru_cache(maxsize=32)
def _inversion_table(p1: float, p2: float, nu_min: float, nu_cap: float):
    """The nu inversion table for interpolation: ratio ascending and ln nu
    in matching order, as lists, and the nu at its two ends."""
    nu, ratio = build_nu_table(p1, p2, nu_min=nu_min, nu_cap=nu_cap)
    ln_nu = np.log(nu)
    if ratio[0] > ratio[-1]:
        ratio, nu, ln_nu = ratio[::-1], nu[::-1], ln_nu[::-1]
    return ratio.tolist(), ln_nu.tolist(), (nu[0].item(), nu[-1].item())


# --------------------------------------------------------------------------
# moments -> parameters, vectorized: the fold maps its moment paths
# through these, and the static fit the whole-sample moments


def raw_nu(m1, m2, p1: float, p2: float, nu_min: float, nu_cap: float,
           floor: float):
    """nu whose moment ratio is m1^{1/p1} / m2^{1/p2} (moments floored at
    `floor`), by the inversion table; beyond its ends nu_min or nu_cap
    exactly, as exp(ln 1000) is 999.9999999999998."""
    r = np.exp(np.log(np.maximum(m1, floor)) / p1
               - np.log(np.maximum(m2, floor)) / p2)
    ratio_asc, ln_nu, (nu_first, nu_last) = _inversion_table(p1, p2, nu_min,
                                                             nu_cap)
    nu = np.exp(np.interp(r, ratio_asc, ln_nu))
    return np.where(r <= ratio_asc[0], nu_first,
                    np.where(r >= ratio_asc[-1], nu_last, nu))


def adjusted_nu(nu_raw, adjustment: float, nu_cap: float):
    """The raw nu plus the additive adjustment, capped at nu_cap."""
    return np.minimum(nu_raw + adjustment, nu_cap)


def sigma_of(m_sigma, nu, p_sigma: float, floor: float):
    """sigma = max(m_sigma, floor)^{1/p_sigma} / M(nu, p_sigma), which
    needs p_sigma < nu, elementwise.  nu is one value or one per step;
    steps with nu >= NU_GAUSSIAN use the Gaussian limit, as
    `adaptive.step` does."""
    nu = np.asarray(nu, dtype=np.float64)
    gauss = nu >= NU_GAUSSIAN
    # the Student-t terms are evaluated at a finite stand-in where the
    # Gaussian branch is taken, so lgamma never sees a huge argument
    nu_t = np.minimum(nu, NU_GAUSSIAN)
    lg_half_p1 = math.lgamma(0.5 * (p_sigma + 1.0))
    log_m = np.where(
        gauss,
        (0.5 * p_sigma * math.log(2.0) + lg_half_p1 - _HALF_LOG_PI) / p_sigma,
        (0.5 * p_sigma * np.log(nu_t) + lg_half_p1
         + _lgamma_of(0.5 * (nu_t - p_sigma)) - _HALF_LOG_PI
         - _lgamma_of(0.5 * nu_t)) / p_sigma)
    return np.exp(np.log(np.maximum(m_sigma, floor)) / p_sigma - log_m)


def static_fit(m_sigma: float, m1: Optional[float], m2: Optional[float],
               p_sigma: float = 1.0, p1: float = 1.0, p2: float = 0.5,
               nu_fixed: Optional[float] = None,
               nu_adjustment: float = DEFAULT_NU_ADJUSTMENT,
               nu_min: float = 1.1, nu_cap: float = DEFAULT_NU_CAP):
    """(sigma_hat, nu_raw, nu_adjusted): the maps above at the unfloored
    moments of powers p_sigma, p1 and p2, the state the fold would start
    from; a given nu_fixed is both nu_raw and nu_adjusted, and m1, m2 go
    unread.  Raises DegenerateDataError for a zero moment and
    DivergentMomentError when p_sigma >= nu."""
    if nu_fixed is None:
        _inversion_table(p1, p2, nu_min, nu_cap)  # the flags before the data
        if m1 <= 0.0 or m2 <= 0.0:
            raise DegenerateDataError(
                f"zero moment (m_p1={m1}, m_p2={m2}); cannot estimate nu")
        nu_raw = float(raw_nu(m1, m2, p1, p2, nu_min, nu_cap, 0.0))
        nu = float(adjusted_nu(nu_raw, nu_adjustment, nu_cap))
    else:
        nu_raw = nu = nu_fixed
    abs_central_moment(nu, p_sigma)  # refuses p_sigma >= nu: lgamma(0) below
    if m_sigma <= 0.0:
        raise DegenerateDataError(
            f"moment for p={p_sigma} is {m_sigma}; data has no spread "
            "around mu_hat")
    return sigma_of(m_sigma, nu, p_sigma, 0.0).item(), nu_raw, nu
