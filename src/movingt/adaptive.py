"""Moving estimation of Student-t parameters via exponential moving averages.

Each step first forms the parameter estimate (mu_t, sigma_t, nu_t) from
the current state, scores the incoming point out-of-sample, and only
then ingests it:

    mu      <- mu + eta1 * (x - mu)
    m_p     <- m_p + eta  * (|x - mu_t|^p - m_p)      (pre-update mu_t)

sigma_t = max(m_sigma, floor)^{1/p_sigma} / M(nu_t, p_sigma); nu_t comes
from the ratio of two moment EMAs inverted through a monotone table
(plus the additive adjustment), or is held fixed.

`run` folds a whole series: the center and the three moment EMAs are
first-order recursions, built with `itertools.accumulate` from the same
update expression as the scalar `step`, and nu, sigma and the
log-density are numpy maps of those state paths.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Optional, Union

import numpy as np

from .distribution import (_HALF_LOG_2PI, _HALF_LOG_PI, NU_GAUSSIAN,
                           StudentTParams, _log_abs_moment)
from .errors import DomainError, SeriesTooShortError
from .static_estimators import (DEFAULT_NU_ADJUSTMENT, DEFAULT_NU_CAP,
                                _power_overflow, build_nu_table,
                                compute_moments)

__all__ = [
    "AdaptiveConfig",
    "EmaState",
    "ParamTrajectory",
    "step",
    "run",
    "seed_state_from_prefix",
    "moment_paths",
    "sigma_and_log_density",
]

@dataclass(frozen=True)
class AdaptiveConfig:
    """Rates, powers and clamps for the moving estimator.

    eta1 drives the center, eta2 the sigma moment, eta3 the two nu
    moments.  p_sigma is the power behind the sigma estimate; (p1, p2)
    the power pair behind nu.  Larger powers are statistically better
    for light tails (p=2 is optimal in the Gaussian limit) but every
    power must stay below the smallest nu the run can see; the defaults
    (p_sigma=1, p1=1, p2=0.5) are safe down to nu_min=1.1.

    eta1 may be 0 to pin the center (used by the fixed-center sweep).
    """

    eta1: float = 0.003
    eta2: float = 0.05
    eta3: float = 0.005
    p_sigma: float = 1.0
    p1: float = 1.0
    p2: float = 0.5
    nu_fixed: Optional[float] = None
    nu_adjustment: float = DEFAULT_NU_ADJUSTMENT
    nu_min: float = 1.1
    nu_cap: float = DEFAULT_NU_CAP
    moment_floor: float = 1e-20

    def __post_init__(self):
        if not (0.0 <= self.eta1 <= 1.0):
            raise DomainError(f"eta1 must be in [0, 1], got {self.eta1!r}")
        for name in ("eta2", "eta3"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise DomainError(f"{name} must be in (0, 1], got {v!r}")
        for name in ("p_sigma", "p1", "p2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be finite and > 0, got {v!r}")
        if self.p1 == self.p2:
            raise DomainError("p1 and p2 must differ")
        if not (0.0 < self.nu_min < self.nu_cap):
            raise DomainError(
                f"need 0 < nu_min < nu_cap, got ({self.nu_min!r}, {self.nu_cap!r})")
        if self.nu_fixed is not None:
            if not (math.isfinite(self.nu_fixed) and self.nu_fixed > 0.0):
                raise DomainError(f"nu_fixed must be finite and > 0, "
                                  f"got {self.nu_fixed!r}")
            if self.p_sigma >= self.nu_fixed:
                raise DomainError(
                    f"p_sigma={self.p_sigma} must be < nu_fixed={self.nu_fixed} "
                    "(the moment diverges otherwise)")
        else:
            if self.p_sigma >= self.nu_min:
                raise DomainError(
                    f"p_sigma={self.p_sigma} must be < nu_min={self.nu_min}")
        if max(self.p1, self.p2) >= self.nu_min:
            raise DomainError(
                f"p1, p2 must be < nu_min={self.nu_min}, "
                f"got ({self.p1}, {self.p2})")
        if not (math.isfinite(self.nu_adjustment) and self.nu_adjustment >= 0.0):
            raise DomainError(
                f"nu_adjustment must be finite and >= 0, got {self.nu_adjustment!r}")
        if not (math.isfinite(self.moment_floor) and self.moment_floor > 0.0):
            raise DomainError(
                f"moment_floor must be finite and > 0, got {self.moment_floor!r}")


@dataclass(frozen=True)
class EmaState:
    """Evolving estimator state: center plus three moment EMAs."""

    mu: float
    m_sigma: float
    m1: float
    m2: float

    def __post_init__(self):
        for name, v in (("mu", self.mu), ("m_sigma", self.m_sigma),
                        ("m1", self.m1), ("m2", self.m2)):
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
        for name, v in (("m_sigma", self.m_sigma), ("m1", self.m1),
                        ("m2", self.m2)):
            if v < 0.0:
                raise DomainError(f"{name} must be >= 0, got {v!r}")


@dataclass(frozen=True)
class ParamTrajectory:
    """Per-step records (t, x, mu, sigma, nu, log_density)."""

    t: np.ndarray
    x: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    nu: np.ndarray
    log_density: np.ndarray

    def __len__(self) -> int:
        return int(self.t.size)


@lru_cache(maxsize=32)
def _inversion_table(p1: float, p2: float, nu_min: float, nu_cap: float):
    """(ratio ascending, ln nu) of the nu inversion table, as lists."""
    table = build_nu_table(p1, p2, nu_min=nu_min, nu_cap=nu_cap)
    ratio_asc, ln_nu = table.inversion_arrays()
    return ratio_asc.tolist(), ln_nu.tolist()


# --------------------------------------------------------------------------
# scalar step: the reference the vectorized fold is tested against


def _interp_ln_nu(r, ratio_asc, ln_nu_asc):
    # piecewise-linear inverse lookup, clamped at the table ends
    if r <= ratio_asc[0]:
        return ln_nu_asc[0]
    last = len(ratio_asc) - 1
    if r >= ratio_asc[last]:
        return ln_nu_asc[last]
    i = bisect_right(ratio_asc, r)
    r0 = ratio_asc[i - 1]
    y0 = ln_nu_asc[i - 1]
    return y0 + (ln_nu_asc[i] - y0) * (r - r0) / (ratio_asc[i] - r0)


def step(state: EmaState, x: float, config: AdaptiveConfig):
    """One step: (new_state, StudentTParams estimate for this time index).

    The estimate is computed from `state` before x is ingested, so x is
    out of sample for it; then the center and the moment EMAs take x.
    """
    x = float(x)
    mu, m_sigma, m1, m2 = state.mu, state.m_sigma, state.m1, state.m2
    floor = config.moment_floor
    if config.nu_fixed is None:
        ratio_asc, ln_nu = _inversion_table(config.p1, config.p2,
                                            config.nu_min, config.nu_cap)
        r = math.exp(math.log(m1 if m1 > floor else floor) / config.p1
                     - math.log(m2 if m2 > floor else floor) / config.p2)
        nu_t = min(math.exp(_interp_ln_nu(r, ratio_asc, ln_nu))
                   + config.nu_adjustment, config.nu_cap)
    else:
        nu_t = config.nu_fixed
    p_sigma = config.p_sigma
    mf = m_sigma if m_sigma > floor else floor
    sigma_t = math.exp(math.log(mf) / p_sigma - _log_abs_moment(nu_t, p_sigma))

    d = abs(x - mu)
    m_sigma += config.eta2 * (d ** p_sigma - m_sigma)
    if config.nu_fixed is None:
        m1 += config.eta3 * (d ** config.p1 - m1)
        m2 += config.eta3 * (d ** config.p2 - m2)
    new_state = EmaState(mu + config.eta1 * (x - mu), m_sigma, m1, m2)
    return new_state, StudentTParams(mu, sigma_t, nu_t)


def seed_state_from_prefix(xs, k: int, config: AdaptiveConfig,
                           mu: Optional[float] = None) -> EmaState:
    """State seeded with prefix statistics: mean and absolute moments.

    ``mu=None`` uses the prefix mean; a numeric ``mu`` pins the center
    and takes moments about it.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if k < 1 or k > xs.size:
        raise SeriesTooShortError(
            f"prefix length {k} not usable for a series of {xs.size} points")
    powers = (config.p_sigma, config.p1, config.p2)
    summary = compute_moments(xs[:k], dict.fromkeys(powers),
                              "mean" if mu is None else mu)
    return EmaState(summary.mu_hat, *map(summary.moment_for, powers))


# --------------------------------------------------------------------------
# vectorized fold

_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def _ema_path(m0: float, eta: float, observations: list) -> np.ndarray:
    """EMA value before each observation: m0, then m <- m + eta*(v - m)
    (the update of `step`)."""
    return np.fromiter(
        accumulate(observations, lambda m, v, eta=eta: m + eta * (v - m),
                   initial=m0),
        dtype=np.float64, count=len(observations))


def _powers(d: np.ndarray, p: float) -> list:
    """d ** p as a list; DomainError when a value overflows float64."""
    with np.errstate(over="ignore"):
        v = d ** p
    if not np.isfinite(v).all():
        raise _power_overflow(p)
    return v.tolist()


def moment_paths(xs, state: EmaState, config: AdaptiveConfig):
    """State paths (mu, m_sigma, m1, m2) of the fold over xs.

    Entry t of each path is the state the estimate for xs[t] is formed
    from, so it depends on xs[:t] only.  With a fixed nu the two nu
    moments never move and m1, m2 are None.  Raises DomainError when a
    power of |x_t - mu_t| overflows float64.
    """
    xs = np.asarray(xs, dtype=np.float64)
    mu = _ema_path(state.mu, config.eta1, xs.tolist())
    d = np.abs(xs - mu)
    m_sigma = _ema_path(state.m_sigma, config.eta2, _powers(d, config.p_sigma))
    if config.nu_fixed is not None:
        return mu, m_sigma, None, None
    m1 = _ema_path(state.m1, config.eta3, _powers(d, config.p1))
    m2 = _ema_path(state.m2, config.eta3, _powers(d, config.p2))
    return mu, m_sigma, m1, m2


def _nu_path(m1, m2, config: AdaptiveConfig) -> np.ndarray:
    floor = config.moment_floor
    r = np.exp(np.log(np.maximum(m1, floor)) / config.p1
               - np.log(np.maximum(m2, floor)) / config.p2)
    ratio_asc, ln_nu = _inversion_table(config.p1, config.p2,
                                        config.nu_min, config.nu_cap)
    nu = np.exp(np.interp(r, ratio_asc, ln_nu)) + config.nu_adjustment
    return np.minimum(nu, config.nu_cap)


def _lgamma_of(a) -> np.ndarray:
    return np.asarray(_lgamma(a), dtype=np.float64)


def sigma_and_log_density(xs, mu, m_sigma, nu, p_sigma: float, floor: float):
    """(sigma_t, ln rho_t(x_t)) per step from the state paths and nu_t.

    nu is one value or one per step; steps with nu >= NU_GAUSSIAN use
    the Gaussian limit, as `step` does.
    """
    nu = np.asarray(nu, dtype=np.float64)
    gauss = nu >= NU_GAUSSIAN
    # the Student-t terms are evaluated at a finite stand-in where the
    # Gaussian branch is taken, so lgamma never sees a huge argument
    nu_t = np.minimum(nu, NU_GAUSSIAN)
    lg_half_nu = _lgamma_of(0.5 * nu_t)
    lg_half_p1 = math.lgamma(0.5 * (p_sigma + 1.0))
    log_m = np.where(
        gauss,
        (0.5 * p_sigma * math.log(2.0) + lg_half_p1 - _HALF_LOG_PI) / p_sigma,
        (0.5 * p_sigma * np.log(nu_t) + lg_half_p1
         + _lgamma_of(0.5 * (nu_t - p_sigma)) - _HALF_LOG_PI - lg_half_nu)
        / p_sigma)
    sigma = np.exp(np.log(np.maximum(m_sigma, floor)) / p_sigma - log_m)

    log_norm = np.where(
        gauss, -_HALF_LOG_2PI,
        _lgamma_of(0.5 * (nu_t + 1.0)) - lg_half_nu
        - 0.5 * np.log(nu_t * math.pi))
    z = (xs - mu) / sigma
    with np.errstate(over="ignore"):  # z*z may hit inf; -inf out is correct
        tail = np.where(gauss, 0.5 * z * z,
                        0.5 * (nu_t + 1.0) * np.log1p(z * z / nu_t))
    return sigma, log_norm - np.log(sigma) - tail


def run(xs, config: AdaptiveConfig,
        init: Union[EmaState, int] = 300) -> ParamTrajectory:
    """Fold the moving estimator over a return series.

    ``init`` is either an explicit EmaState (the fold starts at t=0) or
    a prefix length k: the state is seeded with the first k points'
    statistics and the fold starts at t=k.  The trajectory holds every
    folded step; which of them count is the scoring functions' warmup.
    Raises SeriesTooShortError when no point is left to fold.
    """
    values = np.ascontiguousarray(getattr(xs, "values", xs), dtype=np.float64)
    n = int(values.size)
    explicit = isinstance(init, EmaState)
    t_start = 0 if explicit else int(init)
    if n <= t_start:
        raise SeriesTooShortError(
            f"series of {n} points leaves nothing to fold from t={t_start}")
    state = (init if explicit
             else seed_state_from_prefix(values, t_start, config))

    folded = values[t_start:].copy()
    mu, m_sigma, m1, m2 = moment_paths(folded, state, config)
    if config.nu_fixed is None:
        nu = _nu_path(m1, m2, config)
    else:
        nu = config.nu_fixed
    sigma, log_density = sigma_and_log_density(
        folded, mu, m_sigma, nu, config.p_sigma, config.moment_floor)

    return ParamTrajectory(
        t=np.arange(t_start, n, dtype=np.int64),
        x=folded, mu=mu, sigma=sigma,
        nu=np.broadcast_to(nu, folded.shape).copy(),
        log_density=log_density)
