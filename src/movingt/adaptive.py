"""Moving estimation of Student-t parameters via exponential moving averages.

Each step first forms the parameter estimate (mu_t, sigma_t, nu_t) from
the current state, for which the incoming point is out of sample, and
only then ingests it:

    mu      <- mu + eta1 * (x - mu)
    m_p     <- m_p + eta  * (|x - mu_t|^p - m_p)      (pre-update mu_t)

sigma_t = max(m_sigma, floor)^{1/p_sigma} / M(nu_t, p_sigma); nu_t comes
from the ratio of two moment EMAs inverted through a monotone table over
[nu_min, nu_cap], plus the additive adjustment, or is held fixed.  These
are the static method of moments' maps with EMA moments in place of
sample means; `step` evaluates them in scalar form.  The two records
it returns, `EmaState` and `distribution.StudentTParams`, are frozen
dataclasses with a hand-written `__init__`: it runs the field checks and
stores the fields in the instance dict, where the generated init of a
frozen dataclass sets each through `object.__setattr__`, which was a
fifth of each `step` call.

`update` folds a series from an explicit state and returns the state
after its last point, which is where a `step` loop over the same points
ends.  It works through fixed-size chunks, carrying the state from one
to the next, and writes each chunk into preallocated output arrays, so
its memory beyond the output does not grow with the series.  Within a
chunk the center and the three moment EMAs are first-order recursions,
built with `itertools.accumulate` from the same update expression as
`step`; nu and sigma are the vectorized maps of `static_estimators`
applied to those state paths, the maps the static fit evaluates at the
whole-sample moments; a fixed nu is a view of its one value, as the
static fit's columns are.  Every value depends only on the values
before it, so the output does not depend on the chunk size.  `run` is
`seed_state_from_prefix` plus `update`.  The fold returns parameters
only: scoring a point is `evaluation.score`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Optional, Union

import numpy as np

from .distribution import StudentTParams, _log_abs_moment
from .errors import DomainError, SeriesTooShortError
from .static_estimators import (DEFAULT_NU_ADJUSTMENT, DEFAULT_NU_CAP,
                                _inversion_table, _power_overflow,
                                adjusted_nu, compute_moments, raw_nu,
                                sigma_of)

__all__ = [
    "AdaptiveConfig",
    "EmaState",
    "ParamTrajectory",
    "step",
    "update",
    "run",
    "run_pieces",
    "seed_state_from_prefix",
    "moment_paths",
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


@dataclass(frozen=True, init=False)
class EmaState:
    """Evolving estimator state: center plus three moment EMAs."""

    mu: float
    m_sigma: float
    m1: float
    m2: float

    def __init__(self, mu, m_sigma, m1, m2):
        # one chained comparison for the common valid case (NaN fails it);
        # the loops below name the first bad field
        if not (-math.inf < mu < math.inf and 0.0 <= m_sigma < math.inf
                and 0.0 <= m1 < math.inf and 0.0 <= m2 < math.inf):
            for name, v in (("mu", mu), ("m_sigma", m_sigma), ("m1", m1),
                            ("m2", m2)):
                if not math.isfinite(v):
                    raise DomainError(f"{name} must be finite, got {v!r}")
            for name, v in (("m_sigma", m_sigma), ("m1", m1), ("m2", m2)):
                if v < 0.0:
                    raise DomainError(f"{name} must be >= 0, got {v!r}")
        # stored straight into the instance dict: the generated init of a
        # frozen dataclass sets each field through object.__setattr__, and
        # `step` builds this record and a StudentTParams on every call, so
        # the two generated inits cost a fifth of each call
        d = self.__dict__
        d["mu"] = mu
        d["m_sigma"] = m_sigma
        d["m1"] = m1
        d["m2"] = m2


@dataclass(frozen=True)
class ParamTrajectory:
    """Per-step estimates: entry i of mu, sigma and nu is the estimate
    for point start + i of the folded series, made before that point."""

    start: int
    mu: np.ndarray
    sigma: np.ndarray
    nu: np.ndarray

    def __len__(self) -> int:
        return int(self.mu.size)


# --------------------------------------------------------------------------
# scalar step: the reference the vectorized fold is tested against


def _interp_nu(r, ratio_asc, ln_nu_asc, nu_ends):
    # piecewise-linear inverse lookup in ln nu; the end values beyond
    # the table, exactly
    if r <= ratio_asc[0]:
        return nu_ends[0]
    last = len(ratio_asc) - 1
    if r >= ratio_asc[last]:
        return nu_ends[1]
    i = bisect_right(ratio_asc, r)
    r0 = ratio_asc[i - 1]
    y0 = ln_nu_asc[i - 1]
    return math.exp(y0 + (ln_nu_asc[i] - y0) * (r - r0) / (ratio_asc[i] - r0))


def step(state: EmaState, x: float, config: AdaptiveConfig):
    """One step: (new_state, StudentTParams estimate for this time index).

    The estimate is computed from `state` before x is ingested, so x is
    out of sample for it; then the center and the moment EMAs take x.
    """
    x = float(x)
    mu, m_sigma, m1, m2 = state.mu, state.m_sigma, state.m1, state.m2
    floor = config.moment_floor
    if config.nu_fixed is None:
        ratio_asc, ln_nu, nu_ends = _inversion_table(
            config.p1, config.p2, config.nu_min, config.nu_cap)
        r = math.exp(math.log(m1 if m1 > floor else floor) / config.p1
                     - math.log(m2 if m2 > floor else floor) / config.p2)
        nu_t = _interp_nu(r, ratio_asc, ln_nu, nu_ends) + config.nu_adjustment
        if nu_t > config.nu_cap:
            nu_t = config.nu_cap
    else:
        nu_t = config.nu_fixed
    p_sigma = config.p_sigma
    mf = m_sigma if m_sigma > floor else floor
    sigma_t = math.exp(math.log(mf) / p_sigma - _log_abs_moment(nu_t, p_sigma))

    d = abs(x - mu)
    p = p_sigma  # the power being raised, named if it overflows
    try:
        m_sigma += config.eta2 * (d ** p - m_sigma)
        if config.nu_fixed is None:
            p = config.p1
            m1 += config.eta3 * (d ** p - m1)
            p = config.p2
            m2 += config.eta3 * (d ** p - m2)
    except OverflowError:
        raise _power_overflow(p) from None
    return (EmaState(mu + config.eta1 * (x - mu), m_sigma, m1, m2),
            StudentTParams(mu, sigma_t, nu_t))


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
    mu_hat, moments = compute_moments(
        xs[:k], (config.p_sigma, config.p1, config.p2),
        "mean" if mu is None else mu)
    return EmaState(mu_hat, *moments)


# --------------------------------------------------------------------------
# vectorized fold

# points per chunk of `update`; the fold's transient memory is a few
# Python lists of this length, whatever the length of the series
_CHUNK = 8192


def _ema_path(m0: float, eta: float, observations: list) -> np.ndarray:
    """EMA value before each observation and after the last: m0, then
    m <- m + eta*(v - m) (the update of `step`)."""
    return np.fromiter(
        accumulate(observations, lambda m, v, eta=eta: m + eta * (v - m),
                   initial=m0),
        dtype=np.float64, count=len(observations) + 1)


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
    from, so it depends on xs[:t] only; the last entry, one past the
    end of xs, is the state after the last point.  With a fixed nu the
    two nu moments never move and m1, m2 are None.  Raises DomainError
    when a power of |x_t - mu_t| overflows float64.
    """
    xs = np.asarray(xs, dtype=np.float64)
    mu = _ema_path(state.mu, config.eta1, xs.tolist())
    d = np.abs(xs - mu[:-1])
    m_sigma = _ema_path(state.m_sigma, config.eta2, _powers(d, config.p_sigma))
    if config.nu_fixed is not None:
        return mu, m_sigma, None, None
    m1 = _ema_path(state.m1, config.eta3, _powers(d, config.p1))
    m2 = _ema_path(state.m2, config.eta3, _powers(d, config.p2))
    return mu, m_sigma, m1, m2


def update(state: EmaState, xs, config: AdaptiveConfig):
    """Fold xs from `state`: (state after the last point, trajectory).

    The same fold as a `step` loop over xs, which ends in the returned
    state; entry t of the trajectory is the estimate for xs[t], made
    before xs[t] is ingested, and its start is 0.  Folding a
    series in pieces, each from the state the previous piece returned,
    gives the trajectory of one call.  Raises DomainError when a power
    of |x_t - mu_t| overflows float64 or the state leaves its domain.
    """
    x = np.asarray(xs, dtype=np.float64)
    n = int(x.size)
    traj = ParamTrajectory(
        start=0, mu=np.empty(n), sigma=np.empty(n),
        nu=(np.empty(n) if config.nu_fixed is None
            else np.broadcast_to(config.nu_fixed, n)))
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        mu, m_sigma, m1, m2 = moment_paths(x[lo:hi], state, config)
        if config.nu_fixed is None:
            nu = adjusted_nu(
                raw_nu(m1[:-1], m2[:-1], config.p1, config.p2, config.nu_min,
                       config.nu_cap, config.moment_floor),
                config.nu_adjustment, config.nu_cap)
            traj.nu[lo:hi] = nu
            state = EmaState(mu[-1].item(), m_sigma[-1].item(),
                             m1[-1].item(), m2[-1].item())
        else:
            nu = config.nu_fixed
            state = EmaState(mu[-1].item(), m_sigma[-1].item(),
                             state.m1, state.m2)
        traj.mu[lo:hi] = mu[:-1]
        traj.sigma[lo:hi] = sigma_of(m_sigma[:-1], nu, config.p_sigma,
                                     config.moment_floor)
    return state, traj


def run(xs, config: AdaptiveConfig,
        init: Union[EmaState, int] = 300) -> ParamTrajectory:
    """Fold the moving estimator over a return series.

    ``init`` is either an explicit EmaState (the fold starts at t=0) or
    a prefix length k: the state is seeded with the first k points'
    statistics and the fold starts at t=k, the trajectory's start.  It
    holds every folded step; which of them count is the scoring
    functions' warmup.  Raises SeriesTooShortError when nothing is left.
    """
    values = np.ascontiguousarray(getattr(xs, "values", xs), dtype=np.float64)
    if not isinstance(init, EmaState):
        (_, traj), = run_pieces([values], config, int(init))
        return traj
    if values.size == 0:
        raise SeriesTooShortError(
            "series of 0 points leaves nothing to fold from t=0")
    return update(init, values, config)[1]


def run_pieces(pieces, config: AdaptiveConfig, init: int):
    """`run` with a prefix length, over a series that arrives in pieces.

    ``pieces`` are consecutive float arrays, or ReturnSeries, of any
    lengths.  The first ``init`` points, which may span pieces, seed the
    state; then each piece is folded from the state the previous one
    ended in.  Yields (points, trajectory) per folded piece: the piece
    past the prefix, and its estimates, whose start is the series index
    of its first point.  The trajectories joined are `run`'s, bit for
    bit.  Raises SeriesTooShortError, after the last piece, when nothing
    is left to fold.
    """
    head, seen, state = [], 0, None
    for piece in pieces:
        if state is None:
            seen += len(piece)
            split = len(piece) - max(seen - init, 0)  # points in the prefix
            head.append(getattr(piece, "values", piece)[:split])
            if seen <= init:
                continue
            state = seed_state_from_prefix(np.concatenate(head), init, config)
            piece, t, head = piece[split:], init, None
        state, traj = update(state, getattr(piece, "values", piece), config)
        yield piece, replace(traj, start=t)
        t += len(piece)
    if state is None:
        raise SeriesTooShortError(
            f"series of {seen} points leaves nothing to fold from t={init}")
