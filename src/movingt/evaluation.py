"""Scoring and report generation.

The fits return parameters; this module scores them.  `score` is the
one scorer: it evaluates `distribution.log_density` at each point's
(mu_t, sigma_t, nu_t), a chunk at a time, and adds the scores to an
`ExactSum`.  Every model is a trajectory of estimates: the moving
estimate, the static fit (a trajectory that never moves) and the GARCH
filter alike.  `mean_log_likelihood` scores a trajectory's points under
the one warmup convention (`check_warmup`), and `TailCounts` counts the
points beyond k sigma_t of mu_t.  The fixed-nu likelihood sweep
compares the static sigma-MLE, the adaptive sigma and GARCH.  Every
reported mean is an exact sum (`math.fsum`) divided by the count, so it
does not depend on how the terms were chunked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple

import numpy as np

from .adaptive import (_CHUNK, AdaptiveConfig, ParamTrajectory, moment_paths,
                       seed_state_from_prefix)
from .baselines import GarchFit, fit_garch_mle, fit_sigma_mle, garch_filter
from .distribution import NU_GAUSSIAN, StudentTParams, cdf, log_density
from .errors import DomainError, SeriesTooShortError
from .static_estimators import sigma_of

__all__ = [
    "SweepRow",
    "SweepReport",
    "TailTable",
    "TailCounts",
    "mean_log_likelihood",
    "nu_sweep",
    "expected_tail_fraction",
    "ExactSum",
    "score",
    "check_warmup",
    "format_nu_label",
    "inv_nu_of",
    "nu_of_inv",
]


def inv_nu_of(nu: float) -> float:
    """Report coordinate: 1/nu, with 0 standing for the Gaussian limit."""
    return 0.0 if nu >= NU_GAUSSIAN else 1.0 / nu


def nu_of_inv(inv_nu: float) -> float:
    """Inverse of `inv_nu_of`; 0 maps to the Gaussian sentinel."""
    if not (0.0 <= inv_nu):
        raise DomainError(f"1/nu must be >= 0, got {inv_nu!r}")
    return NU_GAUSSIAN if inv_nu == 0.0 else 1.0 / inv_nu


def format_nu_label(nu: float) -> str:
    return "inf" if nu >= NU_GAUSSIAN else f"{nu:g}"


def _values_of(xs) -> np.ndarray:
    return np.asarray(getattr(xs, "values", xs), dtype=np.float64)


def _aligned_values(traj: ParamTrajectory, values: np.ndarray) -> np.ndarray:
    """The points of ``values`` that ``traj`` estimates, one per entry."""
    if len(traj) == 0 or not 0 <= traj.start <= values.size - len(traj):
        raise DomainError(
            "trajectory does not align with the series (length mismatch)")
    return values[traj.start:traj.start + len(traj)]


class ExactSum:
    """A running sum of floats, exact until it is read.

    `add` keeps the exact total of every value added so far as a few
    floats whose sum it is exactly, so `mean` is math.fsum over all of
    the values, divided by their count, however they were chunked.
    """

    def __init__(self):
        self.count = 0
        self._parts = np.zeros(0)

    def add(self, values):
        values = np.asarray(values, dtype=np.float64).ravel()
        self.count += values.size
        for lo in range(0, values.size, _CHUNK):
            self._parts = _exact_parts(np.concatenate(
                (self._parts, values[lo:lo + _CHUNK])))

    def mean(self) -> float:
        try:
            total = math.fsum(self._parts.tolist())
        except OverflowError:  # the mean may be finite, but not exactly known
            raise FloatingPointError(
                f"the exact sum of {self.count} log-densities leaves "
                "float64's range, so their mean is not computed") from None
        return total / self.count


def _exact_parts(terms: np.ndarray) -> np.ndarray:
    """A few floats whose sum is exactly that of ``terms`` (fewer than
    2**26 of them).

    Error-free extraction (Rump, Ogita and Oishi 2008): with fewer than
    2**k terms and sigma a power of two at least 2**k times max|terms|,
    (sigma + terms) - sigma rounds each term to a multiple of
    sigma * 2**-53.  Those heads sum exactly in any order, and the tails,
    terms - heads, are exact and below that unit, so each pass takes
    some 30 bits or more off the range the terms span.  Terms within a
    factor 2**k of overflow are kept as they are; an inf or nan gives
    math.fsum's result.
    """
    parts = []
    while True:
        terms = terms[terms != 0.0]
        if not terms.size:
            return np.array(parts)
        big = float(np.max(np.abs(terms)))
        if not math.isfinite(big):
            return np.array([math.fsum(parts + terms.tolist())])
        exponent = math.frexp(big)[1] + terms.size.bit_length()
        if exponent > 1023:
            return np.concatenate((parts, terms))
        sigma = math.ldexp(1.0, exponent)
        heads = (sigma + terms) - sigma
        parts.append(float(heads.sum()))
        terms = terms - heads


def check_warmup(warmup: int, n: int) -> None:
    """Refuse a warmup below 0 or one that leaves none of n points to score.

    Commands call it before their expensive work, so a bad --warmup
    fails fast with the message the scorers would give.
    """
    if warmup < 0:
        raise DomainError(f"warmup must be >= 0, got {warmup!r}")
    if warmup >= n:
        raise SeriesTooShortError(
            f"warmup={warmup} leaves nothing to score in {n} points")


def score(values, mu, sigma, nu, total=None, *, skip=0, out=None):
    """The package's one scorer: ln rho of values[i] at (mu_i, sigma_i,
    nu_i), each of mu, sigma and nu one value or one per point, `_CHUNK`
    points at a time.  The scores from index ``skip`` on are added to
    ``total``, an `ExactSum` (a new one by default), which is returned;
    ``out``, one entry a point, receives every score."""
    values = np.asarray(values, dtype=np.float64)
    total = ExactSum() if total is None else total
    # a view of one value (a static fit, a fixed nu, the GARCH filter's
    # mu and nu) is passed as that value: one lgamma pair, not one a point
    mu, sigma, nu = (v.flat[0] if isinstance(v, np.ndarray) and v.size
                     and not any(v.strides) else v for v in (mu, sigma, nu))
    for lo in range(0 if out is not None else skip, values.size, _CHUNK):
        hi = lo + _CHUNK
        scores = log_density(values[lo:hi], *(v[lo:hi] if np.ndim(v) else v
                                              for v in (mu, sigma, nu)))
        if out is not None:
            out[lo:hi] = scores
        total.add(scores[max(skip - lo, 0):])
    return total


def mean_log_likelihood(traj: ParamTrajectory, xs, warmup: int) -> float:
    """Mean of ln rho_{theta_t}(x_t) over the points t >= warmup that
    `traj` estimates, as an exact sum over the count."""
    values = _values_of(xs)
    check_warmup(warmup, values.size)
    points = _aligned_values(traj, values)
    skip = max(warmup - traj.start, 0)
    if skip >= len(traj):
        raise SeriesTooShortError("no records at or beyond the warmup index")
    return score(points, traj.mu, traj.sigma, traj.nu, skip=skip).mean()


@dataclass(frozen=True)
class SweepRow:
    inv_nu: float
    static_loglik: float
    adaptive_loglik: float


@dataclass(frozen=True)
class SweepReport:
    """p_eff_overrides maps 1/nu to p = nu/2 for each row whose nu has
    no finite moment of p_sigma."""

    rows: Tuple[SweepRow, ...]
    garch_loglik: float
    garch: GarchFit
    p_eff_overrides: Dict[float, float]


def nu_sweep(xs, nu_grid: Sequence[float], warmup: int, *,
             eta2: float = AdaptiveConfig.eta2,
             p_sigma: float = AdaptiveConfig.p_sigma,
             moment_floor: float = AdaptiveConfig.moment_floor) -> SweepReport:
    """Score static sigma-MLE and adaptive sigma at each fixed nu.

    The center is pinned at 0 throughout.  The static model is fit and
    scored on xs[warmup:]; the adaptive runs seed their state from the
    warmup prefix (moments about 0), fold the sigma moment at rate eta2
    with power p_sigma (nu/2 where nu has no finite moment of it), and
    score the same points.  With the center pinned the moment path does
    not depend on nu, so there is one fold per distinct power, carried
    through fixed-size chunks, and every nu is scored from it.  One
    GARCH(1,1) baseline (in-sample MLE on the full series, scored on
    xs[warmup:]) accompanies the grid.  Two nu of one row are refused.
    """
    values = _values_of(xs)
    nu_list = [float(nu) for nu in nu_grid]
    if not nu_list:
        raise DomainError("nu grid must not be empty")
    if any(not nu > 0.0 for nu in nu_list):
        raise DomainError(f"every nu must be > 0, got {nu_list}")
    named = {}
    for nu in nu_list:
        inv_nu = inv_nu_of(nu)
        if inv_nu in named:
            raise DomainError(f"nu values {named[inv_nu]!r} and {nu!r} both "
                              f"give the row inv_nu = {inv_nu!r}")
        named[inv_nu] = nu
    if not (math.isfinite(p_sigma) and p_sigma > 0.0):
        raise DomainError(f"p_sigma must be finite and > 0, got {p_sigma!r}")
    # built, and so checked, before any fit runs
    configs = [AdaptiveConfig(eta1=0.0, eta2=eta2,
                              p_sigma=p_sigma if p_sigma < nu else 0.5 * nu,
                              nu_fixed=nu, moment_floor=moment_floor)
               for nu in nu_list]
    if warmup < 2:
        raise DomainError(f"sweep needs warmup >= 2, got {warmup}")
    check_warmup(warmup, values.size)

    scored = values[warmup:]
    p_eff_overrides = {inv_nu_of(cfg.nu_fixed): cfg.p_sigma
                       for cfg in configs if cfg.p_sigma != p_sigma}
    static = [score(scored, 0.0, fit_sigma_mle(scored, 0.0, cfg.nu_fixed),
                    cfg.nu_fixed) for cfg in configs]
    adaptive = [ExactSum() for _ in configs]
    # one fold per distinct power, in chunks that carry its state; every
    # nu of that power is scored from each chunk's moment path
    for p_eff in dict.fromkeys(cfg.p_sigma for cfg in configs):
        group = [(cfg, total) for cfg, total in zip(configs, adaptive)
                 if cfg.p_sigma == p_eff]
        state = seed_state_from_prefix(values, warmup, group[0][0], mu=0.0)
        for lo in range(0, scored.size, _CHUNK):
            chunk = scored[lo:lo + _CHUNK]
            m_sigma = moment_paths(chunk, state, group[0][0])[1]
            state = replace(state, m_sigma=m_sigma[-1].item())
            for cfg, total in group:
                sigma = sigma_of(m_sigma[:-1], cfg.nu_fixed, p_eff,
                                 moment_floor)
                score(chunk, 0.0, sigma, cfg.nu_fixed, total)
    rows = sorted((SweepRow(inv_nu_of(cfg.nu_fixed), s.mean(), a.mean())
                   for cfg, s, a in zip(configs, static, adaptive)),
                  key=lambda r: r.inv_nu)

    garch = fit_garch_mle(values)
    garch_score = mean_log_likelihood(garch_filter(values, garch), values,
                                      warmup)
    return SweepReport(tuple(rows), garch_score, garch, p_eff_overrides)


@dataclass(frozen=True)
class TailTable:
    k_values: Tuple[int, ...]
    observed: Tuple[int, ...]
    expected: Dict[str, Tuple[float, ...]]
    n_effective: int


def expected_tail_fraction(nu: float, k: float) -> float:
    """P(|X| > k) for the standardized distribution: twice the lower
    tail cdf(-k), which keeps its relative precision far out."""
    return 2.0 * cdf(StudentTParams(0.0, 1.0, nu), -float(k))


class TailCounts:
    """Counts of |x_t - mu_t| > k*sigma_t for each k, added piece by
    piece: integer counts add exactly, so the table they give does not
    depend on how the series was split."""

    def __init__(self, k_values: Sequence[int]):
        ks = tuple(int(k) for k in k_values)
        if not ks or min(ks) < 1:
            raise DomainError(f"k values must be nonempty and >= 1, got {ks}")
        self.k_values = ks
        self.n = 0
        self.observed = [0] * len(ks)

    def add(self, values, mu, sigma):
        """Count the points of ``values`` against their mu and sigma (one
        a point, or one for all), `_CHUNK` points at a time."""
        values = np.asarray(values, dtype=np.float64)
        mu, sigma = (np.broadcast_to(v, values.shape) for v in (mu, sigma))
        for lo in range(0, values.size, _CHUNK):
            hi = lo + _CHUNK
            z = np.abs(values[lo:hi] - mu[lo:hi]) / sigma[lo:hi]
            for i, k in enumerate(self.k_values):
                self.observed[i] += int(np.count_nonzero(z > k))
        self.n += values.size

    def table(self, nu_labels: Sequence[float]) -> "TailTable":
        """The table of the points counted so far, n_effective of them:
        expected counts are n_effective * P(|X| > k) for each nu."""
        expected, named = {}, {}
        for nu in nu_labels:
            nu = float(nu)
            label = format_nu_label(nu)
            if label in named:
                raise DomainError(f"nu labels {named[label]!r} and {nu!r} "
                                  f"both name the column expected_nu_{label}")
            named[label] = nu
            fracs = [expected_tail_fraction(nu, k) for k in self.k_values]
            expected[label] = tuple(self.n * f for f in fracs)
        return TailTable(self.k_values, tuple(self.observed), expected,
                         self.n)
