"""Whole-sample method-of-moments estimators for sigma and nu.

sigma comes from a single absolute central moment; nu from the ratio of
two moments for different powers, inverted through a precomputed
monotone table.  The raw nu estimate takes a configurable additive
adjustment (default 0.9) before being capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import NU_GAUSSIAN, abs_central_moment
from .errors import (DegenerateDataError, DomainError, MonotonicityError,
                     SeriesTooShortError)

__all__ = [
    "DEFAULT_NU_CAP",
    "DEFAULT_NU_ADJUSTMENT",
    "MomentSummary",
    "NuInversionTable",
    "compute_moments",
    "estimate_sigma",
    "build_nu_table",
    "estimate_nu_raw",
    "estimate_nu_adjusted",
]

DEFAULT_NU_CAP = 1000.0
DEFAULT_NU_ADJUSTMENT = 0.9
_GRID_SIZE = 256  # points of the log nu grid behind the inversion table


@dataclass(frozen=True)
class MomentSummary:
    """Empirical absolute central moments m_p = mean(|x - mu_hat|^p)."""

    mu_hat: float
    powers: tuple
    moments: tuple

    def moment_for(self, p: float) -> float:
        try:
            return self.moments[self.powers.index(p)]
        except ValueError:
            raise DomainError(f"power {p} not present in summary "
                              f"(has {self.powers})") from None


def compute_moments(xs, powers, mu="mean") -> MomentSummary:
    """Absolute central moments of xs for each power.

    ``mu`` is either the literal string "mean" (use the sample mean) or a
    fixed numeric center.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size == 0:
        raise SeriesTooShortError("cannot compute moments of an empty series")
    powers = tuple(float(p) for p in powers)
    if any(p <= 0.0 or not math.isfinite(p) for p in powers):
        raise DomainError(f"powers must be finite and > 0, got {powers}")
    if len(set(powers)) != len(powers):
        raise DomainError(f"powers must be distinct, got {powers}")
    if mu == "mean":
        mu_hat = float(xs.mean())
    else:
        mu_hat = float(mu)
        if not math.isfinite(mu_hat):
            raise DomainError(f"fixed mu must be finite, got {mu!r}")
    d = np.abs(xs - mu_hat)
    with np.errstate(over="ignore"):
        moments = tuple(float(np.mean(d ** p)) for p in powers)
    for p, m in zip(powers, moments):
        if not math.isfinite(m):
            raise _power_overflow(p)
    return MomentSummary(mu_hat, powers, moments)


def _power_overflow(p: float) -> DomainError:
    """The error for a power whose absolute moments overflow float64."""
    return DomainError(f"the absolute moment of power {p!r} overflows "
                       "float64 on this data; choose a smaller power")


def estimate_sigma(summary: MomentSummary, nu: float, p: float) -> float:
    """sigma_hat = m_p^{1/p} / M(nu, p); requires p < nu and m_p > 0."""
    m_p = summary.moment_for(p)
    scale_const = abs_central_moment(nu, p)  # raises for p >= nu
    if m_p <= 0.0:
        raise DegenerateDataError(
            f"moment for p={p} is {m_p}; data has no spread around mu_hat")
    return m_p ** (1.0 / p) / scale_const


@dataclass(frozen=True)
class NuInversionTable:
    """Monotone table of R(nu) = M(nu, p1) / M(nu, p2) on a log nu grid."""

    p1: float
    p2: float
    nu_grid: np.ndarray
    ratio_grid: np.ndarray

    @property
    def nu_min(self) -> float:
        return float(self.nu_grid[0])

    @property
    def nu_cap(self) -> float:
        return float(self.nu_grid[-1])

    def inversion_arrays(self):
        """(ratio ascending, ln nu in matching order) for interpolation."""
        ln_nu = np.log(self.nu_grid)
        if self.ratio_grid[0] < self.ratio_grid[-1]:
            return self.ratio_grid, ln_nu
        return self.ratio_grid[::-1].copy(), ln_nu[::-1].copy()

    def invert(self, r: float) -> float:
        """nu with R(nu) = r, clamped to [nu_min, nu_cap] outside the table."""
        ratio_asc, ln_nu = self.inversion_arrays()
        descending = self.ratio_grid[0] > self.ratio_grid[-1]
        if r <= ratio_asc[0]:
            return self.nu_cap if descending else self.nu_min
        if r >= ratio_asc[-1]:
            return self.nu_min if descending else self.nu_cap
        return float(math.exp(np.interp(r, ratio_asc, ln_nu)))


def build_nu_table(p1: float, p2: float, nu_min: float = None,
                   nu_cap: float = DEFAULT_NU_CAP) -> NuInversionTable:
    """Tabulate R(nu) over a log-spaced grid and verify strict monotonicity."""
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
    return NuInversionTable(p1, p2, nu_grid, ratio)


def estimate_nu_raw(summary: MomentSummary, table: NuInversionTable) -> float:
    """Invert m_{p1}^{1/p1} / m_{p2}^{1/p2} through the table."""
    m1 = summary.moment_for(table.p1)
    m2 = summary.moment_for(table.p2)
    if m1 <= 0.0 or m2 <= 0.0:
        raise DegenerateDataError(
            f"zero moment (m_p1={m1}, m_p2={m2}); cannot estimate nu")
    r = m1 ** (1.0 / table.p1) / m2 ** (1.0 / table.p2)
    return table.invert(r)


def estimate_nu_adjusted(raw_nu: float, adjustment: float = DEFAULT_NU_ADJUSTMENT,
                         nu_cap: float = DEFAULT_NU_CAP) -> float:
    """Additive bias adjustment, capped from above."""
    if not math.isfinite(raw_nu):
        raise DomainError(f"raw_nu must be finite, got {raw_nu!r}")
    return min(raw_nu + adjustment, nu_cap)
