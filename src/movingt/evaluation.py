"""Scoring and report generation.

Mean log-likelihood with a shared warmup convention, the fixed-nu
likelihood sweep (static sigma-MLE vs adaptive sigma vs GARCH), the
tail-event table, and the Monte Carlo power-choice error sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .adaptive import (AdaptiveConfig, ParamTrajectory, moment_paths,
                       seed_state_from_prefix, sigma_and_log_density)
from .baselines import (GarchFit, check_warmup, fit_garch_mle, fit_sigma_mle,
                        garch_filter)
from .distribution import (NU_GAUSSIAN, StudentTParams, abs_central_moment,
                           cdf, draw, log_pdf)
from .errors import DomainError, SeriesTooShortError

__all__ = [
    "SweepRow",
    "SweepReport",
    "TailTable",
    "mean_log_likelihood",
    "nu_sweep",
    "tail_table",
    "expected_tail_fraction",
    "sigma_power_error_sweep",
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


def mean_log_likelihood(subject: Union[ParamTrajectory, StudentTParams],
                        xs, warmup: int) -> float:
    """Mean of ln rho_{theta_t}(x_t) over t >= warmup.

    `subject` is either a trajectory (theta varies per step) or a single
    StudentTParams (theta constant); both go through the same averaging
    so static and adaptive scores are directly comparable.
    """
    values = _values_of(xs)
    check_warmup(warmup, values.size)
    if isinstance(subject, ParamTrajectory):
        if len(subject) == 0 or int(subject.t[-1]) >= values.size:
            raise DomainError(
                "trajectory does not align with the series (length mismatch)")
        scored = subject.log_density[subject.t >= warmup]
    elif isinstance(subject, StudentTParams):
        scored = log_pdf(subject, values[warmup:])
    else:
        raise DomainError(f"cannot score a {type(subject).__name__}")
    if scored.size == 0:
        raise SeriesTooShortError("no records at or beyond the warmup index")
    return float(np.mean(scored))


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
    not depend on nu, so there is one fold per distinct power and every
    nu is scored from it.  One GARCH(1,1) baseline (in-sample MLE on the
    full series, scored on xs[warmup:]) accompanies the grid.
    """
    values = _values_of(xs)
    nu_list = [float(nu) for nu in nu_grid]
    if not nu_list:
        raise DomainError("nu grid must not be empty")
    if any(not nu > 0.0 for nu in nu_list):
        raise DomainError(f"every nu must be > 0, got {nu_list}")
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
    p_eff_overrides: Dict[float, float] = {}
    m_sigma_paths: Dict[float, np.ndarray] = {}
    rows = []
    for cfg in configs:
        nu, p_eff, inv = cfg.nu_fixed, cfg.p_sigma, inv_nu_of(cfg.nu_fixed)
        if p_eff != p_sigma:
            p_eff_overrides[inv] = p_eff
        _, static_score = fit_sigma_mle(scored, 0.0, nu)
        if p_eff not in m_sigma_paths:
            state0 = seed_state_from_prefix(values, warmup, cfg, mu=0.0)
            m_sigma_paths[p_eff] = moment_paths(scored, state0, cfg)[1]
        _, log_density = sigma_and_log_density(
            scored, 0.0, m_sigma_paths[p_eff], nu, p_eff, moment_floor)
        rows.append(SweepRow(inv, static_score, float(np.mean(log_density))))
    rows.sort(key=lambda r: r.inv_nu)

    garch = fit_garch_mle(values)
    _, garch_score = garch_filter(values, garch, warmup=warmup)
    return SweepReport(tuple(rows), garch_score, garch, p_eff_overrides)


@dataclass(frozen=True)
class TailTable:
    k_values: Tuple[int, ...]
    observed: Tuple[int, ...]
    expected: Dict[str, Tuple[float, ...]]
    n_effective: int
    normalization: str


def expected_tail_fraction(nu: float, k: float) -> float:
    """P(|X| > k) for the standardized distribution: 2*(1 - cdf(k))."""
    return 2.0 * (1.0 - cdf(StudentTParams(0.0, 1.0, nu), float(k)))


def tail_table(xs, normalization, nu_labels: Sequence[float],
               k_values: Sequence[int] = tuple(range(1, 11))) -> TailTable:
    """Observed vs expected counts of |x - mu| > k*sigma.

    ``normalization`` is either a (mu, sigma) pair (static) or a
    ParamTrajectory (per-step mu_t, sigma_t).  Expected counts are
    n_effective * 2*(1 - cdf(k)) for each requested nu.
    """
    values = _values_of(xs)
    if values.size == 0:
        raise SeriesTooShortError("tail table needs a nonempty series")
    ks = tuple(int(k) for k in k_values)
    if not ks or min(ks) < 1:
        raise DomainError(f"k values must be nonempty and >= 1, got {ks}")

    if isinstance(normalization, ParamTrajectory):
        traj = normalization
        if len(traj) == 0 or int(traj.t[-1]) >= values.size:
            raise DomainError(
                "trajectory does not align with the series (length mismatch)")
        z = np.abs(traj.x - traj.mu) / traj.sigma
        kind = "adaptive"
    else:
        mu_hat, sigma_hat = (float(v) for v in normalization)
        if sigma_hat <= 0.0:
            raise DomainError(f"sigma must be > 0, got {sigma_hat!r}")
        z = np.abs(values - mu_hat) / sigma_hat
        kind = "static"

    n_eff = int(z.size)
    observed = tuple(int(np.count_nonzero(z > k)) for k in ks)
    expected = {}
    for nu in nu_labels:
        nu = float(nu)
        fracs = [expected_tail_fraction(nu, k) for k in ks]
        expected[format_nu_label(nu)] = tuple(n_eff * f for f in fracs)
    return TailTable(ks, observed, expected, n_eff, kind)


def sigma_power_error_sweep(nu: float, powers: Sequence[float], n: int,
                            reps: int, seed: int) -> List[Tuple[float, float]]:
    """Relative RMSE of the moment sigma estimator per power, true sigma=1.

    Each repetition draws one sample and evaluates every power on it
    (common random numbers), so the ranking across powers is stable.
    """
    powers = [float(p) for p in powers]
    if n < 1 or reps < 1:
        raise DomainError(f"n and reps must be >= 1, got n={n}, reps={reps}")
    consts = [abs_central_moment(nu, p) for p in powers]  # raises if p >= nu
    params = StudentTParams(0.0, 1.0, nu)
    rng = np.random.default_rng(seed)
    acc = np.zeros(len(powers))
    for _ in range(reps):
        xs = draw(rng, params, n)
        d = np.abs(xs - xs.mean())
        for j, (p, m_const) in enumerate(zip(powers, consts)):
            sigma_hat = float(np.mean(d ** p)) ** (1.0 / p) / m_const
            acc[j] += (sigma_hat - 1.0) ** 2
    return [(p, math.sqrt(acc[j] / reps)) for j, p in enumerate(powers)]
