"""Test-time helpers, next to the quadrature oracle.

`log_pdf` is a Student-t log-density written apart from the package's
`distribution.log_density`, in Python floats per parameter set, so the
tests compare the package against code it does not share.  The density,
seeded draws and the Monte Carlo power-choice experiment (acceptance
criterion 7) are called by tests only, so they live here and not in the
package's API.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from movingt.distribution import (NU_GAUSSIAN, StudentTParams,
                                  abs_central_moment, draw)
from movingt.errors import DomainError

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


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


def pdf(params: StudentTParams, x):
    """Density; may underflow to 0 in the far tails."""
    return np.exp(log_pdf(params, x))


def sample(params: StudentTParams, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws, deterministic for a given seed."""
    return draw(np.random.default_rng(seed), params, n)


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
