"""Test-time helpers built on the package's public functions.

The density, seeded draws and the Monte Carlo power-choice experiment
(acceptance criterion 7) are called by tests only, so they live here,
next to the quadrature oracle, and not in the package's API.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from movingt.distribution import (StudentTParams, abs_central_moment, draw,
                                  log_pdf)
from movingt.errors import DomainError


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
