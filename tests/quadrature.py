"""Adaptive Gauss-Kronrod quadrature: a test-time oracle.

Closed forms in the package (densities, distribution functions,
absolute moments) are cross-checked against this independent numerical
path.  Infinite intervals are handled, and divergence is flagged instead
of returned as a silent wrong value.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

from movingt.errors import DomainError


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    converged: bool


# 15-point Kronrod nodes (positive half) with Kronrod weights, and the
# embedded 7-point Gauss weights (for nodes 1, 3, 5, 7).
_XGK = (
    0.9914553711208126392068547,
    0.9491079123427585245261897,
    0.8648644233597690727897128,
    0.7415311855993944398638648,
    0.5860872354676911302941448,
    0.4058451513773971669066064,
    0.2077849550078984676006894,
    0.0,
)
_WGK = (
    0.0229353220105292249637320,
    0.0630920926299785532907007,
    0.1047900103222501838398763,
    0.1406532597155259187451896,
    0.1690047266392679028265834,
    0.1903505780647854099132564,
    0.2044329400752988924141620,
    0.2094821410847278280129992,
)
_WG = (
    0.1294849661688696932706114,
    0.2797053914892766679014678,
    0.3818300505051189449503698,
    0.4179591836734693877551020,
)

# The sinh map reaches |x| = sinh(350) ~ 5e151.  Any integrable function
# with at most polynomial tails carries negligible mass beyond that, and
# crucially the mapped integrand is still evaluable in double precision
# there (x^2 has not overflowed yet), so divergence remains visible to
# the tail probes below instead of underflowing silently.
_SINH_CUTOFF = 350.0
_TAIL_MARGIN = 100.0  # covers tail decay rates down to ~0.01 per unit u


def _gk_panel(f: Callable[[float], float], a: float, b: float):
    """One G7/K15 panel on [a, b]; returns (kronrod, error_estimate)."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    gauss = _WG[3] * fc
    kronrod = _WGK[7] * fc
    for i in range(7):
        dx = half * _XGK[i]
        fsum = f(center - dx) + f(center + dx)
        kronrod += _WGK[i] * fsum
        if i % 2 == 1:
            gauss += _WG[i // 2] * fsum
    kronrod *= half
    gauss *= half
    err = abs(kronrod - gauss)
    if not (math.isfinite(kronrod) and math.isfinite(err)):
        return kronrod, math.inf
    return kronrod, min(err, (200.0 * err) ** 1.5)


def _guarded(f: Callable[[float], float], x: float, jac: float) -> float:
    fx = f(x)
    if fx == 0.0 or not math.isfinite(fx):
        return 0.0
    return fx * jac


def _tail_probe_mass(f: Callable[[float], float], anchor: float,
                     sign: float) -> float:
    """Bound on the mass the sinh map cannot reach past one infinite end.

    Samples the u-space integrand near the cutoff; a nonzero reading
    there means the tail either diverges or decays too slowly for the
    cutoff to certify, so the reading (times a generous margin) is added
    to the error estimate.
    """
    worst = 0.0
    for u in (0.5 * _SINH_CUTOFF, _SINH_CUTOFF - 1.0):
        fx = f(anchor + sign * math.sinh(u))
        if fx != 0.0 and math.isfinite(fx):
            worst = max(worst, abs(fx) * math.cosh(u))
        elif not math.isfinite(fx):
            return math.inf
    return worst * _TAIL_MARGIN


def _transform(f: Callable[[float], float], lo: float, hi: float):
    """Map f on (lo, hi) to an integrand on a finite open interval.

    Infinite endpoints go through x = sinh(u), u = s / (1 - s^2) (or its
    half-line analogue), which turns polynomial tails into exponentially
    decaying integrands.  Returns (g, a, b, tail_probe).
    """
    lo_inf = math.isinf(lo)
    hi_inf = math.isinf(hi)
    if not lo_inf and not hi_inf:
        return f, lo, hi, None

    if lo_inf and hi_inf:
        def g(s: float) -> float:
            den = (1.0 - s) * (1.0 + s)
            if den <= 0.0:
                return 0.0
            u = s / den
            if abs(u) > _SINH_CUTOFF:
                return 0.0
            jac = math.cosh(u) * (1.0 + s * s) / (den * den)
            return _guarded(f, math.sinh(u), jac)

        def probe() -> float:
            return (_tail_probe_mass(f, 0.0, 1.0)
                    + _tail_probe_mass(f, 0.0, -1.0))

        return g, -1.0, 1.0, probe

    if hi_inf:
        anchor, sign = lo, 1.0
    else:
        anchor, sign = hi, -1.0

    def g(s: float) -> float:
        den = 1.0 - s
        if den <= 0.0:
            return 0.0
        u = s / den
        if u > _SINH_CUTOFF:
            return 0.0
        jac = math.cosh(u) / (den * den)
        return _guarded(f, anchor + sign * math.sinh(u), jac)

    def probe() -> float:
        return _tail_probe_mass(f, anchor, sign)

    return g, 0.0, 1.0, probe


def integrate_adaptive(f: Callable[[float], float], lo: float, hi: float,
                       tol: float, max_intervals: int = 4096) -> QuadratureResult:
    """Adaptive Gauss-Kronrod (G7/K15) integration of f over (lo, hi).

    Endpoints may be +-inf.  `tol` is an absolute tolerance; on return
    ``converged`` says whether the internal error estimate fell below it.
    A non-convergent result is never silent: the estimate stays large and
    the flag stays False (divergent integrands show up this way).
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be > 0, got {tol!r}")
    if math.isnan(lo) or math.isnan(hi):
        raise DomainError("integration limits must not be NaN")
    if lo > hi:
        raise DomainError(f"requires lo <= hi, got ({lo!r}, {hi!r})")
    if lo == hi:
        return QuadratureResult(0.0, 0.0, True)

    g, a, b, tail_probe = _transform(f, lo, hi)

    val, err = _gk_panel(g, a, b)
    heap = [(-err, 0, a, b, val, err)]
    seq = 1
    total_val = val
    total_err = err
    splits = 0

    while total_err > tol and heap and splits < max_intervals:
        _, _, ia, ib, ival, ierr = heapq.heappop(heap)
        mid = 0.5 * (ia + ib)
        if not (ia < mid < ib):
            # not splittable in double precision; its error stays counted
            continue
        splits += 1
        lval, lerr = _gk_panel(g, ia, mid)
        rval, rerr = _gk_panel(g, mid, ib)
        total_val += lval + rval - ival
        total_err += lerr + rerr - ierr
        heapq.heappush(heap, (-lerr, seq, ia, mid, lval, lerr))
        heapq.heappush(heap, (-rerr, seq + 1, mid, ib, rval, rerr))
        seq += 2

    if tail_probe is not None:
        total_err += tail_probe()
    converged = math.isfinite(total_val) and total_err <= tol
    return QuadratureResult(total_val, abs(total_err), converged)
