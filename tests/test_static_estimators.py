import math

import numpy as np
import pytest

from movingt.distribution import NU_GAUSSIAN, StudentTParams, abs_central_moment
from movingt.errors import (DegenerateDataError, DivergentMomentError,
                            DomainError, SeriesTooShortError)
from movingt.static_estimators import (DEFAULT_NU_CAP, adjusted_nu,
                                       build_nu_table, compute_moments,
                                       static_fit)

from oracles import sample


class TestComputeMoments:
    def test_constant_series(self):
        assert compute_moments([1.0, 1.0, 1.0], [1.0], mu="mean") == (1.0,
                                                                      (0.0,))

    def test_fixed_center_p2(self):
        _, moments = compute_moments([-1.0, 1.0], [2.0], mu=0.0)
        assert moments[0] == pytest.approx(1.0, abs=1e-15)

    def test_fixed_center_half_power(self):
        _, moments = compute_moments([-1.0, 1.0], [0.5], mu=0.0)
        assert moments[0] == pytest.approx(1.0, abs=1e-15)

    def test_empty(self):
        with pytest.raises(SeriesTooShortError):
            compute_moments([], [1.0])

    def test_bad_powers(self):
        with pytest.raises(DomainError):
            compute_moments([1.0, 2.0], [0.0])

    def test_one_moment_per_power_in_order(self):
        # a repeated power gives its moment again, as the fold's state
        # (m_sigma, m1, m2) wants when p_sigma equals p1
        _, moments = compute_moments([-1.0, 3.0], [1.0, 2.0, 1.0], mu=0.0)
        assert moments == (2.0, 5.0, 2.0)

    # powers with the ** operator's fast paths (1, 2, 0.5) and without
    _POWERS = (1.0, 2.0, 0.5, 0.8, 0.3, 3.0, 1.0)

    @pytest.mark.parametrize("mu", ["mean", 0.25])
    def test_same_bits_as_the_power_of_the_whole_array(self, mu):
        xs = np.random.default_rng(9).standard_t(3, 10_001) * 1e-2
        mu_hat, moments = compute_moments(xs, self._POWERS, mu=mu)
        d = np.abs(xs - mu_hat)
        assert moments == tuple(float(np.mean(d ** p)) for p in self._POWERS)

    def test_holds_one_array_beside_the_series(self):
        # traced from before the series is made, the call's peak stays
        # near two arrays of the series' size: the series and the one
        # buffer every power reuses (with d and d ** p it was three)
        import tracemalloc
        base = np.random.default_rng(10).standard_t(4, 10 ** 6)
        tracemalloc.start()
        try:
            xs = base.copy()
            compute_moments(xs, self._POWERS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * xs.nbytes, peak / xs.nbytes


def _sigma(m_sigma, nu, p):
    """sigma_hat of the static fit at a fixed nu."""
    return static_fit(m_sigma, None, None, p_sigma=p, nu_fixed=nu)[0]


def _nu_raw(m1, m2):
    """nu_raw of the static fit, with the default powers and table, at
    moments (m_sigma, m1, m2) = (m1, m1, m2), since p_sigma = p1."""
    return static_fit(m1, m1, m2)[1]


def _moments(xs):
    """The whole-sample moments of the default powers (p_sigma, p1, p2)."""
    return compute_moments(xs, (1.0, 1.0, 0.5), mu="mean")[1]


class TestEstimateSigma:
    def test_identity_case(self):
        m = abs_central_moment(5.0, 1.0)
        assert _sigma(m, 5.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_nu_two(self):
        assert _sigma(2.0 * math.sqrt(2.0), 2.0, 1.0) == pytest.approx(
            2.0, rel=1e-12)

    def test_monte_carlo(self):
        xs = sample(StudentTParams(0.0, 2.0, 5.0), 10 ** 5, seed=9)
        assert 1.96 <= _sigma(_moments(xs)[0], 5.0, 1.0) <= 2.04

    def test_divergent_power(self):
        with pytest.raises(DivergentMomentError):
            _sigma(1.0, 1.0, 1.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateDataError):
            _sigma(0.0, 5.0, 1.0)


class TestNuTable:
    def test_default_power_pair(self):
        nu_grid, _ = build_nu_table(1.0, 0.5)
        assert nu_grid[0] == pytest.approx(1.1)
        assert nu_grid[-1] == 1000.0
        assert nu_grid.size == 256

    def test_equal_powers_rejected(self):
        with pytest.raises(DomainError):
            build_nu_table(1.0, 1.0)

    def test_gaussian_ratio_limit(self):
        # top of the table approaches the Gaussian moment ratio, computed
        # here independently from E|Z|^p = 2^{p/2} Gamma((p+1)/2) / sqrt(pi)
        def gauss_abs_moment(p):
            return (2.0 ** (p / 2) * math.exp(math.lgamma((p + 1) / 2))
                    / math.sqrt(math.pi)) ** (1.0 / p)

        _, ratio_grid = build_nu_table(1.0, 0.5)
        gauss_ratio = gauss_abs_moment(1.0) / gauss_abs_moment(0.5)
        assert ratio_grid[-1] == pytest.approx(gauss_ratio, rel=2e-3)

    @pytest.mark.parametrize("p1, p2", [(1.0, 0.5), (2.0, 1.0), (1.5, 0.5)])
    def test_monotone_for_power_pairs(self, p1, p2):
        _, ratio_grid = build_nu_table(p1, p2, nu_min=max(p1, p2) + 0.1)
        diffs = np.diff(ratio_grid)
        assert np.all(diffs < 0.0) or np.all(diffs > 0.0)

    def test_bad_nu_min(self):
        with pytest.raises(DomainError):
            build_nu_table(1.0, 0.5, nu_min=0.9)

    def test_cap_at_most_the_gaussian_limit(self):
        assert build_nu_table(1.0, 0.5, nu_cap=NU_GAUSSIAN)[0][-1] == NU_GAUSSIAN
        with pytest.raises(DomainError, match="Gaussian limit"):
            build_nu_table(1.0, 0.5, nu_cap=1.1 * NU_GAUSSIAN)


class TestEstimateNuRaw:
    def test_round_trip_at_five(self):
        m1 = abs_central_moment(5.0, 1.0) ** 1.0
        m2 = abs_central_moment(5.0, 0.5) ** 0.5
        assert _nu_raw(m1, m2) == pytest.approx(5.0, abs=1e-3)

    def test_clamp_to_cap(self):
        nu_grid, ratio_grid = build_nu_table(1.0, 0.5)
        # ratio below the Gaussian end of a decreasing table
        r_past_gauss = float(ratio_grid[-1]) * 0.99
        assert _nu_raw(r_past_gauss, 1.0) == nu_grid[-1]

    def test_clamp_to_min(self):
        nu_grid, ratio_grid = build_nu_table(1.0, 0.5)
        r_past_heavy = float(ratio_grid[0]) * 1.01
        assert _nu_raw(r_past_heavy, 1.0) == nu_grid[0]

    def test_degenerate_moment(self):
        with pytest.raises(DegenerateDataError):
            _nu_raw(0.0, 1.0)

    def test_bisection_oracle_round_trip(self):
        # independent inversion: bisect the closed-form ratio directly
        for nu_true in (2.0, 5.0, 20.0, 200.0):
            r = (abs_central_moment(nu_true, 1.0)
                 / abs_central_moment(nu_true, 0.5))
            lo, hi = 1.1, 1000.0
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                rm = (abs_central_moment(mid, 1.0)
                      / abs_central_moment(mid, 0.5))
                if rm > r:
                    lo = mid
                else:
                    hi = mid
            by_bisection = math.sqrt(lo * hi)
            by_table = _nu_raw(abs_central_moment(nu_true, 1.0),
                               abs_central_moment(nu_true, 0.5) ** 0.5)
            assert by_table == pytest.approx(by_bisection, rel=5e-3)


class TestEstimateNuAdjusted:
    def test_additive_shift(self):
        assert adjusted_nu(4.1, 0.9, DEFAULT_NU_CAP) == pytest.approx(5.0)

    def test_identity(self):
        assert adjusted_nu(4.1, 0.0, DEFAULT_NU_CAP) == pytest.approx(4.1)

    def test_cap(self):
        assert adjusted_nu(1000.0, 0.9, 1000.0) == 1000.0

    def test_nonfinite(self):
        # a non-finite nu never reaches the sigma map
        with pytest.raises(DomainError):
            static_fit(1.0, 1.0, 1.0, nu_adjustment=math.nan)
        with pytest.raises(DomainError):
            static_fit(1.0, 1.0, 1.0, nu_fixed=math.inf)


class TestInvariances:
    def test_nu_scale_invariance(self):
        xs = sample(StudentTParams(0.0, 1.0, 4.0), 5000, seed=3)
        lam = 7.3
        n1 = static_fit(*_moments(xs))[1]
        n2 = static_fit(*_moments(lam * xs))[1]
        assert n2 == pytest.approx(n1, rel=1e-12)

    def test_sigma_equivariance(self):
        xs = sample(StudentTParams(0.0, 1.0, 4.0), 5000, seed=4)
        lam = 7.3
        sig1 = _sigma(_moments(xs)[0], 4.0, 1.0)
        sig2 = _sigma(_moments(lam * xs)[0], 4.0, 1.0)
        assert sig2 == pytest.approx(lam * sig1, rel=1e-12)

    @pytest.mark.parametrize("nu_true", [3.0, 5.0, 10.0])
    def test_consistency_large_sample(self, nu_true):
        xs = sample(StudentTParams(0.0, 1.0, nu_true), 10 ** 6, seed=77)
        moments = _moments(xs)
        assert _sigma(moments[0], nu_true, 1.0) == pytest.approx(1.0, rel=0.01)
        assert static_fit(*moments)[1] == pytest.approx(nu_true, rel=0.10)
