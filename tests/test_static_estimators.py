import math

import numpy as np
import pytest

from movingt.distribution import NU_GAUSSIAN, StudentTParams, abs_central_moment, sample
from movingt.errors import (DegenerateDataError, DivergentMomentError,
                            DomainError, SeriesTooShortError)
from movingt.static_estimators import (MomentSummary, build_nu_table,
                                       compute_moments, estimate_nu_adjusted,
                                       estimate_nu_raw, estimate_sigma)


class TestComputeMoments:
    def test_constant_series(self):
        s = compute_moments([1.0, 1.0, 1.0], [1.0], mu="mean")
        assert s.mu_hat == 1.0
        assert s.moments == (0.0,)

    def test_fixed_center_p2(self):
        s = compute_moments([-1.0, 1.0], [2.0], mu=0.0)
        assert s.moments[0] == pytest.approx(1.0, abs=1e-15)

    def test_fixed_center_half_power(self):
        s = compute_moments([-1.0, 1.0], [0.5], mu=0.0)
        assert s.moments[0] == pytest.approx(1.0, abs=1e-15)

    def test_empty(self):
        with pytest.raises(SeriesTooShortError):
            compute_moments([], [1.0])

    def test_bad_powers(self):
        with pytest.raises(DomainError):
            compute_moments([1.0, 2.0], [0.0])
        with pytest.raises(DomainError):
            compute_moments([1.0, 2.0], [1.0, 1.0])


class TestEstimateSigma:
    def test_identity_case(self):
        m = abs_central_moment(5.0, 1.0)
        s = MomentSummary(0.0, (1.0,), (m,))
        assert estimate_sigma(s, 5.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_nu_two(self):
        s = MomentSummary(0.0, (1.0,), (2.0 * math.sqrt(2.0),))
        assert estimate_sigma(s, 2.0, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_monte_carlo(self):
        xs = sample(StudentTParams(0.0, 2.0, 5.0), 10 ** 5, seed=9)
        s = compute_moments(xs, [1.0], mu="mean")
        assert 1.96 <= estimate_sigma(s, 5.0, 1.0) <= 2.04

    def test_divergent_power(self):
        s = MomentSummary(0.0, (1.0,), (1.0,))
        with pytest.raises(DivergentMomentError):
            estimate_sigma(s, 1.0, 1.0)

    def test_degenerate(self):
        s = MomentSummary(0.0, (1.0,), (0.0,))
        with pytest.raises(DegenerateDataError):
            estimate_sigma(s, 5.0, 1.0)

    def test_missing_power(self):
        s = MomentSummary(0.0, (1.0,), (1.0,))
        with pytest.raises(DomainError):
            estimate_sigma(s, 5.0, 2.0)


class TestNuTable:
    def test_default_power_pair(self):
        t = build_nu_table(1.0, 0.5)
        assert t.nu_min == pytest.approx(1.1)
        assert t.nu_cap == 1000.0
        assert t.nu_grid.size == 256

    def test_equal_powers_rejected(self):
        with pytest.raises(DomainError):
            build_nu_table(1.0, 1.0)

    def test_gaussian_ratio_limit(self):
        # top of the table approaches the Gaussian moment ratio, computed
        # here independently from E|Z|^p = 2^{p/2} Gamma((p+1)/2) / sqrt(pi)
        def gauss_abs_moment(p):
            return (2.0 ** (p / 2) * math.exp(math.lgamma((p + 1) / 2))
                    / math.sqrt(math.pi)) ** (1.0 / p)

        t = build_nu_table(1.0, 0.5)
        gauss_ratio = gauss_abs_moment(1.0) / gauss_abs_moment(0.5)
        assert t.ratio_grid[-1] == pytest.approx(gauss_ratio, rel=2e-3)

    @pytest.mark.parametrize("p1, p2", [(1.0, 0.5), (2.0, 1.0), (1.5, 0.5)])
    def test_monotone_for_power_pairs(self, p1, p2):
        t = build_nu_table(p1, p2, nu_min=max(p1, p2) + 0.1)
        diffs = np.diff(t.ratio_grid)
        assert np.all(diffs < 0.0) or np.all(diffs > 0.0)

    def test_bad_nu_min(self):
        with pytest.raises(DomainError):
            build_nu_table(1.0, 0.5, nu_min=0.9)

    def test_cap_at_most_the_gaussian_limit(self):
        assert build_nu_table(1.0, 0.5, nu_cap=NU_GAUSSIAN).nu_cap == NU_GAUSSIAN
        with pytest.raises(DomainError, match="Gaussian limit"):
            build_nu_table(1.0, 0.5, nu_cap=1.1 * NU_GAUSSIAN)


class TestEstimateNuRaw:
    def test_round_trip_at_five(self):
        t = build_nu_table(1.0, 0.5)
        s = MomentSummary(0.0, (1.0, 0.5),
                          (abs_central_moment(5.0, 1.0) ** 1.0,
                           abs_central_moment(5.0, 0.5) ** 0.5))
        assert estimate_nu_raw(s, t) == pytest.approx(5.0, abs=1e-3)

    def test_clamp_to_cap(self):
        t = build_nu_table(1.0, 0.5)
        # ratio below the Gaussian end of a decreasing table
        r_past_gauss = float(t.ratio_grid[-1]) * 0.99
        s = MomentSummary(0.0, (1.0, 0.5), (r_past_gauss, 1.0))
        assert estimate_nu_raw(s, t) == t.nu_cap

    def test_clamp_to_min(self):
        t = build_nu_table(1.0, 0.5)
        r_past_heavy = float(t.ratio_grid[0]) * 1.01
        s = MomentSummary(0.0, (1.0, 0.5), (r_past_heavy, 1.0))
        assert estimate_nu_raw(s, t) == t.nu_min

    def test_degenerate_moment(self):
        t = build_nu_table(1.0, 0.5)
        s = MomentSummary(0.0, (1.0, 0.5), (0.0, 1.0))
        with pytest.raises(DegenerateDataError):
            estimate_nu_raw(s, t)

    def test_bisection_oracle_round_trip(self):
        # independent inversion: bisect the closed-form ratio directly
        t = build_nu_table(1.0, 0.5)
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
            s = MomentSummary(0.0, (1.0, 0.5),
                              (abs_central_moment(nu_true, 1.0),
                               abs_central_moment(nu_true, 0.5) ** 0.5))
            by_table = estimate_nu_raw(s, t)
            assert by_table == pytest.approx(by_bisection, rel=5e-3)


class TestEstimateNuAdjusted:
    def test_additive_shift(self):
        assert estimate_nu_adjusted(4.1, 0.9) == pytest.approx(5.0)

    def test_identity(self):
        assert estimate_nu_adjusted(4.1, 0.0) == pytest.approx(4.1)

    def test_cap(self):
        assert estimate_nu_adjusted(1000.0, 0.9, nu_cap=1000.0) == 1000.0

    def test_nonfinite(self):
        with pytest.raises(DomainError):
            estimate_nu_adjusted(math.inf)


class TestInvariances:
    def test_nu_scale_invariance(self):
        xs = sample(StudentTParams(0.0, 1.0, 4.0), 5000, seed=3)
        t = build_nu_table(1.0, 0.5)
        lam = 7.3
        s1 = compute_moments(xs, (1.0, 0.5), mu="mean")
        s2 = compute_moments(lam * xs, (1.0, 0.5), mu="mean")
        n1 = estimate_nu_raw(s1, t)
        n2 = estimate_nu_raw(s2, t)
        assert n2 == pytest.approx(n1, rel=1e-12)

    def test_sigma_equivariance(self):
        xs = sample(StudentTParams(0.0, 1.0, 4.0), 5000, seed=4)
        lam = 7.3
        s1 = compute_moments(xs, (1.0,), mu="mean")
        s2 = compute_moments(lam * xs, (1.0,), mu="mean")
        sig1 = estimate_sigma(s1, 4.0, 1.0)
        sig2 = estimate_sigma(s2, 4.0, 1.0)
        assert sig2 == pytest.approx(lam * sig1, rel=1e-12)

    @pytest.mark.parametrize("nu_true", [3.0, 5.0, 10.0])
    def test_consistency_large_sample(self, nu_true):
        xs = sample(StudentTParams(0.0, 1.0, nu_true), 10 ** 6, seed=77)
        s = compute_moments(xs, (1.0, 0.5), mu="mean")
        t = build_nu_table(1.0, 0.5)
        assert estimate_sigma(s, nu_true, 1.0) == pytest.approx(1.0, rel=0.01)
        assert estimate_nu_raw(s, t) == pytest.approx(nu_true, rel=0.10)
