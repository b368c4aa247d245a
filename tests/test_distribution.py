import math
import pickle
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from movingt.baselines import GarchParams, garch_filter
from movingt.distribution import (NU_GAUSSIAN, StudentTParams,
                                  abs_central_moment, cdf, log_density)
from movingt.errors import DivergentMomentError, DomainError

from oracles import log_pdf, pdf, sample, trajectory_scores
from quadrature import integrate_adaptive

CAUCHY = StudentTParams(0.0, 1.0, 1.0)


class TestParams:
    @pytest.mark.parametrize("mu, sigma, nu", [
        (0.0, 0.0, 1.0), (0.0, -1.0, 1.0), (0.0, 1.0, 0.0),
        (0.0, 1.0, -2.0), (math.nan, 1.0, 1.0), (0.0, math.inf, 1.0),
    ])
    def test_invalid(self, mu, sigma, nu):
        with pytest.raises(DomainError):
            StudentTParams(mu, sigma, nu)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(mu=math.nan), "mu must be finite, got nan"),
        (dict(mu=-math.inf), "mu must be finite, got -inf"),
        (dict(sigma=math.inf), "sigma must be finite, got inf"),
        (dict(nu=math.nan), "nu must be finite, got nan"),
        (dict(sigma=0.0), "sigma must be > 0, got 0.0"),
        (dict(sigma=-1.0, nu=-1.0), "sigma must be > 0, got -1.0"),
        (dict(nu=-2.0), "nu must be > 0, got -2.0"),
        (dict(sigma=-1.0, nu=math.inf), "nu must be finite, got inf"),
    ])
    def test_first_bad_field_is_named(self, kwargs, message):
        with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
            StudentTParams(**{"mu": 0.0, "sigma": 1.0, "nu": 3.0, **kwargs})

    def test_replace_validates(self):
        assert replace(CAUCHY, nu=2.0) == StudentTParams(0.0, 1.0, 2.0)
        with pytest.raises(DomainError, match="^sigma must be > 0"):
            replace(CAUCHY, sigma=0.0)

    def test_frozen(self):
        params = StudentTParams(0.0, 1.0, 1.0)
        with pytest.raises(FrozenInstanceError):
            params.sigma = 2.0
        with pytest.raises(FrozenInstanceError):
            del params.nu
        assert params == CAUCHY

    def test_value_semantics(self):
        params = StudentTParams(mu=0.25, sigma=2.0, nu=4.0)
        assert [f.name for f in fields(StudentTParams)] == ["mu", "sigma", "nu"]
        assert params == StudentTParams(0.25, nu=4.0, sigma=2.0)
        assert params != StudentTParams(0.25, 2.0, 5.0)
        assert hash(params) == hash(StudentTParams(0.25, 2.0, 4.0))
        assert repr(params) == "StudentTParams(mu=0.25, sigma=2.0, nu=4.0)"
        back = pickle.loads(pickle.dumps(params))
        assert type(back) is StudentTParams and back == params
        with pytest.raises(TypeError):
            StudentTParams(0.0, 1.0)


class TestPdf:
    def test_cauchy_peak(self):
        assert pdf(CAUCHY, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_cauchy_at_one(self):
        assert pdf(CAUCHY, 1.0) == pytest.approx(1.0 / (2.0 * math.pi),
                                                 abs=1e-12)

    def test_location_scale(self):
        shifted = StudentTParams(3.0, 2.0, 1.0)
        assert pdf(shifted, 3.0) == pytest.approx(1.0 / (2.0 * math.pi),
                                                  abs=1e-12)

    def test_symmetry(self):
        p = StudentTParams(1.5, 0.7, 4.2)
        for d in (0.1, 1.0, 5.0):
            assert pdf(p, 1.5 + d) == pytest.approx(pdf(p, 1.5 - d), rel=1e-14)

    def test_positive(self):
        p = StudentTParams(0.0, 1.0, 3.0)
        assert all(pdf(p, x) > 0.0 for x in (-50.0, -1.0, 0.0, 1.0, 50.0))


class TestLogPdf:
    """The package's one log-density, `log_density`."""

    def test_cauchy_center(self):
        assert log_density(0.0, 0.0, 1.0, 1.0) == pytest.approx(
            -math.log(math.pi), abs=1e-13)

    def test_center_is_prefactor(self):
        expected = (math.lgamma(4.0) - math.lgamma(3.5)
                    - 0.5 * math.log(7.0 * math.pi) - math.log(3.0))
        assert log_density(2.0, 2.0, 3.0, 7.0) == pytest.approx(expected,
                                                                rel=1e-14)

    def test_reference_far_tail(self):
        # 50-digit evaluation of the closed form at mu=0, sigma=1, nu=3, x=10
        assert log_density(10.0, 0.0, 1.0, 3.0) == pytest.approx(
            -8.073122248746561869171, abs=1e-10)

    def test_matches_pdf(self):
        p = StudentTParams(0.5, 2.0, 6.0)
        xs = np.array([-3.0, 0.0, 0.5, 4.0])
        assert np.allclose(np.exp(log_density(xs, p.mu, p.sigma, p.nu)),
                           pdf(p, xs), rtol=1e-13)

    def test_no_overflow_far_out(self):
        # polynomial tail: roughly -(nu+1) * ln x, finite at |z| = 1e8
        v = log_density(1e8, 0.0, 1.0, 100.0)
        assert math.isfinite(v)
        assert v == pytest.approx(-(101.0) * math.log(1e8), rel=0.15)

    def test_per_point_nu_across_the_gaussian_limit(self):
        # one call mixes the Student-t and the Gaussian branch
        nu = np.array([1.1, 3.0, 999999.9, NU_GAUSSIAN, 1e7])
        xs = np.array([-2.5, 0.3, 4.0, -1.0, 7.0])
        sigma = np.array([0.5, 1.0, 2.0, 1.5, 3.0])
        got = log_density(xs, 0.25, sigma, nu)
        for i in range(nu.size):
            want = log_pdf(StudentTParams(0.25, sigma[i], nu[i]), xs[i])
            assert got[i] == pytest.approx(want, rel=1e-12), nu[i]

    def test_garch_filter_scores_the_gaussian_limit(self):
        xs = 0.01 * np.random.default_rng(7).standard_t(4.0, 2000)
        params = GarchParams(2e-6, 0.08, 0.9, float(np.var(xs)))
        traj = garch_filter(xs, params)
        want = [log_pdf(StudentTParams(0.0, s, NU_GAUSSIAN), x)
                for s, x in zip(traj.sigma.tolist(), xs.tolist())]
        assert np.allclose(trajectory_scores(traj, xs), want, rtol=1e-12,
                           atol=0.0)


class TestCdf:
    def test_center(self):
        assert cdf(StudentTParams(5.0, 3.0, 2.5), 5.0) == 0.5

    def test_cauchy_quartiles(self):
        assert cdf(CAUCHY, 1.0) == pytest.approx(0.75, abs=1e-12)
        assert cdf(CAUCHY, -1.0) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("nu, x, expected", [
        # 50-digit evaluations via the incomplete-beta representation
        (5.0, 2.3, 0.9651137653339813428726),
        (0.7, -4.0, 0.1166722602926856671306),
    ])
    def test_reference_values(self, nu, x, expected):
        assert cdf(StudentTParams(0.0, 1.0, nu), x) == pytest.approx(
            expected, abs=1e-13)

    def test_monotone_and_bounded(self):
        p = StudentTParams(0.0, 1.0, 2.0)
        xs = np.linspace(-30, 30, 121)
        vals = [cdf(p, float(x)) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_finite_difference_matches_pdf(self):
        p = StudentTParams(0.3, 1.7, 4.0)
        for x in np.linspace(-5.0, 5.0, 20):
            h = 1e-5
            num = (cdf(p, float(x + h)) - cdf(p, float(x - h))) / (2 * h)
            assert num == pytest.approx(pdf(p, float(x)), rel=1e-5)

    @pytest.mark.parametrize("nus, rel", [
        ((1.1, 2.5, 3.0, 5.0, 10.0, 30.0, 100.0, 1000.0), 1e-11),
        ((1e4, 1e5, 999999.0), 1e-9)])
    def test_matches_multiprecision_in_the_tail_and_near_the_center(
            self, nus, rel):
        # the lower tail keeps its relative precision out to z = -30
        # (3.1e-24 at nu = 30), and 1 - x is not lost near z = 0
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for nu in nus:
            for z in (-4.0, -8.0, -12.0, -30.0, -1e-9, 1e-6, -1e-3, 0.5):
                m_nu, m_z = mpmath.mpf(nu), mpmath.mpf(z)
                lower = mpmath.betainc(m_nu / 2, 0.5, 0,
                                       m_nu / (m_nu + m_z ** 2),
                                       regularized=True) / 2
                ref = float(lower if z < 0 else 1 - lower)
                got = cdf(StudentTParams(0.0, 1.0, nu), z)
                assert got == pytest.approx(ref, rel=rel, abs=0.0), (nu, z)

    def test_infinite_argument(self):
        p = StudentTParams(0.0, 1.0, 3.0)
        assert cdf(p, -math.inf) == 0.0
        assert cdf(p, math.inf) == 1.0

    def test_matches_quadrature(self):
        p = StudentTParams(0.0, 1.0, 3.5)
        for x in (-2.0, 0.7, 4.0):
            res = integrate_adaptive(lambda u: pdf(p, u), -math.inf, x, 1e-10)
            assert res.converged
            assert cdf(p, x) == pytest.approx(res.value, abs=1e-9)


class TestNormalization:
    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 5.0, 50.0, 1000.0])
    def test_density_integrates_to_one(self, nu):
        for sigma in (0.1, 1.0, 10.0):
            p = StudentTParams(0.0, sigma, nu)
            res = integrate_adaptive(lambda x: pdf(p, x),
                                     -math.inf, math.inf, 1e-9)
            assert res.converged, (nu, sigma)
            assert res.value == pytest.approx(1.0, abs=1e-8)


class TestGaussianLimit:
    def test_capped_nu_equals_normal(self):
        p = StudentTParams(1.0, 2.0, NU_GAUSSIAN)
        for x in np.linspace(-9.0, 11.0, 21):
            z = (x - 1.0) / 2.0
            normal_pdf = math.exp(-0.5 * z * z) / (2.0 * math.sqrt(2 * math.pi))
            normal_cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
            assert pdf(p, float(x)) == pytest.approx(normal_pdf, abs=1e-12)
            assert cdf(p, float(x)) == pytest.approx(normal_cdf, abs=1e-12)

    def test_limit_is_continuous_below_cap(self):
        # an uncapped but huge nu should already sit on the normal curve
        p = StudentTParams(0.0, 1.0, 5e5)
        for x in np.linspace(-5.0, 5.0, 11):
            normal_pdf = math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
            normal_cdf = 0.5 * math.erfc(-x / math.sqrt(2.0))
            assert pdf(p, float(x)) == pytest.approx(normal_pdf, abs=1e-4)
            assert cdf(p, float(x)) == pytest.approx(normal_cdf, abs=1e-4)


class TestAbsCentralMoment:
    def test_sqrt_two(self):
        assert abs_central_moment(2.0, 1.0) == pytest.approx(math.sqrt(2.0),
                                                             rel=1e-12)

    def test_sqrt_three(self):
        assert abs_central_moment(3.0, 2.0) == pytest.approx(math.sqrt(3.0),
                                                             rel=1e-12)

    def test_reference_values(self):
        # Gamma factors cancel at (nu, p) = (1.5, 0.5): M = sqrt(1.5)
        assert abs_central_moment(1.5, 0.5) == pytest.approx(
            1.224744871391589049099, rel=1e-13)
        # p=2 reproduces the variance nu/(nu-2)
        assert abs_central_moment(10.0, 2.0) == pytest.approx(
            1.118033988749894848205, rel=1e-13)

    def test_divergent(self):
        with pytest.raises(DivergentMomentError):
            abs_central_moment(1.0, 1.0)
        with pytest.raises(DivergentMomentError):
            abs_central_moment(3.0, 3.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            abs_central_moment(-1.0, 0.5)
        with pytest.raises(DomainError):
            abs_central_moment(3.0, 0.0)

    def test_matches_quadrature_grid(self):
        for nu in (1.5, 3.0, 5.0, 10.0, 50.0):
            for p in (0.5, 1.0, 2.0):
                if p >= nu:
                    continue
                target = abs_central_moment(nu, p) ** p
                tp = StudentTParams(0.0, 1.0, nu)

                def integrand(x, _p=p, _tp=tp):
                    lp = log_pdf(_tp, x)
                    if x == 0.0:
                        return 0.0
                    return math.exp(_p * math.log(abs(x)) + lp)

                res = integrate_adaptive(integrand, -math.inf, math.inf, 1e-9)
                assert res.converged
                assert res.value == pytest.approx(target, rel=1e-7)

    def test_gaussian_cap_matches_normal_moments(self):
        for p in (0.5, 1.0, 2.0, 3.0):
            expected = (2.0 ** (p / 2) * math.exp(math.lgamma((p + 1) / 2))
                        / math.sqrt(math.pi)) ** (1.0 / p)
            assert abs_central_moment(NU_GAUSSIAN, p) == pytest.approx(
                expected, rel=1e-12)


class TestSample:
    def test_empty(self):
        assert sample(StudentTParams(0, 1, 5), 0, seed=1).size == 0

    def test_deterministic(self):
        p = StudentTParams(0.0, 1.0, 4.0)
        a = sample(p, 1000, seed=42)
        b = sample(p, 1000, seed=42)
        assert np.array_equal(a, b)
        c = sample(p, 1000, seed=43)
        assert not np.array_equal(a, c)

    def test_median_near_center(self):
        xs = sample(StudentTParams(0.0, 1.0, 5.0), 10 ** 5, seed=2024)
        assert abs(np.median(xs)) < 0.02

    def test_mean_abs_matches_moment(self):
        xs = sample(StudentTParams(0.0, 1.0, 5.0), 10 ** 5, seed=2024)
        target = abs_central_moment(5.0, 1.0)
        assert np.abs(xs).mean() == pytest.approx(target, rel=0.02)

    def test_scale_law(self):
        # m_p of (mu, sigma, nu) data is sigma^p * M(nu,p)^p
        xs = sample(StudentTParams(3.0, 2.0, 5.0), 10 ** 6, seed=2025)
        m1 = np.abs(xs - 3.0).mean()
        assert m1 == pytest.approx(2.0 * abs_central_moment(5.0, 1.0), rel=0.02)

    def test_negative_n(self):
        with pytest.raises(DomainError):
            sample(StudentTParams(0, 1, 5), -1, seed=0)
