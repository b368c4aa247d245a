import math

import numpy as np
import pytest

from movingt import baselines
from movingt.baselines import (GarchParams, _ar1_scan, _garch_mean_loglik,
                               _stationary_beta, fit_garch_mle, fit_sigma_mle,
                               garch_filter, simulate_garch)
from movingt.distribution import NU_GAUSSIAN, StudentTParams, log_pdf
from movingt.errors import DomainError, NonConvergenceError, SeriesTooShortError
from movingt.evaluation import mean_log_likelihood

from oracles import sample


class TestGarchParams:
    def test_stationarity_enforced(self):
        with pytest.raises(DomainError):
            GarchParams(1e-6, 0.5, 0.5, 1.0)
        with pytest.raises(DomainError):
            GarchParams(1e-6, 1.2, 0.0, 1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(omega=0.0, alpha=0.1, beta=0.8, initial_var=1.0),
        dict(omega=1e-6, alpha=-0.1, beta=0.8, initial_var=1.0),
        dict(omega=1e-6, alpha=0.1, beta=0.8, initial_var=0.0),
        dict(omega=math.nan, alpha=0.1, beta=0.8, initial_var=1.0),
    ])
    def test_domains(self, kwargs):
        with pytest.raises(DomainError):
            GarchParams(**kwargs)


class TestFitSigmaMle:
    def test_gaussian_constant_magnitude(self):
        # with |x - mu| = c everywhere, the Gaussian MLE of scale is c
        xs = np.array([1.0, -1.0, 1.0, -1.0]) * 0.37
        sigma = fit_sigma_mle(xs, 0.0, NU_GAUSSIAN)
        assert sigma == pytest.approx(0.37, rel=1e-8)

    def test_monte_carlo(self):
        xs = sample(StudentTParams(0.0, 2.0, 5.0), 10 ** 5, seed=9)
        sigma = fit_sigma_mle(xs, 0.0, 5.0)
        assert 1.97 <= sigma <= 2.03

    def test_local_optimality(self):
        xs = sample(StudentTParams(0.0, 1.0, 3.0), 2000, seed=14)
        sigma = fit_sigma_mle(xs, 0.0, 3.0)
        attained = float(np.mean(log_pdf(StudentTParams(0.0, sigma, 3.0), xs)))
        for factor in (1.1, 1.0 / 1.1):
            other = StudentTParams(0.0, sigma * factor, 3.0)
            assert attained >= float(np.mean(log_pdf(other, xs)))

    def test_global_on_interval_dense_grid(self):
        # cross-check the golden section against a brute-force scan
        xs = sample(StudentTParams(0.0, 0.03, 4.0), 3000, seed=15)
        sigma = fit_sigma_mle(xs, 0.0, 4.0)
        attained = float(np.mean(log_pdf(StudentTParams(0.0, sigma, 4.0), xs)))
        grid = np.exp(np.linspace(math.log(1e-8), math.log(1e2), 1000))
        scores = [float(np.mean(log_pdf(StudentTParams(0.0, s, 4.0), xs)))
                  for s in grid]
        assert attained >= max(scores) - 1e-9

    def test_empty(self):
        with pytest.raises(SeriesTooShortError):
            fit_sigma_mle([], 0.0, 5.0)

    def test_bad_nu(self):
        with pytest.raises(DomainError):
            fit_sigma_mle([1.0, 2.0], 0.0, -1.0)


class TestGarchFilter:
    def test_constant_variance_case(self):
        params = GarchParams(2.5, 0.0, 0.0, 2.5)
        xs = np.array([0.1, -0.2, 0.3, 0.0])
        traj = garch_filter(xs, params)
        assert np.allclose(traj.sigma, math.sqrt(2.5))
        assert np.all(traj.mu == 0.0) and np.all(traj.nu == NU_GAUSSIAN)
        score = mean_log_likelihood(traj, xs, 0)
        expected = float(np.mean(-0.5 * (math.log(2 * math.pi)
                                         + math.log(2.5) + xs ** 2 / 2.5)))
        assert score == pytest.approx(expected, rel=1e-12)

    def test_recursion_matches_direct_loop(self):
        params = GarchParams(1e-5, 0.1, 0.85, 3e-4)
        rng = np.random.default_rng(5)
        xs = rng.standard_normal(500) * 0.01
        sigma_path = garch_filter(xs, params).sigma
        sigma2 = params.initial_var
        for t in range(xs.size):
            assert sigma_path[t] ** 2 == pytest.approx(sigma2, rel=1e-12)
            sigma2 = params.omega + params.alpha * xs[t] ** 2 + params.beta * sigma2

    def test_unconditional_variance(self):
        omega, alpha, beta = 1e-6, 0.05, 0.90
        target = omega / (1.0 - alpha - beta)
        params = GarchParams(omega, alpha, beta, target)
        rng = np.random.default_rng(77)
        xs = rng.standard_normal(10 ** 6) * math.sqrt(target)
        sigma_path = garch_filter(xs, params).sigma
        assert float(np.mean(sigma_path ** 2)) == pytest.approx(target, rel=0.02)

    def test_causality(self):
        params = GarchParams(1e-5, 0.1, 0.85, 3e-4)
        rng = np.random.default_rng(6)
        xs = rng.standard_normal(400) * 0.01
        base = garch_filter(xs, params).sigma
        mutated = xs.copy()
        mutated[200] += 1.0
        other = garch_filter(mutated, params).sigma
        assert np.array_equal(other[:201], base[:201])
        assert other[201] != base[201]

    def test_warmup_skips_scoring(self):
        params = GarchParams(1.0, 0.0, 0.0, 1.0)
        xs = np.array([100.0, 0.0, 0.0])
        traj = garch_filter(xs, params)
        full = mean_log_likelihood(traj, xs, 0)
        skipped = mean_log_likelihood(traj, xs, 1)
        assert skipped > full


class TestAr1Scan:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.97, 1.0 - 1e-12])
    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 4097])
    def test_matches_scalar_loop(self, beta, n):
        u = np.random.default_rng(n).random(n) + 0.1
        want, y = [], 0.0
        for v in u.tolist():
            y = v + beta * y
            want.append(y)
        np.testing.assert_allclose(_ar1_scan(u, beta), want, rtol=1e-13, atol=0)


class TestGarchMeanLoglik:
    POINTS = [
        (2e-6, 0.15, 0.70),             # interior
        (1e-7, 0.05, 1.0 - 0.05 - 1e-7),  # persistence just below 1
    ]

    @staticmethod
    def _series():
        rng = np.random.default_rng(4)
        xs = simulate_garch(rng, 5000, GarchParams(1e-6, 0.1, 0.8, 1e-5))
        return xs, float(np.var(xs))

    @staticmethod
    def _central_difference(xs, theta, var, i, which):
        h = 1e-6 * theta[0] if i == 0 else 1e-6
        up, down = list(theta), list(theta)
        up[i] += h
        down[i] -= h
        return (np.asarray(_garch_mean_loglik(xs, *up, var)[which])
                - np.asarray(_garch_mean_loglik(xs, *down, var)[which])) \
            / (2.0 * h)

    @pytest.mark.parametrize("theta", POINTS)
    def test_gradient_matches_central_differences(self, theta):
        xs, var = self._series()
        value, grad, _ = _garch_mean_loglik(xs, *theta, var)
        score = mean_log_likelihood(garch_filter(xs, GarchParams(*theta, var)),
                                    xs, 0)
        assert value == pytest.approx(score, rel=1e-14)
        for i in range(3):
            fd = self._central_difference(xs, theta, var, i, 0)
            assert grad[i] == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("theta", POINTS)
    def test_hessian_matches_central_differences(self, theta):
        # each Hessian row against central differences of the gradient
        xs, var = self._series()
        _, _, hess = _garch_mean_loglik(xs, *theta, var)
        assert np.array_equal(hess, hess.T)
        for i in range(3):
            fd = self._central_difference(xs, theta, var, i, 1)
            for j in range(3):
                assert hess[i][j] == pytest.approx(fd[j], rel=1e-6)


class TestFitGarchMle:
    def test_recovery(self):
        true = GarchParams(1e-6, 0.08, 0.90, 1e-6 / 0.02)
        rng = np.random.default_rng(3)
        xs = simulate_garch(rng, 50_000, true)
        fit = fit_garch_mle(xs)
        assert abs(fit.alpha - 0.08) <= 0.03
        assert abs(fit.beta - 0.90) <= 0.03

    def test_iid_gaussian(self):
        rng = np.random.default_rng(88)
        xs = rng.standard_normal(20_000) * 0.01
        fit = fit_garch_mle(xs)
        assert fit.alpha <= 0.03
        assert fit.omega / (1.0 - fit.beta) == pytest.approx(
            float(np.var(xs)), rel=0.10)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        xs = simulate_garch(rng, 5000, GarchParams(1e-6, 0.1, 0.8, 1e-5))
        f1 = fit_garch_mle(xs)
        f2 = fit_garch_mle(xs)
        assert (f1.omega, f1.alpha, f1.beta) == (f2.omega, f2.alpha, f2.beta)

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            fit_garch_mle(np.zeros(50))

    def test_interior_fit_not_clamped(self):
        rng = np.random.default_rng(4)
        xs = simulate_garch(rng, 5000, GarchParams(1e-6, 0.1, 0.8, 1e-5))
        assert not fit_garch_mle(xs).persistence_clamped

    def test_unconverged_optimum_raises(self, monkeypatch):
        # one Newton iteration per start: no start converges
        monkeypatch.setattr(baselines, "_NEWTON_MAX_ITER", 1)
        rng = np.random.default_rng(4)
        xs = simulate_garch(rng, 5000, GarchParams(1e-6, 0.1, 0.8, 1e-5))
        with pytest.raises(NonConvergenceError):
            fit_garch_mle(xs)


class TestStationaryBeta:
    def test_inside_unchanged(self):
        assert _stationary_beta(0.1, 0.8) == 0.8

    @pytest.mark.parametrize("alpha, beta", [
        (0.3, 0.7),                      # 0.3 + 0.7 rounds to exactly 1
        (0.014881479247073105, 0.9851185207529271),
        (0.5, 0.5 + 2 ** -52),
        (0.999, 0.001),
    ])
    def test_largest_stationary_beta(self, alpha, beta):
        assert alpha + beta >= 1.0
        got = _stationary_beta(alpha, beta)
        assert 0.0 <= got <= beta and alpha + got < 1.0
        # one ulp more would not be stationary
        assert alpha + math.nextafter(got, 1.0) >= 1.0
        GarchParams(1e-6, alpha, got, 1.0)
