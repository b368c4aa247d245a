import math

import numpy as np
import pytest

from dataclasses import replace

from movingt.adaptive import (AdaptiveConfig, ParamTrajectory, run,
                              seed_state_from_prefix)
from movingt.data_io import Segment, generate_synthetic
from movingt.distribution import NU_GAUSSIAN, StudentTParams, sample
from movingt.errors import DivergentMomentError, DomainError, SeriesTooShortError
from movingt.evaluation import (expected_tail_fraction, format_nu_label,
                                inv_nu_of, mean_log_likelihood, nu_of_inv,
                                nu_sweep, sigma_power_error_sweep, tail_table)

from quadrature import integrate_adaptive


class TestMeanLogLikelihood:
    def test_single_point_cauchy(self):
        params = StudentTParams(0.5, 1.0, 1.0)
        assert mean_log_likelihood(params, [0.5], 0) == pytest.approx(
            -math.log(math.pi), abs=1e-13)

    def test_duplication_invariance(self):
        params = StudentTParams(0.0, 1.0, 3.0)
        xs = [0.1, -0.4, 2.0]
        once = mean_log_likelihood(params, xs, 0)
        twice = mean_log_likelihood(params, xs + xs, 0)
        assert twice == pytest.approx(once, rel=1e-14)

    def test_constant_trajectory_matches_fixed_params(self):
        xs = generate_synthetic([Segment(500, 0, 1, 5)], seed=30).values
        params = StudentTParams(0.1, 0.9, 4.0)
        from movingt.distribution import log_pdf
        traj = ParamTrajectory(
            t=np.arange(500), x=xs,
            mu=np.full(500, params.mu), sigma=np.full(500, params.sigma),
            nu=np.full(500, params.nu),
            log_density=np.asarray(log_pdf(params, xs)))
        for warmup in (0, 100):
            a = mean_log_likelihood(traj, xs, warmup)
            b = mean_log_likelihood(params, xs, warmup)
            assert a == pytest.approx(b, abs=1e-12)

    def test_warmup_mask(self):
        params = StudentTParams(0.0, 1.0, 1.0)
        xs = [100.0, 0.0]
        with_warmup = mean_log_likelihood(params, xs, 1)
        assert with_warmup == pytest.approx(-math.log(math.pi), abs=1e-13)

    def test_length_mismatch(self):
        xs = np.zeros(10)
        traj = ParamTrajectory(
            t=np.arange(20), x=np.zeros(20), mu=np.zeros(20),
            sigma=np.ones(20), nu=np.full(20, 5.0), log_density=np.zeros(20))
        with pytest.raises(DomainError):
            mean_log_likelihood(traj, xs, 0)

    def test_nothing_to_score(self):
        params = StudentTParams(0.0, 1.0, 2.0)
        with pytest.raises(SeriesTooShortError):
            mean_log_likelihood(params, [1.0, 2.0], 5)


class TestInvNuHelpers:
    def test_round_trip(self):
        assert inv_nu_of(nu_of_inv(0.0)) == 0.0
        assert nu_of_inv(0.0) == NU_GAUSSIAN
        assert nu_of_inv(0.5) == pytest.approx(2.0)

    def test_labels(self):
        assert format_nu_label(NU_GAUSSIAN) == "inf"
        assert format_nu_label(3.0) == "3"
        assert format_nu_label(2.5) == "2.5"


class TestNuSweep:
    def test_single_entry(self):
        xs = generate_synthetic([Segment(1500, 0, 1, 5)], seed=31)
        rep = nu_sweep(xs, [5.0], 300)
        assert len(rep.rows) == 1
        assert rep.rows[0].inv_nu == pytest.approx(0.2)
        assert math.isfinite(rep.rows[0].static_loglik)
        assert math.isfinite(rep.rows[0].adaptive_loglik)
        assert math.isfinite(rep.garch_loglik)

    def test_rows_sorted_and_finite(self):
        xs = generate_synthetic([Segment(1500, 0, 1, 5)], seed=32)
        rep = nu_sweep(xs, [1.0, NU_GAUSSIAN, 5.0, 2.0], 300)
        invs = [r.inv_nu for r in rep.rows]
        assert invs == sorted(invs)
        assert all(math.isfinite(r.static_loglik)
                   and math.isfinite(r.adaptive_loglik) for r in rep.rows)
        # the configured p_sigma=1 has no finite moment at nu=1
        assert rep.p_eff_overrides == {1.0: 0.5}

    def test_gaussian_data_static_argmax_at_cap(self):
        xs = generate_synthetic([Segment(4000, 0, 1, NU_GAUSSIAN)], seed=55)
        grid = [NU_GAUSSIAN, 20.0, 10.0, 5.0, 3.0, 2.0, 1.0]
        rep = nu_sweep(xs, grid, 300)
        best = max(rep.rows, key=lambda r: r.static_loglik)
        assert best.inv_nu == 0.0

    def test_empty_grid(self):
        xs = generate_synthetic([Segment(1000, 0, 1, 5)], seed=33)
        with pytest.raises(DomainError):
            nu_sweep(xs, [], 300)

    def test_adaptive_scores_match_one_run_per_nu(self):
        # the sweep folds once per power; each score must equal a full
        # out-of-sample run at that nu with the center pinned at 0
        xs = generate_synthetic([Segment(800, 0, 1, 5), Segment(700, 0, 2, 3)],
                                seed=35).values
        cfg = AdaptiveConfig()
        grid = [NU_GAUSSIAN, 8.0, 3.0, 1.5, 1.0, 0.8]
        rep = nu_sweep(xs, grid, 300)
        by_inv = {r.inv_nu: r.adaptive_loglik for r in rep.rows}
        for nu in grid:
            p_eff = cfg.p_sigma if cfg.p_sigma < nu else 0.5 * nu
            run_cfg = replace(cfg, nu_fixed=nu, p_sigma=p_eff, eta1=0.0)
            state0 = seed_state_from_prefix(xs, 300, run_cfg, mu=0.0)
            traj = run(xs[300:], run_cfg, init=state0)
            want = mean_log_likelihood(traj, xs[300:], 0)
            assert by_inv[inv_nu_of(nu)] == pytest.approx(want, rel=1e-12)

    def test_warmup_bounds(self):
        xs = generate_synthetic([Segment(500, 0, 1, 5)], seed=36)
        with pytest.raises(DomainError):
            nu_sweep(xs, [5.0], 1)
        with pytest.raises(SeriesTooShortError):
            nu_sweep(xs, [5.0], 500)

    @pytest.mark.parametrize("kwargs", [
        dict(eta2=0.0), dict(p_sigma=0.0), dict(p_sigma=math.inf),
        dict(p_sigma=math.nan), dict(moment_floor=0.0)])
    def test_bad_setting_refused_before_any_fit(self, monkeypatch, kwargs):
        import movingt.evaluation as evaluation

        def no_fit(*args, **kw):
            raise AssertionError("a fit ran before the settings were checked")
        monkeypatch.setattr(evaluation, "fit_sigma_mle", no_fit)
        xs = generate_synthetic([Segment(500, 0, 1, 5)], seed=37)
        with pytest.raises(DomainError):
            nu_sweep(xs, [NU_GAUSSIAN, 5.0, 1.0], 300, **kwargs)

    def test_power_above_every_nu_uses_half_nu(self):
        # a power no row's nu has a finite moment of: every row uses nu/2
        # (daily-return scale, so |x|^(nu/2) stays finite at the cap)
        xs = generate_synthetic([Segment(800, 0, 0.01, 5)], seed=38)
        grid = [NU_GAUSSIAN, 5.0, 2.0]
        rep = nu_sweep(xs, grid, 300, p_sigma=2.0e6)
        assert rep.p_eff_overrides == {
            inv_nu_of(nu): 0.5 * nu for nu in grid}
        assert all(math.isfinite(r.adaptive_loglik) for r in rep.rows)

    def test_deterministic(self):
        xs = generate_synthetic([Segment(1200, 0, 1, 5)], seed=34)
        r1 = nu_sweep(xs, [5.0, 2.0], 300)
        r2 = nu_sweep(xs, [5.0, 2.0], 300)
        assert r1 == r2


class TestTailTable:
    def test_cauchy_expected_fraction(self):
        assert expected_tail_fraction(1.0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_gaussian_expected_fraction(self):
        frac = expected_tail_fraction(NU_GAUSSIAN, 1)
        assert frac == pytest.approx(math.erfc(1.0 / math.sqrt(2.0)), abs=1e-12)
        p = StudentTParams(0.0, 1.0, NU_GAUSSIAN)
        from movingt.distribution import pdf
        res = integrate_adaptive(lambda x: pdf(p, x), 1.0, math.inf, 1e-10)
        assert res.converged
        assert frac == pytest.approx(2.0 * res.value, abs=1e-9)

    def test_expected_monotone_in_k_and_nu(self):
        # strictly decreasing until the value underflows to the 0.0 floor
        def check(seq):
            for a, b in zip(seq, seq[1:]):
                assert b <= a
                if b > 1e-15:
                    assert b < a

        nus = [1.0, 3.0, 5.0, 10.0, NU_GAUSSIAN]
        for nu in nus:
            check([expected_tail_fraction(nu, k) for k in range(1, 11)])
        for k in range(1, 11):
            check([expected_tail_fraction(nu, k) for nu in nus])

    def test_static_counts(self):
        xs = np.array([0.0, 1.5, -2.5, 3.5, -0.5])
        table = tail_table(xs, (0.0, 1.0), [1.0], k_values=[1, 2, 3])
        assert table.normalization == "static"
        assert table.n_effective == 5
        assert table.observed == (3, 2, 1)
        assert table.expected["1"][0] == pytest.approx(5 * 0.5, abs=1e-10)

    def test_observed_nonincreasing(self):
        xs = sample(StudentTParams(0, 1, 3), 20_000, seed=40)
        table = tail_table(xs, (0.0, 1.0), [3.0])
        assert all(b <= a for a, b in zip(table.observed, table.observed[1:]))

    def test_adaptive_normalization(self):
        xs = generate_synthetic([Segment(2000, 0, 1, 5)], seed=41)
        cfg = AdaptiveConfig(nu_fixed=5.0)
        from movingt.adaptive import seed_state_from_prefix
        state = seed_state_from_prefix(xs.values, 300, cfg)
        traj = run(xs, cfg, init=state)
        table = tail_table(xs, traj, [5.0])
        assert table.normalization == "adaptive"
        assert table.n_effective == 2000

    def test_empty_series(self):
        with pytest.raises(SeriesTooShortError):
            tail_table([], (0.0, 1.0), [5.0])


class TestSigmaPowerErrorSweep:
    def test_consistency_single_rep(self):
        rows = sigma_power_error_sweep(5.0, [1.0], 10 ** 6, 1, seed=50)
        assert rows[0][1] < 0.01

    def test_divergent_power_rejected(self):
        with pytest.raises(DivergentMomentError):
            sigma_power_error_sweep(3.0, [0.5, 3.0], 100, 2, seed=0)

    def test_gaussian_prefers_p2(self):
        rows = sigma_power_error_sweep(NU_GAUSSIAN, [0.5, 1.0, 1.5, 2.0, 3.0],
                                       5000, 100, seed=42)
        best_p = min(rows, key=lambda r: r[1])[0]
        assert best_p == 2.0

    def test_heavy_tail_prefers_small_p(self):
        rows = sigma_power_error_sweep(3.0, [0.5, 1.0, 1.5, 2.0],
                                       5000, 100, seed=42)
        best_p = min(rows, key=lambda r: r[1])[0]
        assert best_p == 0.5

    def test_bad_args(self):
        with pytest.raises(DomainError):
            sigma_power_error_sweep(5.0, [1.0], 0, 1, seed=0)
