import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from movingt.adaptive import (AdaptiveConfig, ParamTrajectory, run,
                              seed_state_from_prefix)
from movingt.data_io import Segment, generate_synthetic
from movingt.distribution import NU_GAUSSIAN, StudentTParams, log_density
from movingt.errors import DivergentMomentError, DomainError, SeriesTooShortError
from movingt.evaluation import (ExactSum, expected_tail_fraction,
                                format_nu_label, inv_nu_of,
                                mean_log_likelihood, nu_of_inv, nu_sweep)

from oracles import log_pdf, sample, sigma_power_error_sweep, tail_table
from quadrature import integrate_adaptive


def _flat_trajectory(start, n):
    """n estimates from point start on, each the standard t5."""
    return ParamTrajectory(start=start, mu=np.zeros(n), sigma=np.ones(n),
                           nu=np.full(n, 5.0))


def _static_trajectory(params, xs):
    """The trajectory of a fixed StudentTParams over xs, from t = 0."""
    n = len(xs)
    return ParamTrajectory(
        start=0, mu=np.full(n, params.mu), sigma=np.full(n, params.sigma),
        nu=np.full(n, params.nu))


class TestExactSum:
    @given(values=st.lists(st.floats(min_value=-1e300, max_value=1e300,
                                     allow_nan=False), min_size=1,
                           max_size=60)
           | st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0 ** -1074,
                                       1.5, 2.0 ** 60, 3e-310]),
                      min_size=1, max_size=60),
           cuts=st.lists(st.integers(0, 60), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_mean_is_the_exact_mean_however_chunked(self, values, cuts):
        total = ExactSum()
        bounds = sorted({0, len(values), *(c for c in cuts if c < len(values))})
        for lo, hi in zip(bounds, bounds[1:]):
            total.add(np.array(values[lo:hi]))
        assert total.count == len(values)
        assert total.mean() == math.fsum(values) / len(values)

    def test_cancellation_across_chunks(self):
        # a sum of chunk sums, each rounded, would give 0.0
        total = ExactSum()
        for chunk in ([1e300, 1.0], [-1e300], [1e-300]):
            total.add(chunk)
        assert total.mean() == 0.25

    def test_minus_infinity_carries(self):
        total = ExactSum()
        for chunk in ([1.0], [-math.inf, 2.0], [3.0]):
            total.add(chunk)
        assert total.mean() == -math.inf

    def test_terms_near_the_overflow_threshold(self):
        values = [1.7e308, 1e-300, -1.6e308, 3.0, -1e-300, 5e-324]
        total = ExactSum()
        for chunk in (values[:2], values[2:4], values[4:]):
            total.add(chunk)
        assert total.mean() == math.fsum(values) / len(values)

    def test_sum_beyond_float64_is_a_floating_point_error(self):
        # the mean, -1.7e308 * 3 / 4, is finite, but not the exact sum
        total = ExactSum()
        total.add([-1.7e308, -1.7e308, -1.7e308, 0.0])
        with pytest.raises(FloatingPointError, match="leaves float64"):
            total.mean()


class TestMeanLogLikelihood:
    def test_single_point_cauchy(self):
        params = StudentTParams(0.5, 1.0, 1.0)
        traj = _static_trajectory(params, [0.5])
        assert mean_log_likelihood(traj, [0.5], 0) == pytest.approx(
            -math.log(math.pi), abs=1e-13)

    def test_duplication_invariance(self):
        params = StudentTParams(0.0, 1.0, 3.0)
        xs = [0.1, -0.4, 2.0]
        once = mean_log_likelihood(_static_trajectory(params, xs), xs, 0)
        twice = mean_log_likelihood(_static_trajectory(params, xs + xs),
                                    xs + xs, 0)
        assert twice == pytest.approx(once, rel=1e-14)

    def test_constant_trajectory_matches_fixed_params(self):
        # a fixed model's score is the exact mean of its log-densities
        xs = generate_synthetic([Segment(500, 0, 1, 5)], seed=30).values
        params = StudentTParams(0.1, 0.9, 4.0)
        traj = _static_trajectory(params, xs)
        for warmup in (0, 100):
            m = 500 - warmup
            want = math.fsum(log_density(xs[warmup:], np.full(m, 0.1),
                                         np.full(m, 0.9),
                                         np.full(m, 4.0)).tolist())
            got = mean_log_likelihood(traj, xs, warmup)
            assert got == want / m
            assert got == pytest.approx(
                math.fsum(log_pdf(params, xs[warmup:]).tolist()) / m,
                rel=1e-12)

    def test_warmup_mask(self):
        params = StudentTParams(0.0, 1.0, 1.0)
        xs = [100.0, 0.0]
        with_warmup = mean_log_likelihood(_static_trajectory(params, xs),
                                          xs, 1)
        assert with_warmup == pytest.approx(-math.log(math.pi), abs=1e-13)

    def test_length_mismatch(self):
        xs = np.zeros(10)
        traj = _flat_trajectory(0, 20)
        with pytest.raises(DomainError):
            mean_log_likelihood(traj, xs, 0)

    @pytest.mark.parametrize("start, n, size", [(5, 10, 14), (1, 0, 5),
                                                (-1, 3, 5)])
    def test_offset_trajectory_must_fit_the_series(self, start, n, size):
        with pytest.raises(DomainError):
            mean_log_likelihood(_flat_trajectory(start, n), np.zeros(size), 0)

    @pytest.mark.parametrize("warmup", [0, 3, 5, 9, 14])
    def test_offset_trajectory_scores_from_the_warmup(self, warmup):
        # entry i estimates point 5 + i; points before the warmup, and
        # the unfolded prefix, are not scored
        traj = _flat_trajectory(5, 10)
        xs = np.arange(15) - 7.0
        got = mean_log_likelihood(traj, xs, warmup)
        scored = xs[max(warmup, 5):]
        want = log_density(scored, np.zeros(scored.size),
                           np.ones(scored.size), np.full(scored.size, 5.0))
        assert got == math.fsum(want.tolist()) / scored.size

    def test_sum_beyond_float64_is_a_floating_point_error(self):
        # each point scores about -8.45e307 at the Gaussian limit, a
        # finite mean whose exact sum leaves float64's range
        xs = np.full(4, 1.3e154)
        traj = _static_trajectory(StudentTParams(0.0, 1.0, NU_GAUSSIAN), xs)
        with pytest.raises(FloatingPointError, match="leaves float64"):
            mean_log_likelihood(traj, xs, 0)

    def test_nothing_to_score(self):
        params = StudentTParams(0.0, 1.0, 2.0)
        with pytest.raises(SeriesTooShortError):
            mean_log_likelihood(_static_trajectory(params, [1.0, 2.0]),
                                [1.0, 2.0], 5)


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

    @pytest.mark.parametrize("grid, named", [
        ([NU_GAUSSIAN, 1e7], "1000000.0 and 10000000.0"),
        ([2.0, 5.0, 2.0], "2.0 and 2.0")])
    def test_grid_entries_that_share_a_row(self, monkeypatch, grid, named):
        # refused before any fit, naming both nu values
        import movingt.evaluation as evaluation

        def no_fit(*args, **kw):
            raise AssertionError("a fit ran before the grid was checked")
        monkeypatch.setattr(evaluation, "fit_sigma_mle", no_fit)
        xs = generate_synthetic([Segment(500, 0, 1, 5)], seed=33)
        with pytest.raises(DomainError, match=named):
            nu_sweep(xs, grid, 300)

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

    @pytest.mark.parametrize("chunk", [1, 97, 700])
    def test_scores_do_not_depend_on_the_chunk_size(self, monkeypatch,
                                                    chunk):
        from movingt import evaluation
        xs = generate_synthetic([Segment(800, 0, 1, 5), Segment(700, 0, 2, 3)],
                                seed=35).values
        grid = [NU_GAUSSIAN, 8.0, 3.0, 1.5, 1.0, 0.8]
        whole = nu_sweep(xs, grid, 300)
        monkeypatch.setattr(evaluation, "_CHUNK", chunk)
        assert nu_sweep(xs, grid, 300).rows == whole.rows

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
        from oracles import pdf
        res = integrate_adaptive(lambda x: pdf(p, x), 1.0, math.inf, 1e-10)
        assert res.converged
        assert frac == pytest.approx(2.0 * res.value, abs=1e-9)

    @pytest.mark.parametrize("nus, rel", [
        ((1.1, 2.5, 3.0, 5.0, 10.0, 30.0, 100.0, 1000.0), 1e-11),
        ((1e4, 1e5, 999999.0), 1e-9)])
    def test_expected_fraction_matches_multiprecision(self, nus, rel):
        # P(|T| > k) = I_{nu/(nu+k^2)}(nu/2, 1/2), to relative precision
        # even where 1 - cdf(k) would cancel
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for nu in nus:
            for k in (*range(1, 11), 20):
                m_nu = mpmath.mpf(nu)
                ref = float(mpmath.betainc(m_nu / 2, 0.5, 0,
                                           m_nu / (m_nu + k * k),
                                           regularized=True))
                assert expected_tail_fraction(nu, k) == pytest.approx(
                    ref, rel=rel, abs=0.0), (nu, k)

    @pytest.mark.parametrize("k", [*range(1, 11), 20])
    def test_gaussian_expected_fraction_is_erfc(self, k):
        assert expected_tail_fraction(NU_GAUSSIAN, k) == pytest.approx(
            math.erfc(k / math.sqrt(2.0)), rel=1e-14, abs=0.0)

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
        traj = _static_trajectory(StudentTParams(0.0, 1.0, 5.0), xs)
        table = tail_table(xs, traj, [1.0], k_values=[1, 2, 3])
        assert table.n_effective == 5
        assert table.observed == (3, 2, 1)
        assert table.expected["1"][0] == pytest.approx(5 * 0.5, abs=1e-10)

    def test_observed_nonincreasing(self):
        xs = sample(StudentTParams(0, 1, 3), 20_000, seed=40)
        table = tail_table(
            xs, _static_trajectory(StudentTParams(0.0, 1.0, 3.0), xs), [3.0])
        assert all(b <= a for a, b in zip(table.observed, table.observed[1:]))

    def test_adaptive_normalization(self):
        xs = generate_synthetic([Segment(2000, 0, 1, 5)], seed=41)
        cfg = AdaptiveConfig(nu_fixed=5.0)
        from movingt.adaptive import seed_state_from_prefix
        state = seed_state_from_prefix(xs.values, 300, cfg)
        traj = run(xs, cfg, init=state)
        table = tail_table(xs, traj, [5.0])
        assert table.n_effective == 2000

    def test_offset_trajectory_normalizes_its_own_points(self):
        # entry i normalizes point 2 + i; the unfolded prefix is not counted
        xs = np.array([100.0, -100.0, 0.5, -1.5, 2.5, -3.5])
        traj = ParamTrajectory(start=2, mu=np.zeros(4), sigma=np.ones(4),
                               nu=np.full(4, 5.0))
        table = tail_table(xs, traj, [5.0], k_values=[1, 2, 3, 100])
        assert table.n_effective == 4
        assert table.observed == (3, 2, 1, 0)

    def test_offset_trajectory_from_run(self):
        xs = generate_synthetic([Segment(2000, 0, 1, 5)], seed=42).values
        traj = run(xs, AdaptiveConfig(nu_fixed=5.0), init=300)
        z = np.abs(xs[300:] - traj.mu) / traj.sigma
        table = tail_table(xs, traj, [5.0], k_values=[1, 2, 3])
        assert table.n_effective == 1700
        assert table.observed == tuple(int(np.count_nonzero(z > k))
                                       for k in (1, 2, 3))

    @pytest.mark.parametrize("start, n, size", [(0, 7, 6), (3, 4, 6),
                                                (1, 0, 6), (-1, 3, 6)])
    def test_misaligned_trajectory(self, start, n, size):
        with pytest.raises(DomainError):
            tail_table(np.zeros(size), _flat_trajectory(start, n), [5.0])

    def test_empty_series(self):
        with pytest.raises(SeriesTooShortError):
            tail_table([], _flat_trajectory(0, 1), [5.0])


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
