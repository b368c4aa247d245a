import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from movingt.adaptive import (AdaptiveConfig, EmaState, moment_paths, run,
                              seed_state_from_prefix, step)
from movingt.data_io import Segment, generate_synthetic
from movingt.distribution import (NU_GAUSSIAN, abs_central_moment, log_pdf,
                                  StudentTParams)
from movingt.errors import DomainError, MovingTError, SeriesTooShortError


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = AdaptiveConfig()
        assert cfg.eta1 == 0.003 and cfg.eta2 == 0.05 and cfg.eta3 == 0.005
        assert cfg.p_sigma == 1.0 and (cfg.p1, cfg.p2) == (1.0, 0.5)
        assert cfg.nu_adjustment == 0.9

    def test_frozen_center_allowed(self):
        assert AdaptiveConfig(eta1=0.0).eta1 == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(eta1=1.5), dict(eta2=0.0), dict(eta2=1.5), dict(eta3=-0.1),
        dict(p_sigma=0.0), dict(p1=0.5, p2=0.5),
        dict(p_sigma=1.2),                      # >= nu_min
        dict(nu_fixed=0.8),                     # p_sigma >= nu_fixed
        dict(p1=2.0),                           # >= nu_min
        dict(nu_min=5.0, nu_cap=2.0),
        dict(moment_floor=0.0),
        dict(nu_adjustment=-0.1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            AdaptiveConfig(**kwargs)


class TestStep:
    def test_estimate_uses_pre_update_state(self):
        cfg = AdaptiveConfig(nu_fixed=5.0)
        state = EmaState(mu=0.0, m_sigma=1.0, m1=1.0, m2=1.0)
        _, est = step(state, 100.0, cfg)
        # the estimate must not see x yet
        assert est.mu == 0.0
        assert est.sigma == pytest.approx(1.0 / abs_central_moment(5.0, 1.0))
        assert est.nu == 5.0

    def test_state_update_rule(self):
        cfg = AdaptiveConfig(nu_fixed=5.0)
        state = EmaState(mu=1.0, m_sigma=2.0, m1=1.0, m2=1.0)
        new, _ = step(state, 4.0, cfg)
        # moments use the pre-update center: |4 - 1| = 3
        assert new.m_sigma == pytest.approx(2.0 + cfg.eta2 * (3.0 - 2.0))
        assert new.mu == pytest.approx(1.0 + cfg.eta1 * 3.0)

    def test_constant_input_converges(self):
        cfg = AdaptiveConfig(nu_fixed=5.0, eta1=0.05)
        state = EmaState(mu=0.0, m_sigma=1.0, m1=1.0, m2=1.0)
        c = 2.0
        for _ in range(4000):
            state, est = step(state, c, cfg)
        assert state.mu == pytest.approx(c, abs=1e-9)
        # moments decay toward the floor, sigma toward floor^{1/p} / M
        assert state.m_sigma < 1e-12
        floor_sigma = (cfg.moment_floor ** (1.0 / cfg.p_sigma)
                       / abs_central_moment(5.0, 1.0))
        state2 = EmaState(mu=c, m_sigma=0.0, m1=0.0, m2=0.0)
        _, est2 = step(state2, c, cfg)
        assert est2.sigma == pytest.approx(floor_sigma, rel=1e-12)

    @given(m=st.floats(0.001, 100.0), x=st.floats(-50.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_moment_ema_bounds(self, m, x):
        cfg = AdaptiveConfig(nu_fixed=5.0)
        state = EmaState(mu=0.0, m_sigma=m, m1=m, m2=m)
        new, _ = step(state, x, cfg)
        obs = abs(x) ** cfg.p_sigma
        assert min(m, obs) - 1e-12 <= new.m_sigma <= max(m, obs) + 1e-12


class TestSeedStateFromPrefix:
    XS = generate_synthetic([Segment(400, 0.2, 1.5, 4)], seed=12).values

    @pytest.mark.parametrize("k", [1, 37, 400])
    @pytest.mark.parametrize("center", [None, 0.0, -0.7])
    @pytest.mark.parametrize("powers", [(1.0, 1.0, 0.5), (0.75, 1.0, 0.5),
                                        (0.5, 0.8, 0.3)])
    def test_moments_about_center(self, k, center, powers):
        p_sigma, p1, p2 = powers
        cfg = AdaptiveConfig(p_sigma=p_sigma, p1=p1, p2=p2)
        state = seed_state_from_prefix(self.XS, k, cfg, mu=center)
        prefix = self.XS[:k]
        mu = float(prefix.mean()) if center is None else center
        d = np.abs(prefix - mu)
        assert state.mu == mu
        assert state.m_sigma == float(np.mean(d ** p_sigma))
        assert state.m1 == float(np.mean(d ** p1))
        assert state.m2 == float(np.mean(d ** p2))

    @pytest.mark.parametrize("k", [0, -1, 401])
    def test_unusable_prefix(self, k):
        with pytest.raises(SeriesTooShortError):
            seed_state_from_prefix(self.XS, k, AdaptiveConfig())


class TestRun:
    def test_too_short(self):
        cfg = AdaptiveConfig()
        with pytest.raises(SeriesTooShortError):
            run(np.zeros(5), cfg, init=5)
        with pytest.raises(SeriesTooShortError):
            run(np.zeros(0), cfg, init=EmaState(0.0, 1.0, 1.0, 1.0))

    def test_prefix_init_starts_after_prefix(self):
        xs = generate_synthetic([Segment(1000, 0, 1, 5)], seed=1)
        cfg = AdaptiveConfig()
        traj = run(xs, cfg, init=200)
        assert traj.t[0] == 200 and traj.t[-1] == 999
        assert len(traj) == 800

    def test_explicit_init_starts_at_zero(self):
        xs = generate_synthetic([Segment(500, 0, 1, 5)], seed=1)
        cfg = AdaptiveConfig()
        state = seed_state_from_prefix(xs.values, 100, cfg)
        traj = run(xs, cfg, init=state)
        assert traj.t[0] == 0 and len(traj) == 500

    def test_determinism(self):
        xs = generate_synthetic([Segment(2000, 0, 1, 5)], seed=2)
        cfg = AdaptiveConfig()
        t1 = run(xs, cfg, init=300)
        t2 = run(xs, cfg, init=300)
        for name in ("mu", "sigma", "nu", "log_density"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))

    def test_causality(self):
        xs = generate_synthetic([Segment(1200, 0, 1, 5)], seed=3).values.copy()
        cfg = AdaptiveConfig()
        base = run(xs, cfg, init=300)
        mutated = xs.copy()
        mutated[700] += 5.0
        other = run(mutated, cfg, init=300)
        i = 700 - 300
        # theta_700 depends only on x_tau for tau < 700
        assert other.mu[i] == base.mu[i]
        assert other.sigma[i] == base.sigma[i]
        assert other.nu[i] == base.nu[i]
        # and the very next estimate must feel the mutation
        assert other.sigma[i + 1] != base.sigma[i + 1]

    def test_run_matches_stepwise_fold(self):
        xs = generate_synthetic([Segment(400, 0, 1, 5)], seed=4)
        cfg = AdaptiveConfig()
        traj = run(xs, cfg, init=100)
        state = seed_state_from_prefix(xs.values, 100, cfg)
        mus, sigmas, nus = [], [], []
        for t in range(100, 400):
            state, est = step(state, float(xs.values[t]), cfg)
            mus.append(est.mu)
            sigmas.append(est.sigma)
            nus.append(est.nu)
        assert np.allclose(traj.mu, mus, rtol=1e-12, atol=0.0)
        assert np.allclose(traj.sigma, sigmas, rtol=1e-9, atol=0.0)
        assert np.allclose(traj.nu, nus, rtol=1e-9, atol=0.0)

    def test_log_density_matches_distribution(self):
        xs = generate_synthetic([Segment(500, 0, 1, 5)], seed=5)
        cfg = AdaptiveConfig(nu_fixed=5.0)
        traj = run(xs, cfg, init=100)
        for i in (0, 100, 399):
            params = StudentTParams(traj.mu[i], traj.sigma[i], traj.nu[i])
            assert traj.log_density[i] == pytest.approx(
                log_pdf(params, traj.x[i]), rel=1e-12)

    def test_nu_stays_in_clamp_range(self):
        xs = generate_synthetic(
            [Segment(3000, 0, 1, 3), Segment(3000, 0, 1, 100)], seed=6)
        cfg = AdaptiveConfig()
        traj = run(xs, cfg, init=300)
        assert np.all(traj.nu >= cfg.nu_min - 1e-9)
        assert np.all(traj.nu <= cfg.nu_cap + 1e-9)

    def test_stationary_sigma_average(self):
        xs = generate_synthetic([Segment(100300, 0, 1, 5)], seed=12)
        traj = run(xs, AdaptiveConfig(nu_fixed=5.0), init=300)
        assert 0.97 <= traj.sigma.mean() <= 1.03

    def test_regime_switch_tracking(self):
        xs = generate_synthetic(
            [Segment(5000, 0, 1, 5), Segment(1000, 0, 3, 5)], seed=7)
        traj = run(xs, AdaptiveConfig(nu_fixed=5.0), init=300)
        pre = traj.sigma[(traj.t >= 4000) & (traj.t <= 5000)].mean()
        post = traj.sigma[(traj.t >= 5200) & (traj.t <= 5400)].mean()
        assert 0.9 <= pre <= 1.1
        assert 2.6 <= post <= 3.3

    def test_scale_equivariance(self):
        lam = 7.3
        xs = generate_synthetic([Segment(5000, 0, 1, 5)], seed=8).values
        cfg = AdaptiveConfig()
        cfg_scaled = replace(cfg, moment_floor=cfg.moment_floor * lam ** cfg.p_sigma)
        t1 = run(xs, cfg, init=300)
        t2 = run(lam * xs, cfg_scaled, init=300)
        assert np.allclose(t2.sigma, lam * t1.sigma, rtol=1e-9, atol=0.0)
        assert np.max(np.abs(t2.nu - t1.nu)) <= 1e-9 * np.max(t1.nu)

    def test_stationary_nu_tracking_unadjusted(self):
        # time-averaged nu of the unadjusted tracker on stationary input;
        # the tuned +0.9 shift is an intentional bias and is left out here
        for nu_true in (3.0, 5.0):
            xs = generate_synthetic([Segment(100300, 0, 1, nu_true)], seed=11)
            cfg = AdaptiveConfig(eta2=0.001, eta3=0.001, nu_adjustment=0.0)
            traj = run(xs, cfg, init=300)
            assert traj.nu.mean() == pytest.approx(nu_true, rel=0.15)

    def test_gaussian_cap_matches_plain_gaussian_tracker(self):
        # independent reimplementation: EMA of |x - mu| with Gaussian scoring
        xs = generate_synthetic([Segment(3000, 0, 1, 1e6)], seed=9).values
        cfg = AdaptiveConfig(nu_fixed=1e6)
        traj = run(xs, cfg, init=300)

        mu = float(np.mean(xs[:300]))
        m = float(np.mean(np.abs(xs[:300] - mu)))
        m_const = math.sqrt(2.0 / math.pi)  # E|Z| for a standard normal
        ll = []
        for t in range(300, xs.size):
            sigma = max(m, cfg.moment_floor) / m_const
            z = (xs[t] - mu) / sigma
            ll.append(-0.5 * math.log(2 * math.pi) - math.log(sigma)
                      - 0.5 * z * z)
            d = abs(xs[t] - mu)
            m += cfg.eta2 * (d - m)
            mu += cfg.eta1 * (xs[t] - mu)
        assert np.mean(traj.log_density) == pytest.approx(
            float(np.mean(ll)), rel=1e-9)

    def test_fixed_nu_skips_nu_moments(self):
        xs = generate_synthetic([Segment(400, 0, 1, 5)], seed=10)
        cfg = AdaptiveConfig(nu_fixed=5.0)
        state = seed_state_from_prefix(xs.values, 100, cfg)
        new, _ = step(state, 3.0, cfg)
        assert new.m1 == state.m1 and new.m2 == state.m2
        assert new.m_sigma != state.m_sigma


def _step_fold(xs, state, cfg):
    """Fold the scalar step over xs: arrays mu, sigma, nu, log_density."""
    rows = []
    for x in np.asarray(xs, dtype=np.float64).tolist():
        state, est = step(state, x, cfg)
        rows.append((est.mu, est.sigma, est.nu, log_pdf(est, x)))
    return np.array(rows).T


class TestFoldMatchesStepOnHostileSeries:
    """run() against a plain loop over the scalar step, on hostile input."""

    @staticmethod
    def _check(xs, cfg, init):
        xs = np.asarray(xs, dtype=np.float64)
        if isinstance(init, EmaState):
            state, start = init, 0
        else:
            state, start = seed_state_from_prefix(xs, init, cfg), init
        traj = run(xs, cfg, init=init)
        mu, sigma, nu, logd = _step_fold(xs[start:], state, cfg)
        assert np.all(np.isfinite(traj.sigma))
        assert np.all(np.isfinite(traj.log_density))
        assert np.allclose(traj.mu, mu, rtol=1e-12, atol=0.0)
        assert np.allclose(traj.sigma, sigma, rtol=1e-9, atol=0.0)
        assert np.allclose(traj.nu, nu, rtol=1e-9, atol=0.0)
        assert np.allclose(traj.log_density, logd, rtol=1e-9, atol=0.0)
        return traj

    def test_exact_zero_runs(self):
        xs = generate_synthetic([Segment(3000, 0, 1, 4)], seed=30).values
        xs[500:520] = 0.0
        xs[1200:1205] = 0.0
        xs[2000:2400] = 0.0
        self._check(xs, AdaptiveConfig(), 300)

    def test_zero_run_reaches_moment_floor(self):
        # a pinned center makes |x - mu| exactly 0 over the run, so all
        # three moments decay below the floor
        xs = generate_synthetic([Segment(4000, 0, 1, 4)], seed=31).values
        xs[1000:3000] = 0.0
        cfg = AdaptiveConfig(eta1=0.0, eta3=0.05)
        state = seed_state_from_prefix(xs, 300, cfg, mu=0.0)
        _, m_sigma, m1, m2 = moment_paths(xs, state, cfg)
        for path in (m_sigma, m1, m2):
            assert path.min() < cfg.moment_floor
        self._check(xs, cfg, state)

    def test_constant_prefix(self):
        rest = generate_synthetic([Segment(1500, 0, 1, 5)], seed=32).values
        xs = np.concatenate([np.full(300, 0.25), rest])
        traj = self._check(xs, AdaptiveConfig(), 300)
        # the seeded moments are zero, so the first estimate sits at the floor
        assert traj.sigma[0] < 1e-15

    def test_huge_outlier(self):
        xs = generate_synthetic([Segment(2000, 0, 1, 5)], seed=33).values
        xs[900] = 1e6
        self._check(xs, AdaptiveConfig(), 300)

    def test_frozen_center(self):
        xs = generate_synthetic([Segment(2000, 0.3, 1, 5)], seed=34).values
        traj = self._check(xs, AdaptiveConfig(eta1=0.0), 300)
        assert np.all(traj.mu == traj.mu[0])

    @pytest.mark.parametrize("nu_fixed", [NU_GAUSSIAN, 2.0 * NU_GAUSSIAN])
    def test_gaussian_nu(self, nu_fixed):
        # the CLI's --nu-fixed inf is NU_GAUSSIAN
        xs = generate_synthetic([Segment(2000, 0, 1, 5)], seed=35).values
        self._check(xs, AdaptiveConfig(nu_fixed=nu_fixed), 300)

    def test_length_init_plus_one(self):
        xs = generate_synthetic([Segment(301, 0, 1, 5)], seed=36).values
        traj = self._check(xs, AdaptiveConfig(), 300)
        assert len(traj) == 1


# configurations at the edges of their domains
_EDGE_CONFIGS = [
    AdaptiveConfig(),
    AdaptiveConfig(eta1=1.0, eta2=1.0, eta3=1.0),
    AdaptiveConfig(eta1=0.0),
    AdaptiveConfig(p_sigma=1.09, p1=1.09),  # p just below nu_min
    AdaptiveConfig(nu_cap=2.0),             # nu mostly at the cap
    AdaptiveConfig(nu_fixed=NU_GAUSSIAN),
]


@st.composite
def _perturbed_hostile_series(draw):
    """(xs, perturbed xs, t, init): xs and its copy differ only at t.

    xs carries optional exact-zero runs, a constant prefix and
    10^6-sigma outliers; init is a prefix length k <= t or, for 0, an
    explicit state, so the fold sees x_t either way.
    """
    n = draw(st.integers(2, 200))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    xs = np.random.default_rng(seed).standard_t(4.0, n)
    for _ in range(draw(st.integers(0, 2))):
        a = draw(st.integers(0, n - 1))
        xs[a:draw(st.integers(a, n))] = 0.0
    if draw(st.booleans()):
        xs[:draw(st.integers(1, n))] = draw(st.sampled_from([0.0, 0.25, -3.0]))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        xs[i] = draw(st.sampled_from([1e6, -1e6]))
    t = draw(st.integers(0, n - 1))
    new = draw(st.sampled_from([0.0, 1e6, -1e6, xs[t] + 1.0, -xs[t]]))
    assume(new != xs[t])
    perturbed = xs.copy()
    perturbed[t] = new
    k = draw(st.integers(0, t))
    init = k if k else EmaState(mu=0.0, m_sigma=1.0, m1=1.0, m2=1.0)
    return xs, perturbed, t, init


class TestCausalityProperty:
    @given(case=_perturbed_hostile_series(),
           cfg=st.sampled_from(_EDGE_CONFIGS))
    @settings(max_examples=60, deadline=None)
    def test_estimates_never_see_the_present(self, case, cfg):
        xs, perturbed, t, init = case
        base = run(xs, cfg, init=init)
        other = run(perturbed, cfg, init=init)
        i = t - int(base.t[0])
        # theta_s for s <= t uses x_<s only, and so does ln rho_s(x_s), s < t
        for name in ("mu", "sigma", "nu"):
            assert (getattr(other, name)[:i + 1].tobytes()
                    == getattr(base, name)[:i + 1].tobytes())
        assert other.log_density[:i].tobytes() == base.log_density[:i].tobytes()


# a power whose moments overflow float64 once |x - mu| passes ~4.1
_LARGE_POWER = AdaptiveConfig(nu_fixed=1000.0, p_sigma=500.0)
# the prefix moments underflow to 0 and a later point overflows
_SMALL_PREFIX_THEN_UNIT_SCALE = np.concatenate(
    [np.full(20, 1e-3), np.full(20, 10.0)])


class TestFiniteOrTypedErrorProperty:
    @given(case=_perturbed_hostile_series(),
           cfg=st.sampled_from(_EDGE_CONFIGS + [_LARGE_POWER]))
    @example(case=(_SMALL_PREFIX_THEN_UNIT_SCALE,
                   _SMALL_PREFIX_THEN_UNIT_SCALE, 20, 20), cfg=_LARGE_POWER)
    @settings(max_examples=60, deadline=None)
    def test_finite_or_typed_error(self, case, cfg):
        xs, perturbed, _, init = case
        for series in (xs, perturbed):
            try:
                traj = run(series, cfg, init=init)
            except MovingTError:
                continue
            for name in ("mu", "sigma", "nu"):
                assert np.all(np.isfinite(getattr(traj, name))), name
            # -inf is a valid log-density for a point far in the tail
            assert not np.any(np.isnan(traj.log_density))


class TestFoldMatchesStepProperty:
    @given(case=_perturbed_hostile_series(),
           cfg=st.sampled_from(_EDGE_CONFIGS))
    @settings(max_examples=60, deadline=None)
    def test_fold_matches_step(self, case, cfg):
        xs, perturbed, _, init = case
        for series in (xs, perturbed):
            TestFoldMatchesStepOnHostileSeries._check(series, cfg, init)
