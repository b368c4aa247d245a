import math
import pickle
import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from movingt import adaptive, evaluation
from movingt.adaptive import (AdaptiveConfig, EmaState, moment_paths, run,
                              run_pieces, seed_state_from_prefix, step,
                              update)
from movingt.data_io import ReturnSeries, Segment, generate_synthetic
from movingt.distribution import (NU_GAUSSIAN, StudentTParams,
                                  abs_central_moment)
from movingt.errors import DomainError, MovingTError, SeriesTooShortError
from movingt.static_estimators import _power_overflow

from oracles import log_pdf, trajectory_scores


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


class TestEmaState:
    # the record `step` builds on every call: checked when it is built,
    # frozen after, and otherwise a plain dataclass
    GOOD = dict(mu=-0.5, m_sigma=1.0, m1=2.0, m2=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["mu", "m_sigma", "m1", "m2"])
    def test_non_finite_field_is_named(self, name, bad):
        with pytest.raises(DomainError, match=re.escape(
                f"{name} must be finite, got {bad!r}")):
            EmaState(**{**self.GOOD, name: bad})

    @pytest.mark.parametrize("name", ["m_sigma", "m1", "m2"])
    def test_negative_moment_is_named(self, name):
        with pytest.raises(DomainError,
                           match=re.escape(f"{name} must be >= 0, got -1e-300")):
            EmaState(**{**self.GOOD, name: -1e-300})

    def test_first_bad_field_is_named(self):
        # non-finite values are looked for before negative ones
        with pytest.raises(DomainError, match="^m2 must be finite"):
            EmaState(0.0, -1.0, 1.0, math.nan)
        with pytest.raises(DomainError, match="^m_sigma must be >= 0"):
            EmaState(0.0, -1.0, -2.0, 1.0)

    def test_replace_validates(self):
        state = EmaState(**self.GOOD)
        assert replace(state, m1=3.0) == EmaState(-0.5, 1.0, 3.0, 0.0)
        with pytest.raises(DomainError, match="^m1 must be >= 0"):
            replace(state, m1=-3.0)

    def test_frozen(self):
        state = EmaState(**self.GOOD)
        with pytest.raises(FrozenInstanceError):
            state.mu = 1.0
        with pytest.raises(FrozenInstanceError):
            del state.m1
        assert state == EmaState(**self.GOOD)

    def test_value_semantics(self):
        state = EmaState(**self.GOOD)
        assert [f.name for f in fields(EmaState)] == list(self.GOOD)
        assert state == EmaState(-0.5, 1.0, 2.0, 0.0)
        assert state == EmaState(-0.5, m_sigma=1.0, m2=0.0, m1=2.0)
        assert state != EmaState(-0.5, 1.0, 2.0, 1.0)
        assert hash(state) == hash(EmaState(-0.5, 1.0, 2.0, 0.0))
        assert repr(state) == "EmaState(mu=-0.5, m_sigma=1.0, m1=2.0, m2=0.0)"
        back = pickle.loads(pickle.dumps(state))
        assert type(back) is EmaState and back == state
        with pytest.raises(TypeError):
            EmaState(0.0, 1.0, 1.0)

    def test_step_on_nan_names_mu(self):
        with pytest.raises(DomainError, match="^mu must be finite, got nan"):
            step(EmaState(**self.GOOD), math.nan, AdaptiveConfig())


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

    @pytest.mark.parametrize("cfg, p", [
        (AdaptiveConfig(nu_fixed=1000.0, p_sigma=500.0), 500.0),
        (AdaptiveConfig(nu_min=100.0, nu_cap=1000.0, p1=50.0, p2=0.5), 50.0),
        (AdaptiveConfig(nu_min=100.0, nu_cap=1000.0, p1=0.5, p2=50.0), 50.0),
    ])
    def test_overflowing_power_is_a_domain_error(self, cfg, p):
        # |x - mu| = 1e10 raised to p overflows float64; run says so too
        state = EmaState(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError) as from_step:
            step(state, 1e10, cfg)
        with pytest.raises(DomainError) as from_run:
            run(np.array([1e10]), cfg, init=state)
        assert (str(from_step.value) == str(from_run.value)
                == str(_power_overflow(p)))


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
        assert traj.start == 200 and len(traj) == 800

    def test_explicit_init_starts_at_zero(self):
        xs = generate_synthetic([Segment(500, 0, 1, 5)], seed=1)
        cfg = AdaptiveConfig()
        state = seed_state_from_prefix(xs.values, 100, cfg)
        traj = run(xs, cfg, init=state)
        assert traj.start == 0 and len(traj) == 500

    def test_determinism(self):
        xs = generate_synthetic([Segment(2000, 0, 1, 5)], seed=2)
        cfg = AdaptiveConfig()
        t1 = run(xs, cfg, init=300)
        t2 = run(xs, cfg, init=300)
        for name in ("mu", "sigma", "nu"):
            assert np.array_equal(getattr(t1, name), getattr(t2, name))
        assert np.array_equal(trajectory_scores(t1, xs),
                              trajectory_scores(t2, xs))

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
        scores = trajectory_scores(traj, xs)
        for i in (0, 100, 399):
            params = StudentTParams(traj.mu[i], traj.sigma[i], traj.nu[i])
            assert scores[i] == pytest.approx(
                log_pdf(params, xs.values[traj.start + i]), rel=1e-12)

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
        t = traj.start + np.arange(len(traj))
        pre = traj.sigma[(t >= 4000) & (t <= 5000)].mean()
        post = traj.sigma[(t >= 5200) & (t <= 5400)].mean()
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
        assert np.mean(trajectory_scores(traj, xs)) == pytest.approx(
            float(np.mean(ll)), rel=1e-9)

    def test_fixed_nu_skips_nu_moments(self):
        xs = generate_synthetic([Segment(400, 0, 1, 5)], seed=10)
        cfg = AdaptiveConfig(nu_fixed=5.0)
        state = seed_state_from_prefix(xs.values, 100, cfg)
        new, _ = step(state, 3.0, cfg)
        assert new.m1 == state.m1 and new.m2 == state.m2
        assert new.m_sigma != state.m_sigma


def _start(xs, init, cfg):
    """(state, index) the fold of `run(xs, cfg, init=init)` starts from."""
    if isinstance(init, EmaState):
        return init, 0
    return seed_state_from_prefix(xs, init, cfg), init


def _final_state(xs, state, cfg):
    """The state a loop of the scalar step over xs ends in."""
    for x in np.asarray(xs, dtype=np.float64).tolist():
        state, _ = step(state, x, cfg)
    return state


def _error_type(fold):
    """The MovingTError subclass `fold()` raises, or None."""
    try:
        fold()
    except MovingTError as exc:
        return type(exc)
    return None


def _step_fold(xs, state, cfg):
    """Fold the scalar step over xs: arrays mu, sigma, nu, and each
    point's log-density from `log_pdf`."""
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
        state, start = _start(xs, init, cfg)
        traj = run(xs, cfg, init=init)
        mu, sigma, nu, logd = _step_fold(xs[start:], state, cfg)
        scores = trajectory_scores(traj, xs)
        assert np.all(np.isfinite(traj.sigma))
        assert np.all(np.isfinite(scores))
        assert np.allclose(traj.mu, mu, rtol=1e-12, atol=0.0)
        assert np.allclose(traj.sigma, sigma, rtol=1e-9, atol=0.0)
        assert np.allclose(traj.nu, nu, rtol=1e-9, atol=0.0)
        assert np.allclose(scores, logd, rtol=1e-9, atol=0.0)
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
            assert path[:-1].min() < cfg.moment_floor
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

    def test_nu_at_the_gaussian_cap(self):
        # nu_t reaches the cap, NU_GAUSSIAN, on some steps and not on
        # others, so one density call takes both branches
        xs = np.random.default_rng(3).standard_normal(20000)
        traj = self._check(xs, AdaptiveConfig(nu_cap=NU_GAUSSIAN), 300)
        at_cap = traj.nu >= NU_GAUSSIAN
        assert any(0 < np.count_nonzero(at_cap[lo:lo + adaptive._CHUNK])
                   < at_cap[lo:lo + adaptive._CHUNK].size
                   for lo in range(0, len(traj), adaptive._CHUNK))

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
        i = t - base.start
        # theta_s for s <= t uses x_<s only, and so does ln rho_s(x_s), s < t
        for name in ("mu", "sigma", "nu"):
            assert (getattr(other, name)[:i + 1].tobytes()
                    == getattr(base, name)[:i + 1].tobytes())
        assert (trajectory_scores(other, perturbed)[:i].tobytes()
                == trajectory_scores(base, xs)[:i].tobytes())


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
            assert not np.any(np.isnan(trajectory_scores(traj, series)))


class TestFoldMatchesStepProperty:
    @given(case=_perturbed_hostile_series(),
           cfg=st.sampled_from(_EDGE_CONFIGS))
    @settings(max_examples=60, deadline=None)
    def test_fold_matches_step(self, case, cfg):
        xs, perturbed, _, init = case
        for series in (xs, perturbed):
            TestFoldMatchesStepOnHostileSeries._check(series, cfg, init)


class TestUpdateProperty:
    @given(case=_perturbed_hostile_series(),
           cfg=st.sampled_from(_EDGE_CONFIGS),
           cuts=st.lists(st.integers(0, 200), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_any_chunking_matches_one_run(self, case, cfg, cuts):
        xs, _, _, init = case
        state, start = _start(xs, init, cfg)
        folded = xs[start:]
        bounds = sorted({0, folded.size, *(c for c in cuts if c < folded.size)})
        end, pieces, scores = state, [], []
        for lo, hi in zip(bounds, bounds[1:]):
            end, piece = update(end, folded[lo:hi], cfg)
            assert piece.start == 0 and len(piece) == hi - lo
            pieces.append(piece)
            scores.append(trajectory_scores(piece, folded[lo:hi]))
        whole = run(xs, cfg, init=init)
        for name, rtol in (("mu", 1e-12), ("sigma", 1e-9), ("nu", 1e-9)):
            joined = np.concatenate([getattr(p, name) for p in pieces])
            assert np.allclose(joined, getattr(whole, name),
                               rtol=rtol, atol=0.0), name
        assert np.allclose(np.concatenate(scores),
                           trajectory_scores(whole, xs), rtol=1e-9, atol=0.0)
        # the end state is the one a step loop over the same points ends in
        looped = _final_state(folded, state, cfg)
        assert end.mu == pytest.approx(looped.mu, rel=1e-12, abs=0.0)
        for name in ("m_sigma", "m1", "m2"):
            assert getattr(end, name) == pytest.approx(
                getattr(looped, name), rel=1e-9, abs=0.0), name

    @given(case=_perturbed_hostile_series(),
           cfg=st.sampled_from(_EDGE_CONFIGS), chunk=st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_output_does_not_depend_on_the_chunk_size(self, case, cfg, chunk):
        # run's and the scorer's own chunks are larger than any drawn
        # series, so shrink them
        xs, _, _, init = case
        whole = run(xs, cfg, init=init)
        with mock.patch.object(adaptive, "_CHUNK", chunk), \
                mock.patch.object(evaluation, "_CHUNK", chunk):
            chunked = run(xs, cfg, init=init)
            chunked_scores = trajectory_scores(chunked, xs)
        for name in ("mu", "sigma", "nu"):
            assert (getattr(chunked, name).tobytes()
                    == getattr(whole, name).tobytes()), name
        assert (chunked_scores.tobytes()
                == trajectory_scores(whole, xs).tobytes())

    @given(case=_perturbed_hostile_series(),
           cfg=st.sampled_from(_EDGE_CONFIGS + [_LARGE_POWER]))
    @example(case=(_SMALL_PREFIX_THEN_UNIT_SCALE,
                   _SMALL_PREFIX_THEN_UNIT_SCALE, 20, 20), cfg=_LARGE_POWER)
    @settings(max_examples=60, deadline=None)
    def test_step_and_run_raise_alike(self, case, cfg):
        xs, perturbed, _, init = case
        for series in (xs, perturbed):
            def step_loop():
                state, start = _start(series, init, cfg)
                _final_state(series[start:], state, cfg)
            assert (_error_type(step_loop)
                    == _error_type(lambda: run(series, cfg, init=init)))


class TestRunPiecesProperty:
    @given(case=_perturbed_hostile_series(),
           cfg=st.sampled_from(_EDGE_CONFIGS + [_LARGE_POWER]),
           cuts=st.lists(st.integers(0, 200), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_pieces_give_run_bit_for_bit(self, case, cfg, cuts):
        # cuts fall anywhere, so the prefix may span pieces, end inside
        # one or end at a cut; the labels follow their points
        xs, _, _, init = case
        k = init if isinstance(init, int) else 1
        series = ReturnSeries(xs, [f"d{i}" for i in range(xs.size)])
        bounds = sorted({0, xs.size, *(c for c in cuts if c < xs.size)})
        pieces = [series[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        error = _error_type(lambda: run(xs, cfg, init=k))
        assert _error_type(lambda: list(run_pieces(pieces, cfg, k))) == error
        if error is not None:
            return
        whole, folded = run(xs, cfg, init=k), list(run_pieces(pieces, cfg, k))
        t = k
        for points, traj in folded:
            assert traj.start == t and len(points) == len(traj) > 0
            assert points.labels == series.labels[t:t + len(traj)]
            assert points.values.tobytes() == xs[t:t + len(traj)].tobytes()
            t += len(traj)
        assert t == xs.size
        for name in ("mu", "sigma", "nu"):
            joined = np.concatenate([getattr(p, name) for _, p in folded])
            assert joined.tobytes() == getattr(whole, name).tobytes(), name
        joined = np.concatenate([trajectory_scores(p, xs) for _, p in folded])
        assert joined.tobytes() == trajectory_scores(whole, xs).tobytes()

    def test_nothing_left_after_the_prefix(self):
        pieces = [np.zeros(3), np.ones(2)]
        with pytest.raises(SeriesTooShortError) as got:
            list(run_pieces(pieces, AdaptiveConfig(), 5))
        with pytest.raises(SeriesTooShortError) as want:
            run(np.zeros(5), AdaptiveConfig(), init=5)
        assert str(got.value) == str(want.value)


class TestTranslationEquivarianceProperty:
    @given(case=_perturbed_hostile_series(),
           cfg=st.sampled_from(_EDGE_CONFIGS),
           c=st.sampled_from([1.0, -1.0, 0.5, -0.5]))
    @settings(max_examples=60, deadline=None)
    def test_shift_moves_only_the_center(self, case, cfg, c):
        xs, _, _, init = case
        # on a dyadic grid xs + c is exact, so the shift adds no rounding
        # of its own; otherwise a zero run folded with eta1 = 1 has
        # |x - mu| = 0 on one side and one ulp of c on the other, which
        # lifts a moment from the floor
        xs = np.round(xs * 2.0 ** 20) / 2.0 ** 20
        shifted_init = (replace(init, mu=init.mu + c)
                        if isinstance(init, EmaState) else init)
        base = run(xs, cfg, init=init)
        shifted = run(xs + c, cfg, init=shifted_init)
        # mu + c may cancel to near 0, so mu is compared to the size of
        # its operands
        assert np.all(np.abs(shifted.mu - (base.mu + c))
                      <= 1e-12 * (np.abs(base.mu) + abs(c)))
        assert np.allclose(shifted.sigma, base.sigma, rtol=1e-9, atol=0.0)
        assert np.allclose(shifted.nu, base.nu, rtol=1e-9, atol=0.0)


def _array_bytes(traj):
    """Bytes held by the array fields of a trajectory."""
    return sum(v.nbytes for v in (getattr(traj, f.name) for f in fields(traj))
               if isinstance(v, np.ndarray))


class TestFoldMemory:
    @staticmethod
    def _transient_peak(n):
        """Peak bytes `run` allocates over n points, beyond its output.

        A copy of the input would be 8 bytes a point of it, so this
        also grows if the fold copies what it folds.
        """
        xs = generate_synthetic([Segment(n, 0, 1, 4)], seed=40).values
        tracemalloc.start()
        try:
            traj = run(xs, AdaptiveConfig(), init=300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - _array_bytes(traj)

    def test_transient_does_not_grow_with_the_series(self):
        assert self._transient_peak(200_000) < 1.5 * self._transient_peak(50_000)

    def test_output_holds_only_the_estimates(self):
        # mu, sigma and nu: three float64 values a point; the points,
        # their indices and their scores stay outside the fold
        xs = generate_synthetic([Segment(5000, 0, 1, 4)], seed=41).values
        traj = run(xs, AdaptiveConfig(), init=300)
        assert len(traj) == 4700
        assert _array_bytes(traj) == 24 * len(traj)
