import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from movingt.distribution import StudentTParams
from movingt.errors import DomainError
from movingt.distribution import _betainc as regularized_incomplete_beta

from quadrature import integrate_adaptive


class TestLogGamma:
    """The library calls math.lgamma directly: these pin the accuracy
    its density, moment and incomplete-beta formulas rely on, and that
    every argument it can reach is finite and > 0."""

    def test_gamma_one(self):
        assert math.lgamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_gamma_half(self):
        assert math.lgamma(0.5) == pytest.approx(
            math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_gamma_five(self):
        assert math.lgamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)

    @pytest.mark.parametrize("z, expected", [
        # 50-digit reference evaluations of ln Gamma
        (1e-3, 6.907178885383853682512),
        (12.5, 18.73434751193644570163),
        (1e6, 12815504.56914761165998),
    ])
    def test_reference_values(self, z, expected):
        assert math.lgamma(z) == pytest.approx(expected, rel=1e-12)

    def test_against_multiprecision_grid(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for z in np.geomspace(1e-3, 1e6, 40):
            ref = float(mpmath.loggamma(mpmath.mpf(repr(float(z)))))
            got = math.lgamma(float(z))
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-13)

    def test_recurrence(self):
        # Gamma(z+1) = z * Gamma(z)
        for z in np.linspace(0.1, 50.0, 60):
            lhs = math.exp(math.lgamma(z + 1.0))
            rhs = z * math.exp(math.lgamma(z))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("z", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain(self, z):
        # lgamma's arguments are nu/2, (nu+1)/2 and the beta parameters;
        # the callers refuse such a nu, a or b before lgamma sees it
        with pytest.raises(DomainError):
            StudentTParams(0.0, 1.0, z)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(z, 1.0, 0.5)
        with pytest.raises(DomainError):
            regularized_incomplete_beta(1.0, z, 0.5)


class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_uniform_case(self):
        assert regularized_incomplete_beta(1.0, 1.0, 0.3) == pytest.approx(
            0.3, abs=1e-14)

    @pytest.mark.parametrize("a, b, x, expected", [
        # 50-digit reference evaluations of I_x(a, b)
        (2.5, 0.5, 0.7, 0.2031106637200549481598),
        (0.5, 50.0, 0.01, 0.6826956021258024106047),
        (10.0, 0.25, 0.999, 0.6550198545877631505522),
    ])
    def test_reference_values(self, a, b, x, expected):
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            expected, abs=1e-12)

    @given(a=st.floats(0.1, 50.0), b=st.floats(0.1, 50.0),
           x=st.floats(0.001, 0.999))
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, a, b, x):
        # x is kept away from the endpoints so that 1-x is representable
        # to full precision relative to the (unbounded for a < 1)
        # endpoint density; at the exact endpoints the identity is the
        # trivial 0/1 case tested above
        lhs = regularized_incomplete_beta(a, b, x)
        rhs = regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs + rhs == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 101)
        vals = [regularized_incomplete_beta(3.0, 0.7, x) for x in xs]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_derivative_matches_beta_density(self):
        # d/dx I_x(a,b) = x^{a-1}(1-x)^{b-1} / B(a,b)
        for a, b in [(2.0, 3.0), (0.6, 0.9), (5.0, 1.5)]:
            ln_beta = (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
            for x in (0.2, 0.5, 0.8):
                h = 1e-6
                num = (regularized_incomplete_beta(a, b, x + h)
                       - regularized_incomplete_beta(a, b, x - h)) / (2 * h)
                density = math.exp((a - 1) * math.log(x)
                                   + (b - 1) * math.log1p(-x) - ln_beta)
                assert num == pytest.approx(density, rel=1e-6)

    @pytest.mark.parametrize("a, b, x", [
        (0.0, 1.0, 0.5), (-1.0, 1.0, 0.5), (1.0, 0.0, 0.5),
        (1.0, 1.0, -0.1), (1.0, 1.0, 1.1), (math.nan, 1.0, 0.5),
    ])
    def test_domain(self, a, b, x):
        with pytest.raises(DomainError):
            regularized_incomplete_beta(a, b, x)


class TestQuadrature:
    def test_normal_normalization(self):
        res = integrate_adaptive(
            lambda x: math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
            -math.inf, math.inf, 1e-10)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_exponential_halfline(self):
        res = integrate_adaptive(lambda x: math.exp(-x), 0.0, math.inf, 1e-10)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_negative_halfline(self):
        res = integrate_adaptive(lambda x: math.exp(x), -math.inf, 0.0, 1e-10)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_finite_polynomial(self):
        res = integrate_adaptive(lambda x: 3.0 * x * x, 0.0, 2.0, 1e-12)
        assert res.converged
        assert res.value == pytest.approx(8.0, rel=1e-12)

    def test_divergent_first_cauchy_moment_is_flagged(self):
        def integrand(x):
            return abs(x) / (math.pi * (1.0 + x * x))
        res = integrate_adaptive(integrand, -math.inf, math.inf, 1e-8)
        assert not res.converged
        assert res.abs_error_estimate > 1.0

    def test_empty_interval(self):
        res = integrate_adaptive(lambda x: x, 3.0, 3.0, 1e-10)
        assert res.converged and res.value == 0.0

    def test_error_estimate_nonnegative(self):
        res = integrate_adaptive(math.sin, 0.0, 1.0, 1e-9)
        assert res.abs_error_estimate >= 0.0

    def test_bad_args(self):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: x, 1.0, 0.0, 1e-9)
