import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearscat import cylfun as cf

import envelope_checks as envelope
from oracle_series import (FIRST_J0_ZERO, central_diff, h1_series, j_series,
                           y0_series)

Y0_AT_1 = y0_series(1.0)          # 0.08825696421567696
J0_AT_1 = j_series(0, 1.0)        # 0.7651976865579666


def jn(n, t):
    return float(cf.bessel_j_all(n, t)[n])


def yn(n, t):
    return float(cf.bessel_y_all(n, t)[n])


def hn(n, t):
    return complex(cf.hankel1_all(n, t)[n])


def signed(table, n):
    """Order-n entry of a J/Y/H table for signed n: C_{-m} = (-1)^m C_m."""
    return (-1.0) ** n * table[-n] if n < 0 else table[n]


def j_deriv(n, t):
    return float(cf.derivative_all(cf.bessel_j_all(n + 1, t), t)[n])


def h_deriv(n, t):
    return complex(cf.derivative_all(cf.hankel1_all(n + 1, t), t)[n])


class TestBesselJ:
    def test_zero_argument_limits(self):
        assert jn(0, 0.0) == 1.0
        assert jn(3, 0.0) == 0.0

    def test_first_j0_zero_from_bisection_oracle(self):
        assert FIRST_J0_ZERO == pytest.approx(2.4048255577, abs=1e-9)
        assert abs(jn(0, FIRST_J0_ZERO)) < 1e-9

    def test_series_oracle_agreement_small_args(self):
        # the float64 series oracle itself carries ~1e-12 cancellation error
        # by t ~ 11, so the shared tolerance stays at the contract level
        for n in (0, 1, 2, 5, 9):
            for t in (0.3, 1.0, 2.7, 6.4, 11.0):
                assert jn(n, t) == pytest.approx(j_series(n, t), rel=1e-9, abs=1e-14)

    def test_negative_order_symmetry_exact(self):
        # J_{-n} = (-1)^n J_n, the reduction continuation relies on, against
        # scipy's own negative-order values
        import scipy.special as sp
        for n in (1, 2, 7, 80):
            for t in (0.1, 2.3, 41.0):
                want = sp.jv(-n, t)
                assert signed(cf.bessel_j_all(n, t), -n) == pytest.approx(want, rel=1e-9)

    def test_wide_grid_against_scipy(self):
        import scipy.special as sp
        t = np.linspace(0.05, 60.0, 301)
        vals = cf.bessel_j_all(80, t)
        ref = np.array([sp.jv(n, t) for n in range(81)])
        env = np.array([np.hypot(sp.jv(n, t), sp.yv(n, t)) for n in range(81)])
        # 1e-10 relative wherever the value is not drowned by a nearby zero
        strong = np.abs(ref) > 1e-3 * env
        rel = np.abs(vals - ref)[strong] / np.abs(ref)[strong]
        assert rel.max() < 1e-10

    def test_domain_errors(self):
        with pytest.raises(cf.DomainError):
            cf.bessel_j_all(0, -1.0)
        with pytest.raises(cf.DomainError):
            cf.bessel_j_all(201, 1.0)


class TestBesselY:
    def test_y0_series_oracle(self):
        assert yn(0, 1.0) == pytest.approx(Y0_AT_1, rel=1e-9)
        assert Y0_AT_1 == pytest.approx(0.0882569642, abs=1e-9)

    def test_negative_order_convention(self):
        import scipy.special as sp
        for t in (0.4, 3.3, 17.0):
            assert signed(cf.bessel_y_all(1, t), -1) == pytest.approx(sp.yv(-1, t), rel=1e-9)

    def test_small_argument_pole(self):
        # Y_1(t) ~ -2/(pi t): below the 0.9 envelope line at t = 1e-3
        t = 1e-3
        assert yn(1, t) < -(2.0 / math.pi) / t * 0.9
        assert yn(1, t) == pytest.approx(-(2.0 / math.pi) / t, rel=1e-3)

    def test_wide_grid_against_scipy(self):
        import scipy.special as sp
        t = np.linspace(1e-3, 60.0, 301)
        vals = cf.bessel_y_all(80, t)
        ref = np.array([sp.yv(n, t) for n in range(81)])
        env = np.array([np.hypot(sp.jv(n, t), sp.yv(n, t)) for n in range(81)])
        sat = np.abs(vals) >= cf.SATURATION
        strong = (np.abs(ref) > 1e-2 * env) & ~sat & np.isfinite(ref)
        rel = np.abs(vals - ref)[strong] / np.abs(ref)[strong]
        assert rel.max() < 1e-9

    def test_y0_y1_geometric_grid_against_scipy(self):
        # up to kr ~ 170, which k = 80 reaches on the default grid; sqrt(t)
        # scales out the 1/sqrt(t) decay
        import scipy.special as sp
        t = np.geomspace(1e-3, 200.0, 2001)
        y = cf.bessel_y_all(1, t)
        assert np.max(np.sqrt(t) * np.abs(y[0] - sp.y0(t))) <= 1e-13
        assert np.max(np.sqrt(t) * np.abs(y[1] - sp.y1(t))) <= 1e-13

    def test_saturation_flag(self):
        y = cf.bessel_y_all(80, 1e-3)
        saturated = np.abs(y) >= cf.SATURATION
        assert saturated[80] and not saturated[0]
        assert y[80] == -cf.SATURATION

    def test_domain_error(self):
        with pytest.raises(cf.DomainError):
            cf.bessel_y_all(0, 0.0)


class TestTinyArguments:
    """The Miller pass alone at t down to 1e-12, where trial values rescale often."""

    @staticmethod
    def _check(t, j, y):
        import scipy.special as sp
        ref = np.array([sp.jv(n, t) for n in range(61)])
        ok = np.abs(ref) > 1e-290
        assert np.max(np.abs(j - ref)[ok] / np.abs(ref)[ok]) <= 1e-12
        for got, want in ((y[0], sp.y0(t)), (y[1], sp.y1(t))):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    def test_tiny_against_scipy(self):
        t = np.geomspace(1e-12, 1e-6, 121)
        self._check(t, cf.bessel_j_all(60, t), cf.bessel_y_all(1, t))

    def test_tiny_mixed_with_large(self):
        # t = 30 deepens the start order for the whole call
        t = np.concatenate([np.geomspace(1e-12, 1e-6, 25), [30.0]])
        self._check(t, cf.bessel_j_all(60, t), cf.bessel_y_all(1, t))

    def test_argument_floor(self):
        assert jn(1, 1e-40) == pytest.approx(5e-41, rel=1e-12)
        with pytest.raises(cf.DomainError, match="1e-40"):
            cf.bessel_j_all(3, [0.0, 1e-41])
        with pytest.raises(cf.DomainError, match="1e-40"):
            cf.bessel_y_all(3, 1e-300)

    def test_argument_ceiling(self):
        # the Miller start order grows like t + 9 sqrt(t), so a call at t = 1e6
        # would take minutes: refused before any recurrence
        t = [1.0, 100.0 * cf.MAX_ARG]
        for fn in (cf.bessel_j_all, cf.bessel_y_all, cf.hankel1_all):
            with pytest.raises(cf.DomainError, match="<= 10000"):
                fn(2, t)


class TestHankel:
    def test_h0_at_1_series_oracle(self):
        want = complex(J0_AT_1, Y0_AT_1)
        assert hn(0, 1.0) == pytest.approx(want, rel=1e-9)
        assert want.real == pytest.approx(0.7651976866, abs=1e-9)
        assert want.imag == pytest.approx(0.0882569642, abs=1e-9)

    def test_negative_order_factor(self):
        import scipy.special as sp
        for n in (1, 2, 5):
            for t in (0.7, 4.0):
                got = signed(cf.hankel1_all(n, t), -n)
                assert got == pytest.approx(sp.hankel1(-n, t), rel=1e-9)

    def test_h1_equals_j_plus_iy(self):
        assert hn(4, 2.6) == complex(jn(4, 2.6), yn(4, 2.6))

    def test_modulus_nonincreasing(self):
        assert abs(hn(3, 2.0)) >= abs(hn(3, 5.0))
        t = np.linspace(0.5, 40.0, 200)
        for n in (0, 2, 7, 19):
            h = np.abs(cf.hankel1_all(n, t)[n])
            assert np.all(np.diff(h) <= 1e-12 * h[:-1])


class TestOnePass:
    """J and Y of a Hankel table come from one Miller pass."""

    @staticmethod
    def _count_passes(monkeypatch):
        calls = []
        miller = cf._bessel_j_miller

        def counting(*args, **kwargs):
            calls.append(args[0])
            return miller(*args, **kwargs)
        monkeypatch.setattr(cf, "_bessel_j_miller", counting)
        return calls

    def test_one_pass_per_hankel_table(self, monkeypatch):
        calls = self._count_passes(monkeypatch)
        cf.hankel1_all(12, np.linspace(0.5, 20.0, 40))
        cf.hankel1_all(0, 3.0)
        assert calls == [12, 0]

    def test_one_pass_per_oracle_boundary_factors(self, monkeypatch):
        from nearscat import forward as fw
        calls = self._count_passes(monkeypatch)
        for bc in ("soft", "hard"):
            for side in ("exterior", "interior"):
                fw._oracle_arrays(40, bc, side, 3.0, 1.0)
        assert calls == [40, 40, 41, 41]

    def test_order_zero_against_scipy(self):
        # Y_1 needs J_1, which an order-0 pass does not tabulate
        import scipy.special as sp
        t = np.geomspace(1e-12, 1e3, 3001)
        h = cf.hankel1_all(0, t)
        ref = sp.hankel1(0, t)
        assert h.shape == (1, t.size)
        assert np.max(np.abs(h[0] - ref) / np.abs(ref)) <= 1e-13

    def test_real_part_is_the_j_table(self):
        t = np.geomspace(1e-6, 150.0, 400)
        for n in (1, 2, 7, 40, 120):
            assert np.array_equal(cf.hankel1_all(n, t).real, cf.bessel_j_all(n, t))


class TestDerivatives:
    def test_h0_prime_is_minus_h1(self):
        assert h_deriv(0, 1.0) == -hn(1, 1.0)

    def test_hankel_finite_difference(self):
        fd = central_diff(lambda t: h1_series(2, t), 3.0, 1e-5)
        assert h_deriv(2, 3.0) == pytest.approx(fd, abs=1e-7)

    def test_hankel_wronskian_consistency(self):
        n, t = 4, 2.0
        h = hn(n, t)
        hp = h_deriv(n, t)
        want = 2.0 / (math.pi * t)
        assert (h.conjugate() * hp).imag == pytest.approx(want, rel=1e-9)

    def test_j0_prime_is_minus_j1(self):
        assert j_deriv(0, 2.0) == -jn(1, 2.0)

    def test_j_finite_difference(self):
        fd = central_diff(lambda t: j_series(3, t), 1.7, 1e-5)
        assert j_deriv(3, 1.7) == pytest.approx(fd, abs=1e-7)

    def test_j1_prime_at_zero(self):
        # the recurrence divides by t; its small-t limit is J_1'(0) = 1/2
        assert j_deriv(1, 1e-9) == pytest.approx(0.5, abs=1e-15)

    def test_hankel_deriv_domain(self):
        with pytest.raises(cf.DomainError):
            h_deriv(2, 0.0)

    def test_table_derivatives_match_scipy(self):
        # one recurrence, C_n' = n C_n / t - C_{n+1}, for J and H alike
        import scipy.special as sp
        t = np.geomspace(1e-3, 30.0, 120)
        jd = cf.derivative_all(cf.bessel_j_all(41, t), t)
        hd = cf.derivative_all(cf.hankel1_all(41, t), t)
        for n in range(41):
            assert np.abs(jd[n] - sp.jvp(n, t)).max() < 1e-10
            assert np.max(np.abs(hd[n] - sp.h1vp(n, t)) / np.abs(sp.h1vp(n, t))) < 1e-9


class TestIdentities:
    def test_wronskian_grid(self):
        t = np.linspace(0.1, 60.0, 240)
        j = cf.bessel_j_all(81, t)
        y = cf.bessel_y_all(81, t)
        w = j[1:] * y[:-1] - j[:-1] * y[1:]
        want = 2.0 / (math.pi * t)
        assert np.max(np.abs(w - want[None, :]) / want[None, :]) < 1e-9

    def test_recurrence_closure(self):
        t = np.linspace(0.2, 55.0, 97)
        j = cf.bessel_j_all(41, t)
        closure = j[0:39] + j[2:41] - (2.0 * np.arange(1, 40)[:, None] / t) * j[1:40]
        scale = np.abs(j[1:40])
        ok = scale > 1e-280
        assert np.max(np.abs(closure[ok]) / scale[ok]) < 1e-8

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=-80, max_value=79),
           t=st.floats(min_value=0.1, max_value=60.0))
    def test_wronskian_property(self, n, t):
        j, y = cf.bessel_j_all(81, t), cf.bessel_y_all(81, t)
        w = signed(j, n + 1) * signed(y, n) - signed(j, n) * signed(y, n + 1)
        assert w == pytest.approx(2.0 / (math.pi * t), rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=-80, max_value=80),
           t=st.floats(min_value=0.1, max_value=60.0))
    def test_symmetry_property(self, n, t):
        # signed-order J_n against scipy, to 1e-9 of the |H_n| envelope
        import scipy.special as sp
        got = signed(cf.bessel_j_all(80, t), n)
        assert abs(got - sp.jv(n, t)) <= 1e-9 * abs(sp.hankel1(n, t))


class TestEnvelopeBounds:
    def test_hankel_bound_examples(self):
        r = envelope.check_hankel_bounds(1.0, 40)
        assert r.n_start <= 3 and r.passed
        sub = r.ratios[(r.orders >= 3) & (r.orders <= 40)]
        assert np.all(sub >= 0.5) and np.all(sub <= math.e)

        r10 = envelope.check_hankel_bounds(10.0, 60)
        assert r10.n_start == 15 and r10.passed
        assert r10.upper == pytest.approx(math.exp(10.0))

    def test_hankel_bound_below_threshold_direct(self):
        # n = 2 sits under the lemma threshold at t = 0.5 but the ratio is
        # still above the lower envelope; checked against the series oracle.
        t = 0.5
        h2 = abs(h1_series(2, t))
        ratio = math.pi * t**2 * h2 / (3.0 * 2.0 * math.factorial(1))
        assert ratio >= 0.5

    def test_bessel_bound_examples(self):
        r = envelope.check_bessel_bounds(1.0, 40)
        assert r.n_start == 2 and r.passed
        assert r.min_ratio >= 1.0 / 6.0 and r.max_ratio <= 1.0

        r4 = envelope.check_bessel_bounds(4.0, 60)
        assert r4.n_start == 5 and r4.passed

    def test_bessel_ratio_tends_to_one(self):
        r = envelope.check_bessel_bounds(1.0, 40)
        assert r.ratios[-1] > 0.99

    def test_overflow_guard(self):
        with pytest.raises(envelope.OverflowGuardError):
            envelope.check_bessel_bounds(0.01, 200)
