import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_polytope import mathkit
from orlicz_polytope.errors import AccuracyError, DegenerateParameterError, DomainError, RangeError
from orlicz_polytope.mathkit import (
    SinCosParams,
    ball_volume,
    ball_volume_log,
    ball_volume_ratio,
    beta_tail,
    bracket,
    brent,
    quad_adaptive,
    quad_batch,
    quad_cumulative,
    sincos_identity_sides,
    sincos_recursion,
)

INF = math.inf


class TestBallVolume:
    def test_known_volumes(self):
        assert ball_volume(2.0, 2) == pytest.approx(math.pi, rel=1e-12)
        assert ball_volume(1.0, 2) == pytest.approx(2.0, rel=1e-12)
        assert ball_volume(INF, 3) == pytest.approx(8.0, rel=1e-12)

    def test_rejection_sampling_oracle(self):
        # |B_3^5| via hit rate of uniforms in [-1,1]^5
        rng = np.random.default_rng(20240811)
        hits = 0
        total = 10**7
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=(total // 10, 5))
            hits += int(np.sum(np.sum(np.abs(x) ** 3, axis=1) <= 1.0))
        mc = 2.0**5 * hits / total
        assert ball_volume(3.0, 5) == pytest.approx(mc, rel=0.01)

    def test_dimension_recursion(self):
        for p in (1.0, 1.7, 2.0, 4.0, 9.0):
            for n in (2, 5, 20, 100):
                lhs = ball_volume_log(p, n)
                rhs = (
                    ball_volume_log(p, n - 1)
                    + math.log(2.0)
                    + math.lgamma(1.0 + 1.0 / p)
                    + math.lgamma(1.0 + (n - 1.0) / p)
                    - math.lgamma(1.0 + n / p)
                )
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_ratio_values(self):
        assert ball_volume_ratio(INF, 7) == pytest.approx(0.5, rel=1e-12)
        assert ball_volume_ratio(2.0, 3) == pytest.approx(0.75, rel=1e-12)
        # order n^{1/p}: for p=1 the ratio is n/2
        assert 0.2 <= ball_volume_ratio(1.0, 50) / 50.0 <= 5.0

    def test_order_statement(self):
        # |B_p^n|^{1/n} * n^{1/p} stays in a fixed band; the limit for p=1
        # is 2e ~ 5.44, so the band upper end sits at 6
        for p in (1.0, 1.5, 2.0, 4.0, 8.0, INF):
            for n in range(2, 201):
                root = math.exp(ball_volume_log(p, n) / n)
                value = root * n ** (0.0 if math.isinf(p) else 1.0 / p)
                assert 0.5 <= value <= 6.0, (p, n, value)

    def test_domain(self):
        with pytest.raises(DomainError):
            ball_volume(0.5, 3)
        with pytest.raises(DomainError):
            ball_volume(2.0, 0)
        with pytest.raises(DomainError):
            ball_volume_ratio(2.0, 1)


def mp_beta_tail(alpha, b, log_x):
    """int_x^1 u^(alpha-1) (1-u)^(b-1) du at 120 digits, x = exp(log_x): the
    upper integral itself while 1 - x keeps 60 digits, else B less the lower."""
    with mpmath.workdps(120):
        log_x = mpmath.mpf(log_x)
        if log_x < -140:
            return float(mpmath.beta(alpha, b) - mpmath.betainc(alpha, b, 0, mpmath.exp(log_x)))
        return float(mpmath.betainc(b, alpha, 0, -mpmath.expm1(log_x)))


# criterion 2's grid; alpha = 1/p and 2/p, b = (n-1)/p + 1 are the shapes
# of the l_p coordinate law, and x = (s/R)^p
BETA_P = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0)
BETA_N = (2, 10, 30, 50)


class TestBetaTail:
    @pytest.mark.parametrize("p", BETA_P)
    @pytest.mark.parametrize("n", BETA_N)
    def test_criterion_2_grid(self, p, n):
        b = (n - 1) / p + 1.0
        for frac in np.linspace(0.05, 0.995, 8).tolist():
            for alpha in (1.0 / p, 2.0 / p):
                log_x = p * math.log(frac)
                assert beta_tail(alpha, b, log_x) == pytest.approx(mp_beta_tail(alpha, b, log_x), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", BETA_P)
    @pytest.mark.parametrize("n", BETA_N)
    def test_near_the_support_edge(self, p, n):
        b = (n - 1) / p + 1.0
        for frac in (0.999, 0.9999):
            for alpha in (1.0 / p, 2.0 / p):
                log_x = p * math.log(frac)
                assert beta_tail(alpha, b, log_x) == pytest.approx(mp_beta_tail(alpha, b, log_x), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("p", [1.0, 6.0, 50.0])
    def test_x_underflows_far_above_the_threshold(self, p):
        # t R = 1e300 puts x = (tR)^-p below the smallest double; log x does not
        b = 29.0 / p + 1.0
        for tr in (1e10, 1e100, 1e300):
            log_x = -p * math.log(tr)
            for alpha in (1.0 / p, 2.0 / p):
                got = beta_tail(alpha, b, log_x)
                assert math.isfinite(got)
                assert got == pytest.approx(mp_beta_tail(alpha, b, log_x), rel=1e-12, abs=0.0)
        full = float(mpmath.beta(1.0 / p, b))
        assert beta_tail(1.0 / p, b, -math.inf) == pytest.approx(full, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha, b", [(1.0, 50.0), (0.5, 15.5), (2.0 / 3.0, 10.0), (0.02, 1.02), (3.0, 3.0)])
    def test_reflection(self, alpha, b):
        # I_x(a, b) = 1 - I_{1-x}(b, a), i.e. the upper integrals from x and
        # from 1 - x with the shapes swapped add up to B(a, b)
        full = float(mpmath.beta(alpha, b))
        for x in (1e-12, 0.01, 0.2, 0.5, 0.7, 0.95, 0.9999):
            pair = beta_tail(alpha, b, math.log(x)) + beta_tail(b, alpha, math.log1p(-x))
            assert pair == pytest.approx(full, rel=1e-12, abs=0.0)

    def test_ends_and_domain(self):
        assert beta_tail(0.5, 3.0, 0.0) == 0.0
        for args in [(0.0, 1.0, -1.0), (1.0, -1.0, -1.0), (1.0, 1.0, 0.5), (1.0, 1.0, math.nan)]:
            with pytest.raises(DomainError):
                beta_tail(*args)


class TestQuadAdaptive:
    def test_constant_and_sine(self):
        assert quad_adaptive(lambda t: np.ones_like(t), 0, 1) == pytest.approx(1.0, abs=1e-12)
        assert quad_adaptive(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-10)

    def test_endpoint_singularity(self):
        got = quad_adaptive(lambda t: t**-0.5, 0.0, 1.0)
        assert got == pytest.approx(2.0, abs=1e-8)

    def test_deterministic(self):
        f = lambda t: np.exp(-t) * np.sin(7 * t)
        a = quad_adaptive(f, 0.0, 3.0)
        b = quad_adaptive(f, 0.0, 3.0)
        assert a == b  # bit-identical

    def test_depth_exhaustion_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(mathkit, "_MAX_DEPTH", 3)
        with pytest.raises(AccuracyError) as err:
            quad_adaptive(lambda t: t**-0.5, 0.0, 1.0, 1e-13)
        assert err.value.estimate == pytest.approx(2.0, rel=0.1)
        assert err.value.error_bound > 0

    def test_spec_validation(self):
        for quad in (quad_adaptive, quad_batch):
            with pytest.raises(DomainError, match="rel_tol must be positive"):
                quad(np.sin, 0.0, 1.0, 0.0)
            with pytest.raises(DomainError, match="lo <= hi"):
                quad(np.sin, 2.0, 1.0)
            with pytest.raises(DomainError, match="endpoints must be finite"):
                quad(np.sin, 0.0, math.inf)

    def test_one_integrand_call_per_bisection(self):
        # the first panel is one (1, 15) node row, and both halves of each
        # bisection are evaluated together as (2, 15)
        shapes = []

        def f(t):
            shapes.append(t.shape)
            return t**-0.5

        assert quad_adaptive(f, 0.0, 1.0) == pytest.approx(2.0, abs=1e-8)
        assert shapes[0] == (1, 15) and len(shapes) > 1
        assert set(shapes[1:]) == {(2, 15)}

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(
        coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=5),
        hi=st.floats(0.1, 4.0),
    )
    def test_polynomials_exact(self, coeffs, hi):
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(hi) - poly.integ()(0.0)
        got = quad_adaptive(lambda t: poly(t), 0.0, hi)
        assert got == pytest.approx(exact, rel=1e-9, abs=1e-9)

    def test_cumulative_matches_adaptive(self):
        pts = np.linspace(0.0, 2.0, 400)
        cums = quad_cumulative(lambda t: np.cos(t), pts)
        assert cums[-1] == pytest.approx(math.sin(2.0), rel=1e-12)
        mid = cums[200]
        assert mid == pytest.approx(math.sin(pts[200]), rel=1e-10)


class TestQuadBatch:
    LO = np.array([0.0, 0.25, 0.5, 0.0, 0.9])
    HI = np.array([1.0, 3.0, 0.5, 0.1, 1.0])
    INTEGRANDS = {
        "inverse-sqrt": lambda t: t**-0.5,
        "damped-sine": lambda t: np.exp(-t) * np.sin(7 * t),
        "sqrt-edge": lambda t: np.sqrt(np.maximum(1.0 - t, 0.0)),
    }
    ANTIDERIVATIVES = {
        "inverse-sqrt": lambda t: 2.0 * math.sqrt(t),
        "damped-sine": lambda t: -math.exp(-t) * (math.sin(7 * t) + 7 * math.cos(7 * t)) / 50.0,
        "sqrt-edge": lambda t: -2.0 / 3.0 * max(1.0 - t, 0.0) ** 1.5,
    }

    @pytest.mark.parametrize("name", sorted(INTEGRANDS))
    def test_matches_adaptive_within_spec(self, name):
        # both drivers share one panel rule, so only the exact integral can
        # catch a fault in it
        f, F = self.INTEGRANDS[name], self.ANTIDERIVATIVES[name]
        got = quad_batch(f, self.LO, self.HI, 1e-10)
        for a, b, v in zip(self.LO, self.HI, got):
            want = quad_adaptive(f, a, b, 1e-10)
            assert v == pytest.approx(want, rel=2e-10, abs=0.0)
            assert v == pytest.approx(F(b) - F(a), rel=1e-10, abs=0.0)
            assert want == pytest.approx(F(b) - F(a), rel=1e-10, abs=0.0)

    def test_inverse_sqrt_on_unit_interval(self):
        assert quad_batch(lambda t: t**-0.5, 0.0, 1.0)[0] == pytest.approx(2.0, abs=1e-8)

    def test_zero_width_gives_zero(self):
        calls = []

        def f(t):
            calls.append(t.shape)
            return np.ones_like(t)

        assert quad_batch(f, [0.5, 2.0], [0.5, 2.0]).tolist() == [0.0, 0.0]
        assert calls == []
        assert quad_batch(f, [0.5, 0.0], [0.5, 1.0]).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("name", sorted(INTEGRANDS))
    def test_entries_independent_of_batch(self, name):
        f = self.INTEGRANDS[name]
        got = quad_batch(f, self.LO, self.HI)
        assert np.array_equal(got, quad_batch(f, self.LO, self.HI))
        for a, b, v in zip(self.LO, self.HI, got):
            assert quad_batch(f, a, b)[0] == v
        order = np.argsort(self.HI - self.LO)
        assert np.array_equal(quad_batch(f, self.LO[order], self.HI[order]), got[order])

    def test_non_finite_integrand(self):
        with pytest.raises(DomainError):
            quad_batch(lambda t: np.where(t > 0.5, np.nan, 1.0), [0.0, 0.0], [0.4, 1.0])
        with pytest.raises(DomainError):
            quad_batch(lambda t: np.log(t - 0.3), 0.0, 1.0)

    def test_bad_intervals(self):
        with pytest.raises(DomainError):
            quad_batch(np.sin, [0.0, 2.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            quad_batch(np.sin, 0.0, math.inf)

    def test_depth_exhaustion_carries_estimate(self, monkeypatch):
        monkeypatch.setattr(mathkit, "_MAX_DEPTH", 3)
        with pytest.raises(AccuracyError) as err:
            quad_batch(lambda t: t**-0.5, [0.5, 0.0], [1.0, 1.0], 1e-13)
        assert err.value.estimate == pytest.approx(2.0, rel=0.1)
        assert err.value.error_bound > 0


class TestBracket:
    def test_doubles_up_without_rereading(self):
        seen = []
        gap = lambda x: seen.append(x) or 5.0 - x
        assert bracket(gap, 1.0, 1e6) == (4.0, 8.0, 1.0, -3.0)
        assert seen == [1.0, 2.0, 4.0, 8.0]  # the last hi above 0 is lo, unread again

    def test_halves_down_keeping_ref(self):
        seen = []
        gap = lambda x: seen.append(x) or 0.3 - x
        assert bracket(gap, 1.0, 1e6) == (0.25, 1.0, 0.3 - 0.25, 0.3 - 1.0)
        assert seen == [1.0, 0.5, 0.25]

    def test_root_at_ref(self):
        assert bracket(lambda x: 3.0 - x, 3.0, 10.0) == (1.5, 3.0, 1.5, 0.0)

    def test_range_errors(self):
        with pytest.raises(RangeError, match=r"above the search range \[0.001, 1000\]"):
            bracket(lambda x: 1.0, 1.0, 1e3)
        with pytest.raises(RangeError, match=r"below the search range \[0.001, 1000\]"):
            bracket(lambda x: -1.0, 1.0, 1e3)
        # at limit 1e3 the last steps stop at the range's ends, 1000 and 0.001,
        # so a crossing between 2^9 and 1000 (or 0.001 and 2^-9) is bracketed,
        # and one past them raises only once that end has been read
        assert bracket(lambda x: 600.0 - x, 1.0, 1e3) == (512.0, 1000.0, 88.0, -400.0)
        assert bracket(lambda x: 0.0015 - x, 1.0, 1e3)[:2] == (0.001, 1.0)
        seen = []
        with pytest.raises(RangeError, match="above"):
            bracket(lambda x: seen.append(x) or 1200.0 - x, 1.0, 1e3)
        assert seen[-2:] == [512.0, 1000.0]
        seen.clear()
        with pytest.raises(RangeError, match="below"):
            bracket(lambda x: seen.append(x) or 0.0008 - x, 1.0, 1e3)
        assert seen[-2:] == [2.0**-9, 0.001]
        assert bracket(lambda x: 500.0 - x, 1.0, 1e3)[:2] == (256.0, 512.0)

    def test_nan_gap_counts_as_above_zero(self):
        with pytest.raises(RangeError, match="above the search range"):
            bracket(lambda x: math.nan, 1.0, 1e3)

    @pytest.mark.parametrize("ref, limit", [(0.0, 10.0), (-1.0, 10.0), (math.inf, 10.0), (math.nan, 10.0), (1.0, 1.0)])
    def test_refuses_bad_ref_and_limit(self, ref, limit):
        with pytest.raises(DomainError):
            bracket(lambda x: 1.0 - x, ref, limit)


class TestBrent:
    @staticmethod
    def solve(gap, lo, hi, rel_tol):
        seen = []

        def counted(x):
            seen.append(x)
            return gap(x)

        return brent(counted, lo, hi, gap(lo), gap(hi), rel_tol), seen

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-14])
    def test_invariant_and_width(self, rel_tol):
        (lo, hi), seen = self.solve(lambda x: 2.0 - x * x, 0.0, 10.0, rel_tol)
        assert 2.0 - lo * lo > 0.0 >= 2.0 - hi * hi
        assert hi - lo <= rel_tol * hi
        assert all(0.0 < x < 10.0 for x in seen)  # the ends are never read again
        assert len(seen) <= 12  # halving [0, 10] to 1e-14 takes 50 reads

    def test_exact_zero_is_returned(self):
        # the secant through (0, 0.75) and (1, -0.25) lands on the root
        (lo, hi), seen = self.solve(lambda x: 0.75 - x, 0.0, 1.0, 1e-12)
        assert (lo, hi) == (0.75, 0.75)
        assert seen == [0.75]
        assert brent(lambda x: 1.0 - x, 0.5, 1.0, 0.5, 0.0, 1e-12) == (1.0, 1.0)

    def test_stops_at_adjacent_floats(self):
        # sqrt(2) has no double, and no double squares to 2 exactly
        (lo, hi), _ = self.solve(lambda x: 2.0 - x * x, 1.0, 2.0, 0.0)
        assert hi == np.nextafter(lo, 2.0)
        assert 2.0 - lo * lo > 0.0 >= 2.0 - hi * hi

    def test_flat_gap_falls_back_to_halving(self):
        # a gap flat on both sides of a jump gives interpolation nothing to
        # use: every step halves, read for read
        (lo, hi), seen = self.solve(lambda x: 1.0 if x < math.pi else -1.0, 0.0, 8.0, 1e-9)
        halved, a, b = [], 0.0, 8.0
        while b - a > 1e-9 * b:
            halved.append(0.5 * (a + b))
            a, b = (a, halved[-1]) if halved[-1] >= math.pi else (halved[-1], b)
        assert (lo, hi) == (a, b)
        assert seen == halved
        assert lo < math.pi <= hi and hi - lo <= 1e-9 * hi


class TestSinCosRecursion:
    def test_depth_zero_example(self):
        # alpha=2, beta=0, upper=pi/4: T_1 + R_0 * int sin^4 == int sin^2 = pi/8 - 1/4
        terms, coeff = sincos_recursion(SinCosParams(2.0, 0.0, math.pi / 4, 0))
        remainder = quad_adaptive(lambda t: np.sin(t) ** 4, 0.0, math.pi / 4)
        assert sum(terms) + coeff * remainder == pytest.approx(math.pi / 8 - 0.25, abs=1e-10)

    def test_depth_two_vs_quadrature(self):
        upper = math.pi / 3
        terms, coeff = sincos_recursion(SinCosParams(1.0, 1.0, upper, 2))
        lhs = quad_adaptive(lambda t: np.sin(t) * np.cos(t), 0.0, upper)
        remainder = quad_adaptive(lambda t: np.sin(t) ** 7 * np.cos(t), 0.0, upper)
        assert sum(terms) + coeff * remainder == pytest.approx(lhs, abs=1e-10)

    def test_upper_zero(self):
        terms, coeff = sincos_recursion(SinCosParams(2.5, 1.5, 0.0, 4))
        assert terms == [0.0] * 5
        assert math.isfinite(coeff)

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateParameterError):
            sincos_recursion(SinCosParams(-3.0, 0.0, 0.5, 1))
        with pytest.raises(DegenerateParameterError):
            sincos_recursion(SinCosParams(2.0, -1.0, 0.5, 0))

    def test_params_validation(self):
        with pytest.raises(DomainError):
            SinCosParams(1.0, 1.0, math.pi / 2, 0)
        with pytest.raises(DomainError):
            SinCosParams(1.0, 1.0, -0.1, 0)
        with pytest.raises(DomainError):
            SinCosParams(1.0, 1.0, 0.5, -1)

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        alpha=st.floats(0.05, 25.0),
        beta=st.floats(-0.85, 20.0),
        upper=st.floats(0.0, 1.55),
        k=st.integers(0, 20),
    )
    def test_identity_property(self, alpha, beta, upper, k):
        lhs, rhs = sincos_identity_sides(SinCosParams(alpha, beta, upper, k))
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
