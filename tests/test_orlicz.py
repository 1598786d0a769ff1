import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_polytope import orlicz
from orlicz_polytope.bodies import (
    BodySpec,
    Direction,
    coordinate_marginal,
    derive_seed,
    normalization_scale,
    project_uniform,
    sample_sphere,
)
from orlicz_polytope.errors import DomainError, EstimationError, RangeError
from orlicz_polytope.mathkit import bracket, brent, quad_adaptive
from orlicz_polytope.orlicz import (
    OrliczFunction,
    dual_involution_error,
    empirical_roots,
    from_cube,
    from_coordinate,
    from_empirical,
    from_pball,
    from_power,
    from_spherical,
    from_tail,
    invert_for_support,
    legendre_dual,
    m_from_tail,
    m_from_tail_alt,
    m_pball_first,
    m_pball_second,
    m_spherical,
    spherical_prefactor,
    export_tabulation,
)

INF = math.inf


def cube_inversion_formula(N):
    return (1.0 + 1.0 / N - math.sqrt(2.0 / N + 1.0 / N**2)) / 2.0


def uniform_marginal():
    return coordinate_marginal(BodySpec(INF, 1))


def counted(M, seen):
    """M with every t it is evaluated at appended to seen."""

    def ev(t):
        seen.append(t)
        return M.eval(t)

    return OrliczFunction(ev, M.zero_threshold, M.kind)


CONSTRUCTORS = {
    "power": lambda: from_power(1.5),
    "cube": from_cube,
    "pball": lambda: from_pball(2.0, 5),
    "tail": lambda: from_tail(coordinate_marginal(BodySpec(3.0, 10))),
    "coordinate": lambda: from_coordinate(BodySpec(3.0, 10)),
    "empirical": lambda: from_empirical([0.5, 1.0, 2.0]),
    "spherical": lambda: from_spherical(5),
}


class TestTailIntegral:
    def test_zero_below_threshold(self):
        marg = uniform_marginal()
        assert m_from_tail(marg, 0.0) == 0.0
        assert m_from_tail(marg, 1.9) == 0.0
        assert m_from_tail_alt(marg, 0.0) == 0.0

    def test_uniform_hand_value(self):
        # for the uniform law on [-1/2, 1/2]: M(s) = s/4 + 1/s - 1 past s = 2,
        # so M(4) = 1/4 (the tail moment integrates both tails)
        marg = uniform_marginal()
        assert m_from_tail(marg, 4.0) == pytest.approx(0.25, abs=1e-10)
        assert m_from_tail_alt(marg, 4.0) == pytest.approx(0.25, abs=1e-8)

    def test_alt_matches_primary_on_random_bodies(self):
        rng = np.random.default_rng(99)
        for _ in range(12):
            p = float(rng.uniform(1.0, 6.0))
            n = int(rng.integers(2, 20))
            body = BodySpec(p, n)
            marg = coordinate_marginal(body)
            s = 1.0 / (float(rng.uniform(0.3, 0.95)) * normalization_scale(body))
            a = m_from_tail(marg, s)
            b = m_from_tail_alt(marg, s)
            assert b == pytest.approx(a, rel=1e-8)


class TestStopLoss:
    """from_tail on density marginals is the single stop-loss quadrature;
    the defining double integral and closed form 1 are its oracles, over
    the s/R range where the estimator's inversions land (0.105-0.98)."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("n", [10, 30])
    def test_operating_range(self, p, n):
        body = BodySpec(p, n)
        marg = coordinate_marginal(body)
        M = from_tail(marg)
        assert M.kind == "tail-integral"
        radius = normalization_scale(body)
        for frac in (0.1, 0.3, 0.6, 0.98):
            s = frac * radius
            got = M.eval(1.0 / s)
            assert got == pytest.approx(m_from_tail(marg, 1.0 / s), rel=1e-8)
            assert got == pytest.approx(m_pball_first(p, n, s), rel=1e-8)

    def test_zero_at_and_below_threshold(self):
        marg = coordinate_marginal(BodySpec(3.0, 10))
        M = from_tail(marg)
        assert M.eval(M.zero_threshold) == 0.0
        assert M.eval(0.5 * M.zero_threshold) == 0.0
        assert M.eval(0.0) == 0.0
        assert M.eval(1.001 * M.zero_threshold) > 0.0
        with pytest.raises(DomainError):
            M.eval(-1.0)


def mp_coordinate_m(body, t):
    """M(t) of the coordinate law (|X_1|/R)^p ~ Beta(1/p, b) at 120 digits,
    at the double tR that from_coordinate reads: [tR J(2/p) - J(1/p)] /
    B(1/p, b), J(alpha) the integral of u^(alpha-1) (1-u)^(b-1) over [x, 1],
    x = (tR)^-p."""
    with mpmath.workdps(120):
        p = mpmath.mpf(body.p)
        b = (body.n - 1) / p + 1
        tr = mpmath.mpf(t * normalization_scale(body))
        y = 1 - tr ** -p
        upper = lambda alpha: mpmath.betainc(b, alpha, 0, y)
        return float((tr * upper(2 / p) - upper(1 / p)) / mpmath.beta(1 / p, b))


class TestCoordinate:
    """from_coordinate, the production M of the coordinate law: the
    incomplete beta away from the support edge, one series in 1 - x near it."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 50.0])
    @pytest.mark.parametrize("n", [2, 10, 30, 50])
    def test_against_120_digits(self, p, n):
        body = BodySpec(p, n)
        M = from_coordinate(body)
        assert M.kind == "incomplete-beta"
        radius = normalization_scale(body)
        switch = 0.75 ** (1.0 / p)  # s/R where 1 - x = 1/4, the series' edge
        for frac in (0.05, 0.3, 0.6, 0.9, 0.99, 0.999, 0.9999, switch * (1 - 1e-12), switch * (1 + 1e-12)):
            t = 1.0 / (frac * radius)
            # measured: at most 7.8e-13; the two incomplete betas alone, without
            # the series, read 6.7e-9 at s/R = 0.9999
            assert M.eval(t) == pytest.approx(mp_coordinate_m(body, t), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("p", [1.5, 6.0])
    def test_matches_the_stop_loss_quadrature(self, p):
        body = BodySpec(p, 10)
        M, oracle = from_coordinate(body), from_tail(coordinate_marginal(body))
        assert M.zero_threshold == oracle.zero_threshold
        for t in M.zero_threshold * np.array([0.5, 1.0, 1.001, 1.1, 2.0, 10.0, 1e3, 1e6]):
            assert M.eval(float(t)) == pytest.approx(oracle.eval(float(t)), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("body", [BodySpec(INF, 5), BodySpec(3.0, 1)])
    def test_uniform_law_is_the_cube(self, body):
        M = from_coordinate(body)
        assert M.kind == from_cube().kind and M.zero_threshold == 2.0
        for t in (1.0, 2.5, 40.0):
            assert M.eval(t) == from_cube().eval(t)


class TestCoordinateRoot:
    """orlicz._coordinate_root, the production root of the coordinate law:
    Newton steps on log(N M(1/s)) against log s, M and M' read together."""

    @staticmethod
    def gap(body, N, s):
        # the root's own reading of M: from_coordinate's M bit for bit
        # (test_reader_is_from_coordinate)
        read, _ = orlicz._coordinate_reader(body)
        return N * read(1.0 / s)[0] - 1.0

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 50.0])
    @pytest.mark.parametrize("n", [2, 10, 30])
    def test_matches_the_generic_search(self, p, n):
        body = BodySpec(p, n)
        M = from_coordinate(body)
        for N in (1, 2, 100, 10**4, 10**6):
            assert orlicz._coordinate_root(body, N) == pytest.approx(invert_for_support(M, N), rel=2e-9)

    @pytest.mark.parametrize("body", [BodySpec(INF, 1), BodySpec(INF, 30), BodySpec(1.5, 1)])
    def test_cube_formula(self, body):
        for N in (1, 2, 10, 10**3, 10**6, 10**12):
            assert orlicz._coordinate_root(body, N) == pytest.approx(cube_inversion_formula(N), rel=2e-9)

    @pytest.mark.parametrize("body", [BodySpec(1.0, 10), BodySpec(4.0, 30), BodySpec(50.0, 2)])
    def test_reader_is_from_coordinate(self, body):
        read, radius = orlicz._coordinate_reader(body)
        M = from_coordinate(body)
        assert radius == normalization_scale(body)
        switch = 0.75 ** (1.0 / body.p)  # s/R where the series takes over
        for frac in (0.05, 0.3, 0.6, 0.9, 0.999, switch * (1 - 1e-9), switch * (1 + 1e-9)):
            t = 1.0 / (frac * radius)
            m, slope = read(t)
            assert m == M.eval(t)
            h = 1e-6 * t  # M' is the slope of M: a central difference
            assert slope == pytest.approx((M.eval(t + h) - M.eval(t - h)) / (2 * h), rel=1e-7)
        assert read(0.5 / radius) == read(1.0 / radius) == (0.0, 0.0)

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(
        p=st.floats(1.0, 16.0) | st.just(INF),
        n=st.integers(1, 10**4),
        N=st.integers(1, 10**12),
    )
    def test_log_gap_bounds_the_error(self, p, n, N):
        # the slope of log(N M(1/s)) against log s is at most -1, so a read
        # within 1e-9 of log 1 is within about 1e-9 of the root, relative
        body = BodySpec(p, n)
        s = orlicz._coordinate_root(body, N)
        assert abs(math.log1p(self.gap(body, N, s))) <= 1e-9
        assert self.gap(body, N, s * (1 - 2e-9)) > 0 > self.gap(body, N, s * (1 + 2e-9))

    @staticmethod
    def count_reads(monkeypatch):
        """A list that gains one entry per read of every reader built after
        this call."""
        reads = []
        reader = orlicz._coordinate_reader

        def counting(body):
            read, radius = reader(body)
            return (lambda t: reads.append(t) or read(t)), radius

        monkeypatch.setattr(orlicz, "_coordinate_reader", counting)
        return reads

    def test_m_reads_on_canonical_cells(self, monkeypatch):
        # the 70 canonical cells of the orlicz-grid benchmark; the generic
        # search reads M 970 times on them (TestInversion)
        reads = self.count_reads(monkeypatch)
        for p in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, INF):
            for n in (10, 30):
                for N in (10**2, 10**3, 10**4, 10**5, 10**6):
                    orlicz._coordinate_root(BodySpec(p, n), N)
        assert len(reads) <= 485  # measured: 311, at most 6 for one root

    @pytest.mark.parametrize("body", [BodySpec(INF, 5), BodySpec(2.0, 2), BodySpec(4.0, 2), BodySpec(16.0, 3)])
    def test_roots_near_the_support_radius(self, body, monkeypatch):
        # at N = 1e12 these roots lie within 3e-5 of R, where Newton in log s
        # landed on M's flat part and took 18-22 reads, against at most 12 on
        # the canonical cells above
        reads = self.count_reads(monkeypatch)
        s = orlicz._coordinate_root(body, 10**12)
        assert 1.0 - s / normalization_scale(body) < 3e-5
        assert len(reads) <= 12  # measured: 3 to 4


class TestClosedForms:
    def test_support_guards(self):
        body = BodySpec(2.0, 4)
        radius = normalization_scale(body)
        assert m_pball_first(2.0, 4, radius) == 0.0
        assert m_pball_first(2.0, 4, radius * 1.5) == 0.0
        assert m_pball_second(2.0, 4, radius) == 0.0
        with pytest.raises(DomainError):
            m_pball_first(INF, 4, 0.1)
        with pytest.raises(DomainError):
            m_pball_first(2.0, 4, 0.0)

    def test_disk_against_tail_integral(self):
        body = BodySpec(2.0, 2)
        radius = normalization_scale(body)
        marg = coordinate_marginal(body)
        for frac in (0.2, 0.4, 0.55):
            s = frac * radius
            want = m_from_tail(marg, 1.0 / s)
            assert m_pball_first(2.0, 2, s) == pytest.approx(want, rel=1e-7)
            assert m_pball_second(2.0, 2, s) == pytest.approx(want, rel=1e-7)

    def test_p3_n6_against_tail_integral(self):
        body = BodySpec(3.0, 6)
        s = 0.5 * normalization_scale(body)
        want = m_from_tail(coordinate_marginal(body), 1.0 / s)
        assert m_pball_first(3.0, 6, s) == pytest.approx(want, rel=1e-7)
        assert m_pball_second(3.0, 6, s) == pytest.approx(want, rel=1e-7)

    @pytest.mark.parametrize("n, frac", [(10, 0.05), (30, 0.1), (10, 0.29)])
    def test_second_form_refused_below_band(self, n, frac):
        s = frac * normalization_scale(BodySpec(6.0, n))
        with pytest.raises(DomainError):
            m_pball_second(6.0, n, s)

    @pytest.mark.parametrize("n", [3, 12])
    def test_p1_explicit_formula(self, n):
        # for p=1 only the closed leading term survives:
        # M(1/s) = 2/(n(n+1)) * ratio * (1 - s c)^{n+1} / (s c), c = |B_1^n|^{1/n}
        from orlicz_polytope.mathkit import ball_volume_ratio

        body = BodySpec(1.0, n)
        radius = normalization_scale(body)
        c = 1.0 / radius
        for frac in (0.35, 0.6, 0.85):
            s = frac * radius
            want = (
                2.0 / (n * (n + 1.0))
                * ball_volume_ratio(1.0, n)
                * (1.0 - s * c) ** (n + 1)
                / (s * c)
            )
            assert m_pball_second(1.0, n, s) == pytest.approx(want, rel=1e-12)
            assert m_pball_first(1.0, n, s) == pytest.approx(want, rel=1e-9)


    @pytest.mark.parametrize("gap", [1e-6, 1e-9])
    def test_cube_near_its_threshold(self, gap):
        # t/4 + 1/t - 1 in exact arithmetic on the float t; evaluated in
        # floats that form erred by 8.9e-5 and 1.0 relative here
        t = 2.0 + gap
        x = Fraction(t)
        assert from_cube().eval(t) == pytest.approx(float(x / 4 + 1 / x - 1), rel=1e-15, abs=0.0)


class TestSpherical:
    def test_zero_at_one(self):
        assert m_spherical(5, 1.0) == 0.0
        assert m_spherical(5, 0.5) == 0.0

    def test_n2_antiderivative(self):
        # int sin^2/cos^2 = tan(y) - y
        want = (2.0 / math.pi) * (math.sqrt(3.0) - math.pi / 3.0)
        assert m_spherical(2, 2.0) == pytest.approx(want, rel=1e-12)

    def test_t_form_cross_representation(self):
        for n, s in ((3, 1.7), (5, 3.0), (12, 4.0)):
            t_form = spherical_prefactor(n) * quad_adaptive(
                lambda t: np.exp(((n - 1) / 2.0) * np.log1p(-1.0 / t**2)), 1.0, s, 1e-11
            )
            assert m_spherical(n, s) == pytest.approx(t_form, rel=1e-9)

    def test_sphere_sample_oracle(self):
        # the law of |<theta, e_1>| drives the empirical tail integral
        n, s = 5, 3.0
        coords = np.abs(sample_sphere(n, 10**6, derive_seed(3, "sph"))[:, 0])
        emp = from_empirical(coords).eval(s)
        want = m_spherical(n, s)
        # the empirical M is a mean of iid terms; bound its deviation
        terms = np.maximum(coords * s - 1.0, 0.0)  # psi(v) = (sv - 1)+ for the tail integral
        se = float(terms.std(ddof=1)) / math.sqrt(coords.size)
        assert abs(emp - want) <= 4 * se + 1e-6


class TestEmpirical:
    def test_point_mass(self):
        M = from_empirical([2.0])
        assert M.eval(0.4) == 0.0
        assert M.eval(3.0) == pytest.approx(2.0 * (3.0 - 0.5), rel=1e-14)

    def test_uniform_limit(self):
        rng = np.random.default_rng(2024)
        proj = np.abs(rng.random(10**6) - 0.5)
        assert from_empirical(proj).eval(4.0) == pytest.approx(0.25, abs=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            from_empirical([])

    def test_convergence_to_tail_integral(self):
        body = BodySpec(2.0, 10)
        marg = coordinate_marginal(body)
        radius = normalization_scale(body)
        ss = np.linspace(1.05 / radius, 4.0 / radius, 20)
        want = np.array([m_from_tail(marg, float(s)) for s in ss])

        def sup_err(k, seed):
            proj = np.abs(project_uniform(body, Direction.canonical(10, 0), 10**k, seed))
            M = from_empirical(proj)
            got = np.array([M.eval(float(s)) for s in ss])
            return float(np.max(np.abs(got - want)))

        err3 = sup_err(3, derive_seed(1, "emp", 3))
        err6 = sup_err(6, derive_seed(1, "emp", 6))
        assert err6 < 5e-3
        assert err6 < err3


class TestEmpiricalRoots:
    """The closed-form root against the bisection of the empirical M."""

    @staticmethod
    def assert_matches_bisection(rows, N):
        got = empirical_roots(rows, N)
        want = np.array([invert_for_support(from_empirical(row), N) for row in rows])
        assert np.all(np.abs(got - want) <= 1e-9 * want)
        return got

    @pytest.mark.parametrize("N", [1, 2, 10**3, 10**6])
    def test_matches_bisection(self, N):
        # K = 1e4 atoms per row, so N = 1e6 puts the level below one atom
        rng = np.random.default_rng(N)
        rows = np.vstack([rng.normal(size=10**4), rng.random(10**4) - 0.5, rng.laplace(size=10**4)])
        self.assert_matches_bisection(rows, N)

    def test_all_equal_atoms(self):
        # every atom lies above the root: k = K, s = K c / (K + K/N)
        rows = np.full((2, 10**4), 0.75)
        got = self.assert_matches_bisection(rows, 10**3)
        assert got == pytest.approx(0.75 * 10**3 / (10**3 + 1), rel=1e-15)

    @pytest.mark.parametrize("N", [3, 100, 10**4])
    def test_tied_and_zero_atoms(self, N):
        rng = np.random.default_rng(7)
        rows = rng.integers(-3, 4, size=(4, 10**4)).astype(float)
        rows[1, : 9 * 10**3] = 0.0
        self.assert_matches_bisection(rows, N)

    def test_rows_that_widen_the_top_atoms(self):
        # a uniform row's root has k above the starting L = 16 K/N + 64,
        # so it is solved in a later round than the normal rows of its block
        rng = np.random.default_rng(11)
        K, N = 10**4, 10**3
        rows = np.vstack([rng.normal(size=K), rng.random(K), rng.normal(size=K), np.full(K, 2.0)])
        got = self.assert_matches_bisection(rows, N)
        above = np.sum(np.abs(rows) > got[:, None], axis=1)
        assert above[0] < 16 * K // N + 64 < above[1]

    def test_refusals(self):
        with pytest.raises(EstimationError):
            empirical_roots(np.zeros((2, 10)), 10)
        with pytest.raises(DomainError):
            empirical_roots(np.ones((2, 10)), 0)
        with pytest.raises(DomainError):
            empirical_roots([], 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_atoms_refused(self, bad):
        # a NaN atom would widen the top atoms forever (below <= best never
        # holds), and an infinite one would give an infinite root
        row = np.random.default_rng(3).normal(size=1000)
        row[417] = bad
        with pytest.raises(DomainError, match="atoms must be finite"):
            empirical_roots(np.vstack([np.ones(1000), row]), 100)


class TestLegendre:
    def test_power_duals(self):
        dual = legendre_dual(from_power(2.0, 0.5), 60.0)  # M = t^2/2
        for x in (0.2, 1.0, 3.0):
            assert dual.eval(x) == pytest.approx(x**2 / 2.0, abs=1e-8)
        dual3 = legendre_dual(from_power(3.0, 1.0 / 3.0), 60.0)  # M = t^3/3
        for x in (0.5, 2.0):
            assert dual3.eval(x) == pytest.approx((2.0 / 3.0) * x**1.5, abs=1e-6)
        assert dual.eval(0.0) == 0.0
        # the chord slope at grid_max stays below x: the maximiser is grid_max
        assert dual.eval(1e3) == pytest.approx(1e3 * 60.0 - 1800.0, rel=1e-12)

    def test_involution(self):
        for M in (from_power(1.5), from_power(2.0), from_pball(2.0, 5)):
            assert dual_involution_error(M, np.linspace(0.05, 2.0, 9)) <= 1e-6

    @pytest.mark.parametrize("M", [from_power(2.0), from_pball(2.0, 5)], ids=["power", "pball"])
    @pytest.mark.parametrize("x", [0.0, 0.1, 0.3, 1.0, 1e3])
    def test_dual_evaluation_cost(self, M, x):
        # x = 0 puts the maximiser at 0 and x = 1e3 at grid_max; 0.1 is inside
        # for both functions, 0.3 and 1 only for the power (M' <= 0.23 for pball)
        calls = [0]

        def counted(t):
            calls[0] += 1
            return M.eval(t)

        dual = legendre_dual(OrliczFunction(counted, M.zero_threshold, M.kind), 20.0)
        calls[0] = 0
        dual.eval(x)
        assert calls[0] <= 70

    def test_rejects_nonconvex(self):
        bumpy = OrliczFunction(eval=lambda t: math.sqrt(t), zero_threshold=0.0, kind="power")
        with pytest.raises(DomainError):
            legendre_dual(bumpy, 10.0)

    def test_involution_read_budget(self):
        # an evaluation reads M only in its brent steps and at its maximiser;
        # the values at the window's ends, and the one probe of the zero
        # threshold, are read once per dual
        seen = []
        dual_involution_error(counted(from_pball(2.0, 5), seen), np.linspace(0.05, 2.0, 8))
        assert len(seen) <= 1714

    @pytest.mark.parametrize("grid_max", [math.inf, -math.inf, math.nan, 0.0])
    def test_rejects_nonfinite_window(self, grid_max):
        with pytest.raises(DomainError):
            legendre_dual(from_power(2.0), grid_max)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -1.0])
    def test_dual_rejects_nonfinite_and_negative_x(self, x):
        dual = legendre_dual(from_power(2.0), 20.0)
        with pytest.raises(DomainError):
            dual.eval(x)

    def test_involution_rejects_empty_grid(self):
        with pytest.raises(DomainError):
            dual_involution_error(from_power(2.0), [])


class TestDomain:
    @pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
    @pytest.mark.parametrize("t", [-1.0, -1e-300, math.nan])
    def test_negative_and_nan_t_refused(self, name, t):
        M = CONSTRUCTORS[name]()
        with pytest.raises(DomainError, match="M is defined for t >= 0"):
            M.eval(t)
        assert M.eval(0.0) == 0.0

    @pytest.mark.parametrize(
        "exponent, coeff",
        [(math.nan, 1.0), (math.inf, 1.0), (0.5, 1.0), (2.0, math.nan), (2.0, math.inf), (2.0, 0.0), (2.0, -1.0)],
    )
    def test_power_parameters_refused(self, exponent, coeff):
        with pytest.raises(DomainError, match="power Orlicz functions need 1 <= exponent < inf and 0 < coeff < inf"):
            from_power(exponent, coeff)


class TestInversion:
    def test_cube_formula(self):
        M = from_cube()
        for N in (2, 10):
            assert invert_for_support(M, N) == pytest.approx(cube_inversion_formula(N), rel=1e-8)

    def test_power(self):
        assert invert_for_support(from_power(2.0), 4) == pytest.approx(2.0, rel=1e-9)

    def test_monotone_in_N(self):
        functions = [
            from_cube(),
            from_pball(1.0, 8),
            from_pball(2.0, 8),
            from_empirical(np.abs(np.random.default_rng(5).normal(size=2000))),
        ]
        for M in functions:
            values = [invert_for_support(M, N) for N in (2, 10, 100, 1000, 10000)]
            assert all(b >= a * (1 - 1e-12) for a, b in zip(values, values[1:]))

    def test_range_error(self):
        stuck = OrliczFunction(eval=lambda t: 1e9 if t > 0 else 0.0, zero_threshold=0.0, kind="power")
        with pytest.raises(RangeError, match="above the search range"):
            invert_for_support(stuck, 2)

    def test_range_error_when_level_never_reached(self):
        # M saturates at 1e-3 < 1/N: no s has M(1/s) > 1/N
        capped = OrliczFunction(
            eval=lambda t: min(t - 1.0, 1e-3) if t > 1.0 else 0.0, zero_threshold=1.0, kind="power"
        )
        with pytest.raises(RangeError, match="below the search range"):
            invert_for_support(capped, 10)

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(
        kind=st.sampled_from(["power", "pball", "empirical"]),
        shape=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]),
        n=st.integers(2, 30),
        atoms=st.integers(1, 5000),
        N=st.sampled_from([1, 2, 10, 10**3, 10**6]) | st.integers(1, 10**6),
    )
    def test_search_straddles_the_level(self, kind, shape, n, atoms, N):
        if kind == "power":
            M = from_power(shape, 0.25)  # root (N / 4)^(1 / shape) stays inside the bracket limit
        elif kind == "pball":
            M = from_pball(shape, n)
        else:
            v = np.random.default_rng(atoms).laplace(size=atoms)
            M = from_empirical(v)
        gap = lambda s: N * M.eval(1.0 / s) - 1.0  # the gap invert_for_support searches
        ref = 1.0 / M.zero_threshold if M.zero_threshold > 0 else 1.0
        lo, hi = brent(gap, *bracket(gap, ref, orlicz.BRACKET_LIMIT), 1e-9)
        if lo == hi:
            assert gap(hi) == 0.0
        else:
            assert gap(lo) > 0.0 >= gap(hi)
            assert hi - lo <= 1e-9 * hi
        assert invert_for_support(M, N) == hi
        if kind == "empirical":
            assert abs(hi - empirical_roots(v, N)[0]) <= 1e-9 * hi

    def test_m_reads_on_canonical_cells(self):
        # the 70 canonical cells of the orlicz-grid benchmark, through the
        # stop-loss quadrature and the production M; halving the bracket to
        # the same width read M 2274 times (32.5 per inversion)
        for make in (lambda body: from_tail(coordinate_marginal(body)), from_coordinate):
            reads = 0
            for p in (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, INF):
                for n in (10, 30):
                    seen = []
                    M = counted(make(BodySpec(p, n)), seen)
                    for N in (10**2, 10**3, 10**4, 10**5, 10**6):
                        invert_for_support(M, N)
                    reads += len(seen)
            assert reads <= 971  # measured: 971 and 970, 13.9 reads per inversion

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_degenerate_threshold(self, p, n):
        M = from_pball(p, n)
        assert M.zero_threshold == pytest.approx(1.0 / normalization_scale(BodySpec(p, n)), rel=1e-12)
        assert M.eval(0.999 * M.zero_threshold) == 0.0
        assert M.eval(1.001 * M.zero_threshold) > 0.0

    def test_spherical_threshold(self):
        M = from_spherical(6)
        assert M.zero_threshold == 1.0
        assert M.eval(0.999) == 0.0
        assert M.eval(1.001) > 0.0


class TestTabulation:
    def test_export(self, tmp_path):
        path = tmp_path / "m.csv"
        export_tabulation(from_cube(), path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,M"
        assert len(lines) == 258
        t, m = (float(v) for v in lines[-1].split(","))
        assert m == pytest.approx(from_cube().eval(t), rel=1e-15)


class TestOrliczInvariants:
    def test_midpoint_convexity_and_monotonicity(self):
        for M in (from_cube(), from_pball(1.5, 6), from_pball(3.0, 10)):
            t0 = M.zero_threshold
            grid = np.linspace(t0 * 0.5, t0 * 6.0, 41)
            vals = np.array([M.eval(float(t)) for t in grid])
            assert np.all(np.diff(vals) >= -1e-12)
            mids = np.array([M.eval(float(t)) for t in 0.5 * (grid[:-1] + grid[1:])])
            assert np.all(mids <= 0.5 * (vals[:-1] + vals[1:]) + 1e-10 * max(1.0, vals.max()))
