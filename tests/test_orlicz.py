import math

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
from orlicz_polytope.mathkit import Interval, QuadratureSpec, bisect, quad_adaptive
from orlicz_polytope.orlicz import (
    OrliczFunction,
    dual_involution_error,
    empirical_roots,
    from_cube,
    from_empirical,
    from_pball,
    from_power,
    from_spherical,
    from_tail,
    invert_for_support,
    legendre_dual,
    luxemburg_norm,
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


def uncached_dual(M, grid_max):
    """legendre_dual as it read M before its memo: a fresh M.eval per read."""
    h = 1e-9 * grid_max

    def ev(x):
        lo, hi = bisect(
            lambda u: M.eval(u - grid_max + h) - M.eval(u - grid_max) >= x * h,
            grid_max, 2.0 * grid_max, 1e-9,
        )
        t_star = 0.5 * (lo + hi) - grid_max
        best = max(x * t - M.eval(t) for t in (0.0, t_star, grid_max))
        return max(best, 0.0)

    slopes = [M.eval(float(t)) / float(t) for t in grid_max * np.logspace(-12.0, 0.0, 25)]
    return OrliczFunction(eval=ev, zero_threshold=float(min(slopes)), kind=M.kind)


def uncached_involution_error(M, ts):
    dd = uncached_dual(uncached_dual(M, 20.0), 20.0)
    err = max(abs(dd.eval(float(t)) - M.eval(float(t))) for t in ts)
    return err / max(M.eval(float(ts[-1])), 1.0)


CONSTRUCTORS = {
    "power": lambda: from_power(1.5),
    "cube": from_cube,
    "pball": lambda: from_pball(2.0, 5),
    "tail": lambda: from_tail(coordinate_marginal(BodySpec(3.0, 10))),
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
        with pytest.raises(DomainError):
            from_pball(6.0, n, form="second").eval(1.0 / s)

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
                lambda t: np.exp(((n - 1) / 2.0) * np.log1p(-1.0 / t**2)),
                Interval(1.0, s),
                QuadratureSpec(1e-11, 0.0, 60),
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


class TestLegendre:
    def test_power_duals(self):
        dual = legendre_dual(from_power(2.0, 0.5), 60.0)  # M = t^2/2
        for x in (0.2, 1.0, 3.0):
            assert dual.eval(x) == pytest.approx(x**2 / 2.0, abs=1e-8)
        dual3 = legendre_dual(from_power(3.0, 1.0 / 3.0), 60.0)  # M = t^3/3
        for x in (0.5, 2.0):
            assert dual3.eval(x) == pytest.approx((2.0 / 3.0) * x**1.5, abs=1e-6)
        assert dual.eval(0.0) == 0.0

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

    @pytest.mark.parametrize(
        "M",
        [from_power(1.5), from_power(2.0), from_power(3.0), from_pball(2.0, 5)],
        ids=["power-1.5", "power-2", "power-3", "pball"],
    )
    def test_memo_is_bit_identical(self, M):
        dual, oracle = legendre_dual(M, 20.0), uncached_dual(M, 20.0)
        assert dual.zero_threshold == oracle.zero_threshold
        for x in (0.0, 0.1, 0.3, 1.0, 1e3):
            assert dual.eval(x) == oracle.eval(x)

    @pytest.mark.parametrize(
        "M, ts",
        [
            (from_power(1.5), np.linspace(0.05, 2.0, 8)),
            (from_power(2.0), np.linspace(0.05, 2.0, 8)),
            (from_power(3.0), np.linspace(0.05, 2.0, 8)),
            (from_pball(2.0, 5), [0.05, 2.0]),  # the oracle reads M 10^4 times per point
        ],
        ids=["power-1.5", "power-2", "power-3", "pball"],
    )
    def test_involution_is_bit_identical(self, M, ts):
        assert dual_involution_error(M, ts) == uncached_involution_error(M, ts)

    def test_involution_reads_each_point_once(self):
        # the bisections of both duals revisit the dyadic points of [20, 40];
        # without the memo M was read 37 177 times at 4 363 distinct t
        seen = []
        dual_involution_error(counted(from_pball(2.0, 5), seen), np.linspace(0.05, 2.0, 8))
        assert len(set(seen)) == len(seen)
        assert len(seen) <= 4400

    def test_each_dual_has_its_own_memo(self):
        seen = []
        M = counted(from_pball(2.0, 5), seen)
        first, second = legendre_dual(M, 20.0), legendre_dual(M, 20.0)
        del seen[:]
        first.eval(0.1)
        reads = len(seen)
        assert reads > 0
        first.eval(0.1)
        assert len(seen) == reads  # a repeat is served from the memo
        second.eval(0.1)
        assert len(seen) == 2 * reads  # the second dual shares none of it

    def test_memo_is_bounded(self, monkeypatch):
        # a sequential re-read of more points than the memo holds misses on
        # every point of a least-recently-used memo, so a bound of 8 entries
        # re-reads all of them, with the same values
        monkeypatch.setattr(orlicz, "_DUAL_MEMO", 8)
        seen = []
        M = from_pball(2.0, 5)
        dual = legendre_dual(counted(M, seen), 20.0)
        del seen[:]
        first = dual.eval(0.1)
        reads = len(seen)
        assert reads > 8
        assert dual.eval(0.1) == first == uncached_dual(M, 20.0).eval(0.1)
        assert len(seen) == 2 * reads

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


class TestLuxemburg:
    def test_examples(self):
        assert luxemburg_norm([3.0, 4.0], from_power(2.0)) == pytest.approx(5.0, rel=1e-9)
        assert luxemburg_norm([1.0, 1.0, 1.0], from_power(1.0)) == pytest.approx(3.0, rel=1e-9)
        assert luxemburg_norm(np.zeros(4), from_power(2.0)) == 0.0

    def test_all_ones_is_inversion(self):
        # the paper's estimate is the Orlicz norm of (1, ..., 1) in R^N;
        # the production M is checked over the N range the estimator runs in
        cases = [(from_pball(2.0, 5), 3), (from_pball(2.0, 5), 17)]
        production = from_tail(coordinate_marginal(BodySpec(1.5, 30)))
        cases += [(production, N) for N in (10**2, 10**3, 10**6)]
        for M, N in cases:
            a = luxemburg_norm(np.ones(N), M)
            b = invert_for_support(M, N)
            assert a == pytest.approx(b, rel=1e-8)

    def test_one_read_per_distinct_entry(self):
        seen = []
        rho = luxemburg_norm([3.0, -3.0, 4.0, 0.0, 4.0, 3.0], counted(from_power(2.0), seen))
        assert rho == pytest.approx(math.sqrt(3 * 9.0 + 2 * 16.0), rel=1e-9)
        # every budget reads M at 3/rho and 4/rho only, once each
        assert len(seen) % 2 == 0
        ratios = np.array(seen[1::2]) / np.array(seen[0::2])
        assert np.allclose(ratios, 4.0 / 3.0, rtol=1e-12)
        seen.clear()
        luxemburg_norm(np.ones(10**4), counted(from_power(2.0), seen))
        assert len(seen) <= 100  # one read per bisection step

    def test_grouped_matches_entrywise_sum(self):
        # the norm before grouping: M read once per entry at every step
        def entrywise(x, M):
            v = np.abs(np.asarray(x, dtype=float))
            budget = lambda rho: float(sum(M.eval(float(vi / rho)) for vi in v if vi > 0))
            top = float(v.max())
            return bisect(lambda rho: budget(rho) <= 1.0, top / 1e6, v.size * top * 1e6, 1e-10)[1]

        rng = np.random.default_rng(7)
        x = rng.choice([-2.5, -0.5, 0.0, 0.75, 1.0, 3.0], size=40)
        for M in (from_power(2.5), from_pball(2.0, 5)):
            assert luxemburg_norm(x, M) == pytest.approx(entrywise(x, M), rel=1e-9)

    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(
        c=st.floats(0.01, 50.0),
        vec=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6).filter(
            lambda v: max(abs(x) for x in v) > 1e-3
        ),
    )
    def test_homogeneity(self, c, vec):
        M = from_power(2.5)
        base = luxemburg_norm(vec, M)
        scaled = luxemburg_norm([c * v for v in vec], M)
        assert scaled == pytest.approx(c * base, rel=1e-8)


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
        with pytest.raises(RangeError):
            invert_for_support(stuck, 2)

    def test_range_error_when_level_never_reached(self):
        # M saturates at 1e-3 < 1/N: no s has M(1/s) > 1/N
        capped = OrliczFunction(
            eval=lambda t: min(t - 1.0, 1e-3) if t > 1.0 else 0.0, zero_threshold=1.0, kind="power"
        )
        with pytest.raises(RangeError):
            invert_for_support(capped, 10)

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
        export_tabulation(from_cube(), path, points=33)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,M"
        assert len(lines) == 34
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
