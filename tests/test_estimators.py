import contextlib
import math
import os
import sys

import mpmath
import numpy as np
import pytest

from orlicz_polytope.bodies import (
    BodySpec,
    Direction,
    circumradius,
    coordinate_marginal,
    derive_seed,
    normalization_scale,
    project_uniform,
    sample_coordinate,
    sample_sphere,
    sample_uniform,
    support_function,
)
from orlicz_polytope import bodies, estimators
from orlicz_polytope.errors import DomainError, HypothesisError
from orlicz_polytope.estimators import (
    build_direction_orlicz,
    check_profile_hypotheses,
    direction_measure_scan,
    direction_support_profile,
    expected_support_mc,
    expected_support_orlicz,
    general_upper_bound,
    mean_width_mc,
    mean_width_orlicz_report,
    run_mean_width_scan,
    run_support_scan,
    scaling_fit,
    solve_tilde_s,
    sphere_average_m,
    _mean_width_trial,
    _spherical_values,
    _support_trial,
)
from orlicz_polytope.orlicz import (
    empirical_roots,
    from_empirical,
    invert_for_support,
    m_pball_first,
    m_spherical,
)

INF = math.inf


def _held_cloud_trial(body, N, n_dirs, seed, trial):
    """The mean-width trial as it was before it streamed its points: the
    whole cloud held, then the abs-max of its products with the directions."""
    pts = sample_uniform(body, N, derive_seed(seed, "mw-pts", trial))
    dirs = sample_sphere(body.n, n_dirs, derive_seed(seed, "mw-dirs", trial))
    supports = np.zeros(n_dirs)
    step = max(1, (1 << 22) // max(n_dirs, 1))
    for lo in range(0, N, step):
        np.maximum(supports, np.abs(pts[lo : lo + step] @ dirs.T).max(axis=0), out=supports)
    return float(supports.mean())


def cube_inversion_formula(N):
    return (1.0 + 1.0 / N - math.sqrt(2.0 / N + 1.0 / N**2)) / 2.0


class TestExpectedSupportOrlicz:
    def test_cube_formula(self):
        got = expected_support_orlicz(BodySpec(INF, 10), 0, 2)
        assert got == pytest.approx(cube_inversion_formula(2), rel=1e-8)

    def test_ball_direction_invariance(self):
        body = BodySpec(2.0, 6)
        rng = np.random.default_rng(4)
        base = expected_support_orlicz(body, 0, 50)
        for _ in range(20):
            theta = Direction.from_vector(rng.normal(size=6))
            assert expected_support_orlicz(body, theta, 50) == pytest.approx(base, rel=1e-9)

    def test_log_growth_for_crosspolytope(self):
        body = BodySpec(1.0, 20)
        v3 = expected_support_orlicz(body, 0, 10**3)
        v6 = expected_support_orlicz(body, 0, 10**6)
        assert v6 / v3 == pytest.approx(2.0, rel=0.25)

    def test_root_inside_the_last_halving_step(self):
        # the support radius n/(2e) lies 10^6 times above the root at n = 1e6,
        # where the generic search (invert_for_support) once ran out of range;
        # as n grows |X_1| tends to the exponential law of mean 1/(2e), whose
        # root is W(10)/(2e)
        got = expected_support_orlicz(BodySpec(1.0, 10**6), 0, 10)
        assert got == pytest.approx(float(mpmath.lambertw(10).real / (2 * mpmath.e)), rel=1e-4)

    @pytest.mark.parametrize("n", [2 * 10**6, 10**7])
    @pytest.mark.parametrize("N", [10, 100, 10**4])
    def test_p1_closed_form_at_large_n(self, n, N):
        # for p = 1, |X_1| / R ~ Beta(1, n), so the root solves
        # N R (1 - s/R)^(n+1) / (n+1) = s; the generic search refuses these
        # cells (the root lies below radius / 1e6).  Measured error: 1.9e-8
        # at n = 1e7, N = 10, at most 3.7e-9 elsewhere; it is the error of M
        # itself, not of the search: at b = 1e7, log B(1, b) from two lgamma
        # values errs by 1.5e-8, and beta_tail by up to 9e-8
        R = normalization_scale(BodySpec(1.0, n))

        def gap(s):  # log of the left side over the right, decreasing in s
            return math.log(N * R / (n + 1)) + (n + 1) * math.log1p(-s / R) - math.log(s)

        lo, hi = 1e-3, 10.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gap(mid) > 0 else (lo, mid)
        assert expected_support_orlicz(BodySpec(1.0, n), 0, N) == pytest.approx(hi, rel=5e-8)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, INF])
    def test_canonical_directions_use_stop_loss(self, p):
        # the exact stop-loss: the incomplete beta for finite p, the cube's closed form
        want = "tail-integral" if p == INF else "incomplete-beta"
        assert build_direction_orlicz(BodySpec(p, 10), 0).kind == want

    def test_ball_random_direction_uses_stop_loss(self):
        body = BodySpec(2.0, 10)
        theta = Direction(sample_sphere(10, 1, derive_seed(3, "dir"))[0])
        M = build_direction_orlicz(body, theta)
        assert M.kind == "incomplete-beta"
        t = 2.0 * M.zero_threshold
        assert M.eval(t) == build_direction_orlicz(body, 0).eval(t)

    @pytest.mark.parametrize("p", [1.5, 4.0])
    def test_noncanonical_direction_uses_raw_projections(self, p):
        body = BodySpec(p, 30)
        theta = Direction.from_vector(np.arange(1.0, 31.0))
        M = build_direction_orlicz(body, theta, proj_samples=10**5, seed=7)
        assert M.kind == "empirical"
        want = from_empirical(project_uniform(body, theta, 10**5, derive_seed(7, "marginal")))
        for t in np.linspace(0.5, 20.0, 41) * want.zero_threshold:
            assert M.eval(float(t)) == want.eval(float(t))

    def test_empirical_direction_path(self):
        # non-canonical direction on the cube goes through the projections
        body = BodySpec(INF, 4)
        theta = Direction.from_vector(np.ones(4))
        got = expected_support_orlicz(body, theta, 100, proj_samples=10**5, seed=8)
        assert 0 < got <= support_function(body, theta)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize("direction", [[1.0, 1.0], Direction.from_vector([1.0, 1.0])])
    def test_direction_dimension_must_match(self, p, direction):
        # a raw vector is held to the body's dimension like a Direction, on
        # the exact-law path (p = 2) and the projection path (p = 1.5)
        body = BodySpec(p, 5)
        match = "direction dimension does not match the body"
        with pytest.raises(DomainError, match=match):
            expected_support_orlicz(body, direction, 100, proj_samples=1000)
        with pytest.raises(DomainError, match=match):
            expected_support_mc(body, direction, 100, trials=2)
        with pytest.raises(DomainError, match=match):
            run_support_scan(body, direction, [100, 200, 300, 400], trials=2, proj_samples=1000)


class TestExpectedSupportMC:
    def test_interval_order_statistics(self):
        # E max of 3 uniform |coords| on [0, 1/2] is (3/4)(1/2) = 0.375
        rep = expected_support_mc(BodySpec(INF, 1), 0, 3, trials=10**4, seed=42)
        lo, hi = rep.mc_ci95
        assert lo <= 0.375 <= hi

    def test_cube_coordinate_independence(self):
        # same per-coordinate law in any dimension (N < n is fine here)
        with pytest.warns(UserWarning):
            rep = expected_support_mc(BodySpec(INF, 7), 2, 3, trials=4000, seed=43)
        assert rep.mc_mean == pytest.approx(0.375, abs=4 * (rep.mc_ci95[1] - rep.mc_mean) / 1.96 + 0.003)

    def test_bounded_by_support(self):
        for p in (1.0, 2.0, INF):
            body = BodySpec(p, 5)
            rep = expected_support_mc(body, 0, 200, trials=50, seed=7)
            assert rep.mc_mean <= support_function(body, Direction.canonical(5, 0)) + 1e-12

    def test_monotone_in_N_with_shared_seed(self):
        # the marginal sampler (p = 2) and the full-vector path (p = 1.5)
        for p, vec in ((2.0, [1.0, 0.0, 0.0, 0.0]), (1.5, [1.0, 2.0, -1.0, 3.0])):
            theta = Direction.from_vector(vec)
            for trial in range(5):
                small = _support_trial(BodySpec(p, 4), theta, 100, 11, trial)
                large = _support_trial(BodySpec(p, 4), theta, 400, 11, trial)
                assert large >= small

    def test_parallel_matches_serial(self):
        for p, direction in ((1.0, 0), (1.5, [1.0, 2.0, -1.0])):
            a = expected_support_mc(BodySpec(p, 3), direction, 50, trials=12, seed=3, threads=1)
            b = expected_support_mc(BodySpec(p, 3), direction, 50, trials=12, seed=3, threads=3)
            assert a.mc_mean == b.mc_mean
            assert a.mc_ci95 == b.mc_ci95

    @pytest.mark.parametrize("direction", [0, [1.0, 2.0, -1.0, 0.5, 3.0, -2.0]])
    def test_thread_invariance(self, monkeypatch, direction):
        # two chunks per trial: two fill threads on the caller's thread, one
        # in a trial thread; every trial runs in the caller's process, and
        # frequent thread switches move no bit
        args = (BodySpec(1.5, 6), direction, 70000, 5, 8)
        serial = expected_support_mc(*args, threads=1)
        pids, trial = [], estimators._support_trial

        def recording(*args):
            pids.append(os.getpid())
            return trial(*args)

        monkeypatch.setattr(estimators, "_support_trial", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in (1, 2, 3):
                rep = expected_support_mc(*args, threads=threads)
                assert (rep.mc_mean, rep.mc_ci95) == (serial.mc_mean, serial.mc_ci95)
        finally:
            sys.setswitchinterval(interval)
        assert pids == [os.getpid()] * 15

    @pytest.mark.parametrize(
        "p, direction, marginal",
        [
            (1.0, 2, True),  # canonical axis 2
            (4.0, [-1.0, 0, 0, 0, 0, 0], True),  # -e_1
            (INF, 5, True),
            (2.0, [0.3, -1.2, 0.5, 2.0, 0.1, -0.7], True),  # any direction of the ball
            (1.5, [0.3, -1.2, 0.5, 2.0, 0.1, -0.7], False),
        ],
    )
    def test_oracle_routing(self, p, direction, marginal):
        # the coordinate law is drawn directly; other directions project points
        body = BodySpec(p, 6)

        def draw(seed):
            if marginal:
                return sample_coordinate(body, 300, seed)
            return project_uniform(body, Direction.from_vector(direction), 300, seed)

        want = [float(np.max(np.abs(draw(derive_seed(19, "esup", t))))) for t in range(4)]
        assert expected_support_mc(body, direction, 300, trials=4, seed=19).mc_mean == float(np.mean(want))

    @pytest.mark.parametrize("threads, workers", [(64, 10), (4, 4)])
    def test_pool_capped_at_trial_count(self, monkeypatch, threads, workers):
        # min(threads, trials) threads: no idle thread is started
        started = []

        class RecordingPool(bodies.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        args = (BodySpec(1.0, 3), 0, 50, 10, 3)
        serial = expected_support_mc(*args, threads=1)
        monkeypatch.setattr(bodies, "ThreadPoolExecutor", RecordingPool)
        assert expected_support_mc(*args, threads=threads).mc_mean == serial.mc_mean
        assert started == [workers]

    def test_refuses_one_trial(self):
        # one trial has no standard deviation, so no confidence interval
        with pytest.raises(DomainError):
            expected_support_mc(BodySpec(INF, 3), 0, 2, trials=1, seed=0)
        with pytest.raises(DomainError):
            mean_width_mc(BodySpec(2.0, 3), 10, trials=1, n_dirs=4)

    @pytest.mark.parametrize("trials", [2.5, math.nan, 1])
    def test_trial_count_is_an_integer(self, trials):
        match = "trials must be an integer of at least 2"
        with pytest.raises(DomainError, match=match):
            expected_support_mc(BodySpec(INF, 3), 0, 2, trials=trials, seed=0)
        with pytest.raises(DomainError, match=match):
            mean_width_mc(BodySpec(2.0, 3), 10, trials=trials, n_dirs=4)

    def test_integral_trial_count_is_stored_as_int(self):
        rep = expected_support_mc(BodySpec(INF, 3), 0, 3, trials=3.0, seed=0)
        assert type(rep.meta["trials"]) is int and rep.meta["trials"] == 3
        rep = mean_width_mc(BodySpec(2.0, 3), 10, trials=3.0, n_dirs=4)
        assert rep.meta["trials"] == 3 and rep.mc_mean == mean_width_mc(BodySpec(2.0, 3), 10, 3, 4).mc_mean

    def test_warns_below_dimension(self):
        with pytest.warns(UserWarning):
            expected_support_mc(BodySpec(2.0, 10), 0, 5, trials=30, seed=0)


class TestMeanWidth:
    def test_ball_equals_single_direction(self):
        body = BodySpec(2.0, 8)
        assert mean_width_orlicz_report(body, 500).value == expected_support_orlicz(body, 0, 500)

    def test_ball_sqrt_log_ratio(self):
        # doubling log N multiplies the mean width by about sqrt(log ratio)
        body = BodySpec(2.0, 30)
        large = mean_width_orlicz_report(body, 10**5).value
        ratio = large / mean_width_orlicz_report(body, 10**2).value
        assert ratio == pytest.approx(math.sqrt(5.0 / 2.0), rel=0.2)

    def test_average_between_extremes(self):
        body = BodySpec(INF, 2)
        dirs = sample_sphere(2, 100, derive_seed(12, "mw-dirs"))
        values = direction_support_profile(body, dirs, 50, seed=12, proj_samples=10**5)
        avg = mean_width_orlicz_report(body, 50, n_dirs=100, seed=12, proj_samples=10**5).value
        assert values.min() <= avg <= values.max()

    def test_requires_enough_directions(self):
        with pytest.raises(DomainError):
            mean_width_orlicz_report(BodySpec(1.0, 3), 100, n_dirs=10)

    def test_direction_average_stderr_shrinks(self):
        body = BodySpec(INF, 2)
        small = mean_width_orlicz_report(body, 50, n_dirs=100, seed=1, proj_samples=3 * 10**4)
        large = mean_width_orlicz_report(body, 50, n_dirs=400, seed=1, proj_samples=3 * 10**4)
        assert large.stderr < small.stderr
        # quadrupling the directions roughly halves the standard error
        assert large.stderr == pytest.approx(small.stderr / 2.0, rel=0.5)
        assert abs(large.value - small.value) <= 4 * (small.stderr + large.stderr)

    def test_polytope_monotone_in_N(self):
        # shared streams make the N' > N polytope contain the N one
        for trial in range(4):
            small = _mean_width_trial(BodySpec(2.0, 2), 100, 64, 5, trial)
            large = _mean_width_trial(BodySpec(2.0, 2), 300, 64, 5, trial)
            assert large >= small

    @pytest.mark.parametrize("p", [1.5, INF])
    def test_streamed_trial_matches_held_cloud(self, p):
        # max and min per direction give the abs-max exactly
        args = (BodySpec(p, 30), 2 * (1 << 16) + 17, 100, 5, 3)
        assert _mean_width_trial(*args) == _held_cloud_trial(*args)

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_thread_invariance(self, p):
        body = BodySpec(p, 6)
        # two chunks per trial: two fill threads on the caller's thread, one
        # in a trial thread
        serial = mean_width_mc(body, 70000, trials=5, n_dirs=16, seed=8, threads=1)
        for threads in (2, 3):
            rep = mean_width_mc(body, 70000, trials=5, n_dirs=16, seed=8, threads=threads)
            assert (rep.mc_mean, rep.mc_ci95) == (serial.mc_mean, serial.mc_ci95)

    def test_one_blas_thread_in_mean_width_trials(self, monkeypatch):
        controls = estimators._blas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS with thread-count functions is loaded")
        saved = [getter() for getter, _ in controls]
        read, entered = [], []
        map_points, helper = estimators._map_points, estimators._one_blas_thread

        def reading_map_points(body, count, seed, fn):
            # the counts every chunk of a trial reads before its products run
            def reading(start, view):
                read.append({getter() for getter, _ in controls})
                return fn(start, view)

            return map_points(body, count, seed, reading)

        @contextlib.contextmanager
        def recording():
            entered.append(True)
            with helper():
                yield

        monkeypatch.setattr(estimators, "_map_points", reading_map_points)
        monkeypatch.setattr(estimators, "_one_blas_thread", recording)
        theta = Direction(np.full(30, 1.0 / math.sqrt(30)))
        for _, setter in controls:
            setter(2)
        try:
            for threads in (1, 2):
                read.clear()
                entered.clear()
                # the caller enters the helper once, around every trial
                mean_width_mc(BodySpec(2.0, 30), 70000, trials=4, n_dirs=32, seed=1, threads=threads)
                assert entered == [True] and read == [{1}] * 8
                assert {getter() for getter, _ in controls} == {2}
                # the support trial uses no BLAS and never enters the helper
                expected_support_mc(BodySpec(1.5, 30), theta, 5000, 4, 1, threads=threads)
                assert entered == [True] and {getter() for getter, _ in controls} == {2}
        finally:
            for (_, setter), count in zip(controls, saved):
                setter(count)

    def test_level_and_direction_counts(self):
        body = BodySpec(2.0, 3)
        want = mean_width_mc(body, 1000, 2, 4)
        got = mean_width_mc(body, 1e3, 2, 4.0)
        assert (got.mc_mean, got.meta["N"], got.meta["n_dirs"]) == (want.mc_mean, 1000, 4)
        for N in (2.5, math.nan, 0):
            with pytest.raises(DomainError, match="N must be a positive integer"):
                mean_width_mc(body, N, 2, 4)
        for n_dirs in (2.5, math.nan, 0):
            with pytest.raises(DomainError, match="n_dirs must be a positive integer"):
                mean_width_mc(body, 100, 2, n_dirs)

    def test_disk_saturation(self):
        # N = 1e4 points nearly fill the disk
        body = BodySpec(2.0, 2)
        rep = mean_width_mc(body, 10**4, trials=200, n_dirs=64, seed=9)
        target = support_function(body, Direction.canonical(2, 0))
        assert rep.mc_mean == pytest.approx(target, rel=0.05)
        est = mean_width_orlicz_report(body, 10**4).value
        assert 0.05 <= rep.mc_mean / est <= 20.0


class TestSphereAverage:
    def test_zero_beyond_circumradius(self):
        body = BodySpec(2.0, 5)
        out = sphere_average_m(body, circumradius(body) * 1.01, 20000, 3)
        assert out.value == 0.0

    def test_ball_identity(self):
        body = BodySpec(2.0, 10)
        s = 0.45 * normalization_scale(body)
        out = sphere_average_m(body, s, 4 * 10**5, 17)
        closed = m_pball_first(2.0, 10, s)
        assert abs(out.value - closed) <= 3 * out.stderr

    def test_minimizer_among_bodies(self):
        s = 0.5 * normalization_scale(BodySpec(2.0, 10))
        ball = sphere_average_m(BodySpec(2.0, 10), s, 2 * 10**5, 23)
        for p in (1.0, 4.0):
            other = sphere_average_m(BodySpec(p, 10), s, 2 * 10**5, 29)
            assert other.value >= ball.value - 3 * (other.stderr + ball.stderr)

    def test_batch_matches_scalar_quadrature(self):
        norms = np.array([0.4, 1.1, 1.7, 2.5, 9.0])
        got = _spherical_values(6, norms, 1.0)
        want = np.array([m_spherical(6, float(x)) if x > 1 else 0.0 for x in norms])
        assert got == pytest.approx(want, rel=1e-9, abs=1e-15)


class TestTildeS:
    def test_monotone_in_N(self):
        body = BodySpec(2.0, 5)
        s_small = solve_tilde_s(body, 100, 50000, 3)
        s_large = solve_tilde_s(body, 10**4, 50000, 3)
        assert s_large > s_small

    def test_bounded_by_circumradius(self):
        body = BodySpec(1.0, 6)
        st = solve_tilde_s(body, 1000, 50000, 5)
        assert 0 < st <= circumradius(body)

    def test_crossing_level(self):
        from orlicz_polytope.bodies import sample_norms

        body = BodySpec(2.0, 8)
        N = 500
        st = solve_tilde_s(body, N, 10**5, 7)
        # evaluate the frozen-cloud objective at the returned scale
        norms = sample_norms(body, 10**5, derive_seed(7, "tilde-s"))
        value = float(_spherical_values(body.n, norms, st).mean())
        assert value == pytest.approx(1.0 / N, rel=1e-4)


class TestGeneralUpperBound:
    def test_zero_log_limit(self):
        marg = coordinate_marginal(BodySpec(3.0, 20))
        assert general_upper_bound(marg, 1) == 0.0

    def test_flat_profile_rejected(self):
        marg = coordinate_marginal(BodySpec(INF, 10))
        with pytest.raises(HypothesisError) as err:
            general_upper_bound(marg, 8)
        assert "h'" in err.value.hypothesis

    def test_alpha_domain(self):
        marg = coordinate_marginal(BodySpec(3.0, 10))
        with pytest.raises(DomainError):
            general_upper_bound(marg, 100)  # 4 log 100 > 10

    def test_small_p_fails_monotonicity(self):
        marg = coordinate_marginal(BodySpec(1.2, 12))
        with pytest.raises(HypothesisError):
            check_profile_hypotheses(marg)

    def test_tracks_mc_oracle(self):
        body = BodySpec(3.0, 50)
        marg = coordinate_marginal(body)
        bound = general_upper_bound(marg, 1000)
        rep = expected_support_mc(body, 0, 1000, trials=40, seed=2)
        assert 0 < bound <= normalization_scale(body)
        # the theorem's inequality holds up to an absolute constant
        assert rep.mc_mean / bound < 10.0


class TestDirectionScan:
    def test_partition_and_invariance(self):
        scan = direction_measure_scan(BodySpec(2.0, 6), 100, r=1.0, n_dirs=1000, seed=5)
        total = scan.fraction_below_lower + scan.fraction_between + scan.fraction_above_upper
        assert total == pytest.approx(1.0, abs=1e-12)
        assert scan.fraction_upper in (0.0, 1.0)
        assert np.unique(scan.estimates).size == 1

    def test_crosspolytope_upper_fraction(self):
        scan = direction_measure_scan(BodySpec(1.0, 15), 10**3, r=1.0, n_dirs=1000, seed=6, proj_samples=3 * 10**4)
        assert scan.fraction_upper >= 0.9
        assert 0.0 <= scan.predicted_upper_measure <= 1.0

    def test_requires_directions(self):
        with pytest.raises(DomainError):
            direction_measure_scan(BodySpec(1.0, 5), 100, r=1.0, n_dirs=10)

    def test_blocks_match_per_direction_inversion(self):
        # 1003 directions: the last block of the profile is a partial one
        body, N, seed = BodySpec(1.5, 6), 100, 8
        scan = direction_measure_scan(body, N, r=1.0, n_dirs=1003, seed=seed, proj_samples=10**4)
        cloud_seed = derive_seed(seed, "scan-cloud")
        cloud = sample_uniform(body, 10**4, cloud_seed)
        dirs = sample_sphere(6, 1003, derive_seed(seed, "scan-dirs"))
        profile = direction_support_profile(body, dirs, N, seed=cloud_seed, proj_samples=10**4)
        want = np.array([invert_for_support(from_empirical(cloud @ d), N) for d in dirs])
        for got in (scan.estimates, profile):
            assert np.all(np.abs(got - want) <= 1e-9 * want)

    def test_axis_rows_take_the_exact_law(self):
        # an axis row among many directions reads the exact coordinate law,
        # as the axis alone does, not the atoms of the shared cloud; the
        # other rows keep their cloud roots
        body, levels = BodySpec(4.0, 6), [100, 1000]
        dirs = sample_sphere(6, 11, 3)
        dirs[[2, 7]] = Direction.canonical(6, 4).coords, -Direction.canonical(6, 0).coords
        profile = direction_support_profile(body, dirs, levels, seed=5, proj_samples=10**5)
        for N, row in zip(levels, profile):
            assert row[2] == row[7] == expected_support_orlicz(body, 4, N)
        off = np.delete(np.arange(11), [2, 7])
        cloud_only = direction_support_profile(body, dirs[off], levels, seed=5, proj_samples=10**5)
        assert np.array_equal(profile[:, off], cloud_only)

    def test_one_row_is_the_single_direction_estimate(self):
        body, seed, levels = BodySpec(1.5, 6), 11, [100, 10**4]
        theta = Direction.from_vector([0.3, -1.2, 0.5, 2.0, 0.1, -0.7])
        profile = direction_support_profile(body, [theta.coords], levels, derive_seed(seed, "marginal"), 10**5)
        for N, row in zip(levels, profile):
            assert row[0] == expected_support_orlicz(body, theta, N, proj_samples=10**5, seed=seed)

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_profile_refuses_bad_rows(self, p):
        # rows are not renormalized: the cloud's product would scale each
        # estimate by its row's norm
        body = BodySpec(p, 3)
        bad = ([1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [1.0, 1e-5, 0.0], [2.0, 0.0, 0.0], [np.nan, 0.0, 0.0])
        for row in bad:
            with pytest.raises(DomainError):
                direction_support_profile(body, [row], 10, proj_samples=100)
        assert direction_support_profile(body, [[0.0, -1.0, 0.0]], 10, proj_samples=100).shape == (1,)

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_one_rule_for_N(self, p):
        # a non-integral N is refused by every inversion and scan, not
        # truncated to the level below (99.7 used to give the profile level
        # 99); an integral float is the same level as the int
        body = BodySpec(p, 3)
        dirs = sample_sphere(3, 4, 1)
        M = build_direction_orlicz(body, 0)
        atoms = np.random.default_rng(2).normal(size=(2, 1000))
        for N in (99.7, [100, 99.7], 0.5, math.nan, math.inf):
            with pytest.raises(DomainError, match="N must be a positive integer"):
                direction_support_profile(body, dirs, N, proj_samples=1000)
            with pytest.raises(DomainError, match="N must be a positive integer"):
                mean_width_orlicz_report(body, N, proj_samples=1000)
        with pytest.raises(DomainError, match="N must be a positive integer"):
            run_support_scan(body, 0, [99.7, 200, 300, 400], trials=0)
        with pytest.raises(DomainError, match="N must be a positive integer"):
            expected_support_mc(body, 0, 99.7, trials=2)
        assert expected_support_mc(body, 0, 1e3, trials=2).meta["N"] == 1000
        for N in (99.7, 0.5, math.nan, math.inf):
            with pytest.raises(DomainError, match="N must be a positive integer"):
                invert_for_support(M, N)
            with pytest.raises(DomainError, match="N must be a positive integer"):
                empirical_roots(atoms, N)
        profile = direction_support_profile(body, dirs, 1000, proj_samples=1000)
        assert np.array_equal(direction_support_profile(body, dirs, 1e3, proj_samples=1000), profile)
        assert invert_for_support(M, 1e3) == invert_for_support(M, 1000)
        assert np.array_equal(empirical_roots(atoms, 1e3), empirical_roots(atoms, 1000))


class TestSupportScan:
    def test_builds_orlicz_function_once(self, monkeypatch):
        body = BodySpec(1.5, 6)
        theta = [0.3, -1.2, 0.5, 2.0, 0.1, -0.7]
        grid = (10, 100, 1000, 10**4)
        calls = []

        def counting(*args):
            calls.append(args)
            return project_uniform(*args)

        monkeypatch.setattr(estimators, "project_uniform", counting)
        scan = run_support_scan(body, theta, grid, trials=0, seed=5, proj_samples=10**4)
        assert len(calls) == 1
        for row, N in zip(scan.rows, grid):
            assert row.estimate == expected_support_orlicz(body, theta, N, proj_samples=10**4, seed=5)

    def test_mean_width_scan_rows(self, monkeypatch):
        body, grid = BodySpec(1.5, 6), (10, 100, 1000, 10**4)
        calls = []

        def counting(*args):
            calls.append(args)
            return sample_uniform(*args)

        monkeypatch.setattr(estimators, "sample_uniform", counting)
        scan = run_mean_width_scan(body, grid, trials=0, seed=3, proj_samples=10**4)
        assert len(calls) == 1  # one cloud for the whole grid
        for row, N in zip(scan.rows, grid):
            assert row.estimate == mean_width_orlicz_report(body, N, seed=3, proj_samples=10**4).value
        assert all(a.estimate < b.estimate for a, b in zip(scan.rows, scan.rows[1:]))


class TestScan:
    GRID = (10, 100, 1000, 10**4)
    ESTIMATES = [1.0, 1.5, 1.75, 2.125]

    def test_ratio_is_oracle_over_estimate(self):
        calls = []

        def oracle(N):
            calls.append(N)
            return estimators.EstimateReport(mc_mean=0.1 * N**0.1, mc_ci95=(0.0, 1.0))

        scan = estimators._scan(self.GRID, self.ESTIMATES, oracle, 2, "log-log-N")
        assert calls == list(self.GRID)
        for row, N, est in zip(scan.rows, self.GRID, self.ESTIMATES):
            assert (row.N, row.estimate, row.oracle) == (N, est, 0.1 * N**0.1)
            assert row.ratio == row.oracle / est
        assert (scan.fitted_exponent, scan.fit_r2) == scaling_fit(list(zip(self.GRID, self.ESTIMATES)))
        assert scan.transform == "log-log-N"

    def test_fit_refusal_draws_no_trial(self):
        # the fit reads only the estimates: log(log 1) is refused before any oracle runs
        def oracle(N):
            raise AssertionError("a refused grid must not run the oracle")

        with pytest.raises(DomainError, match="log-log-N transform of the rows is not finite"):
            estimators._scan((1, 10, 100, 1000), self.ESTIMATES, oracle, 200, "log-log-N")

    def test_no_oracle_without_trials(self):
        def oracle(N):
            raise AssertionError("trials = 0 must not run the oracle")

        scan = estimators._scan(self.GRID, self.ESTIMATES, oracle, 0, "log-N")
        assert all(row.oracle is None and row.ratio is None for row in scan.rows)
        assert [row.estimate for row in scan.rows] == self.ESTIMATES
        assert scan.transform == "log-N"


class TestScalingFit:
    def test_exact_power_law(self):
        rows = [(N, math.log(N) ** (1.0 / 3.0)) for N in (10, 100, 1000, 10**4, 10**5)]
        slope, r2 = scaling_fit(rows, "log-log-N")
        assert slope == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_input(self):
        rows = [(N, 2.5) for N in (10, 100, 1000, 10**4)]
        slope, r2 = scaling_fit(rows, "log-log-N")
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_mean_width_transform(self):
        rows = [(N, math.sqrt(3.0 * math.log(N) + 1.0)) for N in (10, 100, 1000, 10**4)]
        slope, r2 = scaling_fit(rows, "log-N")
        assert slope == pytest.approx(3.0, rel=1e-10)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(DomainError):
            scaling_fit([(10, 1.0), (10, 2.0), (10, 3.0), (10, 4.0)])
        with pytest.raises(DomainError):
            scaling_fit([(10, 1.0), (100, 2.0)])
        with pytest.raises(DomainError):
            scaling_fit([(10, 1.0), (100, 2.0), (1000, 3.0), (10**4, -1.0)], "log-log-N")

    def test_nonfinite_transform_refused(self):
        # log(log 1) = -inf used to reach polyfit, and a NaN value gave (nan, nan)
        with pytest.raises(DomainError, match="log-log-N transform of the rows is not finite"):
            scaling_fit([(1, 0.5), (10, 1.0), (100, 2.0), (1000, 3.0)], "log-log-N")
        for transform in ("log-log-N", "log-N"):
            with pytest.raises(DomainError, match=f"{transform} transform of the rows is not finite"):
                scaling_fit([(10, 1.0), (100, math.nan), (1000, 3.0), (10**4, 4.0)], transform)


class TestTwoSidedEquivalence:
    def test_ratio_band_over_grid(self):
        ratios = []
        for p in (1.0, 2.0, 4.0, INF):
            for n in (5, 20, 50):
                body = BodySpec(p, n)
                for N in (100, 1000, 10**4):
                    est = expected_support_orlicz(body, 0, N)
                    rep = expected_support_mc(body, 0, N, trials=50, seed=31)
                    ratios.append(rep.mc_mean / est)
                    assert est <= support_function(body, Direction.canonical(n, 0)) * (1 + 1e-9)
                    assert rep.mc_mean <= support_function(body, Direction.canonical(n, 0)) + 1e-12
        ratios = np.array(ratios)
        assert np.all(ratios >= 0.05) and np.all(ratios <= 20.0)
        assert ratios.max() / ratios.min() < 100.0
