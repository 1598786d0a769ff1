import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orlicz_polytope import bodies
from orlicz_polytope.bodies import (
    BodySpec,
    Direction,
    circumradius,
    contains,
    coordinate_ks,
    coordinate_marginal,
    derive_seed,
    isotropic_constant,
    isotropy_report,
    marginal_general,
    marginal_ks,
    normalization_scale,
    project_uniform,
    sample_coordinate,
    sample_norms,
    sample_sphere,
    sample_uniform,
    stream,
    support_function,
)
from orlicz_polytope.cli import RNG_ALGORITHM
from orlicz_polytope.errors import DomainError
from orlicz_polytope.estimators import _parallel_map
from orlicz_polytope.mathkit import quad_adaptive

INF = math.inf


class TestBodySpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            BodySpec(0.9, 3)
        with pytest.raises(DomainError):
            BodySpec(2.0, 0)
        with pytest.raises(DomainError):
            BodySpec(math.nan, 3)

    def test_dimension_is_a_positive_integer(self):
        body = BodySpec(2.0, 3.0)
        assert type(body.n) is int and body == BodySpec(2.0, 3)
        assert type(BodySpec(2.0, np.int64(4)).n) is int
        for n in (2.5, math.nan, math.inf, -math.inf, 0.0):
            with pytest.raises(DomainError, match="n must be a positive integer"):
                BodySpec(2.0, n)

    def test_normalized_volume_is_one(self):
        from orlicz_polytope.mathkit import ball_volume_log

        for p in (1.0, 2.5, INF):
            body = BodySpec(p, 7)
            scale = normalization_scale(body)
            # vol(D) = scale^n * |B_p^n|
            log_vol = 7 * math.log(scale) + ball_volume_log(p, 7)
            assert log_vol == pytest.approx(0.0, abs=1e-12)


class TestDirections:
    def test_unit_check(self):
        with pytest.raises(DomainError):
            Direction(np.array([1.0, 1.0]))
        d = Direction.from_vector([3.0, 4.0])
        assert d.coords == pytest.approx([0.6, 0.8])
        e = Direction.canonical(4, 2)
        assert list(e.coords) == [0.0, 0.0, 1.0, 0.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_coordinates(self, bad):
        # a NaN norm fails no comparison, so it needs its own check
        with pytest.raises(DomainError, match="finite"):
            Direction(np.array([bad, 0.0, 0.0]))


class TestScaleAndSupport:
    def test_normalization_scale(self):
        assert normalization_scale(BodySpec(INF, 10)) == 0.5
        assert normalization_scale(BodySpec(1.0, 2)) == pytest.approx(2 ** -0.5, rel=1e-12)
        assert normalization_scale(BodySpec(2.0, 2)) == pytest.approx(math.pi ** -0.5, rel=1e-12)

    def test_support_function(self):
        assert support_function(BodySpec(INF, 6), Direction.canonical(6, 0)) == pytest.approx(0.5)
        for n in (2, 5):
            d = Direction.from_vector(np.arange(1, n + 1, dtype=float))
            assert support_function(BodySpec(2.0, n), d) == pytest.approx(
                normalization_scale(BodySpec(2.0, n)), rel=1e-12
            )
        diag = Direction.from_vector([1.0, 1.0])
        assert support_function(BodySpec(1.0, 2), diag) == pytest.approx(0.5, rel=1e-12)

    def test_support_vs_sample_supremum(self):
        # heavy-tailed marginals only: the near-support event must be likely
        # enough that 1e6 draws reach within 2% of the support value
        for p, n in ((INF, 10), (1.0, 2), (2.0, 2)):
            body = BodySpec(p, n)
            h = support_function(body, Direction.canonical(n, 0))
            proj = project_uniform(body, Direction.canonical(n, 0), 10**6, derive_seed(11, "sup", n))
            top = float(np.max(np.abs(proj)))
            assert top <= h + 1e-12
            assert top >= 0.98 * h


class TestMarginalCoordinate:
    def test_cube_marginal(self):
        assert coordinate_marginal(BodySpec(INF, 5)).density(0.3) == 1.0
        assert coordinate_marginal(BodySpec(INF, 5)).density(0.51) == 0.0

    def test_beyond_support_zero(self):
        for p in (1.0, 2.0, 4.0):
            body = BodySpec(p, 6)
            assert coordinate_marginal(body).density(normalization_scale(body) * 1.0001) == 0.0

    def test_ball_section_value(self):
        # section of D_2^3 at t=0: disk of radius = scale, area pi*scale^2
        body = BodySpec(2.0, 3)
        scale = normalization_scale(body)
        want = math.pi * scale**2
        assert coordinate_marginal(body).density(0.0) == pytest.approx(want, rel=1e-12)
        # cross-check by quadrature of the disk section width
        section = quad_adaptive(lambda x: 2.0 * np.sqrt(np.maximum(scale**2 - x**2, 0.0)), -scale, scale, 1e-10)
        assert coordinate_marginal(body).density(0.0) == pytest.approx(section, rel=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 6.0, INF])
    @pytest.mark.parametrize("n", [2, 10, 50, 200])
    def test_normalization(self, p, n):
        body = BodySpec(p, n)
        radius = normalization_scale(body)
        total = quad_adaptive(coordinate_marginal(body).density, 0.0, radius, 1e-10)
        assert 2.0 * total == pytest.approx(1.0, abs=1e-8)

    def test_even_and_monotone(self):
        body = BodySpec(3.0, 8)
        radius = normalization_scale(body)
        ts = np.linspace(0.0, radius, 50)
        vals = np.asarray(coordinate_marginal(body).density(ts))
        assert np.all(np.diff(vals) <= 1e-12)
        assert coordinate_marginal(body).density(-0.3 * radius) == pytest.approx(
            coordinate_marginal(body).density(0.3 * radius), rel=1e-14
        )


class TestMarginalGeneral:
    def test_cube_flat_density(self):
        body = BodySpec(INF, 4)
        marg = marginal_general(body, Direction.canonical(4, 0), 10**6, 5)
        ts = np.linspace(-0.48, 0.48, 100)
        assert float(np.max(np.abs(np.asarray(marg.density(ts)) - 1.0))) <= 0.05

    def test_matches_closed_form_disk(self):
        body = BodySpec(2.0, 2)
        marg = marginal_general(body, Direction.canonical(2, 0), 10**6, 6)
        radius = normalization_scale(body)
        ts = np.linspace(-0.95 * radius, 0.95 * radius, 120)
        diff = np.abs(np.asarray(marg.density(ts)) - np.asarray(coordinate_marginal(body).density(ts)))
        assert float(np.max(diff)) <= 0.05

    def test_support_radius_bounded(self):
        body = BodySpec(1.5, 6)
        theta = Direction.from_vector(np.ones(6))
        marg = marginal_general(body, theta, 10**5, 7)
        assert marg.support_radius <= support_function(body, theta) + 1e-12

    def test_requires_enough_samples(self):
        with pytest.raises(DomainError):
            marginal_general(BodySpec(2.0, 3), Direction.canonical(3, 0), 100, 0)

    def test_density_integrates_to_one(self):
        body = BodySpec(1.0, 5)
        marg = marginal_general(body, Direction.from_vector(np.ones(5)), 10**5, 9)
        widths = np.diff(marg.hist_edges)
        assert float(np.sum(marg.hist_density * widths)) == pytest.approx(1.0, rel=1e-12)


class TestSamplers:
    def test_membership_and_mean(self):
        for p in (1.0, 2.0, 3.5, INF):
            body = BodySpec(p, 6)
            pts = sample_uniform(body, 20000, derive_seed(1, "mem", int(p * 2) if p != INF else -1))
            assert bool(np.all(contains(body, pts)))
            sd = pts.std(axis=0).max()
            assert float(np.abs(pts.mean(axis=0)).max()) <= 4 * sd / math.sqrt(20000)

    def test_disk_radial_cdf(self):
        body = BodySpec(2.0, 2)
        pts = sample_uniform(body, 10**5, 7)
        r = 0.5
        frac = float(np.mean(np.linalg.norm(pts, axis=1) <= r * normalization_scale(body)))
        band = 3 * math.sqrt(r**2 * (1 - r**2) / 10**5)
        assert abs(frac - r**2) <= band

    def test_prefix_stability(self):
        body = BodySpec(1.5, 4)
        small = sample_uniform(body, 1500, 13)
        large = sample_uniform(body, 70000, 13)
        assert np.array_equal(small, large[:1500])
        norms = sample_norms(body, 1500, 13)
        assert norms == pytest.approx(np.linalg.norm(small, axis=1), rel=1e-15)

    def test_projection_consistency(self):
        body = BodySpec(2.0, 3)
        theta = Direction.from_vector([1.0, 2.0, -1.0])
        pts = sample_uniform(body, 3000, 21)
        proj = project_uniform(body, theta, 3000, 21)
        assert proj == pytest.approx(pts @ theta.coords, rel=1e-14)

    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0, INF])
    def test_coordinate_sampler_prefix_and_range(self, p):
        body = BodySpec(p, 7)
        small = sample_coordinate(body, 1500, 13)
        large = sample_coordinate(body, 70000, 13)
        assert np.array_equal(small, large[:1500])
        assert float(np.max(np.abs(large))) <= normalization_scale(body)
        with pytest.raises(DomainError):
            sample_coordinate(body, 0, 13)

    def test_sphere_directions(self):
        dirs = sample_sphere(10, 10**6, 3)
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() <= 1e-12
        assert float(np.abs(dirs.mean(axis=0)).max()) <= 4.0 / math.sqrt(10**6)
        second_moment = float(np.mean(dirs[:, 0] ** 2))
        assert abs(second_moment - 0.1) <= 1e-3

    def test_stream_independence(self):
        a = stream(5, "x", 0).random(4)
        b = stream(5, "x", 1).random(4)
        c = stream(5, "x", 0).random(4)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)

    def test_stream_is_the_manifest_generator(self):
        # the manifest's rng_algorithm starts with the numpy bit generator
        # the streams use, so the id cannot drift from the code unnoticed
        bit_generator = type(stream(5, "x", 0).bit_generator).__name__.lower()
        assert RNG_ALGORITHM.split("/")[0].startswith(bit_generator)


def _whole_chunk_fill(body, view, seed, idx):
    """The chunk fill as one draw per stream for the whole chunk: the oracle
    for the row-blocked, threaded samplers."""
    p, n = body.p, body.n
    scale = normalization_scale(body)
    size = view.shape[0]
    if math.isinf(p):
        u = stream(seed, "cube", idx).random((size, n))
        view[:] = scale * (2.0 * u - 1.0)
        return
    if p == 2.0:
        stream(seed, "ball-normal", idx).standard_normal(out=view)
        view *= math.sqrt(0.5)
        radial = np.einsum("ij,ij->i", view, view)
    else:
        mag = stream(seed, "ball-gamma", idx).standard_gamma(1.0 + 1.0 / p, (size, n))
        mag **= 1.0 / p
        stream(seed, "ball-unif", idx).random(out=view)
        view *= 2.0
        view -= 1.0
        view *= mag
        np.abs(view, out=mag)
        mag **= p
        radial = mag.sum(axis=1)
    radial += stream(seed, "ball-expo", idx).standard_exponential(size)
    radial **= -1.0 / p
    radial *= scale
    view *= radial[:, None]


def _previous_coordinate(body, seed, idx, size):
    """One chunk of the coordinate sampler as drawn before p = 2 used a
    normal and other p != 1 a Gamma(1 + 1/p) and a uniform: G_1 ~
    Gamma(1/p) and a random sign.  p = 1 and the cube still draw this."""
    p, n = body.p, body.n
    scale = normalization_scale(body)
    if math.isinf(p):
        return scale * (2.0 * stream(seed, "cube-coord", idx).random(size) - 1.0)
    g1 = stream(seed, "gamma-coord", idx).standard_gamma(1.0 / p, size)
    g2 = stream(seed, "gamma-rest", idx).standard_gamma((n - 1) / p + 1.0, size)
    signs = np.where(stream(seed, "sign-coord", idx).random(size) < 0.5, -1.0, 1.0)
    return scale * signs * (g1 / (g1 + g2)) ** (1.0 / p)


def _whole_chunk_coordinate(body, count, seed):
    p, n = body.p, body.n
    scale = normalization_scale(body)
    out = np.empty(count)
    for idx, start, size in bodies._chunk_ranges(count):
        view = out[start : start + size]
        if p in (1.0, INF):
            view[:] = _previous_coordinate(body, seed, idx, size)
            continue
        g2 = stream(seed, "gamma-rest", idx).standard_gamma((n - 1) / p + 1.0, size)
        if p == 2.0:
            y = math.sqrt(0.5) * stream(seed, "normal-coord", idx).standard_normal(size)
            view[:] = scale * (y / np.sqrt(y * y + g2))
        else:
            h = stream(seed, "gamma-coord", idx).standard_gamma(1.0 + 1.0 / p, size)
            v = 2.0 * stream(seed, "unif-coord", idx).random(size) - 1.0
            view[:] = scale * (v / (np.abs(v) ** p + g2 / h) ** (1.0 / p))
    return out


class TestChunkFills:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("count", [1, 4095, bodies._CHUNK, 2 * bodies._CHUNK + 17])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, INF])
    def test_samplers_match_whole_chunk_streams(self, monkeypatch, p, count, threads):
        monkeypatch.setattr(bodies, "_fill_threads", lambda chunks: threads)
        body, seed = BodySpec(p, 5), 41
        theta = Direction.from_vector([1.0, -2.0, 0.5, 3.0, -0.25])
        chunks = [np.empty((size, 5)) for _, _, size in bodies._chunk_ranges(count)]
        for (idx, _, _), chunk in zip(bodies._chunk_ranges(count), chunks):
            _whole_chunk_fill(body, chunk, seed, idx)
        assert np.array_equal(sample_uniform(body, count, seed), np.concatenate(chunks))
        want = np.concatenate([np.einsum("ij,j->i", c, theta.coords) for c in chunks])
        assert np.array_equal(project_uniform(body, theta, count, seed), want)
        want = np.concatenate([np.linalg.norm(c, axis=1) for c in chunks])
        assert np.array_equal(sample_norms(body, count, seed), want)
        sum_x, sum_xx = np.zeros(5), np.zeros((5, 5))
        for c in chunks:
            sum_x += c.sum(axis=0)
            sum_xx += c.T @ c
        rep = isotropy_report(body, count, seed)
        assert np.array_equal(rep.center, sum_x / count)
        assert np.array_equal(rep.cov, sum_xx / count)
        assert np.array_equal(sample_coordinate(body, count, seed), _whole_chunk_coordinate(body, count, seed))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sphere_matches_per_chunk_draws(self, monkeypatch, threads):
        # the loop sample_sphere ran before its chunks went through _map_chunks
        monkeypatch.setattr(bodies, "_fill_threads", lambda chunks: threads)
        n, count, seed = 4, 2 * bodies._CHUNK + 17, 43
        want = np.empty((count, n))
        for idx, start, size in bodies._chunk_ranges(count):
            g = stream(seed, "sphere", idx).standard_normal((size, n))
            want[start : start + size] = g / np.linalg.norm(g, axis=1)[:, None]
        assert np.array_equal(sample_sphere(n, count, seed), want)

    @pytest.mark.parametrize("p, values", [
        (1.0, ["0x1.ceeb8becdfc18p-4", "0x1.9ea612069546cp-2", "-0x1.70b3accf560d1p-4"]),
        (INF, ["0x1.9fe29eec6bb4cp-3", "0x1.90755a791d200p-4", "-0x1.46db051363da2p-2"]),
    ])
    def test_coordinate_pinned_values(self, p, values):
        # p = 1 (criterion 4's narrow band) and the cube draw what they drew
        # before p = 2 took a normal and other p a Gamma(1 + 1/p) and a
        # uniform; the chunk test checks every value against that formula
        x = sample_coordinate(BodySpec(p, 5), bodies._CHUNK + 1, 41)
        assert [x[0], x[1], x[bodies._CHUNK]] == [float.fromhex(v) for v in values]

    def test_one_fill_thread_in_mc_workers(self):
        chunks = 5
        assert bodies._fill_threads(chunks) == min(len(os.sched_getaffinity(0)), chunks)
        assert _parallel_map(bodies._fill_threads, [chunks, chunks], threads=2) == [1, 1]


class TestKolmogorovSmirnov:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 6.0, INF])
    @pytest.mark.parametrize("n", [2, 10, 50, 200])
    def test_coordinate_marginal_ks(self, p, n):
        m = 20000
        key = int(p * 10) if not math.isinf(p) else -1
        assert coordinate_ks(BodySpec(p, n), m, derive_seed(17, "ks", key, n)) <= 2.0 * 1.63 / math.sqrt(m)

    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, INF])
    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_coordinate_sampler_ks(self, p, n):
        # the marginal sampler against the same CDF, at criterion 10's band
        m = 20000
        key = int(p * 10) if not math.isinf(p) else -1
        body = BodySpec(p, n)
        sample = sample_coordinate(body, m, derive_seed(17, "ks-coord", key, n))
        assert marginal_ks(body, sample) <= 2.0 * 1.63 / math.sqrt(m)


    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, 6.0])
    @pytest.mark.parametrize("n", [2, 10, 30])
    def test_radial_law_ks(self, p, n):
        # X uniform in R B_p^n has (||X||_p / R)^n ~ U(0, 1): a check of the
        # whole vector, not of one coordinate
        m = 20000
        body = BodySpec(p, n)
        pts = sample_uniform(body, m, derive_seed(17, "ks-radial", int(p * 10), n))
        assert bool(np.all(contains(body, pts)))
        u = np.sort(np.sum(np.abs(pts / normalization_scale(body)) ** p, axis=1) ** (n / p))
        emp = np.arange(1, m + 1) / m
        ks = float(np.max(np.maximum(emp - u, u - (emp - 1.0 / m))))
        assert ks <= 2.0 * 1.63 / math.sqrt(m)


    @pytest.mark.parametrize("n", [2, 30])
    def test_normal_fill_exact_laws(self, n):
        # the p = 2 points drawn from normals: ||X||_2 / R has CDF r^n, and
        # their first coordinate has the exact coordinate marginal
        m = 20000
        body = BodySpec(2.0, n)
        radii = sample_norms(body, m, derive_seed(17, "ks-normal-norms", n)) / normalization_scale(body)
        u = np.sort(radii) ** n
        emp = np.arange(1, m + 1) / m
        assert float(np.max(np.maximum(emp - u, u - (emp - 1.0 / m)))) <= 2.0 * 1.63 / math.sqrt(m)
        assert coordinate_ks(body, m, derive_seed(17, "ks-normal-coord", n)) <= 2.0 * 1.63 / math.sqrt(m)


class TestIsotropy:
    def test_cube_constant(self):
        rep = isotropy_report(BodySpec(INF, 8), 10**6, 23)
        assert rep.l_k == pytest.approx(1.0 / math.sqrt(12.0), rel=0.01)

    def test_disk_constant(self):
        rep = isotropy_report(BodySpec(2.0, 2), 10**6, 29)
        assert rep.l_k**2 == pytest.approx(1.0 / (4 * math.pi), rel=0.01)

    def test_center_and_offdiagonal(self):
        rep = isotropy_report(BodySpec(1.0, 6), 200000, 31)
        bound = 4 * rep.l_k / math.sqrt(200000)
        assert float(np.abs(rep.center).max()) <= bound
        off = rep.cov - np.diag(np.diag(rep.cov))
        assert float(np.abs(off).max()) <= 4 * rep.l_k**2 / math.sqrt(200000)

    def test_exact_constant_matches_sampling(self):
        body = BodySpec(3.0, 10)
        exact = isotropic_constant(body)
        rep = isotropy_report(body, 400000, 37)
        assert rep.l_k == pytest.approx(exact, rel=0.01)
        assert isotropic_constant(BodySpec(INF, 5)) == pytest.approx(1 / math.sqrt(12.0), rel=1e-12)
        ball = BodySpec(2.0, 30)
        assert isotropic_constant(ball) == pytest.approx(
            normalization_scale(ball) / math.sqrt(32.0), rel=1e-9
        )

    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0])
    def test_gamma_form_against_mpmath(self, p):
        # the second moment of the section density c (1 - (t/R)^p)^((n-1)/p),
        # integrated at 40 digits
        for n in (1, 2, 3, 10, 30, 100):
            with mpmath.workdps(40):
                q = mpmath.mpf(p)
                vol = lambda k: (2 * mpmath.gamma(1 + 1 / q)) ** k / mpmath.gamma(1 + k / q)
                radius = vol(n) ** (-mpmath.mpf(1) / n)
                c = vol(n - 1) / vol(n) ** (mpmath.mpf(n - 1) / n)
                moment = mpmath.quad(lambda u: 2 * u**2 * (1 - u**q) ** ((n - 1) / q), [0, 1])
                want = mpmath.sqrt(c * radius**3 * moment)
            assert isotropic_constant(BodySpec(p, n)) == pytest.approx(float(want), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_rejects_nonpositive_samples(self, samples):
        with pytest.raises(DomainError):
            isotropy_report(BodySpec(2.0, 3), samples, 1)


class TestCircumradius:
    def test_values(self):
        assert circumradius(BodySpec(INF, 4)) == pytest.approx(0.5 * 2.0)
        assert circumradius(BodySpec(2.0, 7)) == pytest.approx(normalization_scale(BodySpec(2.0, 7)))
        body = BodySpec(4.0, 9)
        norms = sample_norms(body, 50000, 3)
        assert float(norms.max()) <= circumradius(body) + 1e-12


@settings(deadline=None, max_examples=25, derandomize=True)
@given(
    p=st.one_of(st.floats(1.0, 8.0), st.just(INF)),
    n=st.integers(1, 12),
    count=st.integers(1, 300),
    seed=st.integers(0, 2**40),
)
def test_sampler_membership_property(p, n, count, seed):
    body = BodySpec(p, n)
    pts = sample_uniform(body, count, seed)
    assert pts.shape == (count, n)
    assert bool(np.all(contains(body, pts)))
