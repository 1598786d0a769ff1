"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The N-scan table (criteria 4-6) is computed once per session and shared.
Every tolerance is asserted exactly as stated; measured runtimes are
printed alongside and checked against the stated budgets.
"""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc

from orlicz_polytope.bodies import (
    BodySpec,
    coordinate_ks,
    coordinate_marginal,
    derive_seed,
    isotropic_constant,
    isotropy_report,
    normalization_scale,
)
from orlicz_polytope.estimators import (
    expected_support_mc,
    expected_support_orlicz,
    mean_width_mc,
    scaling_fit,
    solve_tilde_s,
    sphere_average_m,
)
from orlicz_polytope.mathkit import SinCosParams, sincos_identity_sides
from orlicz_polytope.orlicz import (
    build_consistency_grid,
    from_coordinate,
    from_cube,
    from_tail,
    invert_for_support,
    m_from_tail,
    m_from_tail_alt,
    m_pball_first,
    representation_spread,
)

INF = math.inf
THREADS = 2
SEED = 0

N_GRID_FULL = (100, 1000, 10**4, 10**5, 10**6)
N_GRID_MC = (100, 1000, 10**4, 10**5)


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:>2} {name}: {status} ({detail})")
    assert passed, f"criterion {num} [{name}]: {detail}"


def cube_formula(N):
    return (1.0 + 1.0 / N - math.sqrt(2.0 / N + 1.0 / N**2)) / 2.0


def exact_expected_max(p, n, N):
    """E max_{i<=N} |<X_i, e_1>| = int_0^R (1 - G(t)^N) dt, where
    1 - G(t) = P(|X_1| > t) is the regularized I_{1-(t/R)^p}((n-1)/p + 1, 1/p)."""
    radius = normalization_scale(BodySpec(p, n))
    if math.isinf(p):
        return radius * N / (N + 1.0)
    a = (n - 1) / p + 1.0

    def gap(t):
        tail = betainc(a, 1.0 / p, 1.0 - (t / radius) ** p)
        return 1.0 if tail >= 1.0 else -math.expm1(N * math.log1p(-tail))

    return quad(gap, 0.0, radius, epsabs=0.0, epsrel=1e-10, limit=200)[0]


@pytest.fixture(scope="module")
def support_table():
    """Orlicz and MC support values for p in {1, 2, 4, inf} at n = 30."""
    t0 = time.perf_counter()
    table = {}
    for p in (1.0, 2.0, 4.0, INF):
        body = BodySpec(p, 30)
        for N in N_GRID_FULL:
            table[(p, N, "orlicz")] = expected_support_orlicz(body, 0, N)
        for N in N_GRID_MC:
            rep = expected_support_mc(body, 0, N, trials=200, seed=SEED, threads=THREADS)
            table[(p, N, "mc")] = rep.mc_mean
            table[(p, N, "mc_se")] = (rep.mc_ci95[1] - rep.mc_mean) / 1.96
    table["elapsed"] = time.perf_counter() - t0
    return table


def test_criterion_1_cube_inversion():
    t0 = time.perf_counter()
    M = from_cube()
    worst = 0.0
    for N in (2, 10, 10**3, 10**6):
        got = invert_for_support(M, N)
        want = cube_formula(N)
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "cube inversion formula",
        worst <= 1e-8 and elapsed < 1.0,
        f"max rel err {worst:.2e} (tol 1e-8), {elapsed:.2f}s < 1s",
    )


def test_criterion_2_representation_consistency():
    t0 = time.perf_counter()
    worst = 0.0
    where = None
    for p, n, frac in build_consistency_grid([1.0, 1.5, 2.0, 3.0, 6.0], [2, 10, 50], 10):
        rel = representation_spread(p, n, frac)
        if rel > worst:
            worst, where = rel, (p, n, round(frac, 3))
    elapsed = time.perf_counter() - t0
    report(
        2,
        "closed forms vs tail integrals, the stop-loss path and the production M",
        worst <= 1e-6 and elapsed < 120.0,
        f"max pairwise rel {worst:.2e} at {where} (tol 1e-6), {elapsed:.0f}s < 120s",
    )


def exact_m(p, n, s):
    """M(1/s) of the l_p coordinate marginal through the incomplete beta function:
    M(t) = (2cR/p) [tR I(2/p) - I(1/p)], I(alpha) = int_x^1 u^{alpha-1} (1-u)^a du,
    x = (tR)^{-p}, a = (n-1)/p, c the density at 0.  I(alpha) is evaluated as
    betainc(a+1, alpha, 0, 1-x) at 40 digits; the direct form betainc(alpha, a+1, x, 1)
    cancels to 0 near the support edge."""
    with mpmath.workdps(40):
        p, a = mpmath.mpf(p), mpmath.mpf(n - 1) / p
        vol = lambda k: (2 * mpmath.gamma(1 + 1 / p)) ** k / mpmath.gamma(1 + k / p)
        radius = vol(n) ** (-mpmath.mpf(1) / n)
        c = vol(n - 1) / vol(n) ** (mpmath.mpf(n - 1) / n)
        tr = radius / mpmath.mpf(s)
        tail = lambda alpha: mpmath.betainc(a + 1, alpha, 0, 1 - tr ** (-p))
        return float(2 * c * radius / p * (tr * tail(2 / p) - tail(1 / p)))


def test_criterion_2_exact_m():
    # the exact oracle beside criterion 2: the production incomplete-beta
    # path and the stop-loss quadrature over the range the inversion lands
    # in, the two tail-integral oracles on the consistency band
    t0 = time.perf_counter()
    ps, ns = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0), (2, 10, 30, 50)
    names = ("from_coordinate", "from_tail", "m_from_tail", "m_from_tail_alt")
    worst = {name: (0.0, None) for name in names}

    def check(name, value, want, cell):
        rel = abs(value - want) / want
        if rel > worst[name][0]:
            worst[name] = (rel, cell)

    for p in ps:
        for n in ns:
            body = BodySpec(p, n)
            radius, marg = normalization_scale(body), coordinate_marginal(body)
            production, M = from_coordinate(body), from_tail(marg)
            for frac in np.linspace(0.05, 0.995, 8).tolist():
                s = frac * radius
                want = exact_m(p, n, s)
                check("from_coordinate", production(1.0 / s), want, (p, n, round(frac, 3)))
                check("from_tail", M(1.0 / s), want, (p, n, round(frac, 3)))
    for p, n, frac in build_consistency_grid(ps, ns, 4):
        body = BodySpec(p, n)
        s = frac * normalization_scale(body)
        marg, want = coordinate_marginal(body), exact_m(p, n, s)
        check("m_from_tail", m_from_tail(marg, 1.0 / s), want, (p, n, round(frac, 3)))
        check("m_from_tail_alt", m_from_tail_alt(marg, 1.0 / s), want, (p, n, round(frac, 3)))
    elapsed = time.perf_counter() - t0
    report(
        2,
        "production M and tail oracles vs exact incomplete-beta M",
        all(rel <= 1e-9 for rel, _ in worst.values()),
        "; ".join(f"{k} max rel {rel:.2e} at {cell}" for k, (rel, cell) in worst.items())
        + f" (tol 1e-9; 192 + 192 + 96 cells), {elapsed:.1f}s",
    )


def test_criterion_3_recursion_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(100):
        alpha = float(rng.uniform(0.05, 30.0))
        beta = float(rng.uniform(-0.9, 25.0))
        upper = float(rng.uniform(0.0, 1.55))
        k = int(rng.integers(0, 21))
        lhs, rhs = sincos_identity_sides(SinCosParams(alpha, beta, upper, k))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    elapsed = time.perf_counter() - t0
    report(
        3,
        "sine-cosine recursion identity",
        worst <= 1e-9 and elapsed < 10.0,
        f"max err {worst:.2e} over 100 draws (tol 1e-9), {elapsed:.1f}s < 10s",
    )


def test_criterion_4_growth_exponents(support_table):
    t0 = time.perf_counter()
    details = []
    ok = True
    for p in (1.0, 2.0, 4.0):
        rows = [(N, support_table[(p, N, "orlicz")]) for N in N_GRID_FULL]
        slope, _ = scaling_fit(rows, "log-log-N")
        ok &= abs(slope - 1.0 / p) <= 0.15
        details.append(f"p={p}: orlicz {slope:.3f}")
        mc_rows = [(N, support_table[(p, N, "mc")]) for N in N_GRID_MC]
        mc_slope, _ = scaling_fit(mc_rows, "log-log-N")
        ok &= abs(mc_slope - 1.0 / p) <= 0.2
        # report only: the noiseless slope the MC one scatters around, so the
        # margin to the band edge shows (about 0.808 at p = 1, edge 0.8)
        exact_rows = [(N, exact_expected_max(p, 30, N)) for N in N_GRID_MC]
        exact_slope, _ = scaling_fit(exact_rows, "log-log-N")
        details.append(f"mc {mc_slope:.4f} (exact E max {exact_slope:.4f})")
    elapsed = support_table["elapsed"] + (time.perf_counter() - t0)
    report(
        4,
        "growth-law exponents (1/p)",
        ok and elapsed < 600.0,
        "; ".join(details) + f"; {elapsed:.0f}s < 600s",
    )


def test_criterion_5_mean_width(support_table):
    t0 = time.perf_counter()
    body = BodySpec(2.0, 30)
    rows = [(N, support_table[(2.0, N, "orlicz")]) for N in N_GRID_FULL]
    slope, r2 = scaling_fit(rows, "log-N")
    ratios, zs = [], []
    for N in N_GRID_FULL:
        rep = mean_width_mc(body, N, trials=30, n_dirs=32, seed=SEED, threads=THREADS)
        ratios.append(rep.mc_mean / support_table[(2.0, N, "orlicz")])
        # the exact oracle beside the loose band: by rotation invariance one
        # trial's expected value is E max over a coordinate direction
        stderr = (rep.mc_ci95[1] - rep.mc_ci95[0]) / (2 * 1.96)
        zs.append((rep.mc_mean - exact_expected_max(2.0, 30, N)) / stderr)
    ok = r2 >= 0.98 and slope > 0 and all(0.05 <= r <= 20.0 for r in ratios)
    ok = ok and all(abs(z) <= 6.0 for z in zs)
    elapsed = time.perf_counter() - t0
    report(
        5,
        "mean-width square-log law",
        ok and elapsed < 600.0,
        f"r2 {r2:.4f} (need >= 0.98); mc/orlicz in [{min(ratios):.2f}, {max(ratios):.2f}]; "
        "z vs exact E max " + ", ".join(f"{z:.2f}" for z in zs) + f" (need |z| <= 6); {elapsed:.0f}s < 600s",
    )


def test_criterion_6_two_sided_equivalence(support_table):
    ratios = []
    for p in (1.0, 2.0, 4.0, INF):
        for N in N_GRID_MC:
            ratios.append(support_table[(p, N, "mc")] / support_table[(p, N, "orlicz")])
    ratios = np.array(ratios)
    spread = float(ratios.max() / ratios.min())
    ok = bool(np.all(ratios >= 0.05) and np.all(ratios <= 20.0) and spread < 100.0)
    report(
        6,
        "two-sided equivalence band",
        ok,
        f"ratios in [{ratios.min():.2f}, {ratios.max():.2f}], spread {spread:.1f} < 100",
    )


def test_criterion_6_exact_order_statistic(support_table):
    # the exact oracle beside criterion 6's loose band: each MC mean within
    # 6 standard errors of E max; E max / Orlicz is the two-sided constant
    worst_z = 0.0
    details = []
    for p in (1.0, 2.0, 4.0, INF):
        constants = []
        for N in N_GRID_MC:
            exact = exact_expected_max(p, 30, N)
            z = abs(support_table[(p, N, "mc")] - exact) / support_table[(p, N, "mc_se")]
            worst_z = max(worst_z, z)
            constants.append(exact / support_table[(p, N, "orlicz")])
        details.append(f"p={p}: E max/orlicz " + ", ".join(f"{c:.4f}" for c in constants))
    report(
        6,
        "MC oracle vs exact order statistic",
        worst_z <= 6.0,
        f"max |z| {worst_z:.2f} <= 6 over 16 cells; " + "; ".join(details),
    )


def test_criterion_7_spherical_representation():
    t0 = time.perf_counter()
    body = BodySpec(2.0, 10)
    radius = normalization_scale(body)
    worst_z = 0.0
    for i, frac in enumerate((0.2, 0.35, 0.5, 0.65, 0.8)):
        s = frac * radius
        out = sphere_average_m(body, s, 10**6, seed=derive_seed(SEED, "c7", i))
        closed = m_pball_first(2.0, 10, s)
        worst_z = max(worst_z, abs(out.value - closed) / out.stderr)
    elapsed = time.perf_counter() - t0
    report(
        7,
        "spherical representation identity",
        worst_z <= 3.0 and elapsed < 120.0,
        f"max |z| {worst_z:.2f} <= 3 over 5 scales, {elapsed:.0f}s < 120s",
    )


def test_criterion_8_ball_minimizes():
    radius2 = normalization_scale(BodySpec(2.0, 10))
    ok = True
    details = []
    for i, frac in enumerate((0.2, 0.35, 0.5, 0.65, 0.8)):
        s = frac * radius2
        ball = sphere_average_m(BodySpec(2.0, 10), s, 10**6, seed=derive_seed(SEED, "c8", i))
        for p in (1.0, 4.0):
            other = sphere_average_m(BodySpec(p, 10), s, 10**6, seed=derive_seed(SEED, "c8", i, int(p)))
            margin = other.value - ball.value + 3.0 * (other.stderr + ball.stderr)
            ok &= margin >= 0.0
            if margin < 0:
                details.append(f"p={p}, s={frac}: deficit {margin:.2e}")
    report(8, "Euclidean ball minimizes the sphere average", ok, details or "all 10 comparisons hold")


def test_criterion_9_matching_scale_stability():
    t0 = time.perf_counter()
    body = BodySpec(2.0, 30)
    lk = isotropic_constant(body)
    ratios = []
    for N in (100, 1000, 10**4, 10**5):
        st = solve_tilde_s(body, N, 2 * 10**5, seed=SEED)
        ratios.append(st / (lk * math.sqrt(math.log(N))))
    factor = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - t0
    report(
        9,
        "matching scale tracks L_K sqrt(log N)",
        factor < 2.0,
        f"ratio band [{min(ratios):.3f}, {max(ratios):.3f}], factor {factor:.3f} < 2; {elapsed:.0f}s",
    )


def test_criterion_10_sampler_correctness():
    t0 = time.perf_counter()
    m = 20000
    worst_ks = 0.0
    for p in (1.0, 1.5, 2.0, 3.0, 6.0):
        for n in (2, 10, 50):
            ks = coordinate_ks(BodySpec(p, n), m, derive_seed(SEED, "c10", int(p * 10), n))
            worst_ks = max(worst_ks, ks)
        band = 2.0 * 1.63 / math.sqrt(m)
    rep = isotropy_report(BodySpec(INF, 8), 10**6, derive_seed(SEED, "c10-iso"))
    iso_err = abs(rep.l_k - 1.0 / math.sqrt(12.0)) * math.sqrt(12.0)
    ok = worst_ks <= band and iso_err <= 0.01
    elapsed = time.perf_counter() - t0
    report(
        10,
        "sampler KS and isotropy",
        ok,
        f"max KS {worst_ks:.4f} <= {band:.4f}; cube L_K rel err {iso_err:.4f} <= 0.01; {elapsed:.0f}s",
    )


def test_criterion_11_reproducibility(tmp_path):
    from orlicz_polytope.cli import main

    grid = ["--N", "100", "--N", "1000", "--N", "10000", "--N", "100000"]
    base = ["scan", "--p", "1", "--n", "5", *grid, "--trials", "10", "--seed", "4"]
    out_a, out_b, out_c, out_d = (tmp_path / x for x in ("a", "b", "c", "d"))
    assert main([*base, "--out", str(out_a)]) == 0
    assert main(["scan", "--config", str(out_a / "manifest.json"), "--out", str(out_b)]) == 0
    replay_same = all(
        (out_a / f).read_bytes() == (out_b / f).read_bytes()
        for f in ("scan.csv", "fit.json", "plotdata.csv", "scan.svg")
    )
    assert main([*base, "--threads", "1", "--out", str(out_c)]) == 0
    assert main([*base, "--threads", "8", "--out", str(out_d)]) == 0
    threads_same = all(
        (out_c / f).read_bytes() == (out_d / f).read_bytes()
        for f in ("scan.csv", "fit.json", "plotdata.csv", "scan.svg")
    )
    report(
        11,
        "manifest replay and thread invariance",
        replay_same and threads_same,
        f"replay identical: {replay_same}; threads 1 vs 8 identical: {threads_same}",
    )
