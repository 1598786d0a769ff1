"""Reference values computed apart from the package under test.

Nothing here imports orlicz_polytope.  The formulas are written out from
the l_p section formula and the Barthe-Guedon-Mendelson-Naor Gamma
representation; sampling uses numpy's default_rng (PCG64), not the
package's Philox streams.

For X uniform in the volume-1 l_p ball K = R * B_p^n, the coordinate
marginal has the one-sided density 2 f(r) on [0, R] with

    f(r) = c (1 - (r/R)^p)^((n-1)/p),   c = R^(n-1) |B_p^(n-1)|,
    R = |B_p^n|^(-1/n),   |B_p^k| = (2 Gamma(1 + 1/p))^k / Gamma(1 + k/p),

and (|X_1|/R)^p ~ Beta(1/p, (n-1)/p + 1).  The cube (p = inf) is
[-1/2, 1/2]^n.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, special

BISECTION_REL_TOL = 1e-9  # the package's inversion stops at hi - lo <= 1e-9 hi
QUAD_REL_TOL = 1e-9  # the package's default quadrature relative tolerance
REF_REL_TOL = 1e-12  # accuracy asked of the references below
# M(1/s) has elasticity 1 + N P(|X| > s) >= 1 in s at the root, so a relative
# error d in M moves the root by at most d; the bisection adds its own width.
ORLICZ_REL_TOL = BISECTION_REL_TOL + QUAD_REL_TOL + 10 * REF_REL_TOL


def _log_ball_volume(p: float, k: int) -> float:
    return k * (math.log(2.0) + math.lgamma(1.0 + 1.0 / p)) - math.lgamma(1.0 + k / p)


def radius(p: float, n: int) -> float:
    """Coordinate half-width R of the volume-1 l_p ball."""
    if math.isinf(p):
        return 0.5
    return math.exp(-_log_ball_volume(p, n) / n)


def marginal_density(p: float, n: int):
    """f(r) = c (1 - (r/R)^p)^((n-1)/p) on [0, R], as a scalar callable."""
    R = radius(p, n)
    log_c = (n - 1) * math.log(R) + _log_ball_volume(p, n - 1)
    a = (n - 1) / p

    def f(r: float) -> float:
        y = (r / R) ** p
        if y >= 1.0:
            return 0.0
        return math.exp(log_c + a * math.log1p(-y))

    return f


def stop_loss(p: float, n: int, t: float) -> float:
    """M(t) = int_{1/t}^R 2 f(r) (t r - 1) dr = E (t |X_1| - 1)_+."""
    R = radius(p, n)
    if t * R <= 1.0:
        return 0.0
    f = marginal_density(p, n)
    val, _ = integrate.quad(
        lambda r: 2.0 * f(r) * (t * r - 1.0), 1.0 / t, R,
        epsabs=0.0, epsrel=REF_REL_TOL, limit=200,
    )
    return val


def orlicz_root(p: float, n: int, N: int) -> float:
    """The s in (0, R) with M(1/s) = 1/N, i.e. E (|X_1| - s)_+ = s / N.

    For the cube the quadratic (1/2 - s)^2 = s / N gives it exactly.
    """
    if math.isinf(p):
        return (1.0 + 1.0 / N - math.sqrt(2.0 / N + 1.0 / N**2)) / 2.0
    R = radius(p, n)
    return optimize.brentq(
        lambda s: stop_loss(p, n, 1.0 / s) - 1.0 / N,
        1e-6 * R, (1.0 - 1e-4) * R, xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=200,
    )


def expected_max(p: float, n: int, N: int) -> tuple[float, float]:
    """Mean and standard deviation of max_{i<=N} |<X_i, e_1>|.

    With D = R - max, P(D > u) = G(R - u)^N, so E max = R - int_0^R G^N dt
    = int_0^R (1 - G(t)^N) dt and E D^2 = int_0^R 2 (R - t) G(t)^N dt; both
    are taken on D so the variance keeps its relative accuracy.
    """
    R = radius(p, n)
    if math.isinf(p):
        return N / (2.0 * (N + 1.0)), R * math.sqrt(N / (N + 2.0)) / (N + 1.0)
    a, b = 1.0 / p, (n - 1) / p + 1.0

    def cdf_pow(t: float) -> float:
        sf = float(special.betaincc(a, b, (t / R) ** p))
        return math.exp(N * math.log1p(-sf)) if sf < 1.0 else 0.0

    # G^N rises from 0 to 1 where N * (1 - G) passes through 1
    breaks = sorted(
        R * float(special.betainccinv(a, b, q / N)) ** (1.0 / p)
        for q in (30.0, 3.0, 1.0, 0.3, 0.03, 0.003)
    )
    knots = [x for x in breaks if 0.0 < x < R] + [R]

    def integral(fn) -> float:
        return sum(
            integrate.quad(fn, lo, hi, epsabs=0.0, epsrel=REF_REL_TOL, limit=200)[0]
            for lo, hi in zip(knots, knots[1:])
        )

    # below the first knot G^N < exp(-30) and contributes nothing at double precision
    mean_gap = integral(cdf_pow)
    second = integral(lambda t: 2.0 * (R - t) * cdf_pow(t))
    return R - mean_gap, math.sqrt(max(second - mean_gap**2, 0.0))


# ---------------------------------------------------------------------------
# atoms: the empirical stop-loss root and an l_p-ball sampler of our own

def empirical_root(values: np.ndarray, N: int) -> tuple[float, float]:
    """Root s of mean((|v| - s)_+) = s / N for atoms v, with its delta-method
    standard error as an estimate of the population root.

    On [v_(k+1), v_(k)] (values sorted descending, S_k the sum of the k
    largest) the equation reads (S_k - k s) / m = s / N, so
    s = S_k / (k + m / N).
    """
    v = np.sort(np.abs(np.asarray(values, dtype=float)))[::-1]
    m = v.size
    k = np.arange(1, m + 1)
    cand = np.cumsum(v) / (k + m / N)
    nxt = np.append(v[1:], 0.0)
    ok = np.nonzero((cand <= v) & (cand >= nxt))[0]
    if ok.size == 0:
        raise ValueError("no stop-loss root among the atoms")
    s = float(cand[ok[0]])
    excess = np.maximum(v - s, 0.0)
    slope = np.mean(v > s) + 1.0 / N
    se = float(np.std(excess, ddof=1) / (math.sqrt(m) * slope))
    return s, se


def sample_pball(p: float, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count uniform points of the volume-1 l_p ball, from the Gamma
    representation X = R eps G^(1/p) / (sum G + E)^(1/p)."""
    R = radius(p, n)
    if math.isinf(p):
        return R * (2.0 * rng.random((count, n)) - 1.0)
    g = rng.standard_gamma(1.0 / p, (count, n))
    e = rng.standard_exponential(count)
    signs = np.where(rng.random((count, n)) < 0.5, -1.0, 1.0)
    return R * signs * (g / (g.sum(axis=1) + e)[:, None]) ** (1.0 / p)


def project_pball(p: float, n: int, theta: np.ndarray, count: int, rng) -> np.ndarray:
    """|<X_i, theta>| for count uniform points, drawn chunkwise."""
    chunk = 1 << 16
    out = np.empty(count)
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        out[lo:hi] = np.abs(sample_pball(p, n, hi - lo, rng) @ theta)
    return out


def median_scan_root(p: float, n: int, N: int, dirs: int, cloud: int, rng) -> tuple[float, float, float]:
    """Median over uniform directions of the empirical stop-loss root on one
    cloud, with what its error is made of.

    Returns (median, sigma, cloud_se): sigma is the spread of roots over
    directions (IQR / 1.349), so the median of k directions carries
    1.2533 sigma / sqrt(k); cloud_se is the median per-direction error of
    the root, which does not average out, since one cloud serves every
    direction.
    """
    pts = sample_pball(p, n, cloud, rng)
    thetas = rng.standard_normal((dirs, n))
    thetas /= np.linalg.norm(thetas, axis=1)[:, None]
    roots = np.empty(dirs)
    ses = np.empty(dirs)
    for i, th in enumerate(thetas):
        roots[i], ses[i] = empirical_root(pts @ th, N)
    q1, q3 = np.quantile(roots, [0.25, 0.75])
    return float(np.median(roots)), float((q3 - q1) / 1.349), float(np.median(ses))
