"""Orlicz functions for marginals of convex bodies: tail-integral and
closed-form constructions, Legendre duals, and the level-1/N inversion
that estimates expected support functions.

All constructions share one convention: M is the tail integral of the law
of |<X, theta>|,

    M(s) = int_0^s  E[ |<X,theta>| ; |<X,theta>| >= 1/t ]  dt,

which vanishes exactly on [0, 1/support_radius].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .bodies import BodySpec, MarginalDensity, coordinate_marginal, isotropic_constant, normalization_scale
from .errors import AccuracyError, DomainError, EstimationError, whole
from .mathkit import (
    ball_volume_log,
    ball_volume_ratio,
    beta_tail,
    bracket,
    brent,
    log_beta,
    quad_adaptive,
    quad_batch,
)

__all__ = [
    "OrliczFunction",
    "m_from_tail",
    "m_from_tail_alt",
    "m_pball_first",
    "m_pball_second",
    "m_spherical",
    "from_power",
    "from_cube",
    "from_pball",
    "from_tail",
    "from_coordinate",
    "from_empirical",
    "empirical_roots",
    "from_spherical",
    "legendre_dual",
    "dual_involution_error",
    "invert_for_support",
    "representation_spread",
    "export_tabulation",
]

# Bracketing limit of invert_for_support, beyond which it refuses to
# extrapolate and raises RangeError, and the relative width at which it stops.
BRACKET_LIMIT = 1e6
_INVERT_REL_TOL = 1e-9

# Relative tolerances of the quadrature of every M representation, and of
# the inner integrals of the nested ones.
_QUAD = 1e-9
_INNER_QUAD = 1e-10

# _coordinate_reader sums M as one series in 1 - x once 1 - x is at most this.
_EDGE = 0.25

# _coordinate_root stops at the first read with |log(N M(1/s))| at most
# _ROOT_TOL, or at a bracket of log s that narrow, and refuses after
# _ROOT_STEPS reads.
_ROOT_TOL = 1e-9
_ROOT_STEPS = 100

# Points of the log grid export_tabulation writes.
_TABLE_POINTS = 257


@dataclass(frozen=True)
class OrliczFunction:
    """Convex M with M(0) = 0, vanishing exactly on [0, zero_threshold]."""

    eval: Callable[[float], float]
    zero_threshold: float
    kind: str

    def __call__(self, t: float) -> float:
        return self.eval(t)


def _check_t(t: float) -> None:
    if not t >= 0:  # NaN included
        raise DomainError("M is defined for t >= 0")


# ---------------------------------------------------------------------------
# tail-integral representations

def m_from_tail(marginal: MarginalDensity, s: float) -> float:
    """Tail-integral M(s): outer integral of the truncated first moment."""
    if s < 0:
        raise DomainError("M is defined for s >= 0")
    radius = marginal.support_radius
    if s * radius <= 1.0:
        return 0.0

    def outer(t):  # truncated first moment E[|X|; |X| >= 1/t] at every node
        lo = np.minimum(1.0 / t.ravel(), radius)
        return quad_batch(lambda r: 2.0 * r * marginal.density(r), lo, radius, _INNER_QUAD).reshape(t.shape)

    return quad_adaptive(outer, 1.0 / radius, s, _QUAD)


def m_from_tail_alt(marginal: MarginalDensity, s: float) -> float:
    """Same M(s) through the survival-function representation.

    The defining form integrates (1/t) P(|X| >= 1/t) + int_{1/t} P(|X| >= u) du
    over t in [0, s]; exchanging the order of the double term turns it into
    two single integrals of the survival function, which is what is
    evaluated here.
    """
    if s < 0:
        raise DomainError("M is defined for s >= 0")
    radius = marginal.support_radius
    if s * radius <= 1.0:
        return 0.0

    def survival(a):  # P(|X| >= a) at every node
        lo = np.minimum(a.ravel(), radius)
        return quad_batch(lambda r: 2.0 * marginal.density(r), lo, radius, _INNER_QUAD).reshape(a.shape)

    def hazard(t):
        return survival(1.0 / t) / t

    def excess(u):
        return survival(u) * (s - 1.0 / u)

    term1 = quad_adaptive(hazard, 1.0 / radius, s, _QUAD)
    term2 = quad_adaptive(excess, 1.0 / s, radius, _QUAD)
    return term1 + term2


# ---------------------------------------------------------------------------
# closed-form representations for coordinate marginals of volume-1 l_p balls

def _pball_setup(p: float, n: int, s: float):
    if math.isinf(p) or p < 1.0:
        raise DomainError("closed forms require 1 <= p < inf")
    n = whole(n, "n")
    if not s > 0:
        raise DomainError("s must be positive")
    radius = math.exp(-ball_volume_log(p, n) / n)
    if s >= radius:
        return radius, None, None
    y = s / radius
    theta_max = math.acos(y ** (p / 2.0))
    if n == 1:
        ratio = math.exp(-ball_volume_log(p, 1))
    else:
        ratio = ball_volume_ratio(p, n)
    return radius, theta_max, ratio


def _sin_cos_integral(a: float, b: float, theta_max: float) -> float:
    """int_0^theta_max sin^a / cos^b, evaluated in log space."""

    def f(theta):
        theta = np.asarray(theta, dtype=float)
        with np.errstate(divide="ignore"):
            return np.exp(a * np.log(np.sin(theta)) - b * np.log(np.cos(theta)))

    return quad_adaptive(f, 0.0, theta_max, _QUAD)


def _double_radial(p: float, theta_max: float, power: float, m_exp: float) -> float:
    """int_0^theta_max sin/cos^{1+2/p} * int_{cos^{2/p}}^1 u^power (1-u^p)^m_exp,
    the inner integral in log space."""

    def radial(u):  # quad_batch silences the floating-point warnings
        lu = np.log(u)
        one_minus = -np.expm1(p * lu)
        one_minus = np.where(one_minus <= 0.0, 0.0, one_minus)
        return np.exp(power * lu + m_exp * np.log(one_minus))

    def outer(theta):
        ct = np.cos(theta)
        inner = quad_batch(radial, (ct ** (2.0 / p)).ravel(), 1.0, _INNER_QUAD).reshape(ct.shape)
        return np.sin(theta) * ct ** (-(1.0 + 2.0 / p)) * inner

    return quad_adaptive(outer, 0.0, theta_max, _QUAD)


def m_pball_first(p: float, n: int, s: float) -> float:
    """M(1/s) for the coordinate marginal of the volume-1 l_p ball,
    first closed-form representation (0 for s at or beyond the support)."""
    radius, theta_max, ratio = _pball_setup(p, n, s)
    if theta_max is None:
        return 0.0
    a1 = 2.0 * (n - 1) / p + 3.0
    b1 = 3.0 - 2.0 / p
    lead = 4.0 / (p * (n - 1.0 + p))
    term_a = lead * ratio * _sin_cos_integral(a1, b1, theta_max)
    if p == 2.0:
        return term_a
    term_b = (
        lead
        * (2.0 - p)
        * ratio
        * _double_radial(p, theta_max, 1.0 - p, (n - 1.0) / p + 1.0)
    )
    return term_a + term_b


def m_pball_second(p: float, n: int, s: float) -> float:
    """Same value as m_pball_first through the second representation,
    led by the fully closed term; for p = 1 only that term survives.

    For p > 2 the form is refused below CONSISTENCY_BAND[0] of the support,
    where its cancellation exceeds double precision.
    """
    radius, theta_max, ratio = _pball_setup(p, n, s)
    if theta_max is None:
        return 0.0
    if p > 2.0 and s < CONSISTENCY_BAND[0] * radius:
        raise DomainError(
            f"the second closed form is ill-conditioned for p > 2 below s/R = {CONSISTENCY_BAND[0]}"
        )
    x = (s / radius) ** p
    if x >= 1.0:
        return 0.0
    denom = (n - 1.0 + p) * (n - 1.0 + 2.0 * p)
    term1 = (
        (2.0 / denom)
        * ratio
        * math.exp(((n - 1.0) / p + 2.0) * math.log1p(-x) - (2.0 - 1.0 / p) * math.log(x))
    )
    if p == 1.0:
        return term1
    a2 = 2.0 * (n - 1.0) / p + 5.0
    b2 = 5.0 - 2.0 / p
    term2 = (
        -(12.0 * (p - 1.0) / (p * denom))
        * ratio
        * _sin_cos_integral(a2, b2, theta_max)
    )
    if p == 2.0:
        return term1 + term2
    term3 = (
        -(8.0 * (2.0 - p) * (p - 1.0) / (p * denom))
        * ratio
        * _double_radial(p, theta_max, 1.0 - 2.0 * p, (n - 1.0) / p + 2.0)
    )
    return term1 + term2 + term3


def m_spherical(n: int, s: float) -> float:
    """Orlicz function of |<theta, e_1>| for theta uniform on S^{n-1}.

    Zero for s <= 1; otherwise (2 w_{n-1} / (n w_n)) times the integral of
    sin^n y / cos^2 y over [0, arccos(1/s)].
    """
    n = whole(n, "n", 2)
    if not s >= 0:
        raise DomainError("s must be nonnegative")
    if s <= 1.0:
        return 0.0
    return spherical_prefactor(n) * _sin_cos_integral(n, 2, math.acos(1.0 / s))


def spherical_prefactor(n: int) -> float:
    """2 w_{n-1} / (n w_n) with w_k the Euclidean unit-ball volume."""
    return 2.0 * math.exp(ball_volume_log(2.0, n - 1) - ball_volume_log(2.0, n)) / n


# ---------------------------------------------------------------------------
# constructors

def from_power(exponent: float, coeff: float = 1.0) -> OrliczFunction:
    """M(t) = coeff * t^exponent (1 <= exponent < inf, 0 < coeff < inf)."""
    if not (1.0 <= exponent < math.inf and 0.0 < coeff < math.inf):
        raise DomainError("power Orlicz functions need 1 <= exponent < inf and 0 < coeff < inf")

    def ev(t: float) -> float:
        _check_t(t)
        return coeff * float(t) ** exponent

    return OrliczFunction(eval=ev, zero_threshold=0.0, kind="power")


def _uniform_law(t: float) -> tuple[float, float]:
    """(M(t), M'(t)) of the uniform law on [-1/2, 1/2]: (t - 2)^2 / (4t),
    which is t/4 + 1/t - 1 without its cancellation near 2, and 1/4 - 1/t^2
    past t = 2."""
    if t <= 2.0:
        return 0.0, 0.0
    return (t - 2.0) ** 2 / (4.0 * t), 0.25 - 1.0 / (t * t)


def from_cube() -> OrliczFunction:
    """Coordinate tail integral of the volume-1 cube (_uniform_law)."""

    def ev(t: float) -> float:
        _check_t(t)
        return _uniform_law(t)[0]

    return OrliczFunction(eval=ev, zero_threshold=2.0, kind="tail-integral")


def from_pball(p: float, n: int) -> OrliczFunction:
    """Closed-form coordinate Orlicz function of the volume-1 l_p ball,
    through the representation with the fewest quadratures for the given p:
    the second (pure closed form for p = 1) below p = 2, else the first
    (a single integral for p = 2)."""
    if math.isinf(p):
        return from_cube()
    if p < 2.0:
        fn, kind = m_pball_second, "pball-closed-form-2"
    else:
        fn, kind = m_pball_first, "pball-closed-form-1"
    radius = math.exp(-ball_volume_log(p, n) / n)

    def ev(t: float) -> float:
        _check_t(t)
        if t * radius <= 1.0:
            return 0.0
        return fn(p, n, 1.0 / t)

    return OrliczFunction(eval=ev, zero_threshold=1.0 / radius, kind=kind)


def from_tail(marginal: MarginalDensity) -> OrliczFunction:
    """Tail-integral Orlicz function of a density-backed marginal.

    By Fubini the defining double integral is the stop-loss expectation
    M(t) = E (t|<X,theta>| - 1)_+ = int_{1/t}^R 2 f(r) (t r - 1) dr, which
    one quadrature evaluates.  A test oracle of from_coordinate, which the
    estimators use; atoms go through from_empirical.
    """
    radius = marginal.support_radius

    def ev(t: float) -> float:
        _check_t(t)
        if t * radius <= 1.0:
            return 0.0
        return quad_adaptive(
            lambda r: 2.0 * np.asarray(marginal.density(r), dtype=float) * (t * r - 1.0), 1.0 / t, radius, _QUAD
        )

    return OrliczFunction(eval=ev, zero_threshold=1.0 / radius, kind="tail-integral")


def _coordinate_reader(body: BodySpec) -> tuple[Callable[[float], tuple[float, float]], float]:
    """(M(t), M'(t)) of the exact coordinate law of body, read together, and
    its support radius R.

    With (|X_1| / R)^p ~ Beta(1/p, b), b = (n-1)/p + 1, and x = (tR)^{-p},
    the stop-loss expectation and its slope are

        M(t) = E (t |X_1| - 1)_+ = [tR J(2/p) - J(1/p)] / B(1/p, b),
        M'(t) = E [|X_1|; t |X_1| > 1] = R J(2/p) / B(1/p, b),

    J(alpha) = int_x^1 u^{alpha-1} (1-u)^{b-1} du (mathkit.beta_tail).  For
    y = 1 - x <= 1/4 the two terms of M nearly cancel, so M is summed there
    as one series in y: (1 - v)^c = sum_k a_k(c) v^k under the integral over
    v = 1 - u in [0, y] gives y^b sum_k [tR a_k(2/p-1) - a_k(1/p-1)] y^k / (b+k),
    whose k = 0 coefficient tR - 1 = expm1(log tR) is exact, and the same
    a_k(2/p-1) give J(2/p) = y^b sum_k a_k(2/p-1) y^k / (b+k).  The cube and
    n = 1 have the uniform law of from_cube (_uniform_law)."""
    p, n = body.p, body.n
    if math.isinf(p) or n == 1:
        return _uniform_law, 0.5
    radius = normalization_scale(body)
    a, b = 1.0 / p, (n - 1) / p + 1.0
    log_b = log_beta(a, b)

    def edge_series(log_tr: float, y: float) -> tuple[float, float]:
        d = math.expm1(log_tr)
        total, slope = d / b, 1.0 / b
        # coeff_k = a_k(2/p - 1), gap_k = a_k(2/p - 1) - a_k(1/p - 1)
        coeff, gap, power = 1.0, 0.0, 1.0
        for k in range(1, 200):
            gap = (gap * (k - a) - coeff * a) / k
            coeff *= (k - 2.0 * a) / k
            power *= y
            term = (d * coeff + gap) * power / (b + k)
            total += term
            slope += coeff * power / (b + k)
            if abs(term) <= 1e-17 * abs(total):
                scale = math.exp(b * math.log(y) - log_b)
                return scale * total, radius * scale * slope
        raise AccuracyError(f"edge series of M did not converge at y = {y}")

    def read(t: float) -> tuple[float, float]:
        if t * radius <= 1.0:
            return 0.0, 0.0
        log_tr = math.log(t * radius)
        log_x = -p * log_tr
        y = -math.expm1(log_x)
        if y <= _EDGE:
            return edge_series(log_tr, y)
        j2 = beta_tail(2.0 * a, b, log_x)
        upper = t * radius * j2 - beta_tail(a, b, log_x)
        return upper / math.exp(log_b), radius * j2 / math.exp(log_b)

    return read, radius


def from_coordinate(body: BodySpec) -> OrliczFunction:
    """Exact Orlicz function of a coordinate of the volume-1 l_p ball (of
    every direction for p = 2): the M of _coordinate_reader, the incomplete
    beta integral.  The cube and n = 1 have the uniform law of from_cube."""
    if math.isinf(body.p) or body.n == 1:
        return from_cube()
    read, radius = _coordinate_reader(body)

    def ev(t: float) -> float:
        _check_t(t)
        return read(t)[0]

    return OrliczFunction(eval=ev, zero_threshold=1.0 / radius, kind="incomplete-beta")


def _coordinate_root(body: BodySpec, N: int) -> float:
    """invert_for_support(from_coordinate(body), N) by safeguarded Newton
    steps on F = log(N M(1/s)) against v = log(log R - log s), reading
    (M, M') together (_coordinate_reader): the first read s with |F| <= 1e-9.

    Convex M with M(0) = 0 has e = t M'(t) / M(t) >= 1, the slope of -F in
    u = log s, so a read F = f puts the root between u and u + f, and |f|
    bounds the relative error of s.  Near R, M ~ C (tR - 1)^k makes F nearly
    linear in v; a step in v stays below R, where Newton in u overshoots
    onto M's flat part.  A step that leaves the bracket of the reads so far
    (from hi = log R), or a read where M vanishes, gives way to the
    midpoint, or to halving s while no lower end is known; where the
    rounding of M jumps over the 1e-9 band, the root is exp(hi) once the
    bracket is that narrow.  The first read is at min(0.9 R, 2 L_K), an
    O(1) scale of the law (L_K the isotropic constant)."""
    N = whole(N, "N")
    read, radius = _coordinate_reader(body)
    log_level, log_radius = math.log(N), math.log(radius)
    lo, hi = -math.inf, log_radius
    u = math.log(min(0.9 * radius, 2.0 * isotropic_constant(body)))
    for _ in range(_ROOT_STEPS):
        s = math.exp(u)
        m, slope = read(1.0 / s)
        if m > 0:
            f = log_level + math.log(m)
            if abs(f) <= _ROOT_TOL:
                return s
            if f > 0:
                lo, hi = u, min(hi, u + f)
            else:
                lo, hi = max(lo, u + f), u
            w = log_radius - u
            step = log_radius - w * math.exp(-f * m * s / (slope * w))
        else:
            hi, step = u, math.nan
        if hi - lo <= _ROOT_TOL:
            return math.exp(hi)
        if lo < step < hi:
            u = step
        elif lo > -math.inf:
            u = 0.5 * (lo + hi)
        else:
            u = hi - math.log(2.0)
    raise AccuracyError(f"no root of the coordinate law within {_ROOT_STEPS} reads at N = {N} for {body}")


def from_empirical(projections: Sequence[float]) -> OrliczFunction:
    """Tail-integral Orlicz function of the empirical measure of |projections|."""
    v = np.abs(np.asarray(projections, dtype=float).ravel())
    if v.size == 0:
        raise DomainError("empirical construction needs at least one projection")
    if not np.all(np.isfinite(v)):
        raise DomainError("projections must be finite")
    total = v.size
    v = np.sort(v[v > 0])[::-1]  # descending; zero atoms never enter the tail
    if v.size == 0:
        raise EstimationError("all projections vanish")
    thresholds = 1.0 / v  # ascending
    prefix = np.cumsum(v)  # prefix[k-1] = sum of k largest values

    def ev(t: float) -> float:
        _check_t(t)
        if t <= thresholds[0]:
            return 0.0
        # the k atoms at or above 1/t: M(t) = sum (t v_i - 1) / total
        k = int(np.searchsorted(thresholds, t, side="right"))
        return float(t * prefix[k - 1] - k) / total

    return OrliczFunction(eval=ev, zero_threshold=float(thresholds[0]), kind="empirical")


def empirical_roots(atoms: np.ndarray, N: int) -> np.ndarray:
    """invert_for_support(from_empirical(row), N) for each row of atoms, in
    closed form: the s with mean((|v| - s)_+) = s / N.

    With the K values of a row sorted descending and S_k the sum of the k
    largest, the root is S_k / (k + K/N) for the k with v_(k+1) < s <= v_(k)
    (v_(K+1) = 0).  Every ratio S_k / (k + K/N) is at most the root, so the
    root is their maximum over k <= L once v_(L+1) does not exceed that
    maximum.  Only the top L + 1 values of a row are partitioned out and
    sorted; L grows for the rows whose root needs more of them.
    """
    N = whole(N, "N")
    v = np.abs(np.atleast_2d(np.asarray(atoms, dtype=float)))
    rows, total = v.shape
    if total == 0:
        raise DomainError("empirical roots need at least one atom per row")
    if not np.all(np.isfinite(v)):
        raise DomainError("atoms must be finite")
    roots = np.empty(rows)
    todo = np.arange(rows)
    # at N = 1e3 the root's k is about 10 K/N for l_p projections in
    # dimension 15 and 30; few rows need a wider L
    top = min(total, 16 * total // N + 64)
    while todo.size:
        part = v if todo.size == rows else v[todo]
        if top < total:
            part.partition(total - top - 1, axis=1)
            below, part = part[:, total - top - 1], part[:, total - top :]
        else:
            below = np.zeros(todo.size)
        sums = np.cumsum(np.sort(part, axis=1)[:, ::-1], axis=1)
        best = np.max(sums / (np.arange(1, top + 1) + total / N), axis=1)
        done = below <= best
        roots[todo[done]] = best[done]
        todo = todo[~done]
        top = min(total, 4 * top)
    if not np.all(roots > 0):
        raise EstimationError("all projections of a row vanish")
    return roots


def from_spherical(n: int) -> OrliczFunction:
    """Orlicz function of the first sphere coordinate in dimension n."""

    def ev(t: float) -> float:
        _check_t(t)
        return m_spherical(n, t)

    return OrliczFunction(eval=ev, zero_threshold=1.0, kind="spherical")


# ---------------------------------------------------------------------------
# duals and inversion

def _convexity_check(m: Callable[[float], float], grid_max: float) -> None:
    ts = np.linspace(0.0, grid_max, 33)
    vals = np.array([m(float(t)) for t in ts])
    mids = np.array([m(float(t)) for t in 0.5 * (ts[:-1] + ts[1:])])
    slack = 1e-10 * max(1.0, float(np.max(np.abs(vals))))
    if np.any(mids > 0.5 * (vals[:-1] + vals[1:]) + slack):
        raise DomainError("input fails the midpoint convexity test")


def legendre_dual(M: OrliczFunction, grid_max: float) -> OrliczFunction:
    """M*(x) = sup_{t in [0, grid_max]} (x t - M(t)).  The objective is concave,
    so its maximiser is where the chord slope of M over h reaches x: the
    crossing of the decreasing gap x h - (M(t + h) - M(t)) over
    u = t + grid_max in [grid_max, 2 grid_max], where the relative stop of
    mathkit.brent is an absolute width, even at t = 0.  A gap at most 0 at
    t = 0 puts the maximiser at 0, one above 0 at t = grid_max puts it at
    grid_max; M at both ends is read once per dual, so an x with its
    maximiser at an end costs no read of M."""
    if not (math.isfinite(grid_max) and grid_max > 0):
        raise DomainError("grid_max must be positive and finite")
    m = M.eval
    _convexity_check(m, grid_max)
    h = 1e-9 * grid_max
    m_0, m_top = m(0.0), m(grid_max)
    rise_0, rise_top = m(h) - m_0, m(grid_max + h) - m_top

    def ev(x: float) -> float:
        if not (math.isfinite(x) and x >= 0):
            raise DomainError("dual Orlicz functions are defined for finite x >= 0")
        best = max(0.0, -m_0, x * grid_max - m_top)
        g_lo, g_hi = x * h - rise_0, x * h - rise_top
        if g_lo <= 0 or g_hi > 0:
            return best

        def gap(u: float) -> float:
            t = u - grid_max
            return x * h - (m(t + h) - m(t))

        lo, hi = brent(gap, grid_max, 2.0 * grid_max, g_lo, g_hi, 1e-9)
        t_star = 0.5 * (lo + hi) - grid_max
        return max(best, x * t_star - m(t_star))

    # the dual vanishes below the smallest slope M(t)/t of M on the window,
    # which is nondecreasing in t for convex M with M(0) = 0
    probe = 1e-12 * grid_max
    return OrliczFunction(eval=ev, zero_threshold=float(m(probe) / probe), kind=M.kind)


def dual_involution_error(M: OrliczFunction, ts: Sequence[float]) -> float:
    """max |M**(t) - M(t)| over ts, the double dual on [0, 20], scaled by
    max(1, M(ts[-1])): a check of legendre_dual on slopes inside its window."""
    ts = [float(t) for t in ts]
    if not ts:
        raise DomainError("the involution check needs at least one point")
    dd = legendre_dual(legendre_dual(M, 20.0), 20.0)
    err = max(abs(dd.eval(t) - M.eval(t)) for t in ts)
    return err / max(M.eval(ts[-1]), 1.0)


def invert_for_support(M: OrliczFunction, N: int) -> float:
    """inf{s > 0 : M(1/s) <= 1/N}, the Orlicz norm of (1, ..., 1) in R^N, to
    a relative width of 1e-9: the upper end of the final brent bracket of the
    decreasing gap N M(1/s) - 1, grown from 1 over M's zero threshold (from 1
    when M vanishes only at 0)."""
    N = whole(N, "N")

    def gap(s: float) -> float:
        return N * M.eval(1.0 / s) - 1.0

    ref = 1.0 / M.zero_threshold if M.zero_threshold > 0 else 1.0
    return brent(gap, *bracket(gap, ref, BRACKET_LIMIT), _INVERT_REL_TOL)[1]


# Fractions of the support radius used by the cross-representation checks.
# The second closed form carries an x^{-(2-1/p)} leading term, so for large
# p and small s its conditioning exceeds double precision; s/support >= 0.3
# keeps the worst cancellation near 1e4, leaving 1e-6 agreement reachable.
CONSISTENCY_BAND = (0.30, 0.95)


def build_consistency_grid(ps, ns, s_count: int = 10):
    """(p, n, s_fraction) triples for the mutual-consistency checks."""
    lo, hi = CONSISTENCY_BAND
    fracs = np.linspace(lo, hi, s_count)
    return [(float(p), int(n), float(f)) for p in ps for n in ns for f in fracs]


def representation_spread(p: float, n: int, s_frac: float) -> float:
    """(max - min) / max of M(1/s), s = s_frac * R, over every representation
    of the l_p coordinate Orlicz function: the two closed forms, the defining
    double integral, its survival variant, the stop-loss quadrature and the
    production incomplete-beta path."""
    body = BodySpec(p, n)
    s = s_frac * normalization_scale(body)
    marg = coordinate_marginal(body)
    vals = [
        m_pball_first(p, n, s),
        m_pball_second(p, n, s),
        m_from_tail(marg, 1.0 / s),
        m_from_tail_alt(marg, 1.0 / s),
        from_tail(marg).eval(1.0 / s),
        from_coordinate(body).eval(1.0 / s),
    ]
    hi, lo = max(vals), min(vals)
    return (hi - lo) / hi if hi > 0 else 0.0


def export_tabulation(M: OrliczFunction, path) -> None:
    """CSV of (t, M(t)) on a log grid of _TABLE_POINTS points from 0.9 a to
    1e4 max(a, 1e-3), a the zero threshold (1e-3 if it is 0), 17 significant
    digits."""
    anchor = M.zero_threshold if M.zero_threshold > 0 else 1e-3
    lo, hi = 0.9 * anchor, 1e4 * max(anchor, 1e-3)
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), _TABLE_POINTS))
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("t,M\n")
        for t in grid:
            fh.write(f"{t:.17g},{M.eval(float(t)):.17g}\n")
