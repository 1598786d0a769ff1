"""Orlicz functions for marginals of convex bodies: tail-integral and
closed-form constructions, Luxemburg norms, Legendre duals, and the
level-1/N inversion that estimates expected support functions.

All constructions share one convention: M is the tail integral of the law
of |<X, theta>|,

    M(s) = int_0^s  E[ |<X,theta>| ; |<X,theta>| >= 1/t ]  dt,

which vanishes exactly on [0, 1/support_radius].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .bodies import BodySpec, MarginalDensity, coordinate_marginal, normalization_scale
from .errors import DomainError, EstimationError, RangeError
from .mathkit import (
    DEFAULT_QUAD,
    Interval,
    QuadratureSpec,
    ball_volume_log,
    ball_volume_ratio,
    bisect,
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
    "from_empirical",
    "empirical_roots",
    "from_spherical",
    "legendre_dual",
    "dual_involution_error",
    "luxemburg_norm",
    "invert_for_support",
    "representation_spread",
    "export_tabulation",
]

# Bracketing limit for the norm/inversion searches; outside it we refuse
# to extrapolate and raise RangeError instead.
BRACKET_LIMIT = 1e6

# Values of M that one Legendre dual remembers: the chord-slope bisections of
# its evaluations all halve [grid_max, 2 grid_max] and so revisit the same t.
_DUAL_MEMO = 1 << 16


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

def m_from_tail(marginal: MarginalDensity, s: float, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Tail-integral M(s): outer integral of the truncated first moment."""
    if s < 0:
        raise DomainError("M is defined for s >= 0")
    radius = marginal.support_radius
    if s * radius <= 1.0:
        return 0.0
    quad = quad.rel_only()
    inner = quad.tighter()

    def outer(t):  # truncated first moment E[|X|; |X| >= 1/t] at every node
        lo = np.minimum(1.0 / t, radius)
        return quad_batch(lambda r: 2.0 * r * marginal.density(r), lo, radius, inner)

    return quad_adaptive(outer, Interval(1.0 / radius, s), quad)


def m_from_tail_alt(marginal: MarginalDensity, s: float, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
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
    quad = quad.rel_only()
    inner = quad.tighter()

    def survival(a):  # P(|X| >= a) at every node
        lo = np.minimum(a, radius)
        return quad_batch(lambda r: 2.0 * marginal.density(r), lo, radius, inner)

    def hazard(t):
        return survival(1.0 / t) / t

    def excess(u):
        return survival(u) * (s - 1.0 / u)

    term1 = quad_adaptive(hazard, Interval(1.0 / radius, s), quad)
    term2 = quad_adaptive(excess, Interval(1.0 / s, radius), quad)
    return term1 + term2


# ---------------------------------------------------------------------------
# closed-form representations for coordinate marginals of normalized l_p balls

def _pball_setup(p: float, n: int, s: float):
    if math.isinf(p) or p < 1.0:
        raise DomainError("closed forms require 1 <= p < inf")
    if n < 1:
        raise DomainError("n must be a positive integer")
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


def _sin_cos_integral(a: float, b: float, theta_max: float, quad: QuadratureSpec) -> float:
    """int_0^theta_max sin^a / cos^b, evaluated in log space."""

    def f(theta):
        theta = np.asarray(theta, dtype=float)
        with np.errstate(divide="ignore"):
            return np.exp(a * np.log(np.sin(theta)) - b * np.log(np.cos(theta)))

    return quad_adaptive(f, Interval(0.0, theta_max), quad)


def _double_radial(
    p: float,
    theta_max: float,
    power: float,
    m_exp: float,
    quad: QuadratureSpec,
) -> float:
    """int_0^theta_max sin/cos^{1+2/p} * int_{cos^{2/p}}^1 u^power (1-u^p)^m_exp,
    the inner integral in log space."""
    inner_quad = quad.tighter()

    def radial(u):  # quad_batch silences the floating-point warnings
        lu = np.log(u)
        one_minus = -np.expm1(p * lu)
        one_minus = np.where(one_minus <= 0.0, 0.0, one_minus)
        return np.exp(power * lu + m_exp * np.log(one_minus))

    def outer(theta):
        ct = np.cos(theta)
        inner = quad_batch(radial, ct ** (2.0 / p), 1.0, inner_quad)
        return np.sin(theta) * ct ** (-(1.0 + 2.0 / p)) * inner

    return quad_adaptive(outer, Interval(0.0, theta_max), quad)


def m_pball_first(p: float, n: int, s: float, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """M(1/s) for the coordinate marginal of the normalized l_p ball,
    first closed-form representation (0 for s at or beyond the support)."""
    radius, theta_max, ratio = _pball_setup(p, n, s)
    if theta_max is None:
        return 0.0
    quad = quad.rel_only()
    a1 = 2.0 * (n - 1) / p + 3.0
    b1 = 3.0 - 2.0 / p
    lead = 4.0 / (p * (n - 1.0 + p))
    term_a = lead * ratio * _sin_cos_integral(a1, b1, theta_max, quad)
    if p == 2.0:
        return term_a
    term_b = (
        lead
        * (2.0 - p)
        * ratio
        * _double_radial(p, theta_max, 1.0 - p, (n - 1.0) / p + 1.0, quad)
    )
    return term_a + term_b


def m_pball_second(p: float, n: int, s: float, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
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
    quad = quad.rel_only()
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
        * _sin_cos_integral(a2, b2, theta_max, quad)
    )
    if p == 2.0:
        return term1 + term2
    term3 = (
        -(8.0 * (2.0 - p) * (p - 1.0) / (p * denom))
        * ratio
        * _double_radial(p, theta_max, 1.0 - 2.0 * p, (n - 1.0) / p + 2.0, quad)
    )
    return term1 + term2 + term3


def m_spherical(n: int, s: float, quad: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Orlicz function of |<theta, e_1>| for theta uniform on S^{n-1}.

    Zero for s <= 1; otherwise (2 w_{n-1} / (n w_n)) times the integral of
    sin^n y / cos^2 y over [0, arccos(1/s)].
    """
    if n < 2:
        raise DomainError("the sphere marginal needs n >= 2")
    if not s >= 0:
        raise DomainError("s must be nonnegative")
    if s <= 1.0:
        return 0.0
    quad = quad.rel_only()
    const = spherical_prefactor(n)
    upper = math.acos(1.0 / s)

    def f(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            return np.exp(n * np.log(np.sin(y)) - 2.0 * np.log(np.cos(y)))

    return const * quad_adaptive(f, Interval(0.0, upper), quad)


def spherical_prefactor(n: int) -> float:
    """2 w_{n-1} / (n w_n) with w_k the Euclidean unit-ball volume."""
    return 2.0 * math.exp(ball_volume_log(2.0, n - 1) - ball_volume_log(2.0, n)) / n


# ---------------------------------------------------------------------------
# constructors

def from_power(exponent: float, coeff: float = 1.0) -> OrliczFunction:
    """M(t) = coeff * t^exponent (exponent >= 1, coeff > 0)."""
    if exponent < 1.0 or coeff <= 0:
        raise DomainError("power Orlicz functions need exponent >= 1 and coeff > 0")

    def ev(t: float) -> float:
        _check_t(t)
        return coeff * float(t) ** exponent

    return OrliczFunction(eval=ev, zero_threshold=0.0, kind="power")


def from_cube() -> OrliczFunction:
    """Coordinate tail integral of the volume-1 cube: t/4 + 1/t - 1 past 2."""

    def ev(t: float) -> float:
        _check_t(t)
        if t <= 2.0:
            return 0.0
        return t / 4.0 + 1.0 / t - 1.0

    return OrliczFunction(eval=ev, zero_threshold=2.0, kind="tail-integral")


def from_pball(
    p: float,
    n: int,
    form: str = "auto",
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> OrliczFunction:
    """Closed-form coordinate Orlicz function of the normalized l_p ball.

    form "auto" picks the representation with the fewest quadratures for
    the given p (pure closed form for p=1, single integral for p=2).
    """
    if math.isinf(p):
        return from_cube()
    if form == "auto":
        form = "second" if p < 2.0 else "first"
    if form == "first":
        fn, kind = m_pball_first, "pball-closed-form-1"
    elif form == "second":
        fn, kind = m_pball_second, "pball-closed-form-2"
    else:
        raise DomainError(f"unknown representation {form!r}")
    radius = math.exp(-ball_volume_log(p, n) / n)

    def ev(t: float) -> float:
        _check_t(t)
        if t * radius <= 1.0:
            return 0.0
        return fn(p, n, 1.0 / t, quad)

    return OrliczFunction(eval=ev, zero_threshold=1.0 / radius, kind=kind)


def from_tail(marginal: MarginalDensity, quad: QuadratureSpec = DEFAULT_QUAD) -> OrliczFunction:
    """Tail-integral Orlicz function of a density-backed marginal.

    By Fubini the defining double integral is the stop-loss expectation
    M(t) = E (t|<X,theta>| - 1)_+ = int_{1/t}^R 2 f(r) (t r - 1) dr, which
    one quadrature evaluates.  Atoms go through from_empirical instead.
    """
    radius = marginal.support_radius
    quad = quad.rel_only()

    def ev(t: float) -> float:
        _check_t(t)
        if t * radius <= 1.0:
            return 0.0
        return quad_adaptive(
            lambda r: 2.0 * np.asarray(marginal.density(r), dtype=float) * (t * r - 1.0),
            Interval(1.0 / t, radius),
            quad,
        )

    return OrliczFunction(eval=ev, zero_threshold=1.0 / radius, kind="tail-integral")


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
    if N < 1:
        raise DomainError("N must be a positive integer")
    v = np.abs(np.atleast_2d(np.asarray(atoms, dtype=float)))
    rows, total = v.shape
    if total == 0:
        raise DomainError("empirical roots need at least one atom per row")
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


def from_spherical(n: int, quad: QuadratureSpec = DEFAULT_QUAD) -> OrliczFunction:
    """Orlicz function of the first sphere coordinate in dimension n."""

    def ev(t: float) -> float:
        _check_t(t)
        return m_spherical(n, t, quad)

    return OrliczFunction(eval=ev, zero_threshold=1.0, kind="spherical")


# ---------------------------------------------------------------------------
# duals, norms, inversion

def _convexity_check(m: Callable[[float], float], grid_max: float, points: int = 33) -> None:
    ts = np.linspace(0.0, grid_max, points)
    vals = np.array([m(float(t)) for t in ts])
    mids = np.array([m(float(t)) for t in 0.5 * (ts[:-1] + ts[1:])])
    slack = 1e-10 * max(1.0, float(np.max(np.abs(vals))))
    if np.any(mids > 0.5 * (vals[:-1] + vals[1:]) + slack):
        raise DomainError("input fails the midpoint convexity test")


def legendre_dual(M: OrliczFunction, grid_max: float) -> OrliczFunction:
    """M*(x) = sup_{t in [0, grid_max]} (x t - M(t)).  The objective is concave,
    so bisection finds its maximiser where the chord slope of M over h reaches
    x; on u = t + grid_max the relative stop is an absolute width, even at t = 0.

    Each dual reads M through its own least-recently-used memo of at most
    _DUAL_MEMO values: the convexity test, the zero-threshold probes and every
    bisection.  Bisections of different x revisit the same dyadic points of
    [grid_max, 2 grid_max], so a dual of a dual stops repeating the inner
    bisections.  M must therefore be pure, a deterministic function of t; the
    dual's values are then exactly those of reading M afresh every time."""
    if not (math.isfinite(grid_max) and grid_max > 0):
        raise DomainError("grid_max must be positive and finite")
    m = lru_cache(maxsize=_DUAL_MEMO)(M.eval)
    _convexity_check(m, grid_max)
    h = 1e-9 * grid_max

    def ev(x: float) -> float:
        if not (math.isfinite(x) and x >= 0):
            raise DomainError("dual Orlicz functions are defined for finite x >= 0")
        lo, hi = bisect(  # over u = t + grid_max
            lambda u: m(u - grid_max + h) - m(u - grid_max) >= x * h,
            grid_max, 2.0 * grid_max, 1e-9,
        )
        t_star = 0.5 * (lo + hi) - grid_max
        best = max(x * t - m(t) for t in (0.0, t_star, grid_max))
        return max(best, 0.0)

    # the dual vanishes below the smallest slope of M
    probes = grid_max * np.logspace(-12.0, 0.0, 25)
    slopes = [m(float(t)) / float(t) for t in probes]
    return OrliczFunction(eval=ev, zero_threshold=float(min(slopes)), kind=M.kind)


def dual_involution_error(M: OrliczFunction, ts: Sequence[float]) -> float:
    """max |M**(t) - M(t)| over ts, the double dual on [0, 20], scaled by
    max(1, M(ts[-1])): a check of legendre_dual on slopes inside its window.
    M is read once per distinct t: the check and the inner dual share one memo,
    since the dual's probes may land on points of ts."""
    ts = [float(t) for t in ts]
    if not ts:
        raise DomainError("the involution check needs at least one point")
    M = replace(M, eval=lru_cache(maxsize=_DUAL_MEMO)(M.eval))
    dd = legendre_dual(legendre_dual(M, 20.0), 20.0)
    err = max(abs(dd.eval(t) - M.eval(t)) for t in ts)
    return err / max(M.eval(ts[-1]), 1.0)


def luxemburg_norm(x: Sequence[float], M: OrliczFunction) -> float:
    """inf{rho > 0 : sum_i M(|x_i| / rho) <= 1} by monotone bisection.
    M is read once per distinct nonzero |x_i|, weighted by its multiplicity,
    so a constant vector of any length costs one read per step."""
    v = np.abs(np.asarray(x, dtype=float).ravel())
    if v.size == 0:
        raise DomainError("the norm of an empty vector is undefined")
    top = float(v.max())
    if top == 0.0:
        return 0.0
    values, counts = np.unique(v[v > 0], return_counts=True)
    weighted = list(zip(values.tolist(), counts.tolist()))

    def budget(rho: float) -> float:
        return float(sum(c * M.eval(a / rho) for a, c in weighted))

    lo = top / BRACKET_LIMIT
    hi = v.size * top * BRACKET_LIMIT
    if budget(lo) <= 1.0:
        raise RangeError("Luxemburg norm below the bracketing range")
    if budget(hi) > 1.0:
        raise RangeError("Luxemburg norm above the bracketing range")
    return bisect(lambda rho: budget(rho) <= 1.0, lo, hi, 1e-10)[1]


def invert_for_support(M: OrliczFunction, N: int) -> float:
    """inf{s > 0 : M(1/s) <= 1/N}, the support-function estimate at level N.

    Exploits that s -> M(1/s) is nonincreasing; the bracket is found by
    doubling away from the zero threshold.
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    level = 1.0 / N
    s_ref = 1.0 / M.zero_threshold if M.zero_threshold > 0 else 1.0

    def phi(s: float) -> float:
        return M.eval(1.0 / s)

    hi = s_ref
    doublings = 0
    while phi(hi) > level:
        hi *= 2.0
        doublings += 1
        if hi > s_ref * BRACKET_LIMIT:
            raise RangeError("M(1/s) stays above 1/N within the bracketing range")
    lo = hi / 2.0 if doublings else s_ref / 2.0
    while phi(lo) <= level:
        lo /= 2.0
        if lo < s_ref / BRACKET_LIMIT:
            raise RangeError("M(1/s) stays at or below 1/N within the bracketing range")
    return bisect(lambda s: phi(s) <= level, lo, hi, 1e-9)[1]


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
    double integral, its survival variant and the production stop-loss path."""
    body = BodySpec(p, n)
    s = s_frac * normalization_scale(body)
    marg = coordinate_marginal(body)
    vals = [
        m_pball_first(p, n, s),
        m_pball_second(p, n, s),
        m_from_tail(marg, 1.0 / s),
        m_from_tail_alt(marg, 1.0 / s),
        from_tail(marg).eval(1.0 / s),
    ]
    hi, lo = max(vals), min(vals)
    return (hi - lo) / hi if hi > 0 else 0.0


def export_tabulation(
    M: OrliczFunction,
    path,
    t_min: Optional[float] = None,
    t_max: Optional[float] = None,
    points: int = 257,
) -> None:
    """CSV of (t, M(t)) on a log grid, 17 significant digits."""
    anchor = M.zero_threshold if M.zero_threshold > 0 else 1e-3
    lo = t_min if t_min is not None else 0.9 * anchor
    hi = t_max if t_max is not None else 1e4 * max(anchor, 1e-3)
    if not (0 < lo < hi):
        raise DomainError("need 0 < t_min < t_max")
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), points))
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("t,M\n")
        for t in grid:
            fh.write(f"{t:.17g},{M.eval(float(t)):.17g}\n")
