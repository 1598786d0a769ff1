"""Special functions (ball volumes, the incomplete beta integral), stable
elementary numerics, and adaptive quadrature.

The two adaptive quadrature drivers, quad_adaptive(f, lo, hi, rel_tol) on
one interval and quad_batch(f, lo, hi, rel_tol) on many, bisect panels of
one 15-point Gauss-Kronrod rule (_eval_panels) until the error estimate is
within rel_tol of the value.  Integrands receive (m, 15) arrays of
abscissae and must act elementwise; scalar returns are broadcast.  The
nested test oracles use quad_batch for their inner integrals.  Everything
here is pure, reentrant and deterministic for fixed inputs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, DegenerateParameterError, DomainError, RangeError, whole

__all__ = [
    "SinCosParams",
    "ball_volume",
    "ball_volume_log",
    "ball_volume_ratio",
    "beta_tail",
    "quad_adaptive",
    "quad_batch",
    "quad_cumulative",
    "sincos_recursion",
    "sincos_identity_sides",
    "bracket",
    "brent",
]

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class SinCosParams:
    """Parameters of the sine-cosine power-integral recursion.

    alpha is the sine exponent, beta the cosine exponent, upper the upper
    integration limit in [0, pi/2), and k the recursion depth.
    """

    alpha: float
    beta: float
    upper: float
    k: int

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError("alpha and beta must be finite")
        if not (0.0 <= self.upper < math.pi / 2):
            raise DomainError("upper must lie in [0, pi/2)")
        object.__setattr__(self, "k", whole(self.k, "k", 0))


# ---------------------------------------------------------------------------
# special functions

def _check_p(p: float) -> None:
    if math.isnan(p) or p < 1.0:
        raise DomainError(f"exponent p must satisfy 1 <= p <= inf, got {p!r}")


def ball_volume_log(p: float, n: int) -> float:
    """ln of the volume of the unit l_p ball in dimension n.

    The displayed closed form is (2*Gamma(1+1/p))^n / Gamma(1+n/p); the
    2^n factor is what makes the p=2, n=2 value come out to pi.  p = inf
    is the cube, handled as an explicit branch.
    """
    _check_p(p)
    n = whole(n, "n")
    if math.isinf(p):
        return n * _LOG2
    return n * (_LOG2 + math.lgamma(1.0 + 1.0 / p)) - math.lgamma(1.0 + n / p)


def ball_volume(p: float, n: int) -> float:
    """Volume of the unit l_p ball in dimension n, computed in log space."""
    return math.exp(ball_volume_log(p, n))


def ball_volume_ratio(p: float, n: int) -> float:
    """|B_p^{n-1}| / |B_p^n|, asymptotically of order n^{1/p}."""
    n = whole(n, "n", 2)
    if math.isinf(p):
        return 0.5
    return math.exp(ball_volume_log(p, n - 1) - ball_volume_log(p, n))


# ---------------------------------------------------------------------------
# incomplete beta function

_CF_STEPS = 1000
_CF_TINY = 1e-300  # Lentz's stand-in for a vanishing denominator


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of B_x(a, b) a / (x^a (1 - x)^b), by Lentz's
    method (Numerical Recipes, 3rd ed., sections 5.2 and 6.4); it converges
    fast for x < (a + 1) / (a + b + 2)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_STEPS + 1):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                    -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _CF_TINY else _CF_TINY
            h *= c * d
        if abs(c * d - 1.0) <= 1e-16:
            return h
    raise AccuracyError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def beta_tail(alpha: float, b: float, log_x: float) -> float:
    """int_x^1 u^(alpha-1) (1-u)^(b-1) du, the upper incomplete beta
    integral B(alpha, b) (1 - I_x(alpha, b)), for alpha, b > 0 and
    x = exp(log_x) in [0, 1].

    x enters through its logarithm, so an x that underflows (log_x far below
    -745, or -inf) still gives B(alpha, b), and 1 - x = -expm1(log_x) keeps
    its relative precision as x nears 1.  Each end is one continued fraction
    (DiDonato and Morris, ACM TOMS 18, 1992), taken on the side where it
    converges: near x = 1 the integral itself, B_{1-x}(b, alpha), with no
    cancellation; elsewhere B(alpha, b) less the lower integral B_x(alpha, b).
    """
    if not (alpha > 0 and b > 0 and log_x <= 0):  # NaN included
        raise DomainError(f"beta_tail needs alpha, b > 0 and log_x <= 0, got {alpha!r}, {b!r}, {log_x!r}")
    y = -math.expm1(log_x)
    if y == 0.0:
        return 0.0
    log_y = math.log(y)
    if y < (b + 1.0) / (alpha + b + 2.0):
        return math.exp(b * log_y + alpha * log_x) / b * _beta_cf(b, alpha, y)
    full = math.exp(math.lgamma(alpha) + math.lgamma(b) - math.lgamma(alpha + b))
    return full - math.exp(alpha * log_x + b * log_y) / alpha * _beta_cf(alpha, b, math.exp(log_x))


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15-point rule (standard nodes/weights, 30+ digits truncated)

_XGK = [
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
]
_WGK = [
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
]
_WG = [
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
]

_NODES = np.array([-x for x in _XGK[:-1]] + [0.0] + [x for x in reversed(_XGK[:-1])])
_KW = np.array(_WGK[:-1] + [_WGK[-1]] + list(reversed(_WGK[:-1])))
# Gauss nodes sit at the odd positions of the sorted Kronrod nodes.
_GW = np.zeros(15)
_GW[1:14:2] = np.array(_WG[:-1] + [_WG[-1]] + list(reversed(_WG[:-1])))
_KGW = np.stack((_KW, _GW))

_MAX_DEPTH = 60  # bisections of one panel before a driver gives up
_MAX_PANELS = 20000
_CUMULATIVE_CHUNK = 100_000  # panels per integrand call of quad_cumulative


def _check_intervals(rel_tol: float, finite: bool, ordered: bool) -> None:
    """Refuse what neither driver integrates: rel_tol <= 0, a non-finite
    endpoint, an interval with lo > hi."""
    if not rel_tol > 0:  # NaN included
        raise DomainError(f"rel_tol must be positive, got {rel_tol!r}")
    if not finite:
        raise DomainError("interval endpoints must be finite")
    if not ordered:
        raise DomainError("every interval needs lo <= hi")


def _eval_panels(f: Callable, a: np.ndarray, b: np.ndarray):
    """Kronrod values and |Kronrod - Gauss| errors of the panels [a_i, b_i],
    from one call of f on the (m, 15) node array."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _NODES
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        fx = np.broadcast_to(fx, x.shape)
    if not np.isfinite(fx).all():
        bad = int(np.argmin(np.all(np.isfinite(fx), axis=1)))
        raise DomainError(f"integrand non-finite inside panel [{a[bad]}, {b[bad]}]")
    # a row-wise reduce sums each panel in the same order however many
    # panels share the call (a BLAS product need not)
    kron, gauss = np.add.reduce(fx[:, None, :] * _KGW, axis=2).T
    return half * kron, np.abs(half * (kron - gauss))


def quad_adaptive(f: Callable, lo: float, hi: float, rel_tol: float = 1e-9) -> float:
    """Integrate f over [lo, hi] to within rel_tol * |result|.

    Panels with the largest error estimate are bisected first, both halves
    in one call of f on a (2, 15) node array (the first panel is (1, 15));
    endpoint singularities are handled by panel shrinkage toward the
    offending endpoint (nodes never touch panel ends).  Raises DomainError
    for a non-finite integrand, and AccuracyError, with the best estimate
    attached, when the depth or panel budget is exhausted.
    """
    a, b = float(lo), float(hi)
    _check_intervals(rel_tol, math.isfinite(a) and math.isfinite(b), a <= b)
    if a == b:
        return 0.0
    vals, errs = _eval_panels(f, np.array([a]), np.array([b]))
    val, err = float(vals[0]), float(errs[0])
    # heap entries: (-err, lo, hi, depth, value, err)
    heap = [(-err, a, b, 0, val, err)]
    total_val, total_err = val, err
    while True:
        tol = rel_tol * abs(total_val)
        if total_err <= tol:
            break
        neg_err, pa, pb, depth, pval, perr = heapq.heappop(heap)
        if depth >= _MAX_DEPTH or len(heap) + 2 > _MAX_PANELS:
            raise AccuracyError(
                f"quadrature did not converge: error bound {total_err:.3e} > tolerance {tol:.3e}",
                estimate=total_val,
                error_bound=total_err,
            )
        mid = 0.5 * (pa + pb)
        vals, errs = _eval_panels(f, np.array([pa, mid]), np.array([mid, pb]))
        (v1, v2), (e1, e2) = vals.tolist(), errs.tolist()
        total_val += v1 + v2 - pval
        total_err += e1 + e2 - perr
        heapq.heappush(heap, (-e1, pa, mid, depth + 1, v1, e1))
        heapq.heappush(heap, (-e2, mid, pb, depth + 1, v2, e2))
    # fixed-order reduction so identical inputs give bit-identical results
    panels = sorted((entry[1], entry[4]) for entry in heap)
    return float(math.fsum(v for _, v in panels))


def quad_batch(f: Callable, lo, hi, rel_tol: float = 1e-9) -> np.ndarray:
    """Integrals of f over each [lo[k], hi[k]], each to within
    rel_tol * |its value|, as an array.

    The panel rule and the stop of quad_adaptive, run on all intervals
    together: f receives an (m, 15) array of abscissae and must act
    elementwise.  Each round, every interval still above its tolerance
    bisects the panels whose error is within 10x of its worst panel, and all
    new panels are evaluated in one f call.  Each value is the fsum of its
    own panels taken by left endpoint, so it does not depend on the other
    intervals in the batch.  Raises DomainError for a non-finite integrand
    and AccuracyError, with the worst interval's estimate and error bound,
    when the depth or panel budget runs out.

    Both drivers exist because routing quad_adaptive through this one
    slowed an in-process validate (seed 7) by a quarter or more on 2 cores.
    """
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, dtype=float)),
                                 np.atleast_1d(np.asarray(hi, dtype=float)))
    if lo.ndim != 1:
        raise DomainError("interval endpoints must be scalars or 1-D arrays")
    _check_intervals(rel_tol, bool(np.isfinite(lo).all() and np.isfinite(hi).all()), not np.any(lo > hi))
    count = lo.size
    out = np.zeros(count)
    live = np.flatnonzero(lo < hi)  # zero-width intervals integrate to 0
    if live.size == 0:
        return out
    # one row per panel: lo, hi, owner, depth, value, error bound
    rows = np.zeros((live.size, 6))
    rows[:, 0], rows[:, 1], rows[:, 2] = lo[live], hi[live], live
    rows[:, 4], rows[:, 5] = _eval_panels(f, rows[:, 0], rows[:, 1])
    while True:
        owner = rows[:, 2].astype(np.intp)
        total_val = np.bincount(owner, rows[:, 4], count)
        total_err = np.bincount(owner, rows[:, 5], count)
        tol = rel_tol * np.abs(total_val)
        todo = total_err > tol
        if not todo.any():
            break
        worst = np.zeros(count)
        np.maximum.at(worst, owner, rows[:, 5])
        split = todo[owner] & (10.0 * rows[:, 5] >= worst[owner])
        old = rows[split]
        spent = np.zeros(count, dtype=bool)
        spent[old[old[:, 3] >= _MAX_DEPTH, 2].astype(np.intp)] = True
        if len(rows) + len(old) > _MAX_PANELS:  # else no interval can pass it
            panels = np.bincount(owner, minlength=count) + np.bincount(owner[split], minlength=count)
            spent |= panels > _MAX_PANELS
        if spent.any():
            k = int(np.argmax(np.where(spent, total_err / tol, -1.0)))
            raise AccuracyError(
                f"quadrature did not converge: error bound {total_err[k]:.3e} > tolerance {tol[k]:.3e}",
                estimate=float(total_val[k]),
                error_bound=float(total_err[k]),
            )
        mid = 0.5 * (old[:, 0] + old[:, 1])
        new = np.concatenate((old, old))
        new[: len(old), 1] = mid
        new[len(old) :, 0] = mid
        new[:, 3] += 1
        new[:, 4], new[:, 5] = _eval_panels(f, new[:, 0], new[:, 1])
        rows = np.concatenate((rows[~split], new))
    rows = rows[np.lexsort((rows[:, 0], rows[:, 2]))]
    owner = rows[:, 2].astype(np.intp)
    starts = np.flatnonzero(np.diff(owner)) + 1
    for k, vals in zip(owner[np.concatenate(([0], starts))], np.split(rows[:, 4], starts)):
        out[k] = math.fsum(vals)
    return out


def quad_cumulative(f: Callable, points: np.ndarray) -> np.ndarray:
    """Cumulative integrals of f from points[0] to each point.

    Applies one (non-adaptive) Gauss-Kronrod panel per consecutive pair, so
    the grid must already resolve the integrand; intended for smooth
    integrands sampled at many close, sorted points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or pts.size < 1:
        raise DomainError("points must be a 1-D array with at least one entry")
    if np.any(np.diff(pts) < 0):
        raise DomainError("points must be sorted ascending")
    segs = np.empty(pts.size - 1)
    for start in range(0, pts.size - 1, _CUMULATIVE_CHUNK):
        stop = min(start + _CUMULATIVE_CHUNK, pts.size - 1)
        lo = pts[start:stop]
        hi = pts[start + 1 : stop + 1]
        mid = 0.5 * (lo + hi)[:, None]
        half = 0.5 * (hi - lo)[:, None]
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            fx = np.asarray(f(mid + half * _NODES[None, :]), dtype=float)
        segs[start:stop] = (fx @ _KW) * half[:, 0]
    out = np.empty(pts.size)
    out[0] = 0.0
    np.cumsum(segs, out=out[1:])
    return out


# ---------------------------------------------------------------------------
# level searches: bracket a decreasing gap, then shrink the bracket

def bracket(gap: Callable[[float], float], ref: float, limit: float) -> tuple[float, float, float, float]:
    """A bracket (lo, hi, gap(lo), gap(hi)) of a decreasing signed gap, with
    gap(lo) > 0 >= gap(hi), for brent: hi doubles up from ref while
    gap(hi) > 0, and lo is then the last hi above 0; if gap(ref) <= 0, hi
    stays ref and lo halves down from ref / 2 while gap(lo) <= 0.  The last
    step of either stops at the end of the range [ref / limit, ref * limit],
    and each point is read once.  Raises RangeError when the gap has not
    changed sign at that end.  A NaN gap counts as above 0."""
    if not (math.isfinite(ref) and ref > 0 and limit > 1):
        raise DomainError("a bracket needs a positive finite ref and a limit above 1")
    bottom, top = ref / limit, ref * limit
    span = f"[{bottom:g}, {top:g}]"
    lo = hi = ref
    g_lo = g_hi = gap(ref)
    while not g_hi <= 0:
        if hi >= top:
            raise RangeError(f"the crossing lies above the search range {span}")
        lo, g_lo, hi = hi, g_hi, min(2.0 * hi, top)
        g_hi = gap(hi)
    while g_lo <= 0:
        if lo <= bottom:
            raise RangeError(f"the crossing lies below the search range {span}")
        lo = max(lo / 2.0, bottom)
        g_lo = gap(lo)
    return lo, hi, g_lo, g_hi


def brent(
    gap: Callable[[float], float], lo: float, hi: float, g_lo: float, g_hi: float, rel_tol: float
) -> tuple[float, float]:
    """Shrink a bracket of a decreasing signed gap, given gap(lo) > 0 >= gap(hi)
    at 0 <= lo < hi, until hi - lo <= rel_tol * hi (or lo and hi are adjacent
    floats), keeping gap(lo) > 0 >= gap(hi).  Returns the final (lo, hi), or
    (x, x) at a point x where gap is read exactly 0.

    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 4): each step tries inverse-quadratic interpolation through the last
    three points, or the secant through two, and falls back to the midpoint
    when the trial leaves the bracket or does not shrink it fast enough; a
    step never falls below half the stopping width, so the bracket closes
    round a root it has already pinned.  One read of gap per step."""
    if g_hi == 0:
        return hi, hi
    # cur is the latest point, blk the end across the crossing from it, and
    # pre the point cur replaced (equal to blk right after a sign change)
    pre, g_pre, cur, g_cur = lo, g_lo, hi, g_hi
    blk, g_blk = pre, g_pre
    step = last = cur - pre
    while True:
        if (g_pre <= 0) != (g_cur <= 0):
            blk, g_blk = pre, g_pre
            step = last = cur - pre
        if abs(g_blk) < abs(g_cur):  # cur is the end with the smaller |gap|
            pre, cur, blk = cur, blk, cur
            g_pre, g_cur, g_blk = g_cur, g_blk, g_cur
        lo, hi = (blk, cur) if g_cur <= 0 else (cur, blk)
        half = 0.5 * (blk - cur)
        if hi - lo <= rel_tol * hi or not lo < cur + half < hi:
            return lo, hi
        min_step = 0.5 * rel_tol * hi
        trial = None
        if abs(last) > min_step and abs(g_cur) < abs(g_pre):
            if pre == blk:  # secant
                trial = -g_cur * (cur - pre) / (g_cur - g_pre)
            else:  # inverse quadratic
                d_pre = (g_pre - g_cur) / (pre - cur)
                d_blk = (g_blk - g_cur) / (blk - cur)
                trial = -g_cur * (g_blk * d_blk - g_pre * d_pre) / (d_blk * d_pre * (g_blk - g_pre))
            if not (trial * half > 0 and 2.0 * abs(trial) < min(abs(last), 3.0 * abs(half) - min_step)):
                trial = None  # it points away from blk, or shrinks too slowly
        if trial is None:
            last = step = half
        else:
            last, step = step, trial
        pre, g_pre = cur, g_cur
        cur += step if abs(step) > min_step else math.copysign(min_step, half)
        g_cur = gap(cur)
        if g_cur == 0:
            return cur, cur


# ---------------------------------------------------------------------------
# sine-cosine power-integral recursion

def sincos_recursion(params: SinCosParams) -> tuple[list[float], float]:
    """Boundary terms and remainder coefficient of the k-step reduction of
    the integral of sin^alpha * cos^beta over [0, upper].

    Returns (terms, coeff) with terms = [T_1, ..., T_{k+1}] where

        T_j = [(a+b+2)...(a+b+2j-2)] / [(a+1)...(a+2j-1)]
              * sin(upper)^{a+2j-1} * cos(upper)^{b+1}

    (empty product = 1) and coeff = (a+b+2)...(a+b+2k+2) / ((a+1)...(a+2k+1)),
    so that for alpha > -1

        int_0^upper sin^a cos^b = sum_j T_j + coeff * int_0^upper sin^{a+2k+2} cos^b.
    """
    a, b, upper, k = params.alpha, params.beta, params.upper, params.k
    for i in range(k + 1):
        if abs(a + 2 * i + 1) < 1e-12 or abs(b + 2 * i + 1) < 1e-12:
            raise DegenerateParameterError(
                f"recursion denominator vanishes at depth {i} (alpha={a}, beta={b})"
            )
    s, c = math.sin(upper), math.cos(upper)
    s2 = s * s
    terms = []
    if upper == 0.0:
        terms = [0.0] * (k + 1)
    else:
        # T_{j+1} = T_j * (a+b+2j)/(a+2j+1) * sin^2: ratios stay O(1), no overflow
        t = (s ** (a + 1.0)) * (c ** (b + 1.0)) / (a + 1.0)
        terms.append(t)
        for j in range(1, k + 1):
            t = t * (a + b + 2.0 * j) / (a + 2.0 * j + 1.0) * s2
            terms.append(t)
    coeff = 1.0
    for j in range(1, k + 2):
        coeff *= (a + b + 2.0 * j) / (a + 2.0 * j - 1.0)
    return terms, coeff


def sincos_identity_sides(params: SinCosParams) -> tuple[float, float]:
    """Both sides of the identity sincos_recursion reduces, for a cross-check:
    (int_0^upper sin^a cos^b, sum_j T_j + coeff * int_0^upper sin^{a+2k+2} cos^b),
    the two integrals by quadrature at relative tolerance 1e-12."""
    a, b, k, upper = params.alpha, params.beta, params.k, params.upper
    terms, coeff = sincos_recursion(params)
    lhs = quad_adaptive(lambda t: np.sin(t) ** a * np.cos(t) ** b, 0.0, upper, 1e-12)
    rem = quad_adaptive(lambda t: np.sin(t) ** (a + 2 * k + 2) * np.cos(t) ** b, 0.0, upper, 1e-12)
    return lhs, sum(terms) + coeff * rem
