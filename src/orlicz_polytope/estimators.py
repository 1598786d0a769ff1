"""Headline quantities: expected support functions and mean widths of
symmetric random polytopes, estimated two ways.

The Orlicz route inverts the direction's Orlicz function at level 1/N;
the Monte Carlo route simulates max_i |<X_i, theta>| directly.  Both are
reported side by side, together with sphere averages, the matching-scale
solver, a general profile-based upper bound, and direction-measure scans.

MC work units derive their random stream from (seed, unit index), so
results are bit-identical regardless of the degree of parallelism; means
are reduced in a fixed order.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .bodies import (
    _ROWS,
    BodySpec,
    Direction,
    MarginalDensity,
    _map_points,
    _parallel_map,
    derive_seed,
    isotropic_constant,
    project_uniform,
    sample_coordinate,
    sample_norms,
    sample_sphere,
    sample_uniform,
)
from .errors import DomainError, HypothesisError, whole
from .mathkit import bracket, brent, quad_cumulative
from .orlicz import (
    OrliczFunction,
    _coordinate_root,
    empirical_roots,
    from_coordinate,
    from_empirical,
    spherical_prefactor,
)

__all__ = [
    "EstimateReport",
    "MCValue",
    "ScanRow",
    "ScanResult",
    "DirectionScan",
    "build_direction_orlicz",
    "expected_support_orlicz",
    "expected_support_mc",
    "direction_support_profile",
    "mean_width_orlicz_report",
    "mean_width_mc",
    "sphere_average_m",
    "solve_tilde_s",
    "check_profile_hypotheses",
    "general_upper_bound",
    "direction_measure_scan",
    "scaling_fit",
    "run_support_scan",
    "run_mean_width_scan",
]

DEFAULT_PROJ_SAMPLES = 10**6
_SCAN_BLOCK = 8  # directions projected per product in direction_support_profile
_TILDE_S_REL_TOL = 1e-6  # relative width at which solve_tilde_s stops
_TILDE_S_LIMIT = 1e9  # solve_tilde_s searches down to its largest norm / this
_PROFILE_ALPHA = 4.0  # general_upper_bound's scale: h(0) (1 - alpha log N / n)
_FD_STEP = 1e-5  # finite-difference step of the profile checks
# thread-count symbol suffixes of the OpenBLAS builds numpy (64-bit
# integers) and scipy bundle
_BLAS_SUFFIXES = ("64_", "")


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class MCValue:
    """A Monte Carlo mean with its standard error."""

    value: float
    stderr: float
    samples: int
    seed: int


@dataclass(frozen=True)
class EstimateReport:
    """A Monte Carlo oracle's mean with its 95% confidence interval."""

    mc_mean: float
    mc_ci95: tuple[float, float]
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScanRow:
    N: int
    estimate: float
    oracle: Optional[float]
    ratio: Optional[float]


@dataclass(frozen=True)
class ScanResult:
    rows: list[ScanRow]
    fitted_exponent: float
    fit_r2: float
    transform: str


@dataclass(frozen=True)
class DirectionScan:
    """Measure of directions meeting calibrated two-sided bounds."""

    fraction_upper: float
    fraction_lower: float
    fraction_below_lower: float
    fraction_between: float
    fraction_above_upper: float
    constants_used: tuple[float, float]
    predicted_upper_measure: float
    predicted_lower_measure: float
    threshold_upper: float
    threshold_lower: float
    estimates: np.ndarray


def _resolve_direction(body: BodySpec, direction) -> Direction:
    if isinstance(direction, (int, np.integer)):
        direction = Direction.canonical(body.n, int(direction))
    elif not isinstance(direction, Direction):
        direction = Direction.from_vector(np.asarray(direction, dtype=float))
    if direction.coords.size != body.n:
        raise DomainError("direction dimension does not match the body")
    return direction


def _coordinate_law(body: BodySpec, rows: np.ndarray) -> np.ndarray:
    """Per unit row theta, whether <X, theta> has the law of the first
    coordinate: every row for p = 2, and an axis, the one nonzero
    coordinate of a unit row being +-1 to within its norm's 1e-12."""
    # on Python lists: most calls hold one row, and numpy's reductions on
    # one short row cost more than the row itself
    rows = np.atleast_2d(rows).tolist()
    return np.array([body.p == 2.0 or len(row) - row.count(0.0) == 1 for row in rows], dtype=bool)


# ---------------------------------------------------------------------------
# Orlicz-side estimators

def build_direction_orlicz(
    body: BodySpec,
    direction=0,
    proj_samples: int = DEFAULT_PROJ_SAMPLES,
    seed: int = 0,
) -> OrliczFunction:
    """Orlicz function of <X, theta> for X uniform in the body.

    The exact incomplete-beta stop-loss of the coordinate marginal
    (from_coordinate) on canonical axes and, by rotational invariance, for
    p = 2 in every direction.
    Other directions use the empirical measure of proj_samples projections.
    """
    theta = _resolve_direction(body, direction)
    if _coordinate_law(body, theta.coords)[0]:
        return from_coordinate(body)
    return from_empirical(project_uniform(body, theta, proj_samples, derive_seed(seed, "marginal")))


def expected_support_orlicz(
    body: BodySpec,
    direction,
    N: int,
    proj_samples: int = DEFAULT_PROJ_SAMPLES,
    seed: int = 0,
) -> float:
    """Support-function estimate: invert the direction's Orlicz function at 1/N."""
    theta = _resolve_direction(body, direction)
    out = _profile(body, theta.coords[None], [whole(N, "N")], lambda: derive_seed(seed, "marginal"), proj_samples)
    return float(out[0, 0])


def direction_support_profile(
    body: BodySpec,
    dirs: np.ndarray,
    N,
    seed: int = 0,
    proj_samples: int = DEFAULT_PROJ_SAMPLES,
) -> np.ndarray:
    """Orlicz estimates for each unit row of dirs, the law decided per row
    (_coordinate_law): one exact root per level (orlicz._coordinate_root)
    serves every row with the coordinate law; the other rows take the
    closed-form roots
    (empirical_roots) of their projections of proj_samples uniform points
    drawn from seed.  A single such row streams its projections
    (project_uniform); several share one cloud, which holds
    8 * proj_samples * n bytes (229 MiB at 10^6, n = 30).

    N is one level or a sequence of them; a sequence gives one row of
    estimates per N, all from the one draw."""
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    # row norms on Python lists, as in _coordinate_law
    if (dirs.ndim != 2 or dirs.shape[1] != body.n
            or not all(abs(math.hypot(*row) - 1.0) <= 1e-12 for row in dirs.tolist())):
        raise DomainError("direction rows must be unit vectors of length n (|norm - 1| <= 1e-12)")
    scalar = np.ndim(N) == 0
    levels = [whole(level, "N") for level in ([N] if scalar else N)]
    out = _profile(body, dirs, levels, lambda: seed, proj_samples)
    return out[0] if scalar else out


def _profile(
    body: BodySpec, dirs: np.ndarray, levels: list[int], cloud_seed: Callable[[], int], proj_samples: int
) -> np.ndarray:
    """direction_support_profile on checked unit rows and levels, one row of
    estimates per level.  cloud_seed() gives the seed of the projections;
    it is called only when some row lacks the coordinate law."""
    out = np.empty((len(levels), dirs.shape[0]))
    exact = _coordinate_law(body, dirs)
    off = (~exact).nonzero()[0]
    if off.size < exact.size:
        for row, level in zip(out, levels):
            row[exact] = _coordinate_root(body, level)
    if off.size == 1:
        atoms = project_uniform(body, Direction(dirs[off[0]]), proj_samples, cloud_seed())
        out[:, off[0]] = [empirical_roots(atoms, level)[0] for level in levels]
    elif off.size > 1:
        cloud = sample_uniform(body, proj_samples, cloud_seed())
        # each direction's projections fill one contiguous row: partitioning
        # down the columns of cloud @ dirs.T instead took twice as long
        for lo in range(0, off.size, _SCAN_BLOCK):
            block = off[lo : lo + _SCAN_BLOCK]
            product = dirs[block] @ cloud.T
            for row, level in zip(out, levels):
                row[block] = empirical_roots(product, level)
    return out


def mean_width_orlicz_report(
    body: BodySpec,
    N,
    n_dirs: int = 100,
    seed: int = 0,
    proj_samples: int = DEFAULT_PROJ_SAMPLES,
) -> MCValue | list[MCValue]:
    """Sphere average of the Orlicz support estimate, with the
    direction-sampling standard error attached; a sequence of N gives a
    list of them, from one draw of the directions and the cloud.

    For p = 2 the estimate is direction-free, so a single inversion is
    exact; otherwise n_dirs sampled directions are averaged.

    The stderr leaves out the projection error of the one cloud, which all
    directions share; that belongs to a per-estimate orlicz_stderr (ROADMAP)."""
    levels = np.atleast_1d(N)
    n_dirs = whole(n_dirs, "n_dirs", 100)
    if body.p == 2.0:
        values = direction_support_profile(body, np.eye(1, body.n), levels, seed, proj_samples)
        reports = [MCValue(float(row[0]), 0.0, 1, seed) for row in values]
    else:
        dirs = sample_sphere(body.n, n_dirs, derive_seed(seed, "mw-dirs"))
        values = direction_support_profile(body, dirs, levels, derive_seed(seed, "mw-cloud"), proj_samples)
        reports = [
            MCValue(float(row.mean()), float(row.std(ddof=1) / math.sqrt(n_dirs)), n_dirs, seed)
            for row in values
        ]
    return reports if np.ndim(N) else reports[0]


# ---------------------------------------------------------------------------
# Monte Carlo oracles

def _support_trial(body: BodySpec, theta: Direction, N: int, seed: int, trial: int) -> float:
    trial_seed = derive_seed(seed, "esup", trial)
    if _coordinate_law(body, theta.coords)[0]:
        proj = sample_coordinate(body, N, trial_seed)
    else:
        proj = project_uniform(body, theta, N, trial_seed)
    return float(max(proj.max(), -proj.min()))  # no abs copy of the N values


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of every bundled OpenBLAS mapped
    into this process, looked up once per process; empty where none is
    found.  numpy's library is mapped once this module is imported, so the
    lookup always holds the one the mean-width products run on."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split() for line in maps]
    except OSError:
        return ()
    controls = []
    for path in sorted({f[5] for f in fields if len(f) >= 6 and "openblas" in os.path.basename(f[5])}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in _BLAS_SUFFIXES:
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Every OpenBLAS of _blas_thread_controls at one thread inside the
    block, at its own count again after it.

    The mean-width trial's products run on chunks that already have a core
    each (the chunk fill threads, or the MC trial threads): a 4096 x 30 by
    30 x 100 product took 8 ms on two BLAS threads and 1 ms on one.  The
    count is process-wide, so mean_width_mc enters this once for all trials."""
    controls = _blas_thread_controls()
    saved = [getter() for getter, _ in controls]
    for _, setter in controls:
        setter(1)
    try:
        yield
    finally:
        for (_, setter), count in zip(controls, saved):
            setter(count)


def _mean_width_trial(body: BodySpec, N: int, n_dirs: int, seed: int, trial: int) -> float:
    dirs = sample_sphere(body.n, n_dirs, derive_seed(seed, "mw-dirs", trial))

    def extremes(start, view):
        # max |<x, theta>| = max(max, -min): no abs copy of the product
        top, bottom = np.full(n_dirs, -np.inf), np.full(n_dirs, np.inf)
        for lo in range(0, view.shape[0], _ROWS):
            product = view[lo : lo + _ROWS] @ dirs.T
            np.maximum(top, product.max(axis=0), out=top)
            np.minimum(bottom, product.min(axis=0), out=bottom)
        return top, bottom

    tops, bottoms = zip(*_map_points(body, N, derive_seed(seed, "mw-pts", trial), extremes))
    return float(np.maximum(np.max(tops, axis=0), -np.min(bottoms, axis=0)).mean())


def _mc_oracle(trial, args: tuple, threads: int, meta: dict) -> EstimateReport:
    """Mean and 95% CI of trial(*args, t) over the meta["trials"] trials t,
    run through _parallel_map (a trial's fills, ufuncs and BLAS products
    release the GIL); meta gains their wall time as elapsed_s."""
    t0 = time.perf_counter()
    values = np.array(_parallel_map(functools.partial(trial, *args), range(meta["trials"]), threads))
    meta["elapsed_s"] = time.perf_counter() - t0
    mean = float(values.mean())
    half = 1.96 * float(values.std(ddof=1)) / math.sqrt(values.size)
    return EstimateReport(mc_mean=mean, mc_ci95=(mean - half, mean + half), meta=meta)


def expected_support_mc(
    body: BodySpec,
    direction,
    N: int,
    trials: int = 200,
    seed: int = 0,
    threads: int = 1,
) -> EstimateReport:
    """Monte Carlo oracle for E max_i |<X_i, theta>| over N vertex pairs,
    with a 95% CI."""
    N, trials = whole(N, "N"), whole(trials, "trials", 2)
    if N < body.n:
        warnings.warn("N below the dimension: the polytope is degenerate", stacklevel=2)
    meta = {"seed": seed, "trials": trials, "N": N, "statistic": "max-abs-projection"}
    return _mc_oracle(_support_trial, (body, _resolve_direction(body, direction), N, seed), threads, meta)


def mean_width_mc(
    body: BodySpec,
    N: int,
    trials: int,
    n_dirs: int,
    seed: int = 0,
    threads: int = 1,
) -> EstimateReport:
    """Monte Carlo mean width: fresh sphere directions per polytope draw."""
    N, trials, n_dirs = whole(N, "N"), whole(trials, "trials", 2), whole(n_dirs, "n_dirs")
    meta = {"seed": seed, "trials": trials, "N": N, "n_dirs": n_dirs, "statistic": "mean-width"}
    with _one_blas_thread():
        return _mc_oracle(_mean_width_trial, (body, N, n_dirs, seed), threads, meta)


# ---------------------------------------------------------------------------
# sphere averages of M and the matching scale

def _spherical_values(n: int, norms: np.ndarray, s: float) -> np.ndarray:
    """M_sph(norm/s) per sample of the ascending norms, in their order, by
    cumulative quadrature on the sorted grid.

    Uses the bounded integrand (1 - t^-2)^{(n-1)/2} on [1, x]; a geometric
    refinement grid resolves the branch point at 1, and consecutive sample
    values keep every panel short.  Dividing by s > 0 keeps the norms sorted,
    so the caller sorts them once for every s it reads.
    """
    x = norms / s
    x = x[x > 1.0 + 1e-15]
    below = norms.size - x.size
    if x.size == 0:
        return np.zeros(norms.size)
    m_exp = (n - 1) / 2.0

    def integrand(t):
        t = np.asarray(t, dtype=float)
        return np.exp(m_exp * np.log1p(-1.0 / (t * t)))

    u_hi = x[-1] - 1.0
    u_lo = min(max((x[0] - 1.0) * 1e-3, 1e-14), u_hi)
    refine = 1.0 + np.geomspace(u_lo, u_hi, 512)
    pts = np.unique(np.concatenate(([1.0], refine, x)))
    cums = quad_cumulative(integrand, pts)
    vals = spherical_prefactor(n) * cums[np.searchsorted(pts, x)]
    return np.concatenate((np.zeros(below), vals))


def sphere_average_m(body: BodySpec, s: float, samples: int, seed: int = 0) -> MCValue:
    """Monte Carlo over the body of the sphere-coordinate Orlicz function
    evaluated at ||x||_2 / s (zero where the norm falls below s)."""
    if not s > 0:
        raise DomainError("s must be positive")
    samples = whole(samples, "samples", 2)
    norms = np.sort(sample_norms(body, samples, derive_seed(seed, "sphavg")))
    values = _spherical_values(body.n, norms, s)
    return MCValue(
        value=float(values.mean()),
        stderr=float(values.std(ddof=1) / math.sqrt(samples)),
        samples=samples,
        seed=seed,
    )


def solve_tilde_s(body: BodySpec, N: int, samples: int, seed: int = 0) -> float:
    """Scale at which the sphere average of M(1/s) crosses 1/N.

    One frozen point cloud, sorted once, is reused for every step of the
    bracketed Brent search, so the gap (sphere average - 1/N) is
    deterministic and decreasing in s.  Returns the midpoint of the final
    bracket, whose relative width is at most 1e-6.
    """
    N, samples = whole(N, "N", 2), whole(samples, "samples", 2)
    norms = np.sort(sample_norms(body, samples, derive_seed(seed, "tilde-s")))
    level = 1.0 / N

    def gap(s: float) -> float:
        return float(_spherical_values(body.n, norms, s).mean()) - level

    lo, hi = brent(gap, *bracket(gap, float(norms[-1]), _TILDE_S_LIMIT), _TILDE_S_REL_TOL)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# general profile-based upper bound

def check_profile_hypotheses(marginal: MarginalDensity) -> None:
    """Finite-difference checks on h = section^(1/(n-1)): h' < 0 on the
    interior and -h'/t nondecreasing.  Raises HypothesisError naming the
    failed hypothesis."""
    if marginal.body is None or marginal.body.n < 2:
        raise DomainError("profile hypotheses need a body of dimension >= 2")
    n = marginal.body.n
    radius = marginal.support_radius
    step = min(_FD_STEP, 0.01 * radius)

    def h(t):
        return np.asarray(marginal.density(t), dtype=float) ** (1.0 / (n - 1))

    ts = np.linspace(0.05 * radius, 0.95 * radius, 19)
    hp = (h(ts + step) - h(ts - step)) / (2.0 * step)
    if not np.all(hp < 0):
        raise HypothesisError("h' < 0 on the interior")
    g = -hp / ts
    if not np.all(np.diff(g) >= -1e-8 * np.abs(g[:-1]) - 1e-300):
        raise HypothesisError("-h'/t nondecreasing")


def general_upper_bound(marginal: MarginalDensity, N: int) -> float:
    """Upper-bound scale h^{-1}(h(0) * (1 - alpha log N / n)), alpha =
    _PROFILE_ALPHA, for the expected support function, valid under the
    profile hypotheses."""
    if marginal.body is None:
        raise DomainError("the marginal must reference its body")
    n = marginal.body.n
    N = whole(N, "N")
    drop = _PROFILE_ALPHA * math.log(N) / n
    if drop >= 1.0:
        raise DomainError(f"{_PROFILE_ALPHA:g} log(N) must stay below n")
    check_profile_hypotheses(marginal)
    radius = marginal.support_radius

    def h(t: float) -> float:
        return float(marginal.density(t)) ** (1.0 / (n - 1))

    top = h(0.0)
    target = top * (1.0 - drop)
    if target >= top:
        return 0.0

    def gap(t: float) -> float:
        return h(t) - target

    lo, hi = brent(gap, 0.0, radius, top - target, gap(radius), 1e-14)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# direction-measure scans

def direction_measure_scan(
    body: BodySpec,
    N: int,
    r: float,
    n_dirs: int = 1000,
    seed: int = 0,
    proj_samples: int = 10**5,
) -> DirectionScan:
    """Per-direction Orlicz estimates (direction_support_profile) against
    median-calibrated thresholds.

    The upper/lower thresholds are 4x and 1/4x the median estimate;
    fraction_upper (resp. fraction_lower) is the measure of directions at
    or below (resp. at or above) them, reported next to the orders the
    two-sided theory predicts for level r.  N is at least 2: the calibration
    scale L_K sqrt(log N) is 0 at N = 1.
    """
    N, n_dirs = whole(N, "N", 2), whole(n_dirs, "n_dirs", 1000)
    if not r > 0:
        raise DomainError("r must be positive")
    dirs = sample_sphere(body.n, n_dirs, derive_seed(seed, "scan-dirs"))
    estimates = direction_support_profile(body, dirs, N, derive_seed(seed, "scan-cloud"), proj_samples)
    med = float(np.median(estimates))
    upper, lower = 4.0 * med, med / 4.0
    scale = isotropic_constant(body) * math.sqrt(math.log(N))
    below = float(np.mean(estimates < lower))
    above = float(np.mean(estimates > upper))
    return DirectionScan(
        fraction_upper=float(np.mean(estimates <= upper)),
        fraction_lower=float(np.mean(estimates >= lower)),
        fraction_below_lower=below,
        fraction_between=1.0 - below - above,
        fraction_above_upper=above,
        constants_used=(upper / scale, lower / scale),
        predicted_upper_measure=1.0 - N ** (-r),
        predicted_lower_measure=min(1.0, math.sqrt(math.log(N)) / N**r),
        threshold_upper=upper,
        threshold_lower=lower,
        estimates=estimates,
    )


# ---------------------------------------------------------------------------
# scaling fits and scans

def scaling_fit(rows: Sequence[tuple[int, float]], x_transform: str = "log-log-N") -> tuple[float, float]:
    """Least-squares exponent for the growth law, plus R^2.

    "log-log-N" fits log(value) against log(log N); "log-N" fits value^2
    against log N.
    """
    if len(rows) < 4:
        raise DomainError("need at least 4 rows")
    ns = np.array([float(n) for n, _ in rows])
    vals = np.array([float(v) for _, v in rows])
    if np.unique(ns).size < 4:
        raise DomainError("need at least 4 distinct N values")
    if x_transform == "log-log-N":
        if np.any(vals <= 0):
            raise DomainError("log transform needs positive values")
        with np.errstate(divide="ignore", invalid="ignore"):  # refused below
            x = np.log(np.log(ns))
        y = np.log(vals)
    elif x_transform == "log-N":
        x = np.log(ns)
        y = vals**2
    else:
        raise DomainError(f"unknown transform {x_transform!r}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError(f"the {x_transform} transform of the rows is not finite")
    if np.ptp(x) <= 0:
        raise DomainError("degenerate x-range")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), r2


def _scan(N_grid, estimates, oracle, trials: int, transform: str) -> ScanResult:
    """Rows of each N's estimate beside oracle(N).mc_mean and their ratio
    (no oracle run when trials is 0), and the growth-law fit of the
    estimates under transform.  The fit reads only the estimates, so it
    runs first: a grid it refuses draws no trial."""
    exponent, r2 = scaling_fit(list(zip(N_grid, estimates)), transform)
    rows = []
    for N, est in zip(N_grid, estimates):
        mc = oracle(int(N)).mc_mean if trials > 0 else None
        ratio = (mc / est) if (mc is not None and est) else None
        rows.append(ScanRow(N=int(N), estimate=float(est), oracle=mc, ratio=ratio))
    return ScanResult(rows, exponent, r2, transform)


def run_support_scan(
    body: BodySpec,
    direction,
    N_grid: Sequence[int],
    trials: int = 200,
    seed: int = 0,
    threads: int = 1,
    proj_samples: int = DEFAULT_PROJ_SAMPLES,
) -> ScanResult:
    """Support-function law scan over N; fits log(est) vs log(log N)."""
    _check_grid(N_grid)
    theta = _resolve_direction(body, direction)
    seed_marginal = derive_seed(seed, "marginal")
    estimates = direction_support_profile(body, theta.coords, N_grid, seed_marginal, proj_samples)[:, 0]

    def oracle(N: int) -> EstimateReport:
        return expected_support_mc(body, direction, N, trials, seed, threads)

    return _scan(N_grid, estimates, oracle, trials, "log-log-N")


def run_mean_width_scan(
    body: BodySpec,
    N_grid: Sequence[int],
    trials: int = 200,
    n_dirs: int = 100,
    seed: int = 0,
    threads: int = 1,
    proj_samples: int = DEFAULT_PROJ_SAMPLES,
) -> ScanResult:
    """Mean-width law scan over N; fits est^2 vs log N."""
    _check_grid(N_grid)
    reports = mean_width_orlicz_report(body, list(N_grid), max(n_dirs, 100), seed, proj_samples)

    def oracle(N: int) -> EstimateReport:
        return mean_width_mc(body, N, trials, n_dirs, seed, threads)

    return _scan(N_grid, [rep.value for rep in reports], oracle, trials, "log-N")


def _check_grid(N_grid) -> None:
    if len(N_grid) < 4:
        raise DomainError("scans need an N-grid with at least 4 points")
    for N in N_grid:
        whole(N, "N")
    arr = np.asarray(N_grid)
    if np.any(np.diff(arr) <= 0):
        raise DomainError("the N-grid must be strictly increasing")
