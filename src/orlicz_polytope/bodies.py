"""Volume-1 l_p balls, the paper's isotropic position (a BodySpec has the
two fields p and n): marginal section densities, support functions,
isotropy diagnostics, and seeded uniform samplers.

A uniform point of the volume-1 ball is scale * Y / (sum |Y_i|^p + E)^{1/p}
with i.i.d. Y_i of density prop. to exp(-|y|^p) and E ~ Exp(1) (Barthe,
Guedon, Mendelson and Naor, Ann. Probab. 2005).  For p = 2 the Y_i are
N(0, 1/2) normals; other finite p build them from a Gamma and a uniform
variate.

Random streams are numpy SFC64 generators, each seeded through a
SeedSequence by a blake2b hash of (seed, path); every batch of work owns
its stream, so results are reproducible regardless of chunking or
parallelism.  The samplers fill their chunks on a thread pool sized by the
process's CPU affinity, on one thread off the main thread, as in the MC
trial threads (_fill_threads); per-chunk results are combined in chunk
order, so the thread count never shows in an output.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, EstimationError, whole
from .mathkit import ball_volume_log, log_beta, quad_cumulative

__all__ = [
    "BodySpec",
    "Direction",
    "MarginalDensity",
    "IsotropyReport",
    "stream",
    "derive_seed",
    "normalization_scale",
    "support_function",
    "coordinate_marginal",
    "marginal_general",
    "sample_uniform",
    "sample_sphere",
    "sample_norms",
    "project_uniform",
    "sample_coordinate",
    "coordinate_ks",
    "marginal_ks",
    "circumradius",
    "contains",
    "isotropy_report",
    "isotropic_constant",
]

_CHUNK = 1 << 16
_ROWS = 1 << 12  # rows per block of a chunk fill


# ---------------------------------------------------------------------------
# reproducible random streams

def _hash_path(seed: int, path) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(struct.pack("<q", int(seed)))
    for item in path:
        if isinstance(item, str):
            raw = item.encode("utf-8")
            h.update(b"s" + struct.pack("<I", len(raw)) + raw)
        else:
            h.update(b"i" + struct.pack("<q", int(item)))
    return h.digest()


def stream(seed: int, *path) -> np.random.Generator:
    """SFC64 generator seeded by (seed, path); independent per path.

    The 16-byte blake2b digest of (seed, path) is the SeedSequence entropy,
    so distinct paths get unrelated states and the same path the same one."""
    entropy = int.from_bytes(_hash_path(seed, path), "little")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))


def derive_seed(seed: int, *path) -> int:
    """A 63-bit child seed for handing to a sub-computation."""
    return int.from_bytes(_hash_path(seed, path)[:8], "little") >> 1


# ---------------------------------------------------------------------------
# body specifications

@dataclass(frozen=True)
class BodySpec:
    """The volume-1 l_p ball in dimension n.  An integral n such as 3.0 is
    stored as the int 3."""

    p: float
    n: int

    def __post_init__(self):
        if math.isnan(self.p) or self.p < 1.0:
            raise DomainError(f"p must satisfy 1 <= p <= inf, got {self.p!r}")
        object.__setattr__(self, "n", whole(self.n, "n"))


@dataclass(frozen=True)
class Direction:
    """Unit vector; constructor checks the norm, from_vector normalizes."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", c)
        if c.ndim != 1 or c.size < 1:
            raise DomainError("direction must be a 1-D vector")
        if not np.isfinite(c).all():
            raise DomainError("direction coordinates must be finite")
        if abs(math.sqrt(c @ c) - 1.0) > 1e-12:
            raise DomainError("direction must be a unit vector (|norm - 1| <= 1e-12)")

    @classmethod
    def from_vector(cls, vec) -> "Direction":
        v = np.asarray(vec, dtype=float)
        norm = float(np.linalg.norm(v))
        if norm == 0.0 or not math.isfinite(norm):
            raise DomainError("cannot normalize a zero or non-finite vector")
        return cls(v / norm)

    @classmethod
    def canonical(cls, n: int, axis: int = 0) -> "Direction":
        n, axis = whole(n, "n"), whole(axis, "axis", 0)
        if axis >= n:
            raise DomainError(f"axis {axis} outside dimension {n}")
        v = np.zeros(n)
        v[axis] = 1.0
        return cls(v)


def normalization_scale(body: BodySpec) -> float:
    """Coordinate half-width of the body: |B_p^n|^{-1/n}."""
    if math.isinf(body.p):
        return 0.5
    return math.exp(-ball_volume_log(body.p, body.n) / body.n)


def support_function(body: BodySpec, theta: Direction) -> float:
    """h(theta) = scale * dual-norm of theta (q conjugate to p)."""
    coords = theta.coords
    if coords.size != body.n:
        raise DomainError("direction dimension does not match the body")
    scale = normalization_scale(body)
    p = body.p
    if math.isinf(p):
        dual = float(np.sum(np.abs(coords)))
    elif p == 1.0:
        dual = float(np.max(np.abs(coords)))
    else:
        q = p / (p - 1.0)
        dual = float(np.sum(np.abs(coords) ** q) ** (1.0 / q))
    return scale * dual


def circumradius(body: BodySpec) -> float:
    """Largest Euclidean norm over the body."""
    scale = normalization_scale(body)
    p = body.p
    if math.isinf(p):
        return scale * math.sqrt(body.n)
    if p <= 2.0:
        return scale
    # max of ||x||_2 over the l_p ball is attained on the diagonal
    return scale * body.n ** (0.5 - 1.0 / p)


def contains(body: BodySpec, x: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Membership mask after rescaling to the unit l_p ball."""
    pts = np.atleast_2d(np.asarray(x, dtype=float)) / normalization_scale(body)
    if math.isinf(body.p):
        return np.max(np.abs(pts), axis=1) <= 1.0 + tol
    return np.sum(np.abs(pts) ** body.p, axis=1) <= 1.0 + tol


# ---------------------------------------------------------------------------
# marginal section densities

@dataclass(frozen=True)
class MarginalDensity:
    """Even 1-D density of <X, theta> for X uniform in the body.

    density is vectorized over t and vanishes for |t| > support_radius.
    """

    density: Callable[[np.ndarray], np.ndarray]
    support_radius: float

    def __post_init__(self):
        if not (self.support_radius > 0 and math.isfinite(self.support_radius)):
            raise DomainError("support_radius must be positive and finite")


def coordinate_marginal(body: BodySpec) -> MarginalDensity:
    """MarginalDensity for a canonical basis direction: the section volume
    |K ∩ {x_j = t}| of the body, any axis j."""
    p, n = body.p, body.n
    radius = normalization_scale(body)
    if math.isinf(p) or n == 1:
        # uniform density 1 on [-radius, radius] (radius = 1/2 for the cube)
        def section(tt):
            return np.where(tt <= radius, 1.0, 0.0)
    else:
        log_n = ball_volume_log(p, n)
        log_c = ball_volume_log(p, n - 1) + log_n / n - log_n

        def section(tt):
            with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
                y = np.minimum((tt / radius) ** p, 1.0)
                return np.where(tt <= radius, np.exp(log_c + ((n - 1) / p) * np.log1p(-y)), 0.0)

    def density(t):
        tt = np.asarray(t, dtype=float)
        out = section(np.atleast_1d(np.abs(tt)))
        return float(out[0]) if tt.ndim == 0 else out

    return MarginalDensity(density=density, support_radius=radius)


def marginal_general(
    body: BodySpec,
    theta: Direction,
    samples: int,
    seed: int,
) -> MarginalDensity:
    """Empirical even marginal from |<X_i, theta>| with Freedman-Diaconis bins."""
    samples = whole(samples, "samples", 10_000)
    proj = np.abs(project_uniform(body, theta, samples, seed))
    top = float(proj.max())
    q75, q25 = np.percentile(proj, [75.0, 25.0])
    width = 2.0 * (q75 - q25) / samples ** (1.0 / 3.0)
    if not width > 0 or top <= 0:
        raise EstimationError("degenerate projections: all values effectively equal")
    nbins = int(min(max(round(top / width), 1), 4096))
    counts, edges = np.histogram(proj, bins=nbins, range=(0.0, top))
    g = counts / (samples * (top / nbins))  # one-sided density, integrates to 1

    def density(t):
        tt = np.abs(np.asarray(t, dtype=float))
        idx = np.clip(np.searchsorted(edges, tt, side="right") - 1, 0, nbins - 1)
        return np.where(tt <= top, g[idx] / 2.0, 0.0)

    return MarginalDensity(density=density, support_radius=top)


# ---------------------------------------------------------------------------
# samplers

def _chunk_ranges(count: int):
    for idx in range(0, (count + _CHUNK - 1) // _CHUNK):
        start = idx * _CHUNK
        yield idx, start, min(_CHUNK, count - start)


def _fill_threads(chunks: int) -> int:
    """Threads that fill chunks: one off the main thread (the MC trial
    threads of estimators._mc_oracle already spread over the cores), else
    one per core this process may run on, at most one per chunk."""
    if threading.current_thread() is not threading.main_thread():
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cores or 1, chunks)


def _parallel_map(fn, items, threads: int) -> list:
    """[fn(it) for it in items], on min(threads, len(items)) threads that
    live only for this call, or on the caller's thread when that is one."""
    workers = min(threads, len(items))
    if workers <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _map_chunks(count: int, task) -> list:
    """[task(idx, start, size) for each chunk of _chunk_ranges(count)], in
    chunk order.

    The tasks run through _parallel_map on _fill_threads(chunks) threads.
    The generator fills and large ufuncs release the GIL, and every chunk
    owns its streams, so the results do not depend on the number of threads.
    """
    ranges = list(_chunk_ranges(count))
    return _parallel_map(lambda r: task(*r), ranges, _fill_threads(len(ranges)))


def _map_points(body: BodySpec, count: int, seed: int, fn) -> list:
    """[fn(start, points)] for the chunks of sample_uniform(body, count,
    seed), in chunk order; each chunk is filled into a buffer of its own."""

    def task(idx, start, size):
        view = np.empty((size, body.n))
        _fill_chunk(body, view, seed, idx)
        return fn(start, view)

    return _map_chunks(count, task)


def sample_uniform(body: BodySpec, count: int, seed: int) -> np.ndarray:
    """count i.i.d. uniform points in the body, one row each; deterministic
    given seed.

    Streams are derived per chunk, so the first k points of a larger draw
    coincide with a smaller draw from the same seed.
    """
    count = whole(count, "count")
    pts = np.empty((count, body.n))
    _map_chunks(count, lambda idx, start, size: _fill_chunk(body, pts[start : start + size], seed, idx))
    return pts


def project_uniform(body: BodySpec, theta: Direction, count: int, seed: int) -> np.ndarray:
    """<X_i, theta> for uniform X_i: the points of sample_uniform(body,
    count, seed) are filled and projected chunk by chunk, on the process's
    cores, so only one chunk of points per thread is held."""
    count = whole(count, "count")
    out = np.empty(count)

    def project(start, view):
        # einsum, not BLAS: a BLAS product starts its own threads beside
        # the MC trial threads, where they spin for no gain
        out[start : start + len(view)] = np.einsum("ij,j->i", view, theta.coords)

    _map_points(body, count, seed, project)
    return out


def sample_norms(body: BodySpec, count: int, seed: int) -> np.ndarray:
    """Euclidean norms of uniform points, computed chunkwise."""
    count = whole(count, "count")
    out = np.empty(count)

    def norms(start, view):
        out[start : start + len(view)] = np.linalg.norm(view, axis=1)

    _map_points(body, count, seed, norms)
    return out


def _fill_chunk(body: BodySpec, view: np.ndarray, seed: int, idx: int) -> None:
    """The uniform points of chunk idx, drawn in blocks of _ROWS rows: each
    stream yields the same variates as one draw for the whole chunk, and the
    temporaries of a block stay in cache.

    A finite p draws one exponential per point ("ball-expo") and, per
    coordinate, one N(0, 1/2) normal for p = 2 ("ball-normal"), else one
    Gamma(1 + 1/p) and one U(-1, 1) variate ("ball-gamma", "ball-unif")."""
    p, n = body.p, body.n
    scale = normalization_scale(body)
    blocks = range(0, view.shape[0], _ROWS)
    if math.isinf(p):
        cube = stream(seed, "cube", idx)
        for lo in blocks:
            block = view[lo : lo + _ROWS]
            cube.random(out=block)
            block *= 2.0
            block -= 1.0
            block *= scale
        return
    # the representation of the module docstring.  For p != 2, Y_i = H^{1/p} V
    # with H ~ Gamma(1 + 1/p), V ~ U(-1, 1), since |Y_i|^p = H |V|^p ~
    # Gamma(1/p) by Gamma(a) = Gamma(a + 1) U^{1/a}; numpy draws a shape above
    # 1 by Marsaglia-Tsang, below 1 it falls back to a slow scalar rejection
    # loop.  At n = 30 the normal fill for p = 2 draws 2.4 times as many
    # points per second.
    if p == 2.0:
        normal = stream(seed, "ball-normal", idx)
    else:
        gamma, unif = stream(seed, "ball-gamma", idx), stream(seed, "ball-unif", idx)
    expo = stream(seed, "ball-expo", idx)
    rows = min(_ROWS, view.shape[0])
    mag_buf = None if p == 2.0 else np.empty((rows, n))
    radial_buf = np.empty(rows)
    for lo in blocks:
        block = view[lo : lo + _ROWS]
        size = block.shape[0]
        radial = radial_buf[:size]
        if p == 2.0:
            normal.standard_normal(out=block)
            block *= math.sqrt(0.5)
            np.einsum("ij,ij->i", block, block, out=radial)
        else:
            mag = mag_buf[:size]
            gamma.standard_gamma(1.0 + 1.0 / p, out=mag)
            mag **= 1.0 / p
            unif.random(out=block)
            block *= 2.0
            block -= 1.0
            block *= mag
            np.abs(block, out=mag)
            mag **= p
            mag.sum(axis=1, out=radial)
        radial += expo.standard_exponential(size)
        radial **= -1.0 / p
        radial *= scale
        block *= radial[:, None]


def sample_coordinate(body: BodySpec, count: int, seed: int) -> np.ndarray:
    """<X_i, e_1> for count uniform X_i, drawn from the exact one-dimensional
    law without building the points.

    By the representation _fill_chunk uses (module docstring), the first
    coordinate is scale * Y_1 / (|Y_1|^p + G_2)^{1/p} with G_2 ~
    Gamma((n-1)/p + 1).  As in _fill_chunk, Y_1 is a N(0, 1/2) normal for
    p = 2 and H^{1/p} V otherwise, H ~ Gamma(1 + 1/p) and V ~ U(-1, 1), so
    x = scale * V / (|V|^p + G_2 / H)^{1/p}: no Gamma shape below 1, whose
    numpy loop is slow.  p = 1 draws G_1 = |Y_1| ~ Gamma(1), which numpy
    draws as the exponential, and a random sign.  That is two variates per
    point for p = 2 and three for other finite p, instead of n + 1 or
    2n + 1.  Every axis, either sign and, for p = 2, every unit direction
    have this law.  Streams are derived per chunk as in sample_uniform, so
    the first k values of a larger draw coincide with a draw of k.
    """
    count = whole(count, "count")
    p, n = body.p, body.n
    scale = normalization_scale(body)
    out = np.empty(count)

    def fill(idx, start, size):
        view = out[start : start + size]
        if math.isinf(p):
            view[:] = scale * (2.0 * stream(seed, "cube-coord", idx).random(size) - 1.0)
            return
        g2 = stream(seed, "gamma-rest", idx).standard_gamma((n - 1) / p + 1.0, size)
        if p == 1.0:
            g1 = stream(seed, "gamma-coord", idx).standard_gamma(1.0, size)
            signs = np.where(stream(seed, "sign-coord", idx).random(size) < 0.5, -1.0, 1.0)
            view[:] = scale * signs * (g1 / (g1 + g2))
            return
        if p == 2.0:
            y = stream(seed, "normal-coord", idx).standard_normal(size)
            y *= math.sqrt(0.5)
            radial = y * y
            radial += g2
            np.sqrt(radial, out=radial)
        else:
            y = stream(seed, "unif-coord", idx).random(size)
            y *= 2.0
            y -= 1.0
            g2 /= stream(seed, "gamma-coord", idx).standard_gamma(1.0 + 1.0 / p, size)
            radial = np.abs(y)
            radial **= p
            radial += g2
            radial **= 1.0 / p
        np.divide(y, radial, out=view)
        view *= scale

    _map_chunks(count, fill)
    return out


def coordinate_ks(body: BodySpec, m: int, seed: int) -> float:
    """Kolmogorov-Smirnov distance between the e_1 coordinates of m uniform
    points and the exact coordinate marginal CDF, a check of the full-vector
    sampler."""
    return marginal_ks(body, project_uniform(body, Direction.canonical(body.n, 0), m, seed))


def marginal_ks(body: BodySpec, sample: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance between a sample of a coordinate of
    uniform points and the exact coordinate marginal CDF."""
    proj = np.sort(sample)
    m = proj.size
    radius = normalization_scale(body)
    pts = np.concatenate(([-radius], proj, [radius]))
    cdf = quad_cumulative(coordinate_marginal(body).density, pts)[1:-1]
    emp = np.arange(1, m + 1) / m
    return float(np.max(np.maximum(np.abs(emp - cdf), np.abs(emp - 1.0 / m - cdf))))


def sample_sphere(n: int, count: int, seed: int) -> np.ndarray:
    """count i.i.d. uniform directions on S^{n-1}, one unit row each."""
    n, count = whole(n, "n"), whole(count, "count")
    out = np.empty((count, n))

    def fill(idx, start, size):
        g = stream(seed, "sphere", idx).standard_normal((size, n))
        norms = np.linalg.norm(g, axis=1)
        while np.any(norms == 0.0):  # pragma: no cover - probability zero
            bad = norms == 0.0
            g[bad] = stream(seed, "sphere-retry", idx).standard_normal((int(bad.sum()), n))
            norms = np.linalg.norm(g, axis=1)
        out[start : start + size] = g / norms[:, None]

    _map_chunks(count, fill)
    return out


# ---------------------------------------------------------------------------
# isotropy diagnostics

@dataclass(frozen=True)
class IsotropyReport:
    center: np.ndarray
    cov_diag: np.ndarray
    cov: np.ndarray
    l_k: float
    samples: int
    seed: int


def isotropy_report(body: BodySpec, samples: int, seed: int) -> IsotropyReport:
    """Sample estimates of the barycenter, covariance and isotropic constant."""
    samples = whole(samples, "samples")
    n = body.n
    sum_x = np.zeros(n)
    sum_xx = np.zeros((n, n))
    # per-chunk sums, added in chunk order
    for chunk_x, chunk_xx in _map_points(body, samples, seed, lambda _, v: (v.sum(axis=0), v.T @ v)):
        sum_x += chunk_x
        sum_xx += chunk_xx
    center = sum_x / samples
    cov = sum_xx / samples
    diag = np.diag(cov).copy()
    return IsotropyReport(
        center=center,
        cov_diag=diag,
        cov=cov,
        l_k=float(math.sqrt(diag.mean())),
        samples=samples,
        seed=seed,
    )


def isotropic_constant(body: BodySpec) -> float:
    """Exact L_K, the root of the second moment of a coordinate: since
    (|X_1| / R)^p ~ Beta(1/p, b), b = (n-1)/p + 1,
    L_K = R sqrt(B(3/p, b) / B(1/p, b))."""
    p = body.p
    if math.isinf(p):
        return 1.0 / math.sqrt(12.0)
    b = (body.n - 1) / p + 1.0
    return normalization_scale(body) * math.exp(0.5 * (log_beta(3.0 / p, b) - log_beta(1.0 / p, b)))
