"""The one rule for counts (errors.whole), at every entry point that takes
one: an integral float is the same count as the int, and a fractional,
NaN or infinite value, or one below the count's minimum, raises
DomainError naming the argument."""

import math

import numpy as np
import pytest

from orlicz_polytope.bodies import (
    BodySpec,
    Direction,
    isotropy_report,
    marginal_general,
    project_uniform,
    sample_coordinate,
    sample_norms,
    sample_sphere,
    sample_uniform,
)
from orlicz_polytope import errors
from orlicz_polytope.errors import DomainError
from orlicz_polytope.estimators import (
    direction_measure_scan,
    direction_support_profile,
    expected_support_mc,
    mean_width_mc,
    mean_width_orlicz_report,
    run_mean_width_scan,
    run_support_scan,
    solve_tilde_s,
    sphere_average_m,
)
from orlicz_polytope.mathkit import (
    SinCosParams,
    ball_volume_log,
    ball_volume_ratio,
    sincos_recursion,
)
from orlicz_polytope.orlicz import (
    empirical_roots,
    from_pball,
    invert_for_support,
    m_pball_first,
    m_pball_second,
    m_spherical,
)

BALL = BodySpec(2.0, 3)
BODY = BodySpec(1.5, 3)
AXIS = Direction.canonical(3, 0)
ATOMS = np.random.default_rng(2).normal(size=(2, 1000))
DIRS = sample_sphere(3, 4, 1)

# (entry point, argument name, least, call with the count, a valid count
# at which the call is cheap, or None): at that count the integral float
# (1e3 for points, samples, directions and levels, 3.0 for dimensions,
# depths and trials) gives what the int gives, bit for bit
ENTRIES = [
    ("BodySpec", "n", 1, lambda v: sample_uniform(BodySpec(1.5, v), 100, 5), 3),
    ("sample_uniform", "count", 1, lambda v: sample_uniform(BODY, v, 5), 1000),
    ("project_uniform", "count", 1, lambda v: project_uniform(BODY, AXIS, v, 5), 1000),
    ("sample_norms", "count", 1, lambda v: sample_norms(BODY, v, 5), 1000),
    ("sample_coordinate", "count", 1, lambda v: sample_coordinate(BODY, v, 5), 1000),
    ("Direction.canonical", "axis", 0, lambda v: Direction.canonical(3, v).coords, 1),
    ("Direction.canonical.n", "n", 1, lambda v: Direction.canonical(v, 0).coords, 3),
    ("sample_sphere.n", "n", 1, lambda v: sample_sphere(v, 100, 5), 3),
    ("sample_sphere.count", "count", 1, lambda v: sample_sphere(3, v, 5), 1000),
    ("isotropy_report", "samples", 1, lambda v: isotropy_report(BODY, v, 5).cov, 1000),
    ("marginal_general", "samples", 10_000, lambda v: marginal_general(BODY, AXIS, v, 5), None),
    ("ball_volume_log", "n", 1, lambda v: ball_volume_log(2.5, v), 3),
    ("ball_volume_ratio", "n", 2, lambda v: ball_volume_ratio(2.5, v), 3),
    ("SinCosParams", "k", 0, lambda v: sincos_recursion(SinCosParams(1.5, 0.5, 0.7, v)), 3),
    ("m_pball_first", "n", 1, lambda v: m_pball_first(1.5, v, 0.3), 3),
    ("m_pball_second", "n", 1, lambda v: m_pball_second(1.5, v, 0.3), None),
    ("m_spherical", "n", 2, lambda v: m_spherical(v, 2.0), 3),
    ("invert_for_support", "N", 1, lambda v: invert_for_support(from_pball(2.0, 3), v), 1000),
    ("empirical_roots", "N", 1, lambda v: empirical_roots(ATOMS, v), 1000),
    ("expected_support_mc.N", "N", 1, lambda v: expected_support_mc(BODY, 0, v, 3, 5).mc_mean, 1000),
    ("expected_support_mc.trials", "trials", 2,
     lambda v: expected_support_mc(BODY, 0, 100, v, 5).mc_mean, 3),
    ("mean_width_mc.N", "N", 1, lambda v: mean_width_mc(BODY, v, 3, 4, 5).mc_mean, 1000),
    ("mean_width_mc.trials", "trials", 2, lambda v: mean_width_mc(BODY, 100, v, 4, 5).mc_mean, 3),
    ("mean_width_mc.n_dirs", "n_dirs", 1, lambda v: mean_width_mc(BODY, 100, 3, v, 5).mc_mean, 3),
    ("mean_width_orlicz_report", "n_dirs", 100,
     lambda v: mean_width_orlicz_report(BODY, 100, v, 5, proj_samples=1000).value, 1000),
    ("mean_width_orlicz_report.ball", "n_dirs", 100, lambda v: mean_width_orlicz_report(BALL, 100, v, 5).value, 1000),
    ("direction_measure_scan", "n_dirs", 1000,
     lambda v: direction_measure_scan(BODY, 100, 0.5, v, 5, proj_samples=1000).estimates, 1000),
    ("direction_measure_scan.N", "N", 2,
     lambda v: direction_measure_scan(BODY, v, 0.5, 1000, 5, proj_samples=1000).estimates, 1000),
    ("direction_support_profile", "N", 1, lambda v: direction_support_profile(BODY, DIRS, v, 5, 1000), 1000),
    ("run_support_scan", "N", 1,
     lambda v: run_support_scan(BODY, 0, [v, 2000, 3000, 4000], trials=0), None),
    ("run_mean_width_scan", "N", 1,
     lambda v: run_mean_width_scan(BODY, [v, 2000, 3000, 4000], trials=0, proj_samples=1000), None),
    ("sphere_average_m", "samples", 2, lambda v: sphere_average_m(BALL, 1.0, v, 5).value, 1000),
    ("solve_tilde_s.N", "N", 2, lambda v: solve_tilde_s(BALL, v, 1000, 5), 1000),
    ("solve_tilde_s.samples", "samples", 2, lambda v: solve_tilde_s(BALL, 100, v, 5), 1000),
]
CHEAP = [e for e in ENTRIES if e[4] is not None]


def _bits(x):
    if isinstance(x, tuple):  # sincos_recursion's (terms, coeff)
        return [_bits(part) for part in x]
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("name, least, call", [e[1:4] for e in ENTRIES], ids=[e[0] for e in ENTRIES])
def test_refuses_what_is_not_a_count(name, least, call):
    rule = "a positive integer" if least == 1 else f"an integer of at least {least}"
    for value in (2.5, math.nan, math.inf, least - 1):
        with pytest.raises(DomainError, match=rf"^{name} must be {rule}, got "):
            call(value)


@pytest.mark.parametrize("call, count", [e[3:] for e in CHEAP], ids=[e[0] for e in CHEAP])
def test_integral_float_is_the_int(call, count):
    assert _bits(call(float(count))) == _bits(call(count))


def test_whole():
    assert errors.whole(1e3, "N") == 1000 and type(errors.whole(1e3, "N")) is int
    assert type(errors.whole(np.int64(4), "n")) is int
    assert errors.whole(0, "k", 0) == 0
    with pytest.raises(DomainError, match=r"^N must be a positive integer, got 1000\.5$"):
        errors.whole(1000.5, "N")
    with pytest.raises(DomainError, match=r"^samples must be an integer of at least 2, got 1$"):
        errors.whole(1, "samples", 2)
