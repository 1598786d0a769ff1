"""Support functions and mean widths of symmetric random polytopes via
Orlicz-norm inversion, with Monte Carlo oracles."""

from .bodies import (
    BodySpec,
    Direction,
    MarginalDensity,
    coordinate_marginal,
    isotropic_constant,
    isotropy_report,
    marginal_general,
    normalization_scale,
    sample_sphere,
    sample_uniform,
    support_function,
)
from .errors import (
    AccuracyError,
    DegenerateParameterError,
    DomainError,
    EstimationError,
    HypothesisError,
    RangeError,
)
from .estimators import (
    DirectionScan,
    EstimateReport,
    ScanResult,
    direction_measure_scan,
    expected_support_mc,
    expected_support_orlicz,
    general_upper_bound,
    mean_width_mc,
    mean_width_orlicz_report,
    scaling_fit,
    solve_tilde_s,
    sphere_average_m,
)
from .mathkit import (
    SinCosParams,
    ball_volume,
    ball_volume_ratio,
    quad_adaptive,
    sincos_recursion,
)
from .orlicz import (
    OrliczFunction,
    invert_for_support,
    legendre_dual,
    luxemburg_norm,
    m_spherical,
)

__version__ = "0.1.0"
