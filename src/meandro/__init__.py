"""Numerics for series of rational functions on perforated stacked planes."""

from .errors import (
    ConfigError,
    DiophantineRequired,
    HypothesisViolated,
    InsufficientData,
    MarginViolated,
    MeandroError,
    NonConvergent,
    NotContained,
    OutOfRegime,
    PoleProximity,
    TolUnreachable,
    ZeroPole,
)
from .geometry import (
    CauchyFlag,
    CauchyState,
    DiophantineRadius,
    Disc,
    ExplicitPoles,
    MeanderPoles,
    Membership,
    MembershipState,
    PERFORATION_SCHEMA,
    Perforation,
    ReciprocalPoles,
    RootsOfUnity,
    ShrinkReport,
    StackPoint,
    TableRadius,
    cauchy_radius_check,
    huygens_distance,
    nearest_root_of_unity,
    perforation_from_config,
    residual_membership,
    residual_memberships,
    shrink_check,
)
from .series import (
    CompensatedSum,
    SumResult,
    TaylorJet,
    TermSequence,
    coefficient_sum,
    evaluate_sum,
    evaluate_sums,
    taylor_jet,
)
from .tails import DecayCert
from .polar import (
    AnnulusSpec,
    LaurentExpansion,
    PolarPart,
    annulus_inner_product,
    annulus_sup,
    basis_norm,
    c_constant,
    extension_bound,
    fiber_polar_sum,
    laurent_coefficient_l2,
    laurent_coefficients,
    polar_part,
    s_lambda,
)
from .gevrey import (
    DivergenceReport,
    DivergenceVerdict,
    FlatnessFit,
    GevreyFit,
    TruncationResult,
    divergence_diagnostic,
    flatness_check,
    gevrey_fit,
    smallest_term_truncation,
)
from .covering import (
    InclusionReport,
    PullbackSequence,
    inclusion_check,
    induced_radii,
    pullback_model,
)
from .models import (
    MeanderModel,
    QLogModel,
    RayPoint,
    ZeroSumGeneral,
    ZeroSumPiK,
    eulerian_polynomial,
    geometric_power_sum,
    meander_curve,
    pi_k,
    ray_trace,
    zero_sum_coefficients,
)

__version__ = "0.1.0"
