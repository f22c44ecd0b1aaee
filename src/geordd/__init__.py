"""geordd: regression discontinuity designs for outcomes in geodesic metric
spaces.

Treatment effects at a cutoff are estimated as geodesics between one-sided
local Frechet regression limits, with support for functional, compositional,
network, SPD-matrix and distributional outcomes, fuzzy designs under
imperfect compliance, and a data-adaptive bandwidth selector.
"""

from .bandwidth import (
    BandwidthSearch,
    compute_bounds,
    discrepancy_loss,
    evaluation_region,
    select_bandwidth,
)
from .frechet import (
    FrechetSolveConfig,
    Side,
    WeightProfile,
    compute_weights,
    lfr_estimate,
    weighted_frechet_mean,
)
from .rdd_fuzzy import (
    DELTA_COMPLY,
    ComplianceFit,
    FuzzyEstimate,
    FuzzyVariant,
    NoncomplianceSide,
    estimate_compliance,
    estimate_fuzzy_late,
    estimate_geodesic_fuzzy,
    estimate_geodesic_riemannian_fuzzy,
    estimate_riemannian_fuzzy,
)
from .rdd_sharp import (
    SharpEstimate,
    effect_distance,
    estimate_sharp,
    sample_frechet_mean,
)
from .sample import RddSample
from .simlab import (
    CampaignResult,
    NetworkDgp,
    RateFit,
    ScalarDgp,
    generate_network,
    generate_scalar,
    run_campaign,
)
from .spaces import (
    CompositionalSphere,
    Euclidean,
    FunctionalL2,
    GeodesicEffect,
    MetricObject,
    NetworkLaplacian,
    PointStack,
    Space,
    SpdSpace,
    Wasserstein1D,
    quotient_distance,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "errors",
    # spaces
    "Space",
    "MetricObject",
    "PointStack",
    "GeodesicEffect",
    "quotient_distance",
    "Euclidean",
    "FunctionalL2",
    "CompositionalSphere",
    "NetworkLaplacian",
    "SpdSpace",
    "Wasserstein1D",
    # local Frechet regression
    "Side",
    "WeightProfile",
    "FrechetSolveConfig",
    "compute_weights",
    "weighted_frechet_mean",
    "lfr_estimate",
    # sharp design
    "RddSample",
    "SharpEstimate",
    "estimate_sharp",
    "effect_distance",
    "sample_frechet_mean",
    # fuzzy designs
    "DELTA_COMPLY",
    "ComplianceFit",
    "FuzzyEstimate",
    "FuzzyVariant",
    "NoncomplianceSide",
    "estimate_compliance",
    "estimate_fuzzy_late",
    "estimate_geodesic_fuzzy",
    "estimate_riemannian_fuzzy",
    "estimate_geodesic_riemannian_fuzzy",
    # bandwidth selection
    "BandwidthSearch",
    "compute_bounds",
    "evaluation_region",
    "discrepancy_loss",
    "select_bandwidth",
    # simulation lab
    "ScalarDgp",
    "NetworkDgp",
    "RateFit",
    "CampaignResult",
    "generate_scalar",
    "generate_network",
    "run_campaign",
]
