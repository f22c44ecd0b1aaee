"""Fuzzy-design estimators for imperfect compliance at the cutoff.

Two estimands: the compliers' average effect, the outcome jump at the cutoff
divided by the compliance jump; and, under one-sided noncompliance, the
compliers' effect as a geodesic between complier endpoints, found by
shifting the noncomplier stratum mean at the cutoff by the amplified jumps.

Each is read in one of two coordinate charts.  The embedding chart maps
outcomes through the isometric Hilbert embedding psi and back through psi^-1
with a feasibility projection (``EMBEDDING``, ``GEODESIC_ONE_SIDED``).  The
tangent chart maps them through Log at a reference point and back through Exp
(``RIEMANNIAN_TANGENT``, ``GEODESIC_RIEMANNIAN``); it covers manifolds
without an isometric embedding, such as the compositional sphere.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateWindow,
    EmbeddingUnavailable,
    EmptyStratum,
    ExpOutOfDomain,
    InvariantViolation,
    InverseInfeasible,
    LogExpUnavailable,
    MissingAssignment,
    MissingTreatment,
    WeakCompliance,
)
from .frechet import Side, WeightProfile, compute_weights
from .frechet import weighted_frechet_mean  # noqa: F401 - bench/tracing.py wraps this module's name
from .rdd_sharp import sample_frechet_mean
from .sample import RddSample
from .spaces import GeodesicEffect, HilbertSpace, MetricObject
from .spaces.sphere import _great_circle

__all__ = [
    "DELTA_COMPLY",
    "FuzzyVariant",
    "NoncomplianceSide",
    "ComplianceFit",
    "FuzzyEstimate",
    "estimate_compliance",
    "estimate_fuzzy_late",
    "estimate_geodesic_fuzzy",
    "estimate_riemannian_fuzzy",
    "estimate_geodesic_riemannian_fuzzy",
]

#: estimates are refused when |m1 - m0| does not exceed this share
DELTA_COMPLY = 0.05

#: a denominator within this tolerance of one is treated as full compliance,
#: where the stratum term cancels algebraically
_FULL_COMPLIANCE_TOL = 1e-8


class FuzzyVariant(enum.Enum):
    EMBEDDING = "embedding"
    GEODESIC_ONE_SIDED = "geodesic_one_sided"
    RIEMANNIAN_TANGENT = "riemannian_tangent"
    GEODESIC_RIEMANNIAN = "geodesic_riemannian"


class NoncomplianceSide(enum.Enum):
    """Which noncomplier stratum exists under one-sided noncompliance."""

    ALWAYS_TAKERS = "always_takers"
    NEVER_TAKERS = "never_takers"


@dataclass(frozen=True)
class ComplianceFit:
    """Local linear fits of the treatment indicator on each side of the cutoff."""

    m0: float
    m1: float
    slope0: float
    slope1: float
    h0: float
    h1: float

    @property
    def denominator(self) -> float:
        """Compliance jump with intercepts clamped into [0, 1]."""
        return float(np.clip(self.m1, 0.0, 1.0) - np.clip(self.m0, 0.0, 1.0))

    def to_json(self) -> dict:
        return {
            "m0": self.m0,
            "m1": self.m1,
            "slope0": self.slope0,
            "slope1": self.slope1,
            "bandwidths": {"h0": self.h0, "h1": self.h1},
            "denominator": self.denominator,
        }


@dataclass(frozen=True)
class FuzzyEstimate:
    """Result of a fuzzy RDD fit.

    ``tau`` is the effect contrast in embedding (or tangent) coordinates and
    ``magnitude`` its Hilbert (or Euclidean tangent) norm.  Geodesic variants
    also carry the complier endpoints and the effect geodesic.  ``warnings``
    lists feasibility projections applied along the way.
    """

    variant: FuzzyVariant
    tau: np.ndarray
    magnitude: float
    m0: float
    m1: float
    denominator: float
    compliance: ComplianceFit
    endpoints: tuple[MetricObject, MetricObject] | None = None
    effect: GeodesicEffect | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        self.tau.setflags(write=False)
        if not (0.0 <= self.m0 <= 1.0 and 0.0 <= self.m1 <= 1.0):
            raise ValueError("clamped compliance intercepts must lie in [0, 1]")

    def to_json(self) -> dict:
        out = {
            "variant": self.variant.value,
            "tau": self.tau.tolist(),
            "magnitude": self.magnitude,
            "m0": self.m0,
            "m1": self.m1,
            "denominator": self.denominator,
            "compliance": self.compliance.to_json(),
            "warnings": list(self.warnings),
        }
        if self.endpoints is not None:
            out["endpoints"] = [p.to_json() for p in self.endpoints]
        if self.effect is not None:
            out["effect"] = self.effect.to_json()
        return out


def _require_columns(sample: RddSample, assignment: bool = False):
    if sample.t is None:
        raise MissingTreatment("fuzzy estimation needs a treatment column")
    if assignment and sample.z is None:
        raise MissingAssignment(
            "geodesic fuzzy estimation needs the assignment column Z = 1{R >= c}"
        )


def estimate_compliance(sample: RddSample, h0: float, h1: float) -> ComplianceFit:
    """Local linear intercepts of T on R at the cutoff, one per side."""
    _require_columns(sample)
    line = []
    for h, side in ((h0, Side.LEFT), (h1, Side.RIGHT)):
        p = compute_weights(sample.r, sample.cutoff, h, side, tables=sample.weight_tables)
        line += [float(w @ sample.t[p.support]) / p.n_norm for w in (p.weights, p.slope_weights)]
    m0, b0, m1, b1 = line
    return ComplianceFit(m0=m0, m1=m1, slope0=b0, slope1=b1, h0=float(h0), h1=float(h1))


class _EmbeddingChart:
    """Hilbert embedding psi: a fit is psi of the weighted Frechet mean."""

    #: the effect's reference point is the sample Frechet mean
    omega = None

    def __init__(self, sample: RddSample, alt: str):
        space = sample.space
        if not isinstance(space, HilbertSpace):
            raise EmbeddingUnavailable(
                f"{type(space).__name__} has no isometric embedding; use the "
                f"{alt} instead"
            )
        self.space = space
        self.rows = sample.ys.embedded
        self.warnings: list[str] = []

    def fit(self, profile: WeightProfile) -> np.ndarray:
        """Coordinates of the fit: the projected weighted average of the
        window's embedded rows, whose point ``weighted_frechet_mean`` returns."""
        mean = (profile.weights @ self.rows[profile.support]) / profile.weights.sum()
        return self.space.project_embedding(mean)

    def norm(self, u: np.ndarray) -> float:
        return self.space.hilbert_norm(u)

    def back(self, q: np.ndarray) -> MetricObject:
        try:
            return self.space.inverse_embed(q)
        except InverseInfeasible:
            self.warnings.append("projection_applied")
            return self.space.inverse_embed(q, project=True)


_LOG_ROWS = weakref.WeakKeyDictionary()  # sample -> (reference, its Log rows there)


class _TangentChart:
    """Log chart at ``omega``: a fit is a weighted average of Log coordinates.
    A sample's Log rows are kept, read-only, for the last reference they
    were mapped at, so charts at the same reference object map it once."""

    def __init__(self, sample: RddSample, reference: MetricObject | None, alt: str):
        space = sample.space
        if not space.logexp_available:
            raise LogExpUnavailable(
                f"{type(space).__name__} has no Log/Exp charts; use the "
                f"{alt} instead"
            )
        self.space = space
        self.warnings: list[str] = []
        if reference is not None:
            space._check_member(reference, "reference point")
            self.omega = reference
        else:
            # Data-dependent reference: convenient default, but the
            # tangent-space rate guarantees assume a fixed reference.
            self.warnings.append("data_dependent_reference")
            self.omega = sample_frechet_mean(sample)
        held = _LOG_ROWS.get(sample)
        if held is None or held[0] is not self.omega:
            rows = space.log_map(self.omega, sample.ys)
            rows.setflags(write=False)
            held = _LOG_ROWS[sample] = self.omega, rows
        self.rows = held[1]

    def fit(self, profile: WeightProfile) -> np.ndarray:
        """Coordinates of the fit: the weighted average of the window's Log rows."""
        return (profile.weights @ self.rows[profile.support]) / profile.weights.sum()

    def norm(self, u: np.ndarray) -> float:
        return float(np.linalg.norm(u))

    def back(self, v: np.ndarray) -> MetricObject:
        try:
            return self.space.exp_map(self.omega, v)
        except ExpOutOfDomain:
            self.warnings.append("exp_out_of_domain")
            return _projected_exp(self.omega, v)


def _projected_exp(omega: MetricObject, v: np.ndarray) -> MetricObject:
    """Fallback for Exp arguments outside the chart domain (only the sphere's
    Exp has a bounded domain): the great-circle image clamped onto the orthant,
    refused below the cut locus only when it clamps to zero.  The clamped row
    is trusted: ``project_to_orthant`` returns a nonnegative unit vector or
    refuses the zero vector, so the row is a member, and the trusted point
    is the checked one bit for bit (``_validate`` returns ``_canonical`` of
    the rows it accepts)."""
    space = omega.space
    z, norms = _great_circle(omega.data, np.asarray(v, dtype=float)[None])
    if norms[0] < np.pi:
        try:
            return space._trusted(space.project_to_orthant(z[0])[None])[0]
        except InvariantViolation:  # the image clamps to zero
            pass
    raise ExpOutOfDomain(f"tangent vector of norm {float(norms[0])!r} has no image to project: "
                         "it reaches the cut locus (pi), or its image clamps to zero")


def _estimate(
    sample: RddSample,
    chart: _EmbeddingChart | _TangentChart,
    variant: FuzzyVariant,
    h0: float,
    h1: float,
    noncompliance_side: NoncomplianceSide | None = None,
) -> FuzzyEstimate:
    """Ratio of the one-sided jumps in ``chart``; with a noncompliance side,
    also the complier endpoints and the geodesic between them."""
    fit = estimate_compliance(sample, h0, h1)
    m0 = float(np.clip(fit.m0, 0.0, 1.0))
    m1 = float(np.clip(fit.m1, 0.0, 1.0))
    den = fit.denominator
    if abs(den) <= DELTA_COMPLY:
        raise WeakCompliance(
            f"compliance jump {den!r} is within the refusal threshold {DELTA_COMPLY}"
        )
    tables = sample.weight_tables  # they return the compliance fit's two profiles
    nu0 = chart.fit(compute_weights(sample.r, sample.cutoff, h0, Side.LEFT, tables=tables))
    nu1 = chart.fit(compute_weights(sample.r, sample.cutoff, h1, Side.RIGHT, tables=tables))
    tau = (nu1 - nu0) / den

    endpoints = effect = None
    if noncompliance_side is not None:
        stratum = noncompliance_side.value
        # always-takers (T = 1, Z = 0) are observed left of the cutoff,
        # never-takers (T = 0, Z = 1) right of it
        always = noncompliance_side is NoncomplianceSide.ALWAYS_TAKERS
        idx = np.flatnonzero((sample.t == always) & (sample.z != always))
        h, side = (h0, Side.LEFT) if always else (h1, Side.RIGHT)
        if idx.size:
            try:
                profile = compute_weights(sample.r[idx], sample.cutoff, h, side)
            except DegenerateWindow as err:
                raise EmptyStratum(
                    f"the {stratum} stratum is degenerate near the cutoff: {err}"
                ) from None
            plus = chart.fit(replace(profile, support=idx[profile.support]))
            targets = [plus + (nu - plus) / den for nu in (nu0, nu1)]
        elif abs(den - 1.0) > _FULL_COMPLIANCE_TOL:
            raise EmptyStratum(
                f"the {stratum} stratum is empty but the fitted compliance jump "
                f"is {den!r}, not one"
            )
        else:  # full compliance: the stratum term cancels
            targets = [nu0, nu1]
        endpoints = tuple(chart.back(q) for q in targets)
        omega = chart.omega if chart.omega is not None else sample_frechet_mean(sample)
        effect = GeodesicEffect(*endpoints, omega)

    return FuzzyEstimate(
        variant=variant,
        tau=tau,
        magnitude=chart.norm(tau) if effect is None else effect.length,
        m0=m0,
        m1=m1,
        denominator=den,
        compliance=fit,
        endpoints=endpoints,
        effect=effect,
        warnings=tuple(chart.warnings),
    )


def estimate_fuzzy_late(sample: RddSample, h0: float, h1: float) -> FuzzyEstimate:
    """Compliers' average effect via the Hilbert embedding.

    The estimate is the difference of the embedded one-sided LFR limits
    scaled by the reciprocal of the compliance jump.  For distributional
    outcomes the contrast is a quantile-function difference (a local average
    quantile treatment effect).
    """
    _require_columns(sample)
    chart = _EmbeddingChart(sample, "tangent-space variant")
    return _estimate(sample, chart, FuzzyVariant.EMBEDDING, h0, h1)


def estimate_geodesic_fuzzy(
    sample: RddSample,
    h0: float,
    h1: float,
    noncompliance_side: NoncomplianceSide,
) -> FuzzyEstimate:
    """Compliers' effect as a geodesic, under one-sided noncompliance.

    The noncomplier stratum mean at the cutoff is estimated by an LFR fit on
    the stratum subsample (always-takers with the left kernel and h0,
    never-takers with the right kernel and h1); the complier endpoints follow
    by shifting it in the embedding by the amplified jump.  When the fitted
    compliance jump is one, the stratum term cancels and the endpoints reduce
    to the sharp LFR limits.
    """
    _require_columns(sample, assignment=True)
    chart = _EmbeddingChart(sample, "geodesic tangent-space variant")
    return _estimate(
        sample, chart, FuzzyVariant.GEODESIC_ONE_SIDED, h0, h1, noncompliance_side
    )


def estimate_riemannian_fuzzy(
    sample: RddSample,
    reference: MetricObject | None,
    h0: float,
    h1: float,
) -> FuzzyEstimate:
    """Compliers' average effect in the tangent space at ``reference``.

    Outcomes are mapped through the Log chart at the reference point, fitted
    by ordinary (Euclidean) LFR on each side, and the tangent jump is scaled
    by the reciprocal compliance jump.  In Euclidean space this coincides
    exactly with the embedding estimator.
    """
    _require_columns(sample)
    chart = _TangentChart(sample, reference, "embedding variant")
    return _estimate(sample, chart, FuzzyVariant.RIEMANNIAN_TANGENT, h0, h1)


def estimate_geodesic_riemannian_fuzzy(
    sample: RddSample,
    reference: MetricObject | None,
    noncompliance_side: NoncomplianceSide,
    h0: float,
    h1: float,
) -> FuzzyEstimate:
    """Compliers' effect as a geodesic between Exp-mapped tangent endpoints.

    The stratum tangent mean is fitted on the noncomplier subsample, the
    complier tangent endpoints follow by the amplified shift, and both are
    mapped back through the Exp chart.  An endpoint whose image leaves the
    feasible region is clamped onto it with an ``exp_out_of_domain`` warning;
    one at or beyond the cut locus (norm >= pi), or whose image clamps to
    zero, is refused with :class:`ExpOutOfDomain`.
    """
    _require_columns(sample, assignment=True)
    chart = _TangentChart(sample, reference, "geodesic embedding variant")
    return _estimate(
        sample, chart, FuzzyVariant.GEODESIC_RIEMANNIAN, h0, h1, noncompliance_side
    )
