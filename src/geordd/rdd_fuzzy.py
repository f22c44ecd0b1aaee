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
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateWindow,
    EmbeddingUnavailable,
    EmptyStratum,
    ExpOutOfDomain,
    InverseInfeasible,
    LogExpUnavailable,
    MissingAssignment,
    MissingTreatment,
    WeakCompliance,
)
from .frechet import (
    KernelKind,
    KernelSpec,
    Side,
    compute_weights,
    weighted_frechet_mean,
)
from .rdd_sharp import sample_frechet_mean
from .sample import RddSample
from .spaces import CompositionalSphere, GeodesicEffect, HilbertSpace, MetricObject

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


def estimate_compliance(
    sample: RddSample,
    h0: float,
    h1: float,
    *,
    kernel: KernelKind = KernelKind.TRIANGULAR,
) -> ComplianceFit:
    """Local linear intercepts of T on R at the cutoff, one per side."""
    _require_columns(sample)
    t = sample.t.astype(float)
    line = []
    for h, side in ((h0, Side.LEFT), (h1, Side.RIGHT)):
        p = compute_weights(sample.r, sample.cutoff, h, KernelSpec(kernel, side))
        line += [float(p.weights @ t) / p.n_norm, float(p.slope_weights @ t) / p.n_norm]
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
        self.ys = sample.ys
        self.warnings: list[str] = []

    def fit(self, weights: np.ndarray, idx: np.ndarray | None = None):
        """Coordinates of the fit, and the fitted object."""
        ys = self.ys if idx is None else [self.ys[i] for i in idx]
        mu = weighted_frechet_mean(ys, weights)
        return self.space.embed(mu), mu

    def norm(self, u: np.ndarray) -> float:
        return self.space.hilbert_norm(u)

    def back(self, q: np.ndarray) -> MetricObject:
        try:
            return self.space.inverse_embed(q)
        except InverseInfeasible:
            self.warnings.append("projection_applied")
            return self.space.inverse_embed(q, project=True)


class _TangentChart:
    """Log chart at ``omega``: a fit is a weighted average of Log coordinates."""

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
        self.rows = np.stack([space.log_map(self.omega, y) for y in sample.ys])

    def fit(self, weights: np.ndarray, idx: np.ndarray | None = None):
        """Coordinates of the fit; no object is fitted in this chart."""
        rows = self.rows if idx is None else self.rows[idx]
        return (weights @ rows) / weights.sum(), None

    def norm(self, u: np.ndarray) -> float:
        return float(np.linalg.norm(u))

    def back(self, v: np.ndarray) -> MetricObject:
        try:
            return self.space.exp_map(self.omega, v)
        except ExpOutOfDomain:
            self.warnings.append("exp_out_of_domain")
            return _projected_exp(self.space, self.omega, v)


def _projected_exp(space, omega: MetricObject, v: np.ndarray) -> MetricObject:
    """Total fallback for Exp arguments outside the chart domain."""
    if isinstance(space, CompositionalSphere):
        v = np.asarray(v, dtype=float)
        v = v - float(np.dot(v, omega.data)) * omega.data
        norm = float(np.linalg.norm(v))
        if norm >= np.pi:
            v = v * ((np.pi - 1e-9) / norm)
            norm = np.pi - 1e-9
        z = np.cos(norm) * omega.data + np.sin(norm) * v / norm
        return space.point(space.project_to_orthant(z))
    return space.exp_map(omega, v)


def _estimate(
    sample: RddSample,
    chart: _EmbeddingChart | _TangentChart,
    variant: FuzzyVariant,
    h0: float,
    h1: float,
    kernel: KernelKind,
    noncompliance_side: NoncomplianceSide | None = None,
) -> FuzzyEstimate:
    """Ratio of the one-sided jumps in ``chart``; with a noncompliance side,
    also the complier endpoints and the geodesic between them."""
    fit = estimate_compliance(sample, h0, h1, kernel=kernel)
    m0 = float(np.clip(fit.m0, 0.0, 1.0))
    m1 = float(np.clip(fit.m1, 0.0, 1.0))
    den = m1 - m0
    if abs(den) <= DELTA_COMPLY:
        raise WeakCompliance(
            f"compliance jump {den!r} is within the refusal threshold {DELTA_COMPLY}"
        )
    (nu0, mu0), (nu1, mu1) = (
        chart.fit(
            compute_weights(sample.r, sample.cutoff, h, KernelSpec(kernel, side)).weights
        )
        for h, side in ((h0, Side.LEFT), (h1, Side.RIGHT))
    )
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
                profile = compute_weights(
                    sample.r[idx], sample.cutoff, h, KernelSpec(kernel, side)
                )
            except DegenerateWindow as err:
                raise EmptyStratum(
                    f"the {stratum} stratum is degenerate near the cutoff: {err}"
                ) from None
            plus, _ = chart.fit(profile.weights, idx)
            targets = [(plus + (nu - plus) / den, None) for nu in (nu0, nu1)]
        elif abs(den - 1.0) > _FULL_COMPLIANCE_TOL:
            raise EmptyStratum(
                f"the {stratum} stratum is empty but the fitted compliance jump "
                f"is {den!r}, not one"
            )
        else:  # full compliance: the stratum term cancels
            targets = [(nu0, mu0), (nu1, mu1)]
        endpoints = tuple(mu if mu is not None else chart.back(q) for q, mu in targets)
        omega = chart.omega if chart.omega is not None else sample_frechet_mean(sample)
        effect = GeodesicEffect.between(*endpoints, omega)

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


def estimate_fuzzy_late(
    sample: RddSample,
    h0: float,
    h1: float,
    *,
    kernel: KernelKind = KernelKind.TRIANGULAR,
) -> FuzzyEstimate:
    """Compliers' average effect via the Hilbert embedding.

    The estimate is the difference of the embedded one-sided LFR limits
    scaled by the reciprocal of the compliance jump.  For distributional
    outcomes the contrast is a quantile-function difference (a local average
    quantile treatment effect).
    """
    _require_columns(sample)
    chart = _EmbeddingChart(sample, "tangent-space variant")
    return _estimate(sample, chart, FuzzyVariant.EMBEDDING, h0, h1, kernel)


def estimate_geodesic_fuzzy(
    sample: RddSample,
    h0: float,
    h1: float,
    noncompliance_side: NoncomplianceSide,
    *,
    kernel: KernelKind = KernelKind.TRIANGULAR,
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
        sample, chart, FuzzyVariant.GEODESIC_ONE_SIDED, h0, h1, kernel, noncompliance_side
    )


def estimate_riemannian_fuzzy(
    sample: RddSample,
    reference: MetricObject | None,
    h0: float,
    h1: float,
    *,
    kernel: KernelKind = KernelKind.TRIANGULAR,
) -> FuzzyEstimate:
    """Compliers' average effect in the tangent space at ``reference``.

    Outcomes are mapped through the Log chart at the reference point, fitted
    by ordinary (Euclidean) LFR on each side, and the tangent jump is scaled
    by the reciprocal compliance jump.  In Euclidean space this coincides
    exactly with the embedding estimator.
    """
    _require_columns(sample)
    chart = _TangentChart(sample, reference, "embedding variant")
    return _estimate(sample, chart, FuzzyVariant.RIEMANNIAN_TANGENT, h0, h1, kernel)


def estimate_geodesic_riemannian_fuzzy(
    sample: RddSample,
    reference: MetricObject | None,
    noncompliance_side: NoncomplianceSide,
    h0: float,
    h1: float,
    *,
    kernel: KernelKind = KernelKind.TRIANGULAR,
) -> FuzzyEstimate:
    """Compliers' effect as a geodesic between Exp-mapped tangent endpoints.

    The stratum tangent mean is fitted on the noncomplier subsample, the
    complier tangent endpoints follow by the amplified shift, and both are
    mapped back through the Exp chart.  Arguments that leave the chart's
    domain (tangent norm at the cut locus, or image outside the feasible
    region) are projected back with an ``exp_out_of_domain`` warning.
    """
    _require_columns(sample, assignment=True)
    chart = _TangentChart(sample, reference, "geodesic embedding variant")
    return _estimate(
        sample, chart, FuzzyVariant.GEODESIC_RIEMANNIAN, h0, h1, kernel, noncompliance_side
    )
