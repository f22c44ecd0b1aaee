"""Sharp-design geodesic RDD estimation.

The estimate is the geodesic between the two one-sided local Frechet
regression limits at the cutoff; its length is the effect magnitude, and
estimates are compared through the quotient metric on geodesics.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, fields

import numpy as np

from .frechet import (
    Side,
    compute_weights,  # noqa: F401 - bench/tracing.py wraps this module's name
    lfr_estimate,
    weighted_frechet_mean,
)
from .sample import RddSample
from .spaces import GeodesicEffect, MetricObject

__all__ = ["SharpEstimate", "estimate_sharp", "sample_frechet_mean"]


@dataclass(frozen=True)
class SharpEstimate:
    """Result of a sharp geodesic RDD fit."""

    effect: GeodesicEffect
    h0: float
    h1: float
    n0: int
    n1: int
    diagnostics: dict

    @property
    def magnitude(self) -> float:
        """The effect length."""
        return self.effect.length

    @property
    def start(self) -> MetricObject:
        return self.effect.start

    @property
    def end(self) -> MetricObject:
        return self.effect.end

    def to_json(self) -> dict:
        return {
            "magnitude": self.magnitude,
            "bandwidths": {"h0": self.h0, "h1": self.h1},
            "counts": {"n0": self.n0, "n1": self.n1},
            "effect": self.effect.to_json(),
            "diagnostics": self.diagnostics,
        }


_SAMPLE_MEANS = weakref.WeakKeyDictionary()  # sample -> its unweighted Frechet mean


def sample_frechet_mean(sample: RddSample) -> MetricObject:
    """Unweighted Frechet mean of all outcomes (default reference point),
    solved once per sample."""
    if sample not in _SAMPLE_MEANS:
        _SAMPLE_MEANS[sample] = weighted_frechet_mean(sample.ys, np.ones(sample.n))
    return _SAMPLE_MEANS[sample]


def estimate_sharp(
    sample: RddSample,
    h0: float,
    h1: float,
    *,
    reference: MetricObject | None = None,
) -> SharpEstimate:
    """Sharp geodesic RDD estimate with bandwidths ``h0`` (left) and ``h1``
    (right).

    The effect runs from the left limit to the right limit of the one-sided
    LFR fits at the cutoff; the reference point for effect comparisons
    defaults to the unweighted Frechet mean of all outcomes.
    """
    c = sample.cutoff
    start, info0 = lfr_estimate(sample, c, h0, Side.LEFT, return_info=True)
    end, info1 = lfr_estimate(sample, c, h1, Side.RIGHT, return_info=True)
    omega = reference if reference is not None else sample_frechet_mean(sample)
    effect = GeodesicEffect(start, end, omega)
    return SharpEstimate(
        effect=effect,
        h0=float(h0),
        h1=float(h1),
        n0=sample.n_left,
        n1=sample.n_right,
        diagnostics={"left": _as_dict(info0), "right": _as_dict(info1)},
    )


def _as_dict(info) -> dict:
    """A :class:`~geordd.frechet.SolveInfo` as a dict of its fields; they are
    scalars, so unlike ``dataclasses.asdict`` nothing is copied."""
    return {f.name: getattr(info, f.name) for f in fields(info)}
