"""Geodesic metric spaces for non-Euclidean outcomes."""

from .base import (
    GeodesicEffect,
    HilbertSpace,
    MetricObject,
    PointStack,
    Space,
    quotient_distance,
)
from .euclidean import Euclidean, FunctionalL2
from .network import NetworkLaplacian, laplacian_from_weights
from .sphere import CompositionalSphere
from .spd import SPD_VARIANTS, SpdSpace
from .wasserstein import Wasserstein1D

__all__ = [
    "Space",
    "HilbertSpace",
    "MetricObject",
    "PointStack",
    "GeodesicEffect",
    "quotient_distance",
    "Euclidean",
    "FunctionalL2",
    "CompositionalSphere",
    "NetworkLaplacian",
    "laplacian_from_weights",
    "SpdSpace",
    "SPD_VARIANTS",
    "Wasserstein1D",
]
