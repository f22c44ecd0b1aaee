"""Compositional outcomes on the positive orthant of the unit sphere.

Compositions (nonnegative shares summing to one) are stored through the
square-root map, which turns the simplex into the positive orthant of the
unit sphere with the arc-length metric d(z1, z2) = arccos(<z1, z2>).  This
space is positively curved and admits no isometric Hilbert embedding, but it
has globally defined Log/Exp charts away from antipodal pairs.
"""

from __future__ import annotations

import numpy as np

from ..errors import (
    AntipodalPoints,
    ExpOutOfDomain,
    InvariantViolation,
    TransportOutOfSpace,
)
from .base import MetricObject, PointStack, Space, refuse_rows

__all__ = ["CompositionalSphere"]

#: pairs whose angle is within this of pi are treated as antipodal: there the
#: tangent direction u / |u| carries a relative error of about eps / (pi - theta)
_ANTIPODAL_TOL = 1e-8

#: exponential images with a coordinate below -_ORTHANT_TOL leave the orthant
_ORTHANT_TOL = 1e-9

#: zero shares are raised to this before the square-root map
_SHARE_FLOOR = 1e-12


def _row_norms(stack: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a (k, dim) stack, each summed as
    ``np.linalg.norm`` sums one vector."""
    return np.sqrt(np.matmul(stack[:, None, :], stack[:, :, None]).ravel())


def _arc_angles(base: np.ndarray, stack: np.ndarray):
    """Angles from the unit vector ``base`` to each row b of a (k, dim) stack.

    Returns ``(theta, u, norms)``: the tangent rows u = b - <base, b> base,
    their norms, and theta = atan2(|u|, <base, b>).  u is formed as
    (b - base) - <base, b - base> base, which is the same vector for a unit
    ``base`` but keeps its relative precision as b approaches base, where
    b - <base, b> base is swamped by the rounding of <base, b>.  With atan2
    the angle keeps that precision at every distance, where arccos of the
    inner product loses half its digits near zero.  A row equal to ``base``
    gives u = 0 and theta = 0 exactly.
    """
    d = stack - base
    u = d - (d @ base)[:, None] * base
    norms = _row_norms(u)
    return np.arctan2(norms, stack @ base), u, norms


class CompositionalSphere(Space):
    """Positive orthant of the unit sphere in R^dim with arc-length metric."""

    tag = "compositional_sphere"

    def __init__(self, dim: int = 3):
        if dim < 2:
            raise ValueError("dim must be >= 2")
        self._dim = int(dim)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self._dim,)

    @property
    def logexp_available(self) -> bool:
        return True

    def _key(self):
        return (self._dim,)

    def _validate(self, stack):
        norms = _row_norms(stack)
        refuse_rows(
            (np.abs(norms - 1.0) > 1e-10,
             lambda i: f"point is not on the unit sphere: |z| = {float(norms[i])!r}"),
            (stack.min(axis=1) < -1e-10, "coordinates must be nonnegative"),
        )
        out = np.maximum(stack, 0.0)
        return out / _row_norms(out)[:, None]

    @classmethod
    def from_shares(cls, shares) -> MetricObject:
        """Build a point from raw compositional shares (a simplex vector).

        Zero shares are floored at 1e-12 and the composition renormalized
        before taking square roots, so boundary compositions stay inside the
        open orthant where the geometry is well behaved.
        """
        y = np.asarray(shares, dtype=float)
        if y.ndim != 1 or y.size < 2:
            raise InvariantViolation("shares must be a vector of length >= 2")
        return cls(y.size).points_from_shares(y[None])[0]

    def points_from_shares(self, shares) -> PointStack:
        """:meth:`from_shares` for each row of a (k, dim) stack of shares, as
        one stack, refused row by row as :meth:`stack` refuses payloads and
        transformed in the same row blocks."""
        return self._stack_blocks(shares, self._checked_shares)

    def _checked_shares(self, y: np.ndarray) -> np.ndarray:
        """The payloads of a contiguous block of shares, refused at its first
        bad row."""
        sums = y.sum(axis=1)
        refuse_rows(
            (~np.all((y >= -1e-12) & (y < np.inf), axis=1),
             "shares must be finite and nonnegative"),
            (np.abs(sums - 1.0) > 1e-8, lambda i: f"shares must sum to one, got {sums[i]!r}"),
        )
        y = np.maximum(y, _SHARE_FLOOR)
        return self._checked(np.sqrt(y / y.sum(axis=1, keepdims=True)))

    def to_shares(self, a: MetricObject) -> np.ndarray:
        self._check_member(a)
        return a.data**2

    # -- metric ------------------------------------------------------------------

    def distance(self, a, b) -> float:
        self._check_pair(a, b)
        return float(_arc_angles(a.data, b.data[None])[0][0])

    def _angle(self, a: MetricObject, b: MetricObject):
        """``(theta, u, |u|)`` of :func:`_arc_angles` for one pair, refusing
        antipodal pairs, whose connecting geodesic is not unique."""
        theta, u, norms = _arc_angles(a.data, b.data[None])
        theta = float(theta[0])
        if theta >= np.pi - _ANTIPODAL_TOL:
            raise AntipodalPoints("points are antipodal; the geodesic is not unique")
        return theta, u[0], float(norms[0])

    def geodesic(self, a, b, t: float) -> MetricObject:
        self._check_pair(a, b)
        theta, u, norm = self._angle(a, b)
        if theta < 1e-14:
            return self.point(a.data.copy())
        s = float(t) * theta
        z = np.cos(s) * a.data + (np.sin(s) / norm) * u
        return self.point(z / np.linalg.norm(z))

    # -- Log / Exp charts ------------------------------------------------------------

    def _log(self, base_row, rows):
        """Log of each row at ``base_row``, refusing the first row antipodal
        to it; a row within 1e-14 rad of the base maps to exactly zero."""
        theta, u, norms = _arc_angles(base_row, rows)
        refuse_rows((theta >= np.pi - _ANTIPODAL_TOL,
                     "points are antipodal; the geodesic is not unique"),
                    error=AntipodalPoints)
        near = theta < 1e-14
        out = (theta / np.where(near, 1.0, norms))[:, None] * u
        out[near] = 0.0
        return out

    def exp_map(self, base: MetricObject, v) -> MetricObject:
        """Exponential chart at ``base``.

        Raises :class:`ExpOutOfDomain` when the tangent vector reaches the cut
        locus (norm >= pi) or the image leaves the positive orthant; callers
        that need a total map should catch it and apply
        :meth:`project_to_orthant`.
        """
        self._check_member(base)
        v = np.asarray(v, dtype=float)
        # keep v in the tangent space at base (guards float drift)
        v = v - float(np.dot(v, base.data)) * base.data
        norm = float(np.linalg.norm(v))
        if norm < 1e-14:
            return self.point(base.data.copy())
        if norm >= np.pi:
            raise ExpOutOfDomain(
                f"tangent vector norm {norm!r} is at or beyond the cut locus (pi)"
            )
        z = np.cos(norm) * base.data + np.sin(norm) * v / norm
        if np.any(z < -_ORTHANT_TOL):
            raise ExpOutOfDomain(
                f"exponential image leaves the positive orthant; min coordinate {z.min()!r}"
            )
        return self.point(self.project_to_orthant(z))

    def parallel_transport(
        self, base: MetricObject, target: MetricObject, v: np.ndarray
    ) -> np.ndarray:
        """Parallel-transport tangent vector ``v`` from ``base`` to ``target``
        along the connecting geodesic."""
        self._check_pair(base, target)
        theta, u, norm = self._angle(base, target)
        if theta < 1e-14:
            return np.asarray(v, dtype=float).copy()
        u = u / norm
        v = np.asarray(v, dtype=float)
        along = float(np.dot(v, u))
        perp = v - along * u
        return perp + along * (np.cos(theta) * u - np.sin(theta) * base.data)

    # -- transport map -------------------------------------------------------------

    def transport(self, a, b, w) -> MetricObject:
        self._check_pair(a, b)
        self._check_member(w, "transported point")
        moved = self.parallel_transport(a, w, self.log_map(a, b))
        try:
            return self.exp_map(w, moved)
        except ExpOutOfDomain as err:
            raise TransportOutOfSpace(f"transported point: {err}") from None

    def project_to_orthant(self, z: np.ndarray) -> np.ndarray:
        """Clamp negative coordinates to zero and renormalize to the sphere."""
        out = np.clip(np.asarray(z, dtype=float), 0.0, None)
        norm = float(np.linalg.norm(out))
        if norm < 1e-14:
            raise InvariantViolation("cannot project the zero vector to the sphere")
        return out / norm
