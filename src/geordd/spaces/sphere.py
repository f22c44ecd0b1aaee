"""Compositional outcomes on the positive orthant of the unit sphere.

Compositions (nonnegative shares summing to one) are stored through the
square-root map, which turns the simplex into the positive orthant of the
unit sphere with the arc-length metric d(z1, z2) = arccos(<z1, z2>).  This
space is positively curved and admits no isometric Hilbert embedding, but it
has globally defined Log/Exp charts away from antipodal pairs.  One
great-circle map gives Exp, geodesics, transport and the projected Exp.
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


def _great_circle(base: np.ndarray, rows: np.ndarray):
    """``(z, |v|)`` for the tangent part v at the unit vector ``base`` of each
    row of a (k, dim) stack (guarding float drift): z = cos|v| base +
    sin|v| v / |v|, neither refused nor clamped, and ``base`` if |v| < 1e-14."""
    v = rows - (rows @ base)[:, None] * base
    norms = _row_norms(v)
    near = norms < 1e-14
    z = (np.cos(norms)[:, None] * base
         + np.sin(norms)[:, None] * v / np.where(near, 1.0, norms)[:, None])
    z[near] = base
    return z, norms


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

    def _validate(self, stack):
        with np.errstate(over="ignore"):  # a huge finite row is refused, not warned of
            norms = _row_norms(stack)
        refuse_rows(
            (np.abs(norms - 1.0) > 1e-10,
             lambda i: f"point is not on the unit sphere: |z| = {float(norms[i])!r}"),
            (stack.min(axis=1) < -1e-10, "coordinates must be nonnegative"),
        )
        return self._canonical(stack)

    def _canonical(self, stack):
        """Negative rounding clamped to zero, and each row renormalised."""
        out = np.maximum(stack, 0.0)
        out /= _row_norms(out)[:, None]
        return out

    @classmethod
    def from_shares(cls, shares) -> MetricObject:
        """Build a point from raw compositional shares (a simplex vector).

        Zero shares are floored at 1e-12 and the composition renormalized
        before taking square roots, so boundary compositions stay inside the
        open orthant where the geometry is well behaved.  The shares are
        checked and mapped as a one-row block of :meth:`points_from_shares`,
        and are never written to.
        """
        y = np.asarray(shares, dtype=float)
        if y.ndim != 1 or y.size < 2:
            raise InvariantViolation("shares must be a vector of length >= 2")
        space = cls(y.size)
        return MetricObject(space, space._checked_shares(y[None])[0])

    def points_from_shares(self, shares) -> PointStack:
        """:meth:`from_shares` for each row of a (k, dim) stack of shares, as
        one stack, refused row by row as :meth:`stack` refuses payloads and
        transformed in the same row blocks."""
        return self._stack_blocks(shares, self._checked_shares)

    def _checked_shares(self, y: np.ndarray) -> np.ndarray:
        """The payloads of a nonempty block of shares, refused at its first
        bad row.  ``y`` is read and never written.

        Every share must be at least -1e-12 and finite, and every row sum
        within 1e-8 of one.  A block passes on three whole-block reductions:
        its least share, its largest share, which must be at most 1 + 1e-8
        so that no row sum can overflow, and its largest |row sum - 1|.  Only
        a block that fails them builds the per-row masks, which refuse its
        first bad row (and accept the rare good row with a share above
        1 + 1e-8).

        The payloads are members, and are put in canonical form without
        ``_validate`` (as :meth:`_trusted` does): the checked shares are
        finite, and floored at 1e-12 and divided by their sum they are
        positive and sum to one to rounding, so their square roots are
        positive and of unit norm to rounding, far inside the 1e-10 that
        ``_validate`` allows."""
        if not (np.minimum.reduce(y, axis=None) >= -1e-12
                and np.maximum.reduce(y, axis=None) <= 1.0 + 1e-8
                and np.maximum.reduce(np.abs(np.add.reduce(y, axis=1) - 1.0)) <= 1e-8):
            with np.errstate(over="ignore", invalid="ignore"):  # inf, or huge shares
                sums = y.sum(axis=1)
            refuse_rows(
                (~np.all((y >= -1e-12) & (y < np.inf), axis=1),
                 "shares must be finite and nonnegative"),
                (np.abs(sums - 1.0) > 1e-8,
                 lambda i: f"shares must sum to one, got {float(sums[i])}"),
            )
        y = np.maximum(y, _SHARE_FLOOR)
        y /= np.add.reduce(y, axis=1, keepdims=True)
        return self._canonical(np.sqrt(y, out=y))

    def to_shares(self, a: MetricObject) -> np.ndarray:
        self._check_member(a)
        return a.data**2

    # -- metric ------------------------------------------------------------------

    def distance(self, a, b) -> float:
        self._check_pair(a, b)
        return float(_arc_angles(a.data, b.data[None])[0][0])

    def geodesic(self, a, b, t: float) -> MetricObject:
        """The great-circle image at ``a`` of t Log_a(b); refused as
        :meth:`log_map` and, for t outside [0, 1], :meth:`point` refuse."""
        v = self.log_map(a, b) * float(t)
        return self.point(_great_circle(a.data, v[None])[0][0])

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

    def _exp(self, base_row, rows):
        """Great-circle images clamped onto the orthant, refusing the first
        row at the cut locus (norm >= pi) or whose image leaves the orthant by
        more than 1e-9; a total map catches that and clamps the image."""
        z, norms = _great_circle(base_row, rows)
        refuse_rows(
            (norms >= np.pi, lambda i: f"tangent vector norm {float(norms[i])!r} is at "
                                       "or beyond the cut locus (pi)"),
            (z.min(axis=1) < -_ORTHANT_TOL, lambda i: "exponential image leaves the positive "
             f"orthant; min coordinate {float(z[i].min())!r}"),
            error=ExpOutOfDomain,
        )
        return np.maximum(z, 0.0)

    # -- transport map -------------------------------------------------------------

    def transport(self, a, b, w) -> MetricObject:
        """Exp at ``w`` of Log_a(b) carried along the geodesic a -> w.  With
        Log_a(w) = theta u, the geodesic turns u into cos(theta) u - sin(theta) a
        (the great-circle image at u of -theta a), the part of Log_a(b) along u
        turns with it, and the rest stays.  Refusals: as :meth:`log_map`, or
        :class:`TransportOutOfSpace` when the image leaves the orthant."""
        v = self.log_map(a, b)
        xi = self.log_map(a, w)
        theta = float(np.linalg.norm(xi))
        if theta > 0.0:
            u = xi / theta
            turned = _great_circle(u, -theta * a.data[None])[0][0]
            v = v + float(v @ u) * (turned - u)
        try:
            return self.exp_map(w, v)
        except ExpOutOfDomain as err:
            raise TransportOutOfSpace(f"transported point: {err}") from None

    def project_to_orthant(self, z: np.ndarray) -> np.ndarray:
        """Clamp negative coordinates to zero and renormalize to the sphere."""
        out = np.clip(np.asarray(z, dtype=float), 0.0, None)
        norm = float(np.linalg.norm(out))
        if norm < 1e-14:
            raise InvariantViolation("cannot project the zero vector to the sphere")
        return out / norm
