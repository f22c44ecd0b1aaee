"""Observed regression-discontinuity samples."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
import numpy as np

from .errors import InvariantViolation, NonFinitePayload
from .frechet import LocalLinearTables
from .spaces import PointStack, Space
from .spaces.base import refuse_rows

__all__ = ["RddSample", "MIN_SIDE_OBS"]

#: observations required strictly below and at-or-above the cutoff before
#: the data-adaptive bandwidth rule applies
MIN_SIDE_OBS = 20


@dataclass(frozen=True, eq=False)
class RddSample:
    """Records (R_i, Y_i) with optional treatment T_i and assignment Z_i.

    The outcomes ``ys`` are held as one :class:`PointStack`.  The constructor
    takes a stack (``space.stack(payloads)``) as it is, or any sequence of
    points of one space, checked and stacked once (:meth:`PointStack.of`).
    Records are stored sorted by the running variable, so two samples with
    the same records in any order are bit-identical; an observation exactly
    at the cutoff belongs to the treated (right) side.  The running values
    and the cutoff must be finite.  A refused running value or assignment
    names its record's position in the given order in the error's
    ``index``.  Data-adaptive bandwidth selection additionally requires
    :data:`MIN_SIDE_OBS` observations on each side.
    """

    r: np.ndarray
    ys: PointStack
    cutoff: float
    t: np.ndarray | None = None
    z: np.ndarray | None = None

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise InvariantViolation("running variable must be a nonempty vector")
        if not np.all(np.isfinite(r)):
            refuse_rows((~np.isfinite(r), "running variable contains NaN or infinite values"),
                        error=NonFinitePayload)
        c = float(self.cutoff)
        if not np.isfinite(c):
            raise NonFinitePayload(f"cutoff must be finite, got {c!r}")
        ys = PointStack.of(self.ys)
        if len(ys) != r.size:
            raise InvariantViolation("outcomes and running values must align")

        # records already sorted keep their read-only stack as it is; r, t
        # and z are copied either way, so that setflags never lands on a
        # caller's array
        order = None if (r[1:] >= r[:-1]).all() else np.argsort(r, kind="stable")
        object.__setattr__(self, "r", r.copy() if order is None else r[order])
        object.__setattr__(self, "ys", ys if order is None else ys[order])
        self.r.setflags(write=False)

        for name in ("t", "z"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if arr.shape != (r.size,):
                raise InvariantViolation(f"{name} column must align with records")
            if not np.all(np.isin(arr, (0.0, 1.0))):
                raise InvariantViolation(f"{name} column must be 0/1")
            if name == "z":
                refuse_rows((arr != (r >= c), "assignment column must equal the cutoff "
                             "indicator 1{R >= c}"))
            object.__setattr__(self, name, (arr if order is None else arr[order]).astype(int))
            getattr(self, name).setflags(write=False)

        object.__setattr__(self, "cutoff", c)

    @property
    def n(self) -> int:
        return self.r.size

    @property
    def space(self) -> Space:
        return self.ys.space

    @property
    def n_left(self) -> int:
        return int(self.r.searchsorted(self.cutoff, "left"))

    @property
    def n_right(self) -> int:
        return self.n - self.n_left

    @cached_property
    def weight_tables(self) -> LocalLinearTables:
        """Block sums of ``r`` alone, built once and shared by every
        single-center weight profile on this sample."""
        return LocalLinearTables(self.r)

    @cached_property
    def lfr_tables(self) -> LocalLinearTables:
        """Block sums of ``r`` and of the embedded outcomes ``ys.embedded``,
        built once and shared by every batched local-linear fit on this
        sample."""
        return LocalLinearTables(self.r, self.ys.embedded)

    def validate_sharp(self):
        """Check the sharp-design consistency T = 1{R >= c} when T is present."""
        if self.t is not None:
            expected = (self.r >= self.cutoff).astype(int)
            if np.any(self.t != expected):
                raise InvariantViolation(
                    "sharp design requires the treatment column to equal 1{R >= c}"
                )
