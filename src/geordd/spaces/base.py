"""Core metric-space abstractions.

A :class:`Space` bundles a metric, its geodesics, a geodesic transport map,
and (where available) an isometric Hilbert embedding and Log/Exp charts.
A single point is an immutable :class:`MetricObject`; many points of one
space are a :class:`PointStack`, one read-only ``(k, *shape)`` payload array
that wraps a row as a :class:`MetricObject` only when it is indexed.  A
stack of an embeddable space embeds its rows once, on first use, and holds
them as :attr:`PointStack.embedded`: every fit on the stack reads those
rows, and nothing embeds them again.  An
estimated treatment effect is a :class:`GeodesicEffect`, an ordered pair of
endpoints compared through the quotient metric :func:`quotient_distance`.

A point is validated once, where it enters the space.  Caller data enters
through :meth:`Space.stack`, a block of rows at a time, and
:meth:`Space.point`, its one-row case: each row is checked by the space's
``_validate`` and returned as its canonical copy, ``_canonical``.  Rows that
an operation has just built, and can prove to be members, enter through
:meth:`Space._trusted`, which applies ``_canonical`` alone and so gives the
same bits without the checks.  Code that takes many points accepts a stack
or any sequence of :class:`MetricObject` values through
:meth:`PointStack.of`, which checks and stacks a sequence once.

Flat spaces derive from :class:`HilbertSpace`, which writes the embedding,
its inverse, the feasibility rule, geodesics and transport once.  A new flat
space supplies ``shape`` and, where the defaults do not hold:

- ``_validate``, when payloads carry invariants (default: none), and
  ``_canonical``, when a member has one canonical form to put it in
  (default: a copy);
- ``_embed`` and ``_inverse``, when the embedding is not the flattened
  payload (default: flatten, and reshape back); the matrix spaces inherit
  both from the half-vectorised chart of ``spd.MatrixSpace``;
- ``_project``, the feasibility projection of each row of a ``(k, D)``
  stack onto the image set, when that set is not the whole Hilbert space
  (default: the identity); ``project_embedding`` applies it to one vector or
  to a stack.  It is the metric projection (an eigenvalue clip for SPD)
  except in ``NetworkLaplacian``, whose clamp-and-reset rule lands in the
  image set but not at its nearest point;
- ``_hilbert_weights``, when the inner product is not the dot product;
- ``_projection_proves_membership``, False when the payload of a projected
  chart vector can fail ``_validate`` (default: True).

A space with Log/Exp charts supplies ``_log``, the Log coordinates at a base
payload of each row of a payload stack, and ``_exp``, its inverse on tangent
rows; :meth:`Space.log_map` and :meth:`Space.exp_map` check once and map.

All operations are pure functions of immutable values and are safe to call
concurrently.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import (
    EmbeddingUnavailable,
    EmptyInput,
    GeorddError,
    InvariantViolation,
    InverseInfeasible,
    LogExpUnavailable,
    MixedSpaces,
    NonFinitePayload,
    NotAPoint,
    ShapeMismatch,
    SpaceMismatch,
)

__all__ = [
    "Space",
    "HilbertSpace",
    "MetricObject",
    "PointStack",
    "GeodesicEffect",
    "quotient_distance",
]


#: payload entries in one row block: stacks are validated, and samples
#: written, a block of rows at a time, so their temporaries stay this size
_BLOCK_ENTRIES = 1 << 16


def block_rows(row_entries: int) -> int:
    """Rows in one block of rows of ``row_entries`` payload entries each: at
    most ``_BLOCK_ENTRIES`` entries in all, and at least one row."""
    return max(1, _BLOCK_ENTRIES // row_entries)


def refuse_rows(*checks, error=InvariantViolation):
    """Raise ``error`` for the first row of a stack that fails a check.

    ``checks`` are ``(mask over rows, message)`` pairs in the order one
    payload is checked; a message is a string or a function of the row.  The
    error carries the row's first failed check and its position in ``index``.
    """
    failed = [(int(np.argmax(m)), n, msg) for n, (m, msg) in enumerate(checks) if m.any()]
    if failed:
        row, _, message = min(failed)
        err = error(message(row) if callable(message) else message)
        err.index = row
        raise err


def _refuse_non_finite(block: np.ndarray) -> None:
    """Refuse the first row of a block with a NaN or infinite entry as
    :class:`NonFinitePayload`; a finite block passes at the cost of one
    scan."""
    if not np.isfinite(block).all():
        refuse_rows((~np.isfinite(block).reshape(len(block), -1).all(axis=1),
                     "payload contains NaN or infinite entries"), error=NonFinitePayload)


@dataclass(frozen=True, eq=False)
class MetricObject:
    """A point in a geodesic metric space.

    Instances are produced by ``space.point(data)``, which validates a
    copy of the payload against the space invariants and freezes it, or by
    indexing a :class:`PointStack`.
    """

    space: "Space"
    data: np.ndarray

    def __post_init__(self):
        self.data.setflags(write=False)

    def to_json(self) -> dict:
        return {
            "space": self.space.tag,
            "variant": self.space.variant,
            "shape": list(self.data.shape),
            "data": self.data.ravel().tolist(),
        }

    def __repr__(self):
        return f"MetricObject({self.space!r}, shape={self.data.shape})"


@dataclass(frozen=True, eq=False)
class PointStack(Sequence):
    """Points of one space held as one read-only ``(k, *shape)`` payload array.

    Instances are produced by ``space.stack(payloads)``, which validates the
    stack, or by :meth:`of`.  An integer index wraps that row
    as a :class:`MetricObject`; a slice or an index array gives the
    :class:`PointStack` of those rows, without validating them again.
    On an embeddable space, :attr:`embedded` holds the stack's embedded rows,
    computed once; a slice or an index array does not share them, so a fit
    on some rows reads them from the whole stack's :attr:`embedded`.
    """

    space: "Space"
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.data.setflags(write=False)

    @classmethod
    def of(cls, objects, space: "Space | None" = None) -> "PointStack":
        """``objects`` as one nonempty stack: a :class:`PointStack` as it is,
        or a sequence of :class:`MetricObject` values of one space, checked
        once and stacked.  With ``space``, the points must belong to it.

        Raises :class:`NotAPoint`, :class:`EmptyInput`, :class:`MixedSpaces`
        or :class:`SpaceMismatch`.
        """
        if not isinstance(objects, PointStack):
            if isinstance(objects, np.ndarray):
                raise NotAPoint("expected a sequence of points, got a numpy array: "
                                "a point must be a MetricObject")
            if not isinstance(objects, Iterable):
                raise NotAPoint(f"expected a sequence of points, got {type(objects).__name__}")
            objs = list(objects)
            bad = [type(o).__name__ for o in objs if not isinstance(o, MetricObject)]
            if bad:
                raise NotAPoint(f"expected a sequence of points, got a {bad[0]} in it")
            if not objs:
                raise EmptyInput("need at least one point")
            first = objs[0].space
            if not all(o.space is first or o.space == first for o in objs):
                raise MixedSpaces("points live in different spaces")
            objects = cls(first, np.stack([o.data for o in objs]))
        if len(objects) == 0:
            raise EmptyInput("need at least one point")
        if space is not None and objects.space != space:
            raise SpaceMismatch(f"points belong to {objects.space!r}, expected {space!r}")
        return objects

    @cached_property
    def embedded(self) -> np.ndarray:
        """The read-only ``(k, D)`` embedded rows, computed on first use."""
        emb = self.space.embed_many(self)
        emb.setflags(write=False)
        return emb

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return MetricObject(self.space, self.data[index])
        return PointStack(self.space, self.data[index])

    def __iter__(self):
        return (MetricObject(self.space, row) for row in self.data)


class Space(ABC):
    """A uniquely geodesic metric space.

    Subclasses implement the metric, geodesics and transport maps; spaces
    with an isometric Hilbert embedding derive from :class:`HilbertSpace`
    instead and only supply the embedding and its feasibility projection.
    """

    tag: str = "abstract"

    # -- identity ------------------------------------------------------------

    @property
    def variant(self) -> str | None:
        return None

    @property
    @abstractmethod
    def shape(self) -> tuple[int, ...]:
        """Shape of a single payload array."""

    @property
    def logexp_available(self) -> bool:
        return False

    def __eq__(self, other):
        if self is other:
            return True
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self) -> tuple:
        return (self.shape,)

    def __repr__(self):
        var = f", variant={self.variant}" if self.variant else ""
        return f"{type(self).__name__}(shape={self.shape}{var})"

    # -- points ----------------------------------------------------------------

    def point(self, data) -> MetricObject:
        """Validate ``data`` against the space invariants and wrap its
        canonical copy: the one-row case of :meth:`stack`, refused as it
        refuses that row (``index`` 0) and equal to its row bit for bit.
        The point never shares memory with ``data``."""
        arr = np.asarray(data, dtype=float)
        if arr.shape != self.shape:
            raise ShapeMismatch(f"expected payload of shape {self.shape}, got {arr.shape}")
        return MetricObject(self, self._checked(np.ascontiguousarray(arr[None]))[0])

    def stack(self, payloads) -> PointStack:
        """Validate a ``(k, *shape)`` stack of payloads; a bad row is refused
        as :meth:`point` refuses it, with its position in ``err.index``.

        This is the trust boundary of every geometry.  Rows are validated a
        block of :func:`block_rows` rows at a time, each block copied
        contiguous on its own, into one output array, so that memory beyond
        the input and the output is that of one block at any k.  The first
        bad row is refused; an invariant violation in a row before the first
        non-finite row is refused first.
        """
        return self._stack_blocks(payloads, self._checked)

    def _stack_blocks(self, payloads, check) -> PointStack:
        """The stack of ``check`` applied to each contiguous row block of
        ``payloads``; the ``index`` of a row that ``check`` refuses counts
        from the start of ``payloads``."""
        arr = np.asarray(payloads, dtype=float)
        if arr.shape[1:] != self.shape:
            raise ShapeMismatch(f"expected payload of shape {self.shape}, got {arr.shape[1:]}")
        step = block_rows(math.prod(self.shape))
        out = np.empty(arr.shape)
        for start in range(0, len(arr), step):
            try:
                out[start : start + step] = check(np.ascontiguousarray(arr[start : start + step]))
            except GeorddError as err:
                if err.index is not None:
                    err.index += start
                raise
        return PointStack(self, out)

    def _checked(self, block: np.ndarray) -> np.ndarray:
        """The canonical copy of a contiguous block of payloads, refused at
        its first bad row."""
        if not np.isfinite(block).all():
            finite = np.isfinite(block).reshape(len(block), -1).all(axis=1)
            self._validate(block[: np.argmin(finite)])  # a bad row before it fails first
            _refuse_non_finite(block)
        return self._validate(block)

    def _trusted(self, rows) -> PointStack:
        """The stack of a ``(k, *shape)`` array of rows that an operation has
        just built and knows to be members: :meth:`stack` without
        ``_validate``'s checks.  Each row is put in canonical form by
        ``_canonical``, so the stack is the one :meth:`stack` returns, bit
        for bit; a row that is not finite is still refused, as
        :class:`NonFinitePayload`, so that no NaN becomes a point.

        A caller may pass only rows that ``_validate`` accepts, and states in
        its docstring why they are members.  The sphere's
        ``_checked_shares``, which builds its rows inside :meth:`stack`'s
        block loop, applies ``_canonical`` under the same rule.
        """
        return self._stack_blocks(rows, self._trusted_block)

    def _trusted_point(self, payload: np.ndarray) -> MetricObject:
        """:meth:`_trusted`'s one-row case, built as :meth:`point` builds
        its point, for a payload of shape ``self.shape`` under the same
        rule."""
        return MetricObject(self, self._trusted_block(np.ascontiguousarray(payload[None]))[0])

    def _trusted_block(self, block: np.ndarray) -> np.ndarray:
        _refuse_non_finite(block)
        return self._canonical(block)

    def _validate(self, stack: np.ndarray) -> np.ndarray:
        """Check the invariants of a finite (k, *shape) stack with
        :func:`refuse_rows`, then return ``self._canonical(stack)``, so that
        a trusted row and a checked row come out the same (default: no
        invariants).  A space whose checks and canonical step share work
        returns what ``_canonical`` computes from it, through the same
        function."""
        return self._canonical(stack)

    @abstractmethod
    def _canonical(self, stack: np.ndarray) -> np.ndarray:
        """The canonical copy of a finite (k, *shape) stack of members, as a
        new array: what rounding left of an invariant is restored exactly."""

    def _check_member(self, a: MetricObject, name: str = "argument"):
        if not isinstance(a, MetricObject):
            raise NotAPoint(f"{name} must be a MetricObject, got {type(a).__name__}")
        if a.space != self:
            raise SpaceMismatch(f"{name} belongs to {a.space!r}, expected {self!r}")

    def _check_pair(self, a: MetricObject, b: MetricObject):
        self._check_member(a, "first argument")
        self._check_member(b, "second argument")

    # -- metric structure --------------------------------------------------------

    @abstractmethod
    def distance(self, a: MetricObject, b: MetricObject) -> float:
        """Geodesic distance between two points."""

    @abstractmethod
    def geodesic(self, a: MetricObject, b: MetricObject, t: float) -> MetricObject:
        """Constant-speed geodesic from ``a`` (t=0) to ``b`` (t=1)."""

    @abstractmethod
    def transport(self, a: MetricObject, b: MetricObject, w: MetricObject) -> MetricObject:
        """Geodesic transport map sending ``a`` to ``b``, applied to ``w``."""

    # -- Hilbert embedding (optional) ----------------------------------------------

    def embed(self, a: MetricObject) -> np.ndarray:
        raise EmbeddingUnavailable(f"{type(self).__name__} has no isometric embedding")

    def embed_many(self, objs: Sequence[MetricObject]) -> np.ndarray:
        raise EmbeddingUnavailable(f"{type(self).__name__} has no isometric embedding")

    def inverse_embed(self, v: np.ndarray, *, project: bool = False) -> MetricObject:
        raise EmbeddingUnavailable(f"{type(self).__name__} has no isometric embedding")

    def project_embedding(self, v: np.ndarray) -> np.ndarray:
        raise EmbeddingUnavailable(f"{type(self).__name__} has no isometric embedding")

    def hilbert_norm(self, u: np.ndarray) -> float:
        raise EmbeddingUnavailable(f"{type(self).__name__} has no isometric embedding")

    def hilbert_distance(self, u: np.ndarray, v: np.ndarray) -> float:
        raise EmbeddingUnavailable(f"{type(self).__name__} has no isometric embedding")

    # -- Log/Exp charts (optional) ----------------------------------------------------

    def log_map(self, base: MetricObject, points) -> np.ndarray:
        """Log chart at ``base``: the ``(d,)`` tangent vector of one point, or
        the ``(k, d)`` tangent rows of a stack or sequence of points.

        Raises :class:`LogExpUnavailable` on a space without charts, and what
        :meth:`PointStack.of` raises for a stack that is not one of this
        space's points.
        """
        self._check_member(base, "base point")
        if isinstance(points, MetricObject):
            self._check_member(points, "point")
            return self._log(base.data, points.data[None])[0]
        return self._log(base.data, PointStack.of(points, self).data)

    def _log(self, base_row: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The (k, d) Log coordinates at ``base_row`` of each row of a
        (k, *shape) payload stack."""
        raise LogExpUnavailable(f"{type(self).__name__} has no Log/Exp charts")

    def exp_map(self, base: MetricObject, v) -> MetricObject:
        """Exp chart at ``base`` of a tangent vector of the payload's shape:
        checks ``base``, then ``v`` (:class:`ShapeMismatch`), then maps."""
        self._check_member(base, "base point")
        v = np.asarray(v, dtype=float)
        if v.shape != self.shape:
            raise ShapeMismatch(f"tangent vector must have shape {self.shape}, got {v.shape}")
        return self.point(self._exp(base.data, v[None])[0])

    def _exp(self, base_row: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The (k, *shape) Exp payloads at ``base_row`` of (k, d) tangent rows."""
        raise LogExpUnavailable(f"{type(self).__name__} has no Log/Exp charts")


class HilbertSpace(Space):
    """Space isometric to a closed convex subset of a Hilbert space.

    The metric, geodesics and transport maps are all inherited from the flat
    geometry of the embedding: geodesics are segments, and transport adds the
    displacement of the embedded endpoints followed by the feasibility
    projection back onto the image set.  The module docstring lists what a
    subclass supplies.
    """

    @property
    def embedding_dim(self) -> int:
        return int(np.prod(self.shape))

    # Inner-product weights on embedding coordinates; None means the plain
    # dot product (Frobenius for matrix payloads).
    _hilbert_weights: np.ndarray | None = None

    def hilbert_norm(self, u) -> float:
        u = np.asarray(u, dtype=float).ravel()
        if u.size != self.embedding_dim:
            raise ShapeMismatch(
                f"embedding vectors must have {self.embedding_dim} coordinates"
            )
        return float(np.sqrt(max(self.hilbert_sq_norms(u[None])[0], 0.0)))

    def hilbert_distance(self, u, v) -> float:
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        if u.shape != v.shape:
            raise ShapeMismatch(
                f"embedding vectors of shapes {u.shape} and {v.shape} cannot be compared"
            )
        return self.hilbert_norm(u - v)

    def hilbert_sq_norms(self, rows: np.ndarray) -> np.ndarray:
        """Squared Hilbert norms of the rows of a (k, D) array; one row is
        :meth:`hilbert_norm`'s case."""
        left = rows if self._hilbert_weights is None else rows * self._hilbert_weights
        return np.matmul(left[:, None, :], rows[:, :, None]).ravel()

    def _canonical(self, stack: np.ndarray) -> np.ndarray:
        return stack.copy()

    def _embed(self, stack: np.ndarray) -> np.ndarray:
        """Map a (k, *shape) stack to (k, D) rows (may be a view of it)."""
        return stack.reshape(len(stack), -1)

    def _inverse(self, v: np.ndarray) -> np.ndarray:
        """Map a feasible flat embedding vector back to a payload array."""
        return v.reshape(self.shape)

    def project_embedding(self, v: np.ndarray) -> np.ndarray:
        """Feasibility projection onto the image set of a (D,) vector, or of
        each row of a (k, D) stack; returns a new array of the same shape."""
        v = np.asarray(v, dtype=float)
        return self._project(v.reshape(-1, self.embedding_dim)).reshape(v.shape)

    def _project(self, rows: np.ndarray) -> np.ndarray:
        """Project each row of a (k, D) array onto the image set (new array)."""
        return rows.copy()

    #: whether ``_inverse`` maps every row of ``_project``'s output to a
    #: payload that ``_validate`` accepts, so that a projected point is built
    #: by :meth:`_trusted_point` (see :meth:`_projected_point`)
    _projection_proves_membership: bool = True

    def _projected_point(self, proj: np.ndarray) -> MetricObject:
        """The point at a (D,) chart vector that ``_project`` returned.  Its
        payload is a member wherever ``_projection_proves_membership`` holds,
        and is built by :meth:`_trusted_point`; elsewhere :meth:`point` checks
        it."""
        payload = self._inverse(proj)
        if self._projection_proves_membership:
            return self._trusted_point(payload)
        return self.point(payload)

    def embed(self, a: MetricObject) -> np.ndarray:
        return self.embed_many([a])[0]

    def embed_many(self, objs: Sequence[MetricObject]) -> np.ndarray:
        """The (k, D) embedded rows of a stack or sequence of points, as a new
        array that the caller owns."""
        if len(objs) == 0:
            return np.empty((0, self.embedding_dim))
        data = PointStack.of(objs, self).data
        emb = self._embed(data)
        return emb.copy() if np.may_share_memory(emb, data) else emb

    def inverse_embed(self, v, *, project: bool = False) -> MetricObject:
        """The point embedded at ``v``; with ``project``, at its projection.

        Otherwise raises :class:`InverseInfeasible` when the projection moves
        ``v`` by more than ``1e-8 * |v|_inf`` in the sup norm, a gap relative
        to the vector's own scale.  Either way the point is that of the
        projected vector, built by :meth:`_projected_point`.
        """
        v = np.asarray(v, dtype=float).ravel()
        if v.size != self.embedding_dim:
            raise ShapeMismatch(
                f"embedding vector must have {self.embedding_dim} coordinates"
            )
        if not np.all(np.isfinite(v)):
            raise NonFinitePayload("embedding vector contains NaN or infinite entries")
        proj = self.project_embedding(v)
        gap = float(np.abs(proj - v).max())
        if not project and gap > 1e-8 * float(np.abs(v).max()):
            raise InverseInfeasible(
                f"vector is outside the image set of {self!r} (projection moves "
                f"it by {gap!r}); pass project=True to project first"
            )
        return self._projected_point(proj)

    def distance(self, a, b) -> float:
        self._check_pair(a, b)
        u, v = self._embed(np.stack([a.data, b.data]))
        return self.hilbert_distance(u, v)

    def geodesic(self, a, b, t: float) -> MetricObject:
        self._check_pair(a, b)
        t = float(t)
        u, v = self._embed(np.stack([a.data, b.data]))
        return self.inverse_embed((1.0 - t) * u + t * v, project=True)

    def transport(self, a, b, w) -> MetricObject:
        self._check_pair(a, b)
        self._check_member(w, "transported point")
        ea, eb, ew = self._embed(np.stack([a.data, b.data, w.data]))
        return self.inverse_embed(ew + eb - ea, project=True)


@dataclass(frozen=True, eq=False)
class GeodesicEffect:
    """A treatment effect: the geodesic from ``start`` to ``end``.

    ``length`` is the metric distance between the endpoints (the effect
    magnitude), computed once at construction; ``reference`` is the anchor
    point used by the quotient metric when comparing effects.
    """

    start: MetricObject
    end: MetricObject
    reference: MetricObject
    length: float = field(init=False)

    def __post_init__(self):
        space = self.start.space
        space._check_member(self.end, "end point")
        space._check_member(self.reference, "reference point")
        object.__setattr__(self, "length", space.distance(self.start, self.end))

    @property
    def space(self) -> Space:
        return self.start.space

    def to_json(self) -> dict:
        return {
            "start": self.start.to_json(),
            "end": self.end.to_json(),
            "length": self.length,
            "reference": self.reference.to_json(),
        }


def quotient_distance(
    e1: GeodesicEffect, e2: GeodesicEffect, reference: MetricObject | None = None
) -> float:
    """Distance between two effects in the quotient space of geodesics.

    Two geodesics are equivalent when they induce the same transport map; the
    quotient metric moves a shared reference point with each effect's
    transport and measures the distance between the images.  In flat spaces
    this reduces to the norm of the difference of the two displacements and
    does not depend on the reference point.
    """
    space = e1.space
    if e2.space != space:
        raise SpaceMismatch("effects live in different spaces")
    omega = reference if reference is not None else e1.reference
    space._check_member(omega, "reference point")
    z1 = space.transport(e1.start, e1.end, omega)
    z2 = space.transport(e2.start, e2.end, omega)
    return space.distance(z1, z2)
