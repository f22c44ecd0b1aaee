"""Network outcomes encoded as graph Laplacians under the Frobenius metric.

Undirected weighted graphs on a fixed node set are represented by their
Laplacians L = D - W.  The set of such Laplacians with edge weights in
[0, max_weight] is convex and closed, so the Frobenius metric gives a flat
geometry in which geodesics are straight lines.  The embedding is the
half-vectorised chart of :class:`~geordd.spaces.spd.MatrixSpace`, with the
Laplacian as its own chart matrix.
"""

from __future__ import annotations

import numpy as np

from .base import MetricObject, refuse_rows
from .spd import _OFF_MAX, _SQRT2, MatrixSpace, _diag

__all__ = ["NetworkLaplacian", "laplacian_from_weights"]


def _off_diagonal(mat: np.ndarray) -> np.ndarray:
    """A copy of ``mat`` with zero diagonals."""
    out = np.array(mat, dtype=float)
    np.einsum("...ii->...i", out)[...] = 0.0
    return out


def _laplacian(off: np.ndarray) -> np.ndarray:
    """Laplacians whose off-diagonal parts are ``off`` (zero diagonals)."""
    return _diag(-off.sum(axis=-1)) + off


def _symmetric_laplacian(off: np.ndarray) -> np.ndarray:
    """The canonical Laplacians of off-diagonal parts ``off``: exactly
    symmetric, with exactly zero row sums.  ``off`` is halved in place
    before adding, so that no sum overflows."""
    off *= 0.5
    return _laplacian(off + np.swapaxes(off, 1, 2))


def laplacian_from_weights(w: np.ndarray) -> np.ndarray:
    """Graph Laplacian L = D - W of a symmetric weight matrix, or of each
    matrix in a stack (diagonals ignored)."""
    # 0 - W, not -W: an isolated node's degree is then +0.0, as in D - W
    return _laplacian(0.0 - _off_diagonal(w))


class NetworkLaplacian(MatrixSpace):
    """Graph Laplacians of weighted graphs on ``n_nodes`` nodes.

    Parameters
    ----------
    n_nodes : number of nodes.
    max_weight : upper bound on edge weights; ``None`` leaves them unbounded.
    """

    tag = "network_laplacian"

    def __init__(self, n_nodes: int, max_weight: float | None = None):
        if n_nodes < 2:
            raise ValueError("n_nodes must be >= 2")
        super().__init__(int(n_nodes))
        self._wmax = None if max_weight is None else float(max_weight)
        if self._wmax is not None and not self._wmax > 0:
            raise ValueError("max_weight must be positive")
        # edge coordinates incident to each node, in increasing neighbour order
        edge = np.zeros(self.shape, dtype=np.intp)
        edge[self._iu] = np.arange(len(self._iu[0]))
        edge += edge.T
        self._incident = edge[~np.eye(self._m, dtype=bool)].reshape(self._m, self._m - 1)

    @property
    def n_nodes(self) -> int:
        return self._m

    @property
    def max_weight(self) -> float | None:
        return self._wmax

    def _key(self):
        return (self._m, self._wmax)

    def _validate(self, stack):
        """The invariants, each to 1e-10 of the matrix's largest entry; the
        checks and the canonical step share one off-diagonal copy."""
        tol = 1e-10 * np.abs(stack).max(axis=(1, 2))
        off = _off_diagonal(stack)
        weight = -off.min(axis=(1, 2))
        wmax = np.inf if self._wmax is None else self._wmax + tol
        with np.errstate(over="ignore", invalid="ignore"):  # huge gaps and sums are refused
            refuse_rows(
                (np.abs(stack - np.swapaxes(stack, 1, 2)).max(axis=(1, 2)) > tol,
                 "Laplacian must be symmetric"),
                (np.abs(stack.sum(axis=2)).max(axis=1) > tol, "Laplacian rows must sum to zero"),
                (off.max(axis=(1, 2)) > tol, "off-diagonal entries must be nonpositive"),
                (np.diagonal(stack, axis1=1, axis2=2).min(axis=1) < -tol,
                 "diagonal entries must be nonnegative"),
                (weight > wmax,
                 lambda i: f"edge weights must not exceed {self._wmax}, got {float(weight[i])!r}"),
                (weight > _OFF_MAX, lambda i: f"edge weights must not exceed {_OFF_MAX!r} "
                 f"(the chart's range), got {float(weight[i])!r}"),
            )
        return _symmetric_laplacian(off)

    def _canonical(self, stack):
        return _symmetric_laplacian(_off_diagonal(stack))

    def _project(self, rows):
        """Clamp the edge weights into [0, max_weight] and reset the diagonal
        from the row sums; unclamped edge coordinates are returned unchanged.

        This is a feasibility rule, not the Frobenius metric projection: an
        edge weight also enters two diagonal entries, so clamping it alone
        does not find the nearest admissible Laplacian.
        """
        e = -self._m  # the edge coordinates are all but the last m
        out = rows.copy()
        lo = -_SQRT2 * self._wmax if self._wmax is not None else -np.inf
        off = np.clip(out[:, :e], lo, 0.0, out=out[:, :e])
        out[:, e:] = off[:, self._incident].sum(axis=-1) / -_SQRT2
        return out

    def weights_of(self, a: MetricObject) -> np.ndarray:
        """Edge-weight matrix recovered from the Laplacian."""
        self._check_member(a)
        return -_off_diagonal(a.data)
