"""Network outcomes encoded as graph Laplacians under the Frobenius metric.

Undirected weighted graphs on a fixed node set are represented by their
Laplacians L = D - W.  The set of such Laplacians with edge weights in
[0, max_weight] is convex and closed, so the Frobenius metric gives a flat
geometry: the embedding is the identity (flattened matrix) and geodesics are
straight lines.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvariantViolation
from .base import HilbertSpace, MetricObject

__all__ = ["NetworkLaplacian", "laplacian_from_weights"]


def laplacian_from_weights(w: np.ndarray) -> np.ndarray:
    """Graph Laplacian L = D - W of a symmetric weight matrix (diagonal ignored)."""
    w = np.asarray(w, dtype=float)
    off = w - np.diag(np.diag(w))
    return np.diag(off.sum(axis=1)) - off


class NetworkLaplacian(HilbertSpace):
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
        self._m = int(n_nodes)
        self._wmax = None if max_weight is None else float(max_weight)
        if self._wmax is not None and self._wmax <= 0:
            raise ValueError("max_weight must be positive")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self._m, self._m)

    @property
    def n_nodes(self) -> int:
        return self._m

    @property
    def max_weight(self) -> float | None:
        return self._wmax

    def _key(self):
        return (self._m, self._wmax)

    def _validate(self, arr):
        scale = max(1.0, float(np.abs(arr).max()))
        if np.abs(arr - arr.T).max() > 1e-10 * scale:
            raise InvariantViolation("Laplacian must be symmetric")
        if np.abs(arr.sum(axis=1)).max() > 1e-10 * scale:
            raise InvariantViolation("Laplacian rows must sum to zero")
        off = arr - np.diag(np.diag(arr))
        if off.max() > 1e-10 * scale:
            raise InvariantViolation("off-diagonal entries must be nonpositive")
        if np.diag(arr).min() < -1e-10 * scale:
            raise InvariantViolation("diagonal entries must be nonnegative")
        if self._wmax is not None and (-off).max() > self._wmax + 1e-10 * scale:
            raise InvariantViolation(
                f"edge weights must not exceed {self._wmax}, got {(-off).max()!r}"
            )
        # canonicalize: exact symmetry and exact zero row sums
        sym = 0.5 * (arr + arr.T)
        off = sym - np.diag(np.diag(sym))
        np.fill_diagonal(off, 0.0)
        return np.diag(-off.sum(axis=1)) + off

    def project_embedding(self, v):
        """Symmetrize, clamp off-diagonal entries into the admissible weight
        range, and reset the diagonal from the row sums."""
        mat = np.asarray(v, dtype=float).reshape(self._m, self._m)
        sym = 0.5 * (mat + mat.T)
        off = sym - np.diag(np.diag(sym))
        lo = -self._wmax if self._wmax is not None else -np.inf
        off = np.clip(off, lo, 0.0)
        np.fill_diagonal(off, 0.0)
        out = np.diag(-off.sum(axis=1)) + off
        return out.ravel()

    def weights_of(self, a: MetricObject) -> np.ndarray:
        """Edge-weight matrix recovered from the Laplacian."""
        self._check_member(a)
        off = a.data - np.diag(np.diag(a.data))
        return -off
