"""One-dimensional distributions under the 2-Wasserstein metric.

Distributions are stored as quantile functions sampled on a uniform
probability grid over [0, 1].  In quantile coordinates the 2-Wasserstein
metric is the L2 metric, geodesics (McCann interpolants) are linear
interpolations, and the embedding is the quantile function itself; the image
set is the convex cone of nondecreasing grid vectors, optionally restricted
to a compact support interval.
"""

from __future__ import annotations

import numpy as np

from .base import HilbertSpace, refuse_rows, trapezoid_grid

__all__ = ["Wasserstein1D"]


class Wasserstein1D(HilbertSpace):
    """Quantile functions on a uniform grid of [0, 1].

    Parameters
    ----------
    n_grid : number of probability grid points (default 100).
    support : compact interval the distributions live on, or ``None`` for
        unbounded support.
    """

    tag = "wasserstein_1d"

    def __init__(self, n_grid: int = 100, support: tuple[float, float] | None = None):
        if n_grid < 2:
            raise ValueError("n_grid must be >= 2")
        self._n = int(n_grid)
        if support is not None:
            lo, hi = float(support[0]), float(support[1])
            if not hi > lo:
                raise ValueError("support must be a nondegenerate interval")
            support = (lo, hi)
        self._support = support
        self.grid, self._hilbert_weights = trapezoid_grid(0.0, 1.0, self._n)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self._n,)

    @property
    def support(self) -> tuple[float, float] | None:
        return self._support

    def _key(self):
        return (self._n, self._support)

    def _validate(self, stack):
        """Nondecreasing, and inside the support, each to 1e-10 of the
        row's largest magnitude.  A step beyond the float range is +-inf,
        and only a -inf one is refused."""
        tol = 1e-10 * np.abs(stack).max(axis=1)
        with np.errstate(over="ignore"):
            diffs = np.diff(stack, axis=1)
        lo, hi = self._support or (-np.inf, np.inf)
        refuse_rows(
            (diffs.min(axis=1, initial=0.0) < -tol, lambda i: "quantile function must be "
             f"nondecreasing; worst step {float(diffs[i].min())!r}"),
            ((stack.min(axis=1) < lo - tol) | (stack.max(axis=1) > hi + tol),
             f"quantile values must stay within the support [{lo}, {hi}]"),
        )
        return self._canonical(stack)

    def _canonical(self, stack):
        """Tiny inversions removed by a running maximum, and each row clipped
        into the support."""
        out = np.maximum.accumulate(stack, axis=1)
        if self._support is not None:
            out = np.clip(out, *self._support)
        return out

    def _project(self, rows):
        """Weighted isotonic projection (pool-adjacent-violators) of the rows
        that leave the nondecreasing cone, then clamping into the support."""
        from scipy.optimize import isotonic_regression  # slow to import; only used here

        out = rows.copy()
        with np.errstate(over="ignore"):  # an infinite step keeps its sign
            falls = ~np.all(np.diff(rows, axis=1) >= 0.0, axis=1)
        for i in np.flatnonzero(falls):
            out[i] = isotonic_regression(rows[i], weights=self._hilbert_weights).x
        if self._support is not None:
            out = np.clip(out, *self._support)
        return out
