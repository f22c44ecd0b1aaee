"""Flat vector outcomes: Euclidean vectors and square-integrable functions."""

from __future__ import annotations

import numpy as np

from .base import HilbertSpace

__all__ = ["Euclidean", "FunctionalL2"]


class Euclidean(HilbertSpace):
    """R^d with the usual metric.  The embedding is the identity map."""

    tag = "euclidean"

    def __init__(self, dim: int = 1):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self._dim = int(dim)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self._dim,)

    @property
    def logexp_available(self) -> bool:
        return True

    def _key(self):
        return (self._dim,)

    # Log/Exp are plain shifts in a flat space.
    def _log(self, base_row, rows):
        return rows - base_row

    def _exp(self, base_row, rows):
        return base_row + rows


class FunctionalL2(HilbertSpace):
    """Functions on a compact interval, sampled on a shared uniform grid.

    The metric is the L2 distance computed by the trapezoid rule, so the
    Hilbert inner product carries trapezoid weights on the grid values.
    The embedding is the vector of function values.

    Parameters
    ----------
    n_grid : number of grid points (default 24, e.g. hourly daily curves).
    domain : the compact interval the functions live on.
    """

    tag = "functional_l2"

    def __init__(self, n_grid: int = 24, domain: tuple[float, float] = (0.0, 1.0)):
        if n_grid < 2:
            raise ValueError("n_grid must be >= 2")
        lo, hi = float(domain[0]), float(domain[1])
        if not -np.inf < lo < hi < np.inf:
            raise ValueError("domain must be a finite, nondegenerate interval")
        self._n = int(n_grid)
        self._domain = (lo, hi)
        self.grid = np.linspace(lo, hi, self._n)
        step = (hi - lo) / (self._n - 1)
        w = np.full(self._n, step)
        w[0] = w[-1] = step / 2.0
        self._hilbert_weights = w

    @property
    def shape(self) -> tuple[int, ...]:
        return (self._n,)

    @property
    def domain(self) -> tuple[float, float]:
        return self._domain

    def _key(self):
        return (self._n, self._domain)
