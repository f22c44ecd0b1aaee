"""Symmetric positive-definite matrix outcomes under four geodesic metrics.

All four metrics are pullbacks of the Frobenius metric through a matrix map,
so every variant is handled by the Hilbert-embedding machinery:

- ``frobenius``:      Psi(A) = A
- ``power``:          Psi(A) = A^p           (spectral power, default p = 0.5)
- ``log_euclidean``:  Psi(A) = log(A)        (spectral logarithm)
- ``log_cholesky``:   Psi(A) = strict lower part of the Cholesky factor plus
                      the elementwise log of its diagonal

Geodesics interpolate linearly in the embedding; transport adds the embedded
displacement and projects back when the result leaves the image set.
"""

from __future__ import annotations

import numpy as np

from .base import HilbertSpace, refuse_rows

__all__ = ["SpdSpace", "SPD_VARIANTS"]

SPD_VARIANTS = ("frobenius", "power", "log_euclidean", "log_cholesky")

#: positive-definiteness floor for validation and projection
_EPS_PD = 1e-10


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + np.swapaxes(mat, -1, -2))


def _sym_apply(mat: np.ndarray, fn) -> np.ndarray:
    """Apply a scalar function to the eigenvalues of a symmetric matrix."""
    lam, vec = np.linalg.eigh(_sym(mat))
    out = (vec * fn(lam)[..., None, :]) @ np.swapaxes(vec, -1, -2)
    return _sym(out)


class SpdSpace(HilbertSpace):
    """SPD matrices of a fixed size under a chosen geodesic metric.

    Parameters
    ----------
    size : matrix dimension m (payload is m x m).
    variant : one of ``frobenius``, ``power``, ``log_euclidean``,
        ``log_cholesky``.
    power : exponent for the power metric (ignored otherwise).
    """

    tag = "spd"

    def __init__(self, size: int, variant: str = "frobenius", power: float = 0.5):
        if size < 1:
            raise ValueError("size must be >= 1")
        variant = variant.lower().replace("-", "_")
        if variant not in SPD_VARIANTS:
            raise ValueError(f"unknown SPD variant {variant!r}; choose from {SPD_VARIANTS}")
        if variant == "power" and not 0 < power < np.inf:
            raise ValueError("power exponent must be positive and finite")
        self._m = int(size)
        self._variant = variant
        self._power = float(power)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self._m, self._m)

    @property
    def variant(self) -> str:
        return self._variant

    @property
    def power(self) -> float:
        return self._power

    @property
    def eps_pd(self) -> float:
        return _EPS_PD

    def _key(self):
        return (self._m, self._variant, self._power)

    # -- validation ---------------------------------------------------------------

    def _validate(self, stack):
        scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
        sym = _sym(stack)
        lam_min = np.linalg.eigvalsh(sym).min(axis=1)
        refuse_rows(
            (np.abs(stack - np.swapaxes(stack, 1, 2)).max(axis=(1, 2)) > 1e-10 * scale,
             "matrix must be symmetric"),
            (lam_min < _EPS_PD - 1e-12 * scale,
             lambda i: f"smallest eigenvalue {float(lam_min[i])!r} is below the floor "
             f"{_EPS_PD!r}"),
        )
        return sym

    # -- embedding ------------------------------------------------------------------

    def _embed(self, stack):
        n = stack.shape[0]
        if self._variant == "frobenius":
            return super()._embed(stack)
        if self._variant == "power":
            return _sym_apply(stack, lambda lam: lam**self._power).reshape(n, -1)
        if self._variant == "log_euclidean":
            return _sym_apply(stack, np.log).reshape(n, -1)
        chol = np.linalg.cholesky(stack)
        out = np.tril(chol, -1)
        idx = np.arange(self._m)
        out[:, idx, idx] = np.log(chol[:, idx, idx])
        return out.reshape(n, -1)

    # -- inverse and projection -------------------------------------------------------

    def _inverse(self, v):
        mat = v.reshape(self._m, self._m)
        if self._variant == "log_cholesky":
            low = np.tril(mat, -1)
            idx = np.arange(self._m)
            low[idx, idx] = np.exp(mat[idx, idx])
            return low @ low.T
        if self._variant == "frobenius":
            return mat
        if self._variant == "power":
            return _sym_apply(mat, lambda lam: lam ** (1.0 / self._power))
        return _sym_apply(mat, np.exp)  # log_euclidean

    def _project(self, rows):
        mat = rows.reshape(-1, self._m, self._m)
        if self._variant == "log_cholesky":
            return np.tril(mat).reshape(rows.shape)
        sym = _sym(mat)
        if self._variant in ("frobenius", "power"):
            # smallest admissible eigenvalue in the embedding domain
            floor = _EPS_PD if self._variant == "frobenius" else _EPS_PD**self._power
            sym = _sym_apply(sym, lambda lam: np.maximum(lam, floor))
        return sym.reshape(rows.shape)
