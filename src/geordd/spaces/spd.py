"""Matrix outcomes in one half-vectorised chart, and SPD matrices under four
geodesic metrics.

:class:`MatrixSpace` embeds an m x m payload through its chart matrix S as
z = (s S_ij for i < j in ``np.triu_indices`` order, then S_ii): m(m+1)/2
coordinates under the plain dot product, with |z| = |S|_F when s = sqrt(2)
and S is symmetric.  Every chart vector is a symmetric S, so no projection
has to symmetrise.  All four SPD metrics are pullbacks of the Frobenius
metric through a matrix map, so every variant is such a chart:

- ``frobenius``:      S = A
- ``power``:          S = A^p        (spectral power, default p = 0.5)
- ``log_euclidean``:  S = log(A)     (spectral logarithm)
- ``log_cholesky``:   S = L^T with the log of its diagonal, where A = L L^T,
                      read at s = 1

Every chart vector of ``log_euclidean`` and ``log_cholesky`` is the chart of
an SPD matrix, so their projection is the identity; under ``frobenius`` and
``power`` it is the metric projection that clips the eigenvalues of S at the
image of ``eps_pd``, or of 1e-12 of the payload's largest eigenvalue when that
is larger.  Geodesics interpolate linearly in the chart; transport
adds the chart displacement and projects back when the result leaves the
image set.
"""

from __future__ import annotations

import numpy as np

from .base import HilbertSpace, refuse_rows

__all__ = ["MatrixSpace", "SpdSpace", "SPD_VARIANTS"]

SPD_VARIANTS = ("frobenius", "power", "log_euclidean", "log_cholesky")

#: positive-definiteness floor for validation and projection, absolute: in
#: the units of the payload entries, whatever the matrix's scale
_EPS_PD = 1e-10

_SQRT2 = np.sqrt(2.0)

#: the largest off-diagonal magnitude whose chart coordinate sqrt(2) S_ij is
#: finite; a payload entry above it is refused
_OFF_MAX = float(np.finfo(float).max / _SQRT2)


def _diag(v: np.ndarray) -> np.ndarray:
    """Diagonal matrices with the rows of ``v`` on their diagonals."""
    out = np.zeros(v.shape + v.shape[-1:])
    np.einsum("...ii->...i", out)[...] = v
    return out


def _spectral(mats: np.ndarray, fn) -> np.ndarray:
    """A scalar function applied to the eigenvalues of each symmetric matrix."""
    lam, vec = np.linalg.eigh(mats)
    return (vec * fn(lam)[..., None, :]) @ np.swapaxes(vec, -1, -2)


class MatrixSpace(HilbertSpace):
    """m x m payloads in the half-vectorised chart, with ``off_scale`` as s;
    a subclass whose chart matrix is not the payload supplies ``_chart``."""

    def __init__(self, m: int, off_scale: float = _SQRT2):
        self._m, self._off_scale = m, off_scale
        self._iu = np.triu_indices(m, k=1)
        # flat payload entry of each chart coordinate: above the diagonal, then on it
        self._entries = np.concatenate([self._iu[0] * m + self._iu[1], np.arange(m) * (m + 1)])

    @property
    def shape(self) -> tuple[int, ...]:
        return (self._m, self._m)

    @property
    def embedding_dim(self) -> int:
        return self._m * (self._m + 1) // 2

    def _chart(self, mats: np.ndarray, inverse: bool = False) -> np.ndarray:
        """The chart matrices of a (k, m, m) payload stack, or with
        ``inverse`` the payloads of a stack of symmetric chart matrices."""
        return mats

    def _half_vec(self, mats: np.ndarray) -> np.ndarray:
        """The (k, D) chart rows of a (k, m, m) stack of chart matrices."""
        out = np.take(mats.reshape(len(mats), self._m * self._m), self._entries, axis=1)
        out[:, : -self._m] *= self._off_scale
        return out

    def _symmetric(self, rows: np.ndarray) -> np.ndarray:
        """The (k, m, m) symmetric chart matrices of (k, D) chart rows."""
        off = np.zeros((len(rows),) + self.shape)
        off[:, self._iu[0], self._iu[1]] = rows[:, : -self._m] / self._off_scale
        return _diag(rows[:, -self._m :]) + off + np.swapaxes(off, 1, 2)

    def _embed(self, stack):
        return self._half_vec(self._chart(stack))

    def _inverse(self, v):
        """The payload of a (D,) chart vector, or of each row of a (k, D) stack."""
        out = self._chart(self._symmetric(v.reshape(-1, self.embedding_dim)), inverse=True)
        return out.reshape(v.shape[:-1] + self.shape)


class SpdSpace(MatrixSpace):
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
        super().__init__(int(size), 1.0 if variant == "log_cholesky" else _SQRT2)
        self._variant = variant
        self._power = float(power)

    @property
    def variant(self) -> str:
        return self._variant

    @property
    def power(self) -> float:
        return self._power

    eps_pd = _EPS_PD

    def _key(self):
        return (self._m, self._variant, self._power)

    # -- validation ---------------------------------------------------------------

    def _validate(self, stack):
        """Symmetric to 1e-10 of the matrix's largest entry, and every
        eigenvalue positive and at least ``eps_pd`` less 1e-12 of that entry.
        Under ``frobenius`` the payload is the chart matrix, so no
        off-diagonal entry may exceed ``_OFF_MAX`` in magnitude; under
        ``power`` and ``log_euclidean`` the chart image of the largest
        eigenvalue, lam^p or log(lam), must be finite."""
        scale = np.abs(stack).max(axis=(1, 2))
        sym = self._canonical(stack)
        lam = np.linalg.eigvalsh(sym)
        lam_min = lam.min(axis=1)
        off = image = np.zeros(len(sym))
        if self._variant == "frobenius":
            off = np.abs(sym[:, self._iu[0], self._iu[1]]).max(axis=1, initial=0.0)
        elif self._variant != "log_cholesky":
            # lam^p, or lam itself, whose log is finite where lam is; a row with
            # a negative eigenvalue, whose power may be NaN, is refused first
            with np.errstate(over="ignore", invalid="ignore"):
                image = lam.max(axis=1) ** (self._power if self._variant == "power" else 1.0)
        with np.errstate(over="ignore"):  # an overflowing gap is refused
            refuse_rows(
                (np.abs(stack - np.swapaxes(stack, 1, 2)).max(axis=(1, 2)) > 1e-10 * scale,
                 "matrix must be symmetric"),
                ((lam_min <= 0.0) | (lam_min < _EPS_PD - 1e-12 * scale),
                 lambda i: f"smallest eigenvalue {float(lam_min[i])!r} is below the floor "
                 f"{_EPS_PD!r}"),
                (off > _OFF_MAX, lambda i: f"off-diagonal entries must not exceed {_OFF_MAX!r} "
                 f"in magnitude, got {float(off[i])!r}"),
                (~np.isfinite(image), lambda i: f"largest eigenvalue {float(lam[i].max())!r} "
                 f"has no finite {self._variant} chart image"),
            )
        return sym

    def _canonical(self, stack):
        """Each matrix symmetrised, halved before adding so that no sum overflows."""
        half = 0.5 * stack
        return half + np.swapaxes(half, 1, 2)

    def _projected_point(self, proj):
        """Checked by :meth:`point`: the log charts project by the identity,
        so a fit with signed weights can leave the eigenvalue floor."""
        return self.point(self._inverse(proj))

    # -- chart ----------------------------------------------------------------------

    def _chart(self, mats, inverse=False):
        if self._variant == "frobenius":
            return mats
        p = 1.0 / self._power if inverse else self._power
        fn = (lambda lam: lam**p) if self._variant == "power" else np.exp if inverse else np.log
        if self._variant != "log_cholesky":
            return _spectral(mats, fn)
        upper = mats if inverse else np.swapaxes(np.linalg.cholesky(mats), 1, 2)
        upper = np.triu(upper, 1) + _diag(fn(np.diagonal(upper, axis1=1, axis2=2)))
        return np.swapaxes(upper, 1, 2) @ upper if inverse else upper

    def _project(self, rows):
        if self._variant in ("log_euclidean", "log_cholesky"):
            return super()._project(rows)
        # The smallest admissible eigenvalue of a chart matrix: the image of
        # eps_pd, or of 1e-12 of the payload's largest eigenvalue when that is
        # larger, so that the payload's smallest one stays above its rounding
        # and validation finds it positive at any scale.
        p = 1.0 if self._variant == "frobenius" else self._power

        def clip(lam):
            floor = np.maximum(_EPS_PD**p, 1e-12**p * lam.max(axis=-1, keepdims=True))
            return np.maximum(lam, floor)

        return self._half_vec(_spectral(self._symmetric(rows), clip))
