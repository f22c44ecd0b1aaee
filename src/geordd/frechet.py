"""Kernel weights and weighted Frechet mean solvers for local Frechet
regression (LFR).

Local Frechet regression is the metric-space analogue of local linear
regression: the fitted value at r is the minimizer of a kernel-weighted sum
of squared distances, with signed local-linear weights

    s(r; R, h) = K_h(R - r) * (mu2 - mu1 * (R - r)) / sigma^2,

where K is the triangular kernel (1 - |x|)_+ restricted to one side of the
center, mu_k are the kernel moments of (R - r) and sigma^2 = mu0*mu2 - mu1^2.
The triangular kernel is the only one: at a boundary point it is the optimal
kernel for local linear fits (Cheng, Fan & Marron 1997, Ann. Statist. 25(4)),
and the bandwidth search tunes its bandwidths for it.
For scalar outcomes the minimizer is exactly the local linear intercept; for
outcomes in a space with an isometric Hilbert embedding, it is computed as
the inverse-embedded weighted average of the embedded outcomes, projected
onto the feasible set by the space's feasibility rule.  Only positively
curved spaces without an embedding (the compositional sphere) need an
iterative solver.

Every local-linear fit takes its window moments from one engine,
:class:`LocalLinearTables`, at any number of centers: single-point fits
(:func:`compute_weights`, which the compliance first stage also uses) and
every window of a bandwidth search, fitted in batches on embeddable spaces
(:func:`batch_lfr_embeddings`) and solved one by one on the sphere.  The
engine sorts the running variable once and keeps block-anchored power sums
of it and of the embedded outcomes; each window is then assembled exactly
from whole-block sums and the points of its two partial blocks, with no
dense window arrays.  It takes the centers of a call in runs under a fixed
cell budget, so every call has bounded memory, and works in units of a
power of two near the span of the running variable, so that no scale of it
overflows or underflows the power sums.  The partial blocks of many windows
enter their fits through one small product per block, so a fit depends on
the other centers of a call only to rounding.  One rule marks a window
degenerate: sigma^2 <= ``SIGMA2_FLOOR``.  That includes windows with fewer
than two distinct running values, whose sigma^2 is rounding noise.  A
single-point fit's weights are held on its window's k support points alone,
and the solvers work on those rows; the sphere certifies its result against all n points
with a linear lower bound on the objective at each, O((n + k) d), and
evaluates the objective, O(k) each, only where the bound leaves a point
open.  The tables keep the last single-point profile on each side, so a
window fitted again on the same tables (the sharp and fuzzy estimators at
one cutoff) returns the same profile object.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateWindow, EmptyInput, SolverDiverged
from .spaces import CompositionalSphere, HilbertSpace, MetricObject, PointStack
from .spaces.base import block_rows
from .spaces.sphere import _arc_angles

__all__ = [
    "Side",
    "WeightProfile",
    "SolveInfo",
    "LocalLinearTables",
    "compute_weights",
    "weighted_frechet_mean",
    "lfr_estimate",
    "batch_lfr_embeddings",
]

#: windows with sigma^2 at or below this are degenerate (sigma^2 does not
#: depend on the scale of R)
SIGMA2_FLOOR = 1e-14

#: the most (center, slot) cells one engine pass may hold: batched fits at
#: more centers run in several passes over consecutive centers, each under
#: this budget (as the sphere certification works in ``block_rows`` blocks)
_CELL_BUDGET = 1 << 18

#: whether the kernel vanishes at the values just below and at a support's
#: lower bound, and just below and at its upper bound
_SUPPORT_PATTERN = np.array([[True], [False], [False], [True]])

#: a sphere solver run stops once |grad| / sum|w| is at most ``_GRAD_TOL``,
#: and gives up after ``_MAX_ITER`` iterations
_MAX_ITER = 200
_GRAD_TOL = 1e-10


class Side(enum.Enum):
    """The kernel's side of the center: the left side keeps R < center only
    and the right side R >= center only, so a point exactly at the center
    belongs to the right side."""

    LEFT = "left"
    RIGHT = "right"
    TWO_SIDED = "two_sided"


@dataclass(frozen=True)
class WeightProfile:
    """Signed local-linear weights at one evaluation point.

    ``weights`` has one entry per point of the window's support, at the
    positions ``support`` of the running variable (``slice(lo, hi)`` if it is
    sorted, else a read-only index array), and zero weight is implied
    elsewhere; dividing its sum by ``n_norm`` gives exactly one.  ``n_norm``
    is the count used to normalize the kernel moments: the number of
    observations on the kernel's side of the center (restricted to the clamp
    window when one is given).  ``slope_weights`` give the slope of the same
    fit: for scalar outcomes y, ``(weights @ y[support], slope_weights @
    y[support]) / n_norm`` is the intercept and slope of the kernel-weighted
    least-squares line in R - center.
    """

    bandwidth: float
    side: Side
    center: float
    mu0: float
    mu1: float
    mu2: float
    sigma2: float
    weights: np.ndarray
    n_norm: int
    slope_weights: np.ndarray
    support: slice | np.ndarray

    def __post_init__(self):
        for arr in (self.weights, self.slope_weights, self.support):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)


@dataclass
class SolveInfo:
    """Diagnostics from one weighted Frechet mean solve.

    ``method`` is ``"embedding"``, ``"sphere_newton"`` when every step of a
    sphere solve was a full Newton step, or ``"sphere_descent"`` when any
    step was shortened, clamped or taken along the gradient.  ``iterations``
    counts a sphere solve's iterations over both of its starts.
    ``projected`` says whether the projection onto the feasible set moved
    the mean by more than 1e-12 of its sup norm; on the sphere, whether the
    search of the last step, or of the final stall, clamped a candidate to
    the orthant.  ``grad_norm`` is the sphere solver's final Riemannian
    gradient norm over sum|w| (NaN for embedding solves, which are exact).
    ``multistart_spread`` is always 0.0: the solver has one path and keeps
    the field for readers of earlier diagnostics.
    """

    method: str
    objective: float = float("nan")
    iterations: int = 0
    converged: bool = True
    projected: bool = False
    multistart_spread: float = 0.0
    grad_norm: float = float("nan")


class LocalLinearTables:
    """Block sums of a sorted running variable and of optional outcome rows,
    from which every local-linear window is assembled exactly.

    ``r`` is (n,) and ``psi`` an optional (n, D) array of outcome rows (the
    embedded outcomes of a batched fit).  ``r`` is sorted once, stably, if it
    is not sorted already, and the attribute ``r`` holds the sorted values
    divided by the tables' scale: the power of two 2^e with 2^(e-1) <= span
    < 2^e for the span of r (1 when the span is 0 or not finite).  In those
    units no power sum overflows or underflows; the division is exact, so
    rescaling r by a power of two moves no bit of any window's weights or
    fits.  :meth:`windows` takes centers, bandwidths and clamps in the units
    of r.  The sorted values are cut into blocks of about sqrt(n) points,
    each with its own anchor a_b (its first value), and each block keeps the
    power sums of x = r - a_b up to x^3 and, with ``psi``, the sums of
    x^q psi for q <= 2.  Building them costs O(n D) once; build
    them once per sample and reuse them for every bandwidth and center.

    The kernel is linear on each side of a center, so a window's moments and
    fits are polynomials in the offsets d = r - center.  A block that lies
    wholly inside the window contributes its sums shifted to the center by
    binomial expansion in s = a_b - center; its span is at most the
    window's, so the shift loses no digits.  The points of the two partial
    blocks at the window's edges enter the moments one by one.  Each partial
    range lies inside one block, so in the fits the ranges that fall in a
    block are shifted to their positions in it and multiplied with its
    outcome rows in one product.  One call at m centers costs O(m sqrt(n) D)
    (the updating formulas of Fan & Marron 1994, JCGS 3:35, and Seifert,
    Brockmann, Engel & Gasser 1994, JCGS 3:192, without binning).
    """

    def __init__(self, r, psi=None):
        r = np.asarray(r, dtype=float)
        if r.ndim != 1 or r.size == 0:
            raise EmptyInput("the running variable must be a nonempty 1-d array")
        self.order = None
        if not (r[1:] >= r[:-1]).all():
            self.order = np.argsort(r, kind="stable")
            r = r[self.order]
        n = r.size
        block = math.isqrt(n - 1) + 1
        starts = np.arange(0, n, block)
        span = r[-1] - r[0]
        self._scale = math.ldexp(1.0, math.frexp(span)[1]) if 0.0 < span < np.inf else 1.0
        r = r / self._scale
        self.r = r
        # r, then +inf and -inf to stand in past its end and (at index -1)
        # before its start
        self._fenced = np.concatenate([r, [np.inf, -np.inf]])
        self._offsets = np.arange(block)
        self._anchors = r[starts]
        powers = np.empty((4, n))  # x^t with x = r - a_b
        powers[0] = 1.0
        np.subtract(r, np.repeat(self._anchors, block)[:n], out=powers[1])
        np.multiply(powers[1], powers[1], out=powers[2])
        np.multiply(powers[2], powers[1], out=powers[3])
        self._moments = np.add.reduceat(powers, starts, axis=1)  # (4, nb)
        self.psi = self._psi_moments = None
        if psi is not None:
            psi = np.asarray(psi, dtype=float).reshape(n, -1)
            if self.order is not None:
                psi = psi[self.order]
            self.psi = psi
            full = n // block * block
            pm = np.matmul(
                powers[:3, :full].reshape(3, -1, block).transpose(1, 0, 2),
                psi[:full].reshape(-1, block, psi.shape[1]),
            )
            if full < n:
                pm = np.concatenate([pm, (powers[:3, full:] @ psi[full:])[None]])
            self._psi_moments = pm.reshape(-1, psi.shape[1])  # (nb * 3, D)
        # side -> (window key, the last profile compute_weights built there)
        self._profiles = {}

    @property
    def n(self) -> int:
        return self.r.size

    def _support(self, c, h):
        """Support bounds [lo, hi) of the kernel at each center: the points
        with |d / h| < 1 (the kernel is 0 at |d| = h), with ``h`` per
        center.  ``searchsorted`` guesses them; a center whose guess rounding
        put off is recounted."""
        r = self.r
        lo = r.searchsorted(c - h, "right")
        hi = r.searchsorted(c + h, "left")
        # the kernel must vanish (x = d / h >= 1) just outside each bound and
        # not just inside
        x = (self._fenced[np.concatenate([lo - 1, lo, hi - 1, hi])].reshape(4, -1) - c) / h
        x[:2] *= -1.0
        bad = ((x >= 1.0) != _SUPPORT_PATTERN).any(0)
        for j in np.flatnonzero(bad):
            x = (r - c[j]) / h[j]
            lo[j] = np.count_nonzero(-x >= 1.0)
            hi[j] = r.size - np.count_nonzero(x >= 1.0)
        return lo, hi

    def _cells_per_center(self, side: Side) -> int:
        """The most slots one center's window takes in :meth:`windows`: for
        each linear piece of the kernel, the points of its two partial blocks
        and its whole blocks."""
        pieces = 2 if side is Side.TWO_SIDED else 1
        return pieces * (2 * self._offsets.size + self._anchors.size)

    def windows(self, centers, h, side: Side, lo=None, hi=None) -> "_Windows":
        """The local-linear windows at the m ``centers`` on ``side``, with
        their fits when the tables hold outcome rows (see :class:`_Windows`).

        ``h`` is one bandwidth or one per center (broadcastable to (m,)), so
        one call can hold the windows of several bandwidths; every entry must
        be positive and finite (``ValueError`` otherwise).  ``lo``/``hi``
        optionally clamp each window to R in [lo, hi] (inclusive,
        broadcastable to (m,)).  The centers are taken in runs of consecutive
        centers that each hold at most ``_CELL_BUDGET`` slot cells (runs of
        2,730 one-sided centers at n = 1,000 and of 616 at n = 20,000), so a
        call of any size has bounded memory.  A run costs about 90 NumPy
        calls whatever its length, with outcome rows one product per block
        and linear piece that a partial block touches, and work and memory of
        O(m sqrt(n)).  A window's moments, ``valid`` flag, ``n_norm`` and
        bounds do not depend on the other centers of the call, and its fits
        only to rounding.
        """
        s = self._scale
        c = np.asarray(centers, dtype=float).reshape(-1) / s
        # checked in the units of r, so that a refusal names the value given
        h = _bandwidths(h, c.size) / s
        lo = None if lo is None else np.divide(lo, s)
        hi = None if hi is None else np.divide(hi, s)
        run = max(1, _CELL_BUDGET // self._cells_per_center(side))
        if c.size <= run:
            return self._run(c, h, side, lo, hi)
        lo, hi = (None if v is None else np.broadcast_to(v, c.shape) for v in (lo, hi))
        wins = [
            self._run(
                c[i : i + run], h[i : i + run], side,
                *(None if v is None else v[i : i + run] for v in (lo, hi)),
            )
            for i in range(0, c.size, run)
        ]
        # every field but the fits has its centers on the last axis
        fits = None if self.psi is None else np.concatenate([w.fits for w in wins])
        return _Windows(*(np.concatenate(f, axis=-1) for f in zip(*(w[:-1] for w in wins))), fits)

    def _run(self, c, h, side: Side, lo, hi) -> "_Windows":
        """:meth:`windows` in one pass, at the (m,) centers ``c`` with the
        checked (m,) bandwidths ``h``, all in the tables' units."""
        r, n, offsets = self.r, self.r.size, self._offsets
        block = offsets.size
        m = c.size

        # side and clamp: n_norm counts them, support or not; d < 0 below i_c
        i_c = r.searchsorted(c, "left")
        a = 0 if lo is None else r.searchsorted(lo, "left")
        b = n if hi is None else r.searchsorted(hi, "right")
        if side is Side.LEFT:
            b = np.minimum(b, i_c)
        elif side is Side.RIGHT:
            a = np.maximum(a, i_c)
        n_norm = np.maximum(b - a, np.zeros(m, dtype=np.intp))
        s_lo, s_hi = self._support(c, h)
        a = np.maximum(a, s_lo)
        b = np.maximum(np.minimum(b, s_hi), a)

        # the kernel's linear pieces [i0, i1), one per side of the center,
        # where h^2 k = h + tilt d: tilt is +1 left of the center, -1 right
        # of it
        if side is Side.TWO_SIDED:
            mid = np.minimum(np.maximum(i_c, a), b)
            i0 = np.concatenate([a, mid]).reshape(2, m).T
            i1 = np.concatenate([mid, b]).reshape(2, m).T
            tilts = np.array([1.0, -1.0])
        else:
            i0, i1 = a[:, None], b[:, None]
            tilts = np.array([1.0 if side is Side.LEFT else -1.0])

        # the blocks [fb0, fb1) lie wholly inside a piece; the points of its
        # head and tail partial blocks are summed one by one, in (m, 2 K block)
        # slots whose dead ones carry h^2 k = 0
        fb0 = (i0 + (block - 1)) // block
        fb1 = i1 // block
        head_end = np.minimum(i1, fb0 * block)
        tail_start = np.maximum(head_end, fb1 * block)
        starts = np.concatenate([i0, tail_start], 1)[..., None]
        ends = np.concatenate([head_end, i1], 1)[..., None]
        slot = starts + offsets
        idx = slot.reshape(m, -1)
        live = (slot < ends).reshape(m, -1)
        d = r.take(idx, mode="clip") - c[:, None]

        # the whole blocks, in (m, K, most whole blocks in a piece or 1, for
        # the running sums below) slots: on a block h^2 k = alpha + tilt x
        # with x = r - a_b, where alpha, h^2 k at the anchor, is taken from
        # the kernel's zero so that k keeps its digits near the support's
        # edge; both are 0 in dead slots
        count = fb1 - fb0
        slots = np.arange(np.maximum.reduce(count, None, initial=1))
        blk = np.minimum(fb0[..., None] + slots, self._anchors.size - 1)
        alive = slots < count[..., None]
        tilt = alive * tilts[:, None]
        s = self._anchors[blk] - c[:, None, None]
        alpha = alive * (h[:, None, None] + tilt * s)
        moments = self._moments.take(blk, axis=1)
        whole = alpha * moments[:3] + tilt * moments[1:]

        # terms of sum h^2 k d^j: h^2 k, h^2 k d and h^2 k d^2 at each point,
        # and per block its sums A_t of h^2 k x^t, shifted in place to d = x + s
        pts = np.empty((3, m, idx.shape[1]))
        np.multiply(live, h[:, None] - np.abs(d), out=pts[0])
        np.multiply(pts[0], d, out=pts[1])
        np.multiply(pts[1], d, out=pts[2])
        A0, A1, A2 = whole
        sA0 = s * A0
        shift = sA0 + (A1 + A1)
        shift *= s
        A2 += shift
        A1 += sA0
        # the blocks are added one after another, not pairwise, so that a
        # window's sums do not depend on the padding, that is on the other
        # centers of the call
        S = np.add.reduce(pts, 2)
        S += np.add.reduce(np.add.accumulate(whole, -1)[..., -1], -1)
        S /= h * h

        mu = S / np.maximum(n_norm, 1)
        sigma2 = mu[0] * mu[2] - mu[1] * mu[1]
        valid = sigma2 > SIGMA2_FLOOR
        fits = None
        if self.psi is not None:
            # fit = sum h^2 k (mu2 - mu1 d) psi / (h^2 sigma^2 n_norm); the
            # spent terms are let go first, so that the fit reuses their memory
            del slot, idx, live, moments, whole, A0, A1, A2, sA0, shift
            fits = self._whole_block_fits(mu, alive, alpha, tilt, s, blk)
            # h^2 k (mu2 - mu1 d) at each slot, through the spent d into the
            # spent pts[1:], each range of slots behind a block of zeros
            d *= -mu[1][:, None]
            d += mu[2][:, None]
            w = pts[1:].reshape(m, -1, 2 * block)
            w[..., :block] = 0.0
            np.multiply(pts[0].reshape(m, -1, block), d.reshape(m, -1, block), out=w[..., block:])
            self._add_partial_fits(fits, w, starts[..., 0], ends[..., 0])
            fits /= np.where(valid, (h * h) * sigma2 * n_norm, np.nan)[:, None]
        return _Windows(n_norm, mu, sigma2, valid, a, b, fits)

    def _whole_block_fits(self, mu, alive, alpha, tilt, s, blk):
        """sum h^2 k (mu2 - mu1 d) psi over the whole blocks of m centers, as
        (m, D): one weight per block on each of its sums of x^q psi, where
        with v = mu2 - mu1 s

            h^2 k (mu2 - mu1 d) = alpha v + (tilt v - alpha mu1) x - tilt mu1 x^2.
        """
        owner, piece, slot = np.nonzero(alive)
        mu1, mu2 = mu[1][owner], mu[2][owner]
        alpha, tilt = alpha[alive], tilt[alive]
        v = mu2 - mu1 * s[alive]
        per_block = np.empty((owner.size, 3))
        np.multiply(alpha, v, out=per_block[:, 0])
        np.subtract(tilt * v, alpha * mu1, out=per_block[:, 1])
        np.multiply(tilt, -mu1, out=per_block[:, 2])
        coef = np.zeros((alive.shape[0], self._anchors.size, 3))
        coef[owner, blk[owner, piece, slot]] = per_block
        return coef.reshape(alive.shape[0], -1) @ self._psi_moments

    def _add_partial_fits(self, fits, w, starts, ends):
        """Add sum_i w_i psi_i over the partial-block points of m centers to
        their (m, D) ``fits``.

        Row j of center c holds the slots [starts, ends)[c, j] in its second
        half, behind a block of zeros: the heads and then the tails of the K
        pieces, with weight 0 in dead slots.  Each such range lies in one
        block, a tail from the block's start and a head up to its end, and
        the live ranges of one piece lie in different blocks.  So each live
        range is shifted to its positions in its block, and per piece and
        block one product with the block's psi rows adds them to their
        centers.
        """
        rows, width = w.shape[1:]
        block = width // 2
        first = starts.reshape(-1)
        live = np.flatnonzero(ends.reshape(-1) > first)
        blk = first[live] // block
        group = live % rows % (rows // 2) * self._anchors.size + blk  # piece, block
        order = np.argsort(group, kind="stable")
        live, blk, group = live[order], blk[order], group[order]
        view = np.lib.stride_tricks.sliding_window_view(w.reshape(-1, width), block, axis=-1)
        w = view[live, block - first[live] + blk * block]  # (live ranges, block)
        owner = live // rows
        bounds = np.flatnonzero(np.diff(group, prepend=-1)).tolist()
        for lo, hi in zip(bounds, bounds[1:] + [live.size]):
            b = int(blk[lo])
            psi = self.psi[b * block : (b + 1) * block]  # the last block may be short
            fits[owner[lo:hi]] += w[lo:hi, : len(psi)] @ psi


def _bandwidths(h, m: int) -> np.ndarray:
    """``h`` broadcast to (m,) bandwidths, each checked positive and finite."""
    out = np.empty(m)
    out[...] = h
    lo, hi = np.minimum.reduce(out, initial=np.inf), np.maximum.reduce(out, initial=0.0)
    if not (lo > 0.0 and hi < np.inf):  # a NaN fails both
        bad = out[~((out > 0.0) & (out < np.inf))][0]
        raise ValueError(f"bandwidth must be positive and finite, got {float(bad)!r}")
    return out


class _Windows(NamedTuple):
    """Local-linear windows at m centers.

    ``n_norm`` (m,) counts the observations on the kernel's side of each
    center inside the clamp, ``mu`` (3, m) holds the normalized kernel
    moments in the units of the tables' ``r``, ``sigma2`` (m,) is mu0 * mu2
    - mu1^2, and ``valid`` marks sigma2 > ``SIGMA2_FLOOR``.  ``lo``/``hi``
    (m,) bound each center's support on its side and in the clamp as sorted
    indices [lo, hi).  ``fits`` (m, D) are the local-linear fits of the
    tables' outcome rows (NaN rows where not valid), or None without them.
    """

    n_norm: np.ndarray
    mu: np.ndarray
    sigma2: np.ndarray
    valid: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    fits: np.ndarray | None


def _support_profile(tables, win: _Windows, j: int, center: float, h: float, side: Side):
    """The weights of the valid window ``j`` of ``win``, at ``center`` with
    bandwidth ``h``: the kernel on the k points of its support, in O(k)."""
    mu0, mu1, mu2 = win.mu[:, j].tolist()
    sigma2 = float(win.sigma2[j])
    start, stop = int(win.lo[j]), int(win.hi[j])
    # the kernel in the tables' units; the moments and slope back in those of r
    s = tables._scale
    d = tables.r[start:stop] - center / s
    hs = h / s
    k = (hs - np.abs(d)) / (hs * hs * sigma2)
    return WeightProfile(
        bandwidth=h,
        side=side,
        center=center,
        mu0=mu0 / s,
        mu1=mu1,
        mu2=mu2 * s,
        sigma2=sigma2,
        weights=k * (mu2 - mu1 * d),
        n_norm=int(win.n_norm[j]),
        slope_weights=k * (mu0 / s * d - mu1 / s),
        support=slice(start, stop) if tables.order is None else tables.order[start:stop],
    )


def compute_weights(
    r_values,
    center: float,
    h: float,
    side: Side = Side.TWO_SIDED,
    window: tuple[float, float] | None = None,
    *,
    tables: LocalLinearTables | None = None,
) -> WeightProfile:
    """Local-linear weights for an LFR fit at ``center`` with bandwidth ``h``
    and the triangular kernel on ``side``.

    ``window`` optionally clamps the fit to observations with R in
    [window[0], window[1]] on top of the kernel support, as needed by
    cutoff-respecting smoothness checks.

    ``r_values`` need not be sorted; ``support`` locates the weights in it.
    ``n_norm``, the moments, sigma^2, the degeneracy test and the support
    come from ``tables``, :class:`LocalLinearTables` built from ``r_values``
    (``RddSample.weight_tables`` holds them for a sample), the weights from
    the kernel on the support's k points, in O(sqrt(n) + k).  Without them
    the call builds its own, an O(n) set-up.

    The tables keep one profile per side, the last one this function
    returned on that side: a repeated window (the same center, ``h`` and
    ``window`` on the same side of the same tables) returns that same frozen
    profile object, so the sharp fit, the compliance fit and the fuzzy
    charts at one cutoff share one fit per side.  A new window replaces the
    side's profile; a degenerate one is never kept.

    Raises ``ValueError`` unless ``h`` is positive and finite, and
    :class:`DegenerateWindow` when sigma^2 falls at or below the degeneracy
    floor (which includes every window with fewer than two distinct running
    values carrying kernel weight).
    """
    h = float(h)
    center = float(center)
    lo, hi = (None, None) if window is None else window
    if tables is None:
        tables = LocalLinearTables(r_values)
    elif tables.n != np.size(r_values):
        raise ValueError("tables must be built from r_values")
    # the sign of a zero center reaches the profile's center and signed zeros
    key = (center, math.copysign(1.0, center), h, lo, hi)
    held = tables._profiles.get(side)
    if held is not None and held[0] == key:
        return held[1]
    win = tables.windows(center, h, side, lo, hi)
    if not win.valid[0]:
        raise DegenerateWindow(
            f"window at {center!r} (h={h!r}, side={side.value}) is degenerate: "
            f"sigma^2 = {float(win.sigma2[0])!r}"
        )
    profile = _support_profile(tables, win, 0, center, h, side)
    tables._profiles[side] = key, profile
    return profile


# ---------------------------------------------------------------------------
# weighted Frechet means
# ---------------------------------------------------------------------------


def weighted_frechet_mean(
    objects: Sequence[MetricObject],
    weights,
    cfg: None = None,
    *,
    return_info: bool = False,
):
    """Minimize the weighted Frechet objective over the space.

    ``objects`` is a :class:`PointStack` (such as ``RddSample.ys``), taken
    as it is, or a sequence of points of one space, checked and stacked once
    (:meth:`PointStack.of`); there must be at least one.  ``weights`` has one
    entry per object, or is a :class:`WeightProfile` of their running values
    that only its k support objects enter.  Weights may be signed
    (local-linear weights are).  In embeddable spaces the result is the
    inverse-embedded weighted average of the embedded points, projected onto
    the feasible image set: the exact minimizer wherever that projection is
    metric, which ``NetworkLaplacian``'s clamp-and-reset rule is not.  The
    embedded points are the stack's own :attr:`PointStack.embedded` rows,
    computed once per stack, so a solve embeds nothing again.  On the
    sphere one safeguarded Riemannian Newton iteration is used, whose result
    is certified against every object of ``objects``.  The certificate
    bounds the objective at all n objects in O((n + k) d) for k weighted
    rows and evaluates it, O(k) each, only at those the bound cannot rule
    out (:func:`_sphere_mean`).  ``cfg`` must be None (any other value
    raises ``TypeError``): the benchmark tracer's solve wrapper passes it.
    """
    if cfg is not None:
        raise TypeError(f"cfg must be None, got {type(cfg).__name__}")
    stack = rows = PointStack.of(objects)
    space = stack.space
    sel = slice(None)
    if isinstance(weights, WeightProfile):
        sel, weights = weights.support, weights.weights
        rows = stack[sel]
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(rows),):
        raise ValueError("weights must match the number of objects")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")

    if isinstance(space, HilbertSpace):
        result, info = _embedding_mean(space, stack.embedded[sel], w, return_info)
    elif isinstance(space, CompositionalSphere):
        result, info = _sphere_mean(space, rows, w, stack)
    else:  # pragma: no cover - all shipped spaces are covered above
        raise NotImplementedError(f"no Frechet mean solver for {type(space).__name__}")
    return (result, info) if return_info else result


def _embedding_mean(space: HilbertSpace, emb: np.ndarray, w, with_info: bool):
    """The weighted mean of embedded rows ``emb``, projected onto the image
    set, and its :class:`SolveInfo` when ``with_info`` asks for it (else
    None: the objective costs a pass over the rows).  The point is built by
    :meth:`~geordd.spaces.base.HilbertSpace._projected_point`, so a space
    whose projection lands in its validated set does not check it again."""
    total = float(w.sum())
    if total <= 0.0:
        raise SolverDiverged(
            f"total weight {total!r} is not positive; the quadratic objective "
            "has no minimizer"
        )
    mean = (w @ emb) / total
    proj = space.project_embedding(mean)
    out = space._projected_point(proj)  # proj is feasible: no second projection
    if not with_info:
        return out, None
    info = SolveInfo(
        method="embedding",
        objective=float((w * space.hilbert_sq_norms(emb - proj)).sum()),
        projected=float(np.abs(proj - mean).max()) > 1e-12 * float(np.abs(mean).max()),
    )
    return out, info


def _sphere_mean(space: CompositionalSphere, stack, w, candidates):
    """Weighted Frechet mean on the sphere orthant.

    Safeguarded Riemannian Newton on the weighted squared arc length, with
    its closed-form gradient and Hessian (Buss & Fillmore 2001, ACM TOG
    20(2); Absil, Mahony & Sepulchre 2008, ch. 6).  A run stops once
    |grad| / sum|w| is at most ``_GRAD_TOL``, or after ``_MAX_ITER``
    iterations.  Each iteration takes the Newton direction when the Hessian
    is positive definite on the tangent space, else the gradient.  A full
    Newton step shorter than pi/2 that stays in the orthant is taken unless
    it raises the objective beyond rounding.  Any other step, at most pi/4
    long, halves along the geodesic, clamped to the orthant, until the
    objective falls.  Where neither direction lowers it, the point is
    stationary on the orthant and the run has converged: signed local-linear
    weights can put the minimiser on the orthant's boundary.

    The first run starts at the projected extrinsic mean ``w @ pts``.  If it
    ends above the best objective at a point of ``candidates`` + 1e-8, a
    second run starts there and the lower result is kept, so the result is
    certified against each candidate.  Only an unconverged result above that
    floor raises :class:`SolverDiverged`.

    The certificate bounds before it evaluates.  A linear lower bound on the
    objective (:func:`_objective_lower_bounds`: chord^2 <= theta^2 <=
    (pi^2 / 8) chord^2 on the orthant, less a rounding margin) costs
    O((n + k) d) for all n candidates, and the objective, O(k) each, is
    evaluated only at the candidates whose bound is at most the first run's
    objective - 1e-8.  A pruned candidate's objective is above that, so it
    cannot fire the second run, be its start (the best candidate), or make
    the :class:`SolverDiverged` test fail: whether the second run fires,
    where it starts and whether the solve raises are what evaluating all n
    candidates gives.  Without a first run (a vanishing extrinsic mean) all
    n are evaluated.

    The result is :meth:`~CompositionalSphere.project_to_orthant` of the
    best run's point, nonnegative and of unit norm to rounding, so it is a
    member and is built by :meth:`~geordd.spaces.base.Space._trusted`.
    """
    pts = np.ascontiguousarray(stack.data)
    cands = pts if candidates is stack else np.ascontiguousarray(candidates.data)
    w_scale = float(np.abs(w).sum()) or 1.0

    def objective(z: np.ndarray) -> float:
        dots = np.clip(pts @ z, -1.0, 1.0)
        return float(w @ np.arccos(dots) ** 2)

    def direction(z: np.ndarray):
        """Minus half the Riemannian gradient over sum|w| (the weighted sum
        of the log maps at z), with the angle rows it was built from."""
        theta, u, norms = _arc_angles(z, pts)
        scale = np.divide(theta, norms, out=np.zeros_like(theta), where=norms > 0.0)
        g = (w * scale) @ u / w_scale
        return g - float(g @ z) * z, theta, u, norms

    def search(z, f, xi, step):
        """The first point along the geodesic from z towards xi, at lengths
        min(step, pi/4) halved down to 1e-16, whose objective is below f, as
        ``(point, objective, clamped)``; the point is None when there is
        none, and ``clamped`` then says whether any candidate was clamped."""
        unit = xi / np.linalg.norm(xi)
        step, clamped = min(step, 0.25 * np.pi), False
        while step > 1e-16:
            cand = np.cos(step) * z + np.sin(step) * unit
            outside = bool(np.any(cand < 0.0))
            cand = space.project_to_orthant(cand) if outside else cand / np.linalg.norm(cand)
            f_cand = objective(cand)
            if f_cand < f:
                return cand, f_cand, outside
            clamped = clamped or outside
            step *= 0.5
        return None, f, clamped

    def run(z):
        """One run from the unit orthant point z, as ``(z, SolveInfo)``."""
        f, newton, clamped, converged = objective(z), True, False, True
        for it in range(1, _MAX_ITER + 1):
            g, theta, u, norms = direction(z)
            gnorm = float(np.linalg.norm(g))
            if gnorm <= _GRAD_TOL:
                break
            # half the Riemannian Hessian over sum|w|, on the tangent space at z:
            # sum_i w_i [v_i v_i^T + theta_i cot(theta_i) (P - v_i v_i^T)] with
            # v_i = u_i / |u_i| and P = I - z z^T; theta cot(theta) -> 1 at 0
            moving = norms > 0.0
            tcot = np.divide(theta, np.tan(theta), out=np.ones_like(theta), where=moving)
            rank1 = np.divide(
                w * (1.0 - tcot), norms * norms, out=np.zeros_like(theta), where=moving
            )
            basis = np.linalg.svd(z[None])[2][1:]  # orthonormal rows spanning z's complement
            ub = u @ basis.T
            hess = ((w @ tcot) * np.eye(basis.shape[0]) + (ub.T * rank1) @ ub) / w_scale
            lam, vec = np.linalg.eigh(hess)
            cand, clamped = None, False
            if lam[0] > 0.0:
                xi = basis.T @ (vec @ ((vec.T @ (basis @ g)) / lam))
                length = float(np.linalg.norm(xi))
                full = np.cos(length) * z + (np.sin(length) / length) * xi
                if length < 0.5 * np.pi and not np.any(full < 0.0):
                    full = full / np.linalg.norm(full)
                    f_full = objective(full)
                    # rounding must not cost Newton its quadratic convergence
                    if f_full <= f + 1e-12 * (abs(f) + w_scale):
                        z, f = full, f_full
                        continue
                cand, f_cand, clamped = search(z, f, xi, length)
            newton = False
            if cand is None:
                cand, f_cand, clamped_g = search(z, f, g, np.inf)
                clamped = clamped or clamped_g
            if cand is None:
                break  # stationary on the orthant
            z, f = cand, f_cand
        else:
            converged, gnorm = False, float(np.linalg.norm(direction(z)[0]))
        info = SolveInfo(
            method="sphere_newton" if newton else "sphere_descent",
            objective=f,
            iterations=it,
            converged=converged,
            projected=clamped,
            grad_norm=gnorm,
        )
        return z, info

    runs = []
    extrinsic = np.clip(w @ pts, 0.0, None)
    norm = float(np.linalg.norm(extrinsic))
    if norm > 1e-12:
        runs.append(run(extrinsic / norm))
        # only a candidate whose bound does not clear the first run's
        # objective by the certificate's gap can be below it by that gap
        cands = cands[_objective_lower_bounds(cands, pts, w) <= runs[0][1].objective - 1e-8]
    obj_at_cands = _objective_at_points(cands, pts, w)
    f_floor = float(obj_at_cands.min(initial=np.inf))
    if not runs or runs[0][1].objective > f_floor + 1e-8:
        runs.append(run(cands[int(np.argmin(obj_at_cands))]))
    z, info = min(runs, key=lambda zi: zi[1].objective)
    if not info.converged and info.objective > f_floor + 1e-8:
        raise SolverDiverged("sphere Frechet solver failed to converge")
    info.iterations = sum(i.iterations for _, i in runs)
    if any(i.method == "sphere_descent" for _, i in runs):
        info.method = "sphere_descent"
    return space._trusted(space.project_to_orthant(z)[None])[0], info


def _objective_at_points(cands, pts, w):
    """The objective sum_j w_j arccos(<c_i, p_j>)^2 over the k weighted
    points p_j at each of the n candidates c_i, for certification: O(n k)
    work in blocks of :func:`~geordd.spaces.base.block_rows` rows."""
    n = cands.shape[0]
    rows = block_rows(pts.shape[0])
    out = np.empty(n)
    for i in range(0, n, rows):
        block = np.clip(cands[i : i + rows] @ pts.T, -1.0, 1.0)
        np.arccos(block, out=block)
        block *= block
        out[i : i + rows] = block @ w
    return out


def _objective_lower_bounds(cands, pts, w):
    """A lower bound on :func:`_objective_at_points` at each of the n
    candidates, in O((n + k) d).  Orthant points have x = <c, p> >= 0, so
    theta = arccos x is at most pi/2, where the squared chord 2 - 2 x =
    4 sin^2(theta / 2) satisfies 2 - 2 x <= theta^2 <= (pi^2 / 8) (2 - 2 x),
    with equality on the right at theta = pi/2.  Each term w theta^2 is thus
    at least a (2 - 2 x), with a = w where w > 0 and a = (pi^2 / 8) w
    elsewhere, and the sum is linear in c:

        LB(c) = 2 sum a - 2 <c, a @ pts> - margin.

    The margin, 1e-15 (k + d + 8) (sum|a| + 1), exceeds the rounding of
    both sides (sums of at most k + d terms whose sizes total a few
    sum|a|) and of the certificate's absolute gap 1e-8."""
    a = np.where(w > 0.0, w, (np.pi**2 / 8.0) * w)
    k, d = pts.shape
    margin = 1e-15 * (k + d + 8) * (float(np.abs(a).sum()) + 1.0)
    return (2.0 * float(a.sum()) - margin) - 2.0 * (cands @ (a @ pts))


# ---------------------------------------------------------------------------
# LFR fits
# ---------------------------------------------------------------------------


def lfr_estimate(
    sample,
    r: float,
    h: float,
    side: Side,
    *,
    return_info: bool = False,
):
    """One-sided local Frechet regression fit at evaluation point ``r``.

    Equivalent to the weighted Frechet mean under the local-linear weight
    profile at ``r``; in Euclidean space this is the local linear intercept
    fit on the chosen side.  A degenerate window raises
    :class:`DegenerateWindow`, whose message names the side.
    """
    profile = compute_weights(sample.r, r, h, side, tables=sample.weight_tables)
    return weighted_frechet_mean(sample.ys, profile, return_info=return_info)


def batch_lfr_embeddings(
    r_obs: np.ndarray,
    emb: np.ndarray,
    centers: np.ndarray,
    h,
    side: Side,
    *,
    lo=None,
    hi=None,
    tables: LocalLinearTables | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized LFR fits in embedding coordinates at many centers.

    Parameters
    ----------
    r_obs : (n,) running values, in any order; emb : (n, D) embedded
        outcomes, row for row.
    centers : (m,) evaluation points; ``lo``/``hi`` optional per-center clamp
        bounds restricting the window (inclusive, broadcastable to (m,)).
    h : one bandwidth, or one per center (broadcastable to (m,)), so that
        one call fits every (bandwidth, center) pair of a search; each must
        be positive and finite (``ValueError`` otherwise).
    tables : :class:`LocalLinearTables` built from ``r_obs`` and ``emb``
        (``RddSample.lfr_tables`` holds them for a sample).  Without them the
        call builds its own, an O(n D) set-up that a bandwidth search should
        pay once, not per candidate.

    Returns
    -------
    fits : (m, D) fitted embedding vectors (NaN rows where degenerate);
    valid : (m,) boolean mask of non-degenerate windows.

    After the set-up a call costs O(m sqrt(n) D): whole blocks through their
    sums, the partial blocks through one product per block.
    :meth:`LocalLinearTables.windows` takes the centers in runs under a fixed
    cell budget, so the caller need not split them, and memory stays bounded
    at any m and n.  Fits are raw weighted averages; callers project them
    onto the feasible image set per space.
    """
    if tables is None:
        tables = LocalLinearTables(r_obs, emb)
    elif tables.n != np.size(r_obs) or tables.psi is None:
        raise ValueError("tables must be built from r_obs and emb")
    win = tables.windows(centers, h, side, lo, hi)
    return win.fits, win.valid
