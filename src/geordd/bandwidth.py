"""Data-adaptive bandwidth selection for geodesic RDD.

The selector exploits expected smoothness away from the cutoff: for each
candidate bandwidth b it compares left- and right-windowed regression
estimates at evaluation points where the regression function is assumed
continuous, and picks the bandwidth minimizing the integrated squared
discrepancy

    L(b) = integral over the evaluation region of d^2(m_left(r), m_right(r)).

The candidate range is data-driven: b_min is the largest of the biggest gap
between adjacent running values and the distances from the cutoff to the
20th closest observation on either side; b_max is half the distance from the
cutoff to the nearer support edge.  The evaluation region excludes a b_min
neighborhood of the cutoff and both support edges.  The one-sided windows at
each evaluation point have half-width 2b and never cross the cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllWindowsDegenerate, InsufficientData, InvertedBounds, SolverDiverged
from .frechet import (
    Side,
    _support_profile,
    batch_lfr_embeddings,
    compute_weights,  # noqa: F401 - bench/tracing.py wraps this module's name
    weighted_frechet_mean,
)
from .sample import MIN_SIDE_OBS, RddSample
from .spaces import HilbertSpace

__all__ = [
    "BandwidthSearch",
    "compute_bounds",
    "evaluation_region",
    "discrepancy_loss",
    "select_bandwidth",
]

#: losses within this share of the minimum, or of the sample's loss unit,
#: count as ties (broken toward smaller bandwidths, which preserves the
#: discontinuity)
_TIE_TOL = 1e-12

#: points of the even grid over the support from which the evaluation
#: region drops its exclusion zones
_N_EVAL = 100


@dataclass(frozen=True)
class BandwidthSearch:
    """Full record of one bandwidth search."""

    b_min: float
    b_max: float
    grid: np.ndarray
    eval_points: np.ndarray
    losses: np.ndarray
    skipped: np.ndarray
    b_star: float

    def __post_init__(self):
        for arr in (self.grid, self.eval_points, self.losses, self.skipped):
            arr.setflags(write=False)

    def to_rows(self) -> list[tuple[float, float]]:
        """(bandwidth, loss) pairs for CSV export."""
        return [(float(b), float(l)) for b, l in zip(self.grid, self.losses)]

    def to_json(self) -> dict:
        return {
            "b_min": self.b_min,
            "b_max": self.b_max,
            "b_star": self.b_star,
            "grid": self.grid.tolist(),
            "losses": self.losses.tolist(),
            "skipped": self.skipped.tolist(),
            "n_eval_points": int(self.eval_points.size),
        }


def compute_bounds(r_values, c: float) -> tuple[float, float]:
    """Candidate-bandwidth bounds (b_min, b_max) for cutoff ``c``.

    Requires at least 20 observations strictly below and at-or-above the
    cutoff; raises :class:`InvertedBounds` when b_min >= b_max.
    """
    r = np.sort(np.asarray(r_values, dtype=float))
    c = float(c)
    below = r[r < c]
    above = r[r >= c]
    if below.size < MIN_SIDE_OBS or above.size < MIN_SIDE_OBS:
        raise InsufficientData(
            f"need at least {MIN_SIDE_OBS} observations on each side of the "
            f"cutoff, got {below.size} below and {above.size} at-or-above"
        )
    largest_gap = float(np.diff(r).max()) if r.size > 1 else 0.0
    d_below = float(c - below[-MIN_SIDE_OBS])
    d_above = float(above[MIN_SIDE_OBS - 1] - c)
    b_min = max(largest_gap, d_below, d_above)
    b_max = 0.5 * min(c - r[0], r[-1] - c)
    if b_min >= b_max:
        raise InvertedBounds(b_min, b_max)
    return b_min, b_max


def evaluation_region(r_values, c: float, b_min: float) -> np.ndarray:
    """Evaluation points: the ``_N_EVAL``-point even grid over the support,
    minus the exclusion zones [c - b_min, c + b_min] and the two boundary
    strips of width b_min."""
    r = np.asarray(r_values, dtype=float)
    r_lo, r_hi = float(r.min()), float(r.max())
    pts = np.linspace(r_lo, r_hi, _N_EVAL)
    keep = (
        (np.abs(pts - c) > b_min)
        & (pts > r_lo + b_min)
        & (pts < r_hi - b_min)
    )
    return pts[keep]


def _window_bounds(pts: np.ndarray, c: float, b, r_lo: float, r_hi: float):
    """Cutoff-respecting clamp bounds of the half-width-2b windows at ``pts``
    (elementwise in ``b``, which may hold one bandwidth per row).

    Left window:  [max(r - 2b, r_lo), r] below the cutoff, [max(r - 2b, c), r]
    at or above it; right window mirrors with the roles of c and r_hi swapped.
    """
    left_lo = np.where(pts < c, np.maximum(pts - 2 * b, r_lo), np.maximum(pts - 2 * b, c))
    right_hi = np.where(pts < c, np.minimum(pts + 2 * b, c), np.minimum(pts + 2 * b, r_hi))
    return left_lo, pts, pts, right_hi


def _piecewise_integrals(pts: np.ndarray, sq: np.ndarray, valid: np.ndarray, c: float):
    """Trapezoid integrals of each row of ``sq`` (G, m) over the two pieces
    of the evaluation region, skipping invalid points and rescaling by the
    covered span, as ``(totals, n_skipped, any_valid)``, each (G,)."""
    total = np.zeros(sq.shape[0])
    any_valid = np.zeros(sq.shape[0], dtype=bool)
    for piece in (pts < c, pts >= c):
        p, v, y = pts[piece], valid[:, piece], sq[:, piece]
        if p.size == 0:
            continue
        # the trapezoid from each valid point back to the valid point before
        # it: on a row without skips, exactly np.trapezoid's terms
        upto = np.maximum.accumulate(np.where(v, np.arange(p.size), -1), axis=1)
        prev = np.maximum(upto[:, :-1], 0)
        pair = v[:, 1:] & (upto[:, :-1] >= 0)
        y_prev = np.take_along_axis(y, prev, axis=1)
        raw = np.where(pair, (p[1:] - p[prev]) * (y_prev + y[:, 1:]) / 2.0, 0.0).sum(1)
        covered = p[upto[:, -1]] - p[v.argmax(1)]
        good = v.sum(1) >= 2
        any_valid |= good
        ok = good & (covered > 0)
        total += np.where(ok, raw * ((p[-1] - p[0]) / np.where(ok, covered, 1.0)), 0.0)
    return total, (~valid).sum(1), any_valid


def _loss_unit(sample: RddSample, pts: np.ndarray) -> float:
    """A loss on the sample's own scale: the span of ``pts`` times the mean
    squared distance of the outcomes from their mean, in the embedding (on
    the sphere, chordal).  Losses within ``_TIE_TOL`` of it are rounding."""
    if isinstance(sample.space, HilbertSpace):
        dev = sample.ys.embedded - sample.ys.embedded.mean(0)
        return float(pts[-1] - pts[0]) * float(sample.space.hilbert_sq_norms(dev).mean())
    return float(pts[-1] - pts[0]) * float(np.var(sample.ys.data, axis=0).sum())


def _grid_losses(sample: RddSample, c: float, grid: np.ndarray, pts: np.ndarray):
    """L(b) and the number of skipped evaluation points for each candidate
    of ``grid``, as two (G,) arrays.

    Every window is a triangular-kernel fit, and every (candidate, evaluation
    point) window of a side comes from one engine pass over the G x m grid,
    which the engine splits into runs at large n.  For an embeddable space
    that pass fits the windows too (:func:`batch_lfr_embeddings`, one
    feasibility projection per side and one norm pass).  On the sphere the
    pass gives each window's moments, validity and support, and each window
    valid on both sides is solved by :func:`weighted_frechet_mean`; a window
    whose solve raises :class:`SolverDiverged` is skipped like a degenerate
    one.  Raises :class:`AllWindowsDegenerate` for the first candidate left
    with no valid window.
    """
    r = sample.r
    r_lo, r_hi = float(r[0]), float(r[-1])
    b = grid[:, None]
    shape = (grid.size, pts.size)
    lo_l, hi_l, lo_r, hi_r = (
        np.broadcast_to(v, shape).ravel() for v in _window_bounds(pts, c, b, r_lo, r_hi)
    )
    sides = ((Side.LEFT, lo_l, hi_l), (Side.RIGHT, lo_r, hi_r))
    centers = np.broadcast_to(pts, shape).ravel()
    h = np.broadcast_to(2 * b, shape).ravel()

    space = sample.space
    sq = np.zeros(shape)
    if isinstance(space, HilbertSpace):
        (fits_l, ok_l), (fits_r, ok_r) = [
            batch_lfr_embeddings(
                r, sample.ys.embedded, centers, h, side, lo=lo, hi=hi, tables=sample.lfr_tables
            )
            for side, lo, hi in sides
        ]
        keep = ok_l & ok_r
        gap = space.project_embedding(fits_l[keep])
        gap -= space.project_embedding(fits_r[keep])
        sq.flat[keep] = space.hilbert_sq_norms(gap)
    else:
        tables = sample.weight_tables
        wins = {side: tables.windows(centers, h, side, lo, hi) for side, lo, hi in sides}
        keep = wins[Side.LEFT].valid & wins[Side.RIGHT].valid
        for i in np.flatnonzero(keep):
            profiles = (
                _support_profile(tables, w, i, centers[i], h[i], s) for s, w in wins.items()
            )
            try:
                fit_l, fit_r = [weighted_frechet_mean(sample.ys, p) for p in profiles]
            except SolverDiverged:
                keep[i] = False
                continue
            sq.flat[i] = space.distance(fit_l, fit_r) ** 2

    losses, skipped, any_valid = _piecewise_integrals(pts, sq, keep.reshape(shape), c)
    if not any_valid.all():
        b_bad = float(grid[np.argmin(any_valid)])
        raise AllWindowsDegenerate(
            f"every evaluation window is degenerate at bandwidth {b_bad!r}"
        )
    return losses, skipped


def discrepancy_loss(sample: RddSample, c: float, b: float, eval_points) -> tuple[float, int]:
    """Integrated squared discrepancy L(b) between left- and right-windowed
    fits over ``eval_points``.

    Evaluation points where either one-sided window is degenerate, or on the
    sphere where either solve diverged, are skipped and the integral
    rescaled by the covered span; raises
    :class:`AllWindowsDegenerate` when nothing remains.  This is the
    one-candidate case of the search in :func:`select_bandwidth`, on the same
    code path.

    Returns ``(loss, n_skipped)``.
    """
    pts = np.atleast_1d(np.asarray(eval_points, dtype=float))
    if pts.size == 0:
        raise AllWindowsDegenerate("the evaluation region is empty")
    losses, skipped = _grid_losses(sample, float(c), np.array([float(b)]), pts)
    return float(losses[0]), int(skipped[0])


def select_bandwidth(sample: RddSample, grid_size: int = 20) -> BandwidthSearch:
    """Run the full data-adaptive bandwidth search at the sample's cutoff.

    ``grid_size`` candidates are log-spaced over [b_min, b_max], and the
    losses are integrated over :func:`evaluation_region`, the points of the
    ``_N_EVAL`` = 100-point grid outside its exclusion zones; the selected
    bandwidth minimizes L(b).  Losses within 1e-12 of the minimum, relative
    to it or to a loss on the sample's own scale (the span of the region
    times the outcomes' spread), count as ties, broken toward the smaller
    candidate, so the choice does not move when r or the outcomes are
    rescaled.  Raises ``ValueError`` when ``grid_size`` < 1.

    The candidates are not windowed one by one: on every space the G x m
    (candidate, evaluation point) windows of a side come from one engine
    pass, which the engine takes in runs of consecutive candidates under a
    fixed cell budget (one run per side for a default search up to n of
    about 2,000).  Each loss equals
    :func:`discrepancy_loss` at that candidate, with the same skipped points.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    c = sample.cutoff
    b_min, b_max = compute_bounds(sample.r, c)
    grid = np.geomspace(b_min, b_max, grid_size)
    pts = evaluation_region(sample.r, c, b_min)
    if pts.size == 0:
        raise AllWindowsDegenerate("the evaluation region is empty")

    losses, skipped = _grid_losses(sample, c, grid, pts)

    best = float(losses.min())
    ties = losses <= best * (1.0 + _TIE_TOL) + _TIE_TOL * _loss_unit(sample, pts)
    b_star = float(grid[np.flatnonzero(ties)[0]])
    return BandwidthSearch(
        b_min=b_min,
        b_max=b_max,
        grid=grid,
        eval_points=pts,
        losses=losses,
        skipped=skipped,
        b_star=b_star,
    )
