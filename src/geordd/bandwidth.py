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

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AllWindowsDegenerate,
    DegenerateWindow,
    InsufficientData,
    InvertedBounds,
    SolverDiverged,
)
from .frechet import (
    KernelKind,
    KernelSpec,
    Side,
    batch_lfr_embeddings,
    compute_weights,
    weighted_frechet_mean,
)
from .sample import MIN_SIDE_OBS, RddSample
from .spaces import HilbertSpace

__all__ = [
    "BandwidthConfig",
    "BandwidthSearch",
    "compute_bounds",
    "evaluation_region",
    "discrepancy_loss",
    "select_bandwidth",
]

#: losses within this window of the minimum count as ties (broken toward
#: smaller bandwidths, which preserves the discontinuity)
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class BandwidthConfig:
    grid_size: int = 20
    n_eval: int = 100
    kernel: KernelKind = KernelKind.TRIANGULAR

    def __post_init__(self):
        if self.grid_size < 1:
            raise ValueError("grid_size must be >= 1")
        if self.n_eval < 2:
            raise ValueError("n_eval must be >= 2")


DEFAULT_BANDWIDTH_CONFIG = BandwidthConfig()


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
    d_below = float(np.sort(c - below)[MIN_SIDE_OBS - 1])
    d_above = float(np.sort(above - c)[MIN_SIDE_OBS - 1])
    b_min = max(largest_gap, d_below, d_above)
    b_max = 0.5 * min(c - r[0], r[-1] - c)
    if b_min >= b_max:
        raise InvertedBounds(b_min, b_max)
    return b_min, b_max


def evaluation_region(
    r_values, c: float, b_min: float, n_eval: int = 100
) -> np.ndarray:
    """Evaluation points: an even grid over the support, minus the exclusion
    zones [c - b_min, c + b_min] and the two boundary strips of width b_min."""
    r = np.asarray(r_values, dtype=float)
    r_lo, r_hi = float(r.min()), float(r.max())
    pts = np.linspace(r_lo, r_hi, int(n_eval))
    keep = (
        (np.abs(pts - c) > b_min)
        & (pts > r_lo + b_min)
        & (pts < r_hi - b_min)
    )
    return pts[keep]


def _window_bounds(pts: np.ndarray, c: float, b: float, r_lo: float, r_hi: float):
    """Cutoff-respecting clamp bounds of the half-width-2b windows at ``pts``.

    Left window:  [max(r - 2b, r_lo), r] below the cutoff, [max(r - 2b, c), r]
    at or above it; right window mirrors with the roles of c and r_hi swapped.
    """
    left_lo = np.where(pts < c, np.maximum(pts - 2 * b, r_lo), np.maximum(pts - 2 * b, c))
    left_hi = pts
    right_lo = pts
    right_hi = np.where(pts < c, np.minimum(pts + 2 * b, c), np.minimum(pts + 2 * b, r_hi))
    return left_lo, left_hi, right_lo, right_hi


def _piecewise_integral(pts: np.ndarray, sq: np.ndarray, valid: np.ndarray, c: float):
    """Trapezoid integral of ``sq`` over the two pieces of the evaluation
    region, skipping invalid points and rescaling by the covered span."""
    total = 0.0
    n_skipped = 0
    any_valid = False
    for piece in (pts < c, pts >= c):
        p = pts[piece]
        v = valid[piece]
        if p.size == 0:
            continue
        n_skipped += int((~v).sum())
        good = p[v]
        if good.size < 2:
            continue
        any_valid = True
        raw = float(np.trapezoid(sq[piece][v], good))
        full_span = p[-1] - p[0]
        covered = good[-1] - good[0]
        total += raw * (full_span / covered) if covered > 0 else 0.0
    return total, n_skipped, any_valid


def discrepancy_loss(
    sample: RddSample,
    c: float,
    b: float,
    eval_points,
    cfg: BandwidthConfig | None = None,
) -> tuple[float, int]:
    """Integrated squared discrepancy L(b) between left- and right-windowed
    fits over ``eval_points``.

    Evaluation points where either one-sided window is degenerate are skipped
    and the integral rescaled by the covered span; raises
    :class:`AllWindowsDegenerate` when nothing remains.

    Returns ``(loss, n_skipped)``.
    """
    cfg = cfg or DEFAULT_BANDWIDTH_CONFIG
    pts = np.atleast_1d(np.asarray(eval_points, dtype=float))
    if pts.size == 0:
        raise AllWindowsDegenerate("the evaluation region is empty")
    b = float(b)
    c = float(c)
    r = sample.r
    r_lo, r_hi = float(r[0]), float(r[-1])
    left_lo, left_hi, right_lo, right_hi = _window_bounds(pts, c, b, r_lo, r_hi)

    space = sample.space
    sq = np.zeros(pts.size)
    if isinstance(space, HilbertSpace):
        fits_l, ok_l = batch_lfr_embeddings(
            r, sample.embeddings, pts, 2 * b, Side.LEFT,
            kernel=cfg.kernel, lo=left_lo, hi=left_hi, tables=sample.lfr_tables,
        )
        fits_r, ok_r = batch_lfr_embeddings(
            r, sample.embeddings, pts, 2 * b, Side.RIGHT,
            kernel=cfg.kernel, lo=right_lo, hi=right_hi, tables=sample.lfr_tables,
        )
        valid = ok_l & ok_r
        gap = space.project_embedding(fits_l[valid]) - space.project_embedding(fits_r[valid])
        sq[valid] = space.hilbert_sq_norms(gap)
    else:
        valid = np.zeros(pts.size, dtype=bool)
        for j, p in enumerate(pts):
            try:
                fit_l = _solver_fit(
                    sample, p, 2 * b, Side.LEFT, (left_lo[j], left_hi[j]), cfg
                )
                fit_r = _solver_fit(
                    sample, p, 2 * b, Side.RIGHT, (right_lo[j], right_hi[j]), cfg
                )
            except (DegenerateWindow, SolverDiverged):
                continue
            valid[j] = True
            sq[j] = space.distance(fit_l, fit_r) ** 2

    total, n_skipped, any_valid = _piecewise_integral(pts, sq, valid, c)
    if not any_valid:
        raise AllWindowsDegenerate(
            f"every evaluation window is degenerate at bandwidth {b!r}"
        )
    return total, n_skipped


def _solver_fit(sample, p, h, side, window, cfg: BandwidthConfig):
    profile = compute_weights(
        sample.r, p, h, KernelSpec(cfg.kernel, side), window=window,
        tables=sample.weight_tables,
    )
    return weighted_frechet_mean(sample.ys, profile.weights)


def select_bandwidth(
    sample: RddSample,
    c: float | None = None,
    grid_size: int | None = None,
    cfg: BandwidthConfig | None = None,
) -> BandwidthSearch:
    """Run the full data-adaptive bandwidth search.

    Candidates are log-spaced over [b_min, b_max]; the selected bandwidth
    minimizes L(b), with near-ties broken toward the smaller candidate.
    """
    cfg = cfg or DEFAULT_BANDWIDTH_CONFIG
    if grid_size is not None:
        cfg = replace(cfg, grid_size=grid_size)
    c = sample.cutoff if c is None else float(c)
    b_min, b_max = compute_bounds(sample.r, c)
    grid = np.geomspace(b_min, b_max, cfg.grid_size)
    pts = evaluation_region(sample.r, c, b_min, cfg.n_eval)
    if pts.size == 0:
        raise AllWindowsDegenerate("the evaluation region is empty")

    losses = np.empty(cfg.grid_size)
    skipped = np.zeros(cfg.grid_size, dtype=int)
    for i, b in enumerate(grid):
        losses[i], skipped[i] = discrepancy_loss(sample, c, b, pts, cfg)

    best = float(losses.min())
    ties = losses <= best + _TIE_TOL * (1.0 + best)
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
