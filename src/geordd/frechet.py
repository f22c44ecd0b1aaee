"""Kernel weights and weighted Frechet mean solvers for local Frechet
regression (LFR).

Local Frechet regression is the metric-space analogue of local linear
regression: the fitted value at r is the minimizer of a kernel-weighted sum
of squared distances, with signed local-linear weights

    s(r; R, h) = K_h(R - r) * (mu2 - mu1 * (R - r)) / sigma^2,

where mu_k are the kernel moments of (R - r) and sigma^2 = mu0*mu2 - mu1^2.
For scalar outcomes the minimizer is exactly the local linear intercept; for
outcomes in a space with an isometric Hilbert embedding, it is the
inverse-embedded weighted average of the embedded outcomes, metrically
projected onto the feasible set.  Only positively curved spaces without an
embedding (the compositional sphere) need an iterative solver.

Every local-linear fit takes its weights from one private core,
``_local_linear``, at any number of centers: single-point fits, the batched
fits of the bandwidth search and the compliance first stage.  One rule marks
a window degenerate: sigma^2 <= ``SIGMA2_FLOOR``.  That includes windows with
fewer than two distinct running values, whose sigma^2 is rounding noise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateWindow,
    EmptyInput,
    MixedSpaces,
    SolverDiverged,
)
from .spaces import CompositionalSphere, HilbertSpace, MetricObject, Space
from .spaces.sphere import _arc_angles

__all__ = [
    "KernelKind",
    "Side",
    "KernelSpec",
    "WeightProfile",
    "FrechetSolveConfig",
    "SolveInfo",
    "kernel_eval",
    "compute_weights",
    "weighted_frechet_mean",
    "lfr_estimate",
    "batch_lfr_embeddings",
]

#: windows with sigma^2 at or below this are degenerate (unit-scaled R)
SIGMA2_FLOOR = 1e-14


class KernelKind(enum.Enum):
    TRIANGULAR = "triangular"
    UNIFORM = "uniform"


class Side(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    TWO_SIDED = "two_sided"


@dataclass(frozen=True)
class KernelSpec:
    """A base kernel supported on [-1, 1] plus a side mask.

    The left mask keeps x < 0 only and the right mask keeps x >= 0 only, so a
    point exactly at the evaluation center contributes to the right side.
    """

    kind: KernelKind = KernelKind.TRIANGULAR
    side: Side = Side.TWO_SIDED


def kernel_eval(spec: KernelSpec, x) -> np.ndarray | float:
    """Evaluate the side-masked base kernel; zero outside [-1, 1]."""
    x = np.asarray(x, dtype=float)
    if spec.kind is KernelKind.TRIANGULAR:
        k = np.clip(1.0 - np.abs(x), 0.0, None)
    elif spec.kind is KernelKind.UNIFORM:
        k = np.where(np.abs(x) <= 1.0, 1.0, 0.0)
    else:  # pragma: no cover
        raise ValueError(f"unknown kernel kind {spec.kind!r}")
    if spec.side is Side.LEFT:
        k = np.where(x < 0.0, k, 0.0)
    elif spec.side is Side.RIGHT:
        k = np.where(x >= 0.0, k, 0.0)
    return k if k.ndim else float(k)


@dataclass(frozen=True)
class WeightProfile:
    """Signed local-linear weights at one evaluation point.

    ``weights`` has one entry per observation (zero off-window); dividing its
    sum by ``n_norm`` gives exactly one.  ``n_norm`` is the count used to
    normalize the kernel moments: the number of observations on the kernel's
    side of the center (restricted to the clamp window when one is given).
    ``slope_weights`` give the slope of the same fit: for scalar outcomes y,
    ``(weights @ y, slope_weights @ y) / n_norm`` is the intercept and slope
    of the kernel-weighted least-squares line in R - center.
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

    def __post_init__(self):
        self.weights.setflags(write=False)
        self.slope_weights.setflags(write=False)

    def to_json(self) -> dict:
        return {
            "bandwidth": self.bandwidth,
            "side": self.side.value,
            "center": self.center,
            "moments": [self.mu0, self.mu1, self.mu2],
            "sigma2": self.sigma2,
            "n_norm": self.n_norm,
            "weights": self.weights.tolist(),
        }


@dataclass(frozen=True)
class FrechetSolveConfig:
    """Knobs for the iterative (sphere) solver; embeddable spaces ignore them.

    The sphere solver runs Riemannian Newton until the relative gradient norm
    is at most ``grad_tol``, within ``max_iter`` iterations.  ``multistart``
    (extra starts at the heaviest points) and ``step_shrink`` (the
    backtracking factor) apply only to its gradient-descent fallback, which
    also honours ``max_iter`` and ``grad_tol`` per start.
    """

    max_iter: int = 200
    grad_tol: float = 1e-10
    step_shrink: float = 0.5
    multistart: int = 5

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if not 0.0 < self.step_shrink < 1.0:
            raise ValueError("step_shrink must be in (0, 1)")


@dataclass
class SolveInfo:
    """Diagnostics from one weighted Frechet mean solve.

    ``method`` is ``"embedding"``, ``"sphere_newton"`` or, for the sphere
    solver's fallback, ``"sphere_descent"``.  ``iterations`` counts gradient
    evaluations over every path the solve ran.  ``grad_norm`` is the sphere
    solver's final Riemannian gradient norm over sum|w| (NaN for embedding
    solves, which are exact).
    """

    method: str
    objective: float = float("nan")
    iterations: int = 0
    converged: bool = True
    projected: bool = False
    multistart_spread: float = 0.0
    grad_norm: float = float("nan")


DEFAULT_SOLVE_CONFIG = FrechetSolveConfig()


def _local_linear(r, centers, h, spec: KernelSpec, lo=None, hi=None):
    """Local-linear weights at m centers at once.

    ``r`` is (n,) and ``centers`` (m,); ``lo``/``hi`` optionally clamp each
    window to R in [lo, hi] (broadcastable to (m,)).  Returns, per center
    row, the (m, n) kernel values ``k`` and offsets ``d = R - center``, the
    (m,) ``n_norm``, the (3, m) normalized moments mu0, mu1, mu2, the (m,)
    sigma^2, the (m, n) intercept weights k (mu2 - mu1 d) / sigma^2, and
    ``valid = sigma2 > SIGMA2_FLOOR``.  Rows that are not valid hold finite
    weights that mean nothing.
    """
    d = r[None, :] - centers[:, None]
    if spec.side is Side.LEFT:
        keep = d < 0.0
    elif spec.side is Side.RIGHT:
        keep = d >= 0.0
    else:
        keep = np.ones(d.shape, dtype=bool)
    if lo is not None:
        keep &= r >= np.reshape(lo, (-1, 1))
    if hi is not None:
        keep &= r <= np.reshape(hi, (-1, 1))
    n_norm = keep.sum(axis=1)

    k = np.where(keep, kernel_eval(KernelSpec(spec.kind), d / h), 0.0) / h
    kd = k * d
    mu = np.stack([k.sum(axis=1), kd.sum(axis=1), (kd * d).sum(axis=1)])
    mu /= np.maximum(n_norm, 1)
    mu0, mu1, mu2 = mu
    sigma2 = mu0 * mu2 - mu1 * mu1
    valid = sigma2 > SIGMA2_FLOOR
    safe = np.where(valid, sigma2, 1.0)
    weights = k * (mu2[:, None] - mu1[:, None] * d) / safe[:, None]
    return k, d, n_norm, mu, sigma2, weights, valid


def compute_weights(
    r_values,
    center: float,
    h: float,
    spec: KernelSpec = KernelSpec(KernelKind.TRIANGULAR, Side.TWO_SIDED),
    window: tuple[float, float] | None = None,
) -> WeightProfile:
    """Local-linear weights for an LFR fit at ``center`` with bandwidth ``h``.

    ``window`` optionally clamps the fit to observations with R in
    [window[0], window[1]] on top of the kernel support, as needed by
    cutoff-respecting smoothness checks.

    Raises ``ValueError`` unless ``h`` is positive and finite, and
    :class:`DegenerateWindow` when sigma^2 falls at or below the degeneracy
    floor (which includes every window with fewer than two distinct running
    values carrying kernel weight).
    """
    r = np.asarray(r_values, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise EmptyInput("r_values must be a nonempty 1-d array")
    h = float(h)
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth must be positive and finite, got {h!r}")
    center = float(center)

    lo, hi = (None, None) if window is None else window
    k, d, n_norm, mu, sigma2, weights, valid = _local_linear(
        r, np.array([center]), h, spec, lo, hi
    )
    mu0, mu1, mu2 = (float(v) for v in mu[:, 0])
    sigma2 = float(sigma2[0])
    if not valid[0]:
        raise DegenerateWindow(
            f"window at {center!r} (h={h!r}, side={spec.side.value}) is degenerate: "
            f"sigma^2 = {sigma2!r}"
        )
    return WeightProfile(
        bandwidth=h,
        side=spec.side,
        center=center,
        mu0=mu0,
        mu1=mu1,
        mu2=mu2,
        sigma2=sigma2,
        weights=weights[0],
        n_norm=int(n_norm[0]),
        slope_weights=k[0] * (mu0 * d[0] - mu1) / sigma2,
    )


# ---------------------------------------------------------------------------
# weighted Frechet means
# ---------------------------------------------------------------------------


def _common_space(objects: Sequence[MetricObject]) -> Space:
    if len(objects) == 0:
        raise EmptyInput("need at least one object")
    space = objects[0].space
    for o in objects[1:]:
        if o.space != space:
            raise MixedSpaces("objects live in different spaces")
    return space


def weighted_frechet_mean(
    objects: Sequence[MetricObject],
    weights,
    cfg: FrechetSolveConfig | None = None,
    *,
    return_info: bool = False,
):
    """Minimize the weighted Frechet objective over the space.

    Weights may be signed (local-linear weights are).  In embeddable spaces
    the minimizer is exact: the inverse-embedded weighted average of the
    embedded objects, metrically projected onto the feasible image set.  On
    the sphere a Riemannian Newton iteration is used, with a multistart
    gradient descent as its fallback; either result is certified against
    every sample point.
    """
    cfg = cfg or DEFAULT_SOLVE_CONFIG
    space = _common_space(objects)
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(objects),):
        raise ValueError("weights must match the number of objects")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")

    if isinstance(space, HilbertSpace):
        result, info = _embedding_mean(space, objects, w)
    elif isinstance(space, CompositionalSphere):
        result, info = _sphere_mean(space, objects, w, cfg)
    else:  # pragma: no cover - all shipped spaces are covered above
        raise NotImplementedError(f"no Frechet mean solver for {type(space).__name__}")
    return (result, info) if return_info else result


def _embedding_mean(space: HilbertSpace, objects, w):
    total = float(w.sum())
    if total <= 0.0:
        raise SolverDiverged(
            f"total weight {total!r} is not positive; the quadratic objective "
            "has no minimizer"
        )
    emb = space.embed_many(objects)
    mean = (w @ emb) / total
    proj = space.project_embedding(mean)
    moved = float(np.abs(proj - mean).max())
    out = space.inverse_embed(proj)
    emb -= proj  # residuals in place: emb is this call's own (n, D) array
    info = SolveInfo(
        method="embedding",
        objective=float((w * space.hilbert_sq_norms(emb)).sum()),
        projected=moved > 1e-12 * max(1.0, float(np.abs(mean).max())),
    )
    return out, info


def _sphere_mean(space: CompositionalSphere, objects, w, cfg: FrechetSolveConfig):
    """Weighted Frechet mean on the sphere orthant.

    Riemannian Newton on the weighted squared arc length, with its
    closed-form gradient and Hessian (Buss & Fillmore 2001, ACM TOG 20(2);
    Absil, Mahony & Sepulchre 2008, ch. 6), starting from the projected
    extrinsic mean ``w @ pts``.  It stops once |grad| / sum|w| is at most
    ``cfg.grad_tol``, within ``cfg.max_iter`` iterations.  Signed
    local-linear weights can make the objective nonconvex, so the solve falls
    back to a multistart Riemannian gradient descent with backtracking, the
    only path that ``cfg.multistart`` and ``cfg.step_shrink`` apply to, when
    the Hessian is not positive definite on the tangent space, a step
    reaches pi/2 or leaves the orthant, Newton does not converge, or its
    point's objective is above the best sample point's by more than 1e-8.
    Either path's result is certified against every sample point.
    """
    pts = np.stack([o.data for o in objects])
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

    obj_at_pts = _objective_at_points(pts, w)
    f_floor = float(obj_at_pts.min())

    extrinsic = np.clip(w @ pts, 0.0, None)
    norm = float(np.linalg.norm(extrinsic))
    start = extrinsic / norm if norm > 1e-12 else None
    z, newton_iters, gnorm = None, 0, float("nan")
    if start is not None:
        z, newton_iters, gnorm = _sphere_newton(start, w, w_scale, direction, cfg)
    f = float("inf") if z is None else objective(z)
    if f <= f_floor + 1e-8:
        info = SolveInfo(
            method="sphere_newton", objective=f, iterations=newton_iters, grad_norm=gnorm
        )
        return space.point(space.project_to_orthant(z)), info

    # start set: best sample point, heaviest |weight| points, extrinsic mean
    starts = [int(np.argmin(obj_at_pts))]
    starts.extend(np.argsort(-np.abs(w))[: cfg.multistart].tolist())
    candidates = [pts[i] for i in dict.fromkeys(starts)]
    if start is not None:
        candidates.append(start)

    solutions = []
    total_iters = newton_iters
    converged_any = False
    for z0 in candidates:
        z = z0 / np.linalg.norm(z0)
        f = objective(z)
        converged = False
        for it in range(cfg.max_iter):
            g = direction(z)[0]
            gnorm = float(np.linalg.norm(g))
            if gnorm <= cfg.grad_tol:
                converged = True
                break
            step = 1.0
            improved = False
            while step > 1e-16:
                cand = np.cos(step * gnorm) * z + np.sin(step * gnorm) * g / gnorm
                cand = cand / np.linalg.norm(cand)
                f_cand = objective(cand)
                if f_cand <= f - 1e-4 * step * gnorm * gnorm * w_scale:
                    z, f = cand, f_cand
                    improved = True
                    break
                step *= cfg.step_shrink
            if not improved:
                converged = True
                break
        total_iters += it + 1
        converged_any = converged_any or converged
        solutions.append((f, z))

    solutions.sort(key=lambda t: t[0])
    best_f, best_z = solutions[0]
    near = [z for f, z in solutions if f <= best_f + 1e-8 * (1.0 + abs(best_f))]
    spread = 0.0
    for i in range(len(near)):
        for j in range(i + 1, len(near)):
            spread = max(spread, float(np.arccos(np.clip(near[i] @ near[j], -1, 1))))

    projected = bool(np.any(best_z < 0.0))
    if projected:
        best_z = space.project_to_orthant(best_z)
        best_f = objective(best_z)
    if not converged_any and best_f > f_floor + 1e-8:
        raise SolverDiverged("sphere Frechet solver failed to converge")

    info = SolveInfo(
        method="sphere_descent",
        objective=best_f,
        iterations=total_iters,
        converged=converged_any,
        projected=projected,
        multistart_spread=spread,
        grad_norm=float(np.linalg.norm(direction(best_z)[0])),
    )
    return space.point(space.project_to_orthant(best_z)), info


def _objective_at_points(pts, w):
    """The objective sum_j w_j arccos(<p_i, p_j>)^2 at every sample point
    p_i, for certification: O(n^2) work in blocks of about 2**16 entries."""
    n = pts.shape[0]
    rows = max(1, (1 << 16) // n)
    out = np.empty(n)
    for i in range(0, n, rows):
        block = np.clip(pts[i : i + rows] @ pts.T, -1.0, 1.0)
        np.arccos(block, out=block)
        block *= block
        out[i : i + rows] = block @ w
    return out


def _sphere_newton(z, w, w_scale, direction, cfg: FrechetSolveConfig):
    """Riemannian Newton for the weighted squared arc length from the unit
    orthant point ``z``.

    Returns ``(z, iterations, |grad| / sum|w|)``, with ``z = None`` when the
    Hessian is not positive definite on the tangent space at an iterate, a
    step reaches pi/2 or leaves the orthant, or the gradient test is not met
    within ``cfg.max_iter`` iterations.
    """
    for it in range(cfg.max_iter):
        g, theta, u, norms = direction(z)
        gnorm = float(np.linalg.norm(g))
        if gnorm <= cfg.grad_tol:
            return z, it + 1, gnorm
        # half the Riemannian Hessian over sum|w|, on the tangent space at z:
        # sum_i w_i [v_i v_i^T + theta_i cot(theta_i) (P - v_i v_i^T)] with
        # v_i = u_i / |u_i| and P = I - z z^T; theta cot(theta) -> 1 at 0
        moving = norms > 0.0
        tcot = np.divide(theta, np.tan(theta), out=np.ones_like(theta), where=moving)
        rank1 = np.divide(w * (1.0 - tcot), norms * norms, out=np.zeros_like(theta), where=moving)
        basis = np.linalg.svd(z[None])[2][1:]  # orthonormal rows spanning z's complement
        ub = u @ basis.T
        hess = ((w @ tcot) * np.eye(basis.shape[0]) + (ub.T * rank1) @ ub) / w_scale
        lam, vec = np.linalg.eigh(hess)
        if not lam[0] > 0.0:
            return None, it + 1, gnorm
        xi = basis.T @ (vec @ ((vec.T @ (basis @ g)) / lam))
        length = float(np.linalg.norm(xi))
        if length >= 0.5 * np.pi:
            return None, it + 1, gnorm
        z = np.cos(length) * z + (np.sin(length) / length) * xi
        if np.any(z < 0.0):
            return None, it + 1, gnorm
        z = z / np.linalg.norm(z)
    return None, cfg.max_iter, gnorm


# ---------------------------------------------------------------------------
# LFR fits
# ---------------------------------------------------------------------------


def lfr_estimate(
    sample,
    r: float,
    h: float,
    side: Side,
    *,
    kernel: KernelKind = KernelKind.TRIANGULAR,
    window: tuple[float, float] | None = None,
    return_info: bool = False,
):
    """One-sided local Frechet regression fit at evaluation point ``r``.

    Equivalent to the weighted Frechet mean under the local-linear weight
    profile at ``r``; in Euclidean space this is the local linear intercept
    fit on the chosen side.  A degenerate window raises
    :class:`DegenerateWindow` tagged with the side.
    """
    try:
        profile = compute_weights(sample.r, r, h, KernelSpec(kernel, side), window=window)
    except DegenerateWindow as err:
        raise DegenerateWindow(f"{side.value} side: {err}") from None
    return weighted_frechet_mean(sample.ys, profile.weights, return_info=return_info)


def batch_lfr_embeddings(
    r_obs: np.ndarray,
    emb: np.ndarray,
    centers: np.ndarray,
    h: float,
    side: Side,
    *,
    kernel: KernelKind = KernelKind.TRIANGULAR,
    lo=None,
    hi=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized LFR fits in embedding coordinates at many centers.

    Parameters
    ----------
    r_obs : (n,) running values; emb : (n, D) embedded outcomes.
    centers : (m,) evaluation points; ``lo``/``hi`` optional per-center clamp
        bounds restricting the window (broadcastable to (m,)).

    Returns
    -------
    fits : (m, D) fitted embedding vectors (NaN rows where degenerate);
    valid : (m,) boolean mask of non-degenerate windows.

    Fits are raw weighted averages; callers project them onto the feasible
    image set per space.
    """
    r_obs = np.asarray(r_obs, dtype=float)
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    _, _, n_norm, _, _, weights, valid = _local_linear(
        r_obs, centers, h, KernelSpec(kernel, side), lo, hi
    )
    fits = (weights @ emb) / np.where(valid, n_norm, 1)[:, None]
    fits[~valid] = np.nan
    return fits, valid
