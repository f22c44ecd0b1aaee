"""Shared fixtures: random point generators per space and test oracles."""

from __future__ import annotations

import numpy as np
import pytest

from geordd import (
    CompositionalSphere,
    Euclidean,
    FunctionalL2,
    NetworkLaplacian,
    NetworkDgp,
    SpdSpace,
    Wasserstein1D,
    run_campaign,
)
from geordd.spaces import HilbertSpace
from geordd.spaces.network import laplacian_from_weights


def rand_euclidean(space: Euclidean, rng: np.random.Generator):
    return space.point(rng.normal(0.0, 1.0, space.shape))


def rand_function(space: FunctionalL2, rng: np.random.Generator):
    n = space.shape[0]
    freq = rng.integers(1, 4)
    phase = rng.uniform(0, 2 * np.pi)
    grid = np.linspace(0, 1, n)
    return space.point(
        rng.normal() + rng.normal() * np.sin(2 * np.pi * freq * grid + phase)
    )


def rand_sphere(space: CompositionalSphere, rng: np.random.Generator, conc=5.0):
    shares = rng.dirichlet(np.full(space.shape[0], conc))
    return CompositionalSphere.from_shares(shares)


def rand_laplacian(space: NetworkLaplacian, rng: np.random.Generator):
    m = space.n_nodes
    hi = 1.0 if space.max_weight is None else 0.4 * space.max_weight
    w = rng.uniform(0.05, hi, (m, m)) * (rng.random((m, m)) < 0.7)
    w = np.triu(w, 1)
    return space.point(laplacian_from_weights(w + w.T))


def rand_spd(space: SpdSpace, rng: np.random.Generator):
    m = space.shape[0]
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    lam = rng.uniform(0.5, 3.0, m)
    return space.point((q * lam) @ q.T)


def rand_quantile(space: Wasserstein1D, rng: np.random.Generator):
    n = space.shape[0]
    start = rng.uniform(-1.0, 0.0)
    steps = rng.uniform(0.0, 2.0 / n, n - 1)
    q = start + np.concatenate([[0.0], np.cumsum(steps)])
    if space.support is not None:
        lo, hi = space.support
        q = lo + (q - q.min()) / max(np.ptp(q), 1e-9) * (hi - lo) * 0.8 + 0.1 * (hi - lo)
    return space.point(q)


#: (name, space, sampler) triples covering every shipped geometry
SPACE_CASES = [
    ("euclidean", Euclidean(3), rand_euclidean),
    ("functional_l2", FunctionalL2(24), rand_function),
    ("sphere", CompositionalSphere(4), rand_sphere),
    ("laplacian", NetworkLaplacian(6, max_weight=5.0), rand_laplacian),
    ("spd_frobenius", SpdSpace(3, "frobenius"), rand_spd),
    ("spd_power", SpdSpace(3, "power", power=0.5), rand_spd),
    ("spd_log_euclidean", SpdSpace(3, "log_euclidean"), rand_spd),
    ("spd_log_cholesky", SpdSpace(3, "log_cholesky"), rand_spd),
    ("wasserstein", Wasserstein1D(40, support=(-5.0, 5.0)), rand_quantile),
]

EMBEDDABLE_CASES = [c for c in SPACE_CASES if isinstance(c[1], HilbertSpace)]


@pytest.fixture(params=SPACE_CASES, ids=[c[0] for c in SPACE_CASES])
def space_case(request):
    return request.param


@pytest.fixture(scope="session")
def network_campaign():
    """One shared network campaign reused by rate and monotonicity checks."""
    import time

    start = time.perf_counter()
    result = run_campaign(
        NetworkDgp(seed=2024),
        sizes=[100, 200, 500, 1000],
        reps=200,
        seed=90210,
    )
    result.metadata["elapsed_seconds"] = time.perf_counter() - start
    return result


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def triangular(x):
    return np.clip(1.0 - np.abs(x), 0.0, None)


def wls_intercept_oracle(r, y, c, h, side):
    """One-sided local-linear intercept by explicitly solving the normal
    equations of the weighted least squares problem."""
    r = np.asarray(r, dtype=float)
    y = np.asarray(y, dtype=float)
    k = triangular((r - c) / h) / h
    mask = (r < c) if side == "left" else (r >= c)
    k = np.where(mask, k, 0.0)
    X = np.column_stack([np.ones_like(r), r - c])
    A = (X * k[:, None]).T @ X
    b = (X * k[:, None]).T @ y
    beta = np.linalg.solve(A, b)
    return beta[0]


def wls_line_oracle(r, y, c, h, keep):
    """Intercept and slope (rows of the result) of the kernel-weighted least
    squares line of ``y`` on R - c over the observations in ``keep``, by
    explicitly solving the normal equations; ``y`` may have several columns."""
    r = np.asarray(r, dtype=float)
    k = np.where(keep, triangular((r - c) / h) / h, 0.0)
    X = np.column_stack([np.ones_like(r), r - c])
    return np.linalg.solve((X * k[:, None]).T @ X, (X * k[:, None]).T @ y)


def dense(profile, n, weights=None):
    """A weight profile's ``weights`` (or another array over its support)
    scattered into n entries, one per observation, zero off the support."""
    out = np.zeros(n)
    out[profile.support] = profile.weights if weights is None else weights
    return out


def golden_section(fn, lo, hi, tol=1e-12):
    """Scalar minimization by golden-section search."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while b - a > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = fn(x2)
    return 0.5 * (a + b)
