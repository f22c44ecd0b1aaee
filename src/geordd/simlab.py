"""Data-generating processes and Monte Carlo campaigns.

Two families of synthetic designs are provided: scalar outcomes with four
regression shapes of increasing oscillation (settings I-IV), and
network-valued outcomes drawn from a weighted stochastic block model whose
edge-weight law jumps at the cutoff.  Both follow one protocol: a frozen
dataclass with ``n`` and ``seed`` fields, a ``setting`` string naming the
design, and ``sample(rng=None)`` returning ``(RddSample, GeodesicEffect)``,
a draw and the population effect it estimates; each design builds its
space and that effect once, on first use.  :func:`run_campaign` runs
any design that follows it through the full pipeline (data-adaptive
bandwidth, sharp estimation, quotient-metric bias against the known truth)
over replications and sample sizes, and fits the log-log rate of the mean
bias.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

from ._workers import fork_map
from ._workers import worker_count as _worker_count
from .bandwidth import compute_bounds, select_bandwidth
from .errors import REFUSAL_ERRORS, AllWindowsDegenerate, ExcessiveFailures, InvertedBounds
from .rdd_sharp import estimate_sharp
from .sample import RddSample
from .spaces import (
    Euclidean,
    GeodesicEffect,
    NetworkLaplacian,
    laplacian_from_weights,
    quotient_distance,
)

__all__ = [
    "ScalarDgp",
    "NetworkDgp",
    "RateFit",
    "CampaignResult",
    "scalar_regression_functions",
    "run_campaign",
]

#: RNG algorithm recorded in campaign metadata for reproducibility
RNG_ALGORITHM = "numpy-pcg64-seedsequence"

_SETTINGS = ("I", "II", "III", "IV")

#: a campaign fails when more than this share of its replications is refused
_MAX_FAIL_SHARE = 0.05


def scalar_regression_functions(setting: str):
    """(m_minus, m_plus) regression functions of the scalar settings."""
    if setting == "III":  # the oscillations differ across the cutoff
        return (
            lambda r: r + np.sin(8 * np.pi * r) + np.cos(6 * np.pi * r),
            lambda r, tau: r + np.sin(6 * np.pi * r) + np.cos(8 * np.pi * r) + tau,
        )
    m_minus = {  # the other settings shift m_minus by tau at the cutoff
        "I": lambda r: r,
        "II": lambda r: r + np.sin(3 * np.pi * r),
        "IV": lambda r: r + np.sin(6 * np.pi * r),
    }.get(setting)
    if m_minus is None:
        raise ValueError(f"unknown setting {setting!r}; choose from {_SETTINGS}")
    return m_minus, lambda r, tau: m_minus(r) + tau


@dataclass(frozen=True)
class ScalarDgp:
    """Scalar outcomes: R ~ Unif(-1, 1), Y = m(R) + N(0, sigma^2), jump tau
    at the cutoff 0."""

    setting: str = "I"
    tau: float = 1.0
    sigma: float = 0.5
    n: int = 1000
    seed: int = 0

    def __post_init__(self):
        scalar_regression_functions(self.setting)  # validates the name
        if self.n < 40:
            raise ValueError("n must be >= 40")

    @property
    def cutoff(self) -> float:
        return 0.0

    @cached_property
    def space(self) -> Euclidean:
        return Euclidean(1)

    def sample(
        self, rng: np.random.Generator | None = None
    ) -> tuple[RddSample, GeodesicEffect]:
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        m_minus, m_plus = scalar_regression_functions(self.setting)
        r = rng.uniform(-1.0, 1.0, self.n)
        eps = rng.normal(0.0, self.sigma, self.n)
        y = np.where(r < 0.0, m_minus(r), m_plus(r, self.tau)) + eps
        sample = RddSample(r=r, ys=self.space.stack(y[:, None]), cutoff=self.cutoff)
        return sample, self.true_effect()

    def true_effect(self) -> GeodesicEffect:
        return self._truth

    @cached_property
    def _truth(self) -> GeodesicEffect:
        m_minus, m_plus = scalar_regression_functions(self.setting)
        space = self.space
        start = space.point([float(m_minus(0.0))])
        end = space.point([float(m_plus(0.0, self.tau))])
        return GeodesicEffect(start, end, start)


@dataclass(frozen=True)
class NetworkDgp:
    """Network outcomes from a weighted stochastic block model.

    Ten nodes split into two equal communities; edges appear with probability
    0.5 within and 0.2 between communities (adjacency redrawn independently
    for every observation).  Each present edge carries weight
    cos(pi R / 2) + jump * 1{R >= 0} + Unif(0, 1), and the outcome is the
    graph Laplacian of the weighted adjacency matrix.

    The population truth is available in closed form: the conditional Frechet
    mean under the Frobenius metric is the expected Laplacian, built from
    edge probability times expected weight.
    """

    #: a class constant, so campaign metadata records only the fields below
    setting: ClassVar[str] = "network"

    n: int = 500
    seed: int = 0
    n_nodes: int = 10
    p_within: float = 0.5
    p_between: float = 0.2
    jump: float = 1.0

    def __post_init__(self):
        if self.n < 40:
            raise ValueError("n must be >= 40")
        if self.n_nodes < 2 or self.n_nodes % 2:
            raise ValueError("n_nodes must be a positive even number")
        for name in ("p_within", "p_between"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        # cos(pi R / 2) vanishes at R = 1, so a negative jump would draw
        # negative edge weights there
        if not 0.0 <= self.jump < math.inf:
            raise ValueError("jump must be finite and >= 0")

    @property
    def cutoff(self) -> float:
        return 0.0

    @cached_property
    def space(self) -> NetworkLaplacian:
        # weights are bounded by cos <= 1 plus the jump plus unit noise
        return NetworkLaplacian(self.n_nodes, max_weight=2.0 + self.jump)

    def edge_probabilities(self) -> np.ndarray:
        m = self.n_nodes
        half = m // 2
        block = np.full((m, m), self.p_between)
        block[:half, :half] = self.p_within
        block[half:, half:] = self.p_within
        np.fill_diagonal(block, 0.0)
        return block

    def sample(
        self, rng: np.random.Generator | None = None
    ) -> tuple[RddSample, GeodesicEffect]:
        """A draw of ``n`` graphs and the population effect.  It holds two
        (n, m, m) stacks at most: the drawn Laplacians (:meth:`_laplacians`)
        and their canonical copy, then that copy and the sample's sorted one.

        The drawn Laplacians are members, so they are put in canonical form
        without the space's checks (``Space._trusted``): each is exactly
        symmetric, its edge weights cos(pi R / 2) + jump 1[R >= 0] + U[0, 1)
        lie in [0, 2 + jump), below ``max_weight`` = 2 + jump, and its
        diagonal is minus its off-diagonal row sums."""
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        r = rng.uniform(-1.0, 1.0, self.n)
        ys = self.space._trusted(self._laplacians(r, rng))
        sample = RddSample(r=r, ys=ys, cutoff=self.cutoff)
        return sample, self.true_effect()

    def _laplacians(self, r: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One graph drawn at each running value, as an (n, m, m) stack of
        Laplacians filled in place: the negated edge weights, their mirror,
        then the degree diagonal.  Beside it the draw holds only arrays of
        one entry per edge and observation."""
        m = self.n_nodes
        iu = np.triu_indices(m, k=1)
        # one adjacency + weight draw per observation
        present = rng.random((r.size, iu[0].size)) < self.edge_probabilities()[iu][None, :]
        noise = rng.random((r.size, iu[0].size))
        base = np.cos(np.pi * r / 2.0) + self.jump * (r >= 0.0)
        edges = np.where(present, -(base[:, None] + noise), 0.0)
        lap = np.zeros((r.size, m, m))
        lap[:, iu[0], iu[1]] = edges
        lap[:, iu[1], iu[0]] = edges
        np.einsum("...ii->...i", lap)[...] = -lap.sum(axis=-1)
        return lap

    def _expected_laplacian(self, mean_weight_scale) -> np.ndarray:
        return laplacian_from_weights(self.edge_probabilities() * mean_weight_scale)

    def true_effect(self) -> GeodesicEffect:
        """Geodesic between the expected Laplacians at the two cutoff limits;
        the reference point is the population mean Laplacian."""
        return self._truth

    @cached_property
    def _truth(self) -> GeodesicEffect:
        w_left = 1.0 + 0.5  # cos(0) plus the mean of the unit noise
        w_right = w_left + self.jump
        # average expected weight over R ~ Unif(-1, 1)
        mean_w = 2.0 / math.pi + 0.5 * self.jump + 0.5
        scales = np.array([w_left, w_right, mean_w])[:, None, None]
        start, end, omega = self.space.stack(self._expected_laplacian(scales))
        return GeodesicEffect(start, end, omega)


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """OLS fit of log mean bias against log sample size."""

    sizes: tuple[int, ...]
    mean_bias: tuple[float, ...]
    slope: float
    intercept: float

    def to_json(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "mean_bias": list(self.mean_bias),
            "slope": self.slope,
            "intercept": self.intercept,
        }


def fit_rate(sizes, mean_bias) -> RateFit:
    sizes = tuple(int(s) for s in sizes)
    mean_bias = tuple(float(b) for b in mean_bias)
    slope, intercept = np.polyfit(np.log(sizes), np.log(mean_bias), 1)
    return RateFit(sizes, mean_bias, float(slope), float(intercept))


@dataclass(frozen=True)
class CampaignResult:
    """Per-replication records plus the fitted convergence rate."""

    rows: tuple[dict, ...]
    rate_fit: RateFit | None
    metadata: dict

    def bias_by_size(self) -> dict[int, float]:
        """Mean bias over the successful replications at each size."""
        return _mean_bias(self.rows, self.metadata["sizes"])

    def to_csv(self) -> str:
        lines = ["setting,n,rep,bandwidth,bias,fail_flag"]
        for row in self.rows:
            lines.append(
                f"{row['setting']},{row['n']},{row['rep']},"
                f"{row['bandwidth']!r},{row['bias']!r},{row['fail_flag']}"
            )
        return "\n".join(lines) + "\n"


def _mean_bias(rows, sizes) -> dict[int, float]:
    return {
        n: float(np.mean([r["bias"] for r in rows if r["n"] == n and not r["fail_flag"]]))
        for n in sizes
    }


def _campaign_config_hash(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _one_rep(dgp, rng, bandwidth):
    """One replication: returns (setting, bandwidth_used, bias, fallback_flag)."""
    sample, truth = dgp.sample(rng)
    fallback = False
    if bandwidth == "auto":
        try:
            b = select_bandwidth(sample).b_star
        except (InvertedBounds, AllWindowsDegenerate) as err:
            # The candidate range can be infeasible in small samples (the
            # 20th-closest rule may exceed half the support); fall back to
            # the largest admissible bandwidth.
            if isinstance(err, InvertedBounds):
                b = err.b_max
            else:
                b = compute_bounds(sample.r, sample.cutoff)[1]
            fallback = True
    else:
        b = float(bandwidth)

    est = estimate_sharp(sample, b, b, reference=truth.reference)
    bias = quotient_distance(est.effect, truth, truth.reference)
    return dgp.setting, b, bias, fallback


def _rep_row(dgp, rep, seed_seq, bandwidth):
    """One replication's row, fallback flag and refusal: a refusal is a
    failed row with the refused error's ``code``, else the code is None.
    ``_one_rep`` is looked up when called, so a replacement of it is seen
    here and in forked workers alike."""
    try:
        setting, b, bias, fallback = _one_rep(dgp, np.random.default_rng(seed_seq), bandwidth)
        refused = None
    except REFUSAL_ERRORS as err:
        setting, b, bias = dgp.setting, np.nan, np.nan
        fallback, refused = False, err.code
    row = {"setting": setting, "n": dgp.n, "rep": rep, "bandwidth": b, "bias": bias,
           "fail_flag": int(refused is not None)}
    return row, fallback, refused


def run_campaign(
    dgp,
    sizes,
    reps: int,
    seed: int = 0,
    bandwidth: str | float = "auto",
) -> CampaignResult:
    """Monte Carlo campaign over ``sizes`` x ``reps`` replications.

    Per-replication seeds are spawned deterministically from the campaign
    seed, so a campaign is reproducible byte-for-byte.  ``sizes`` must be
    distinct and at least one (``ValueError`` before any replication runs).
    Replications whose estimate is refused (any of
    ``errors.REFUSAL_ERRORS``) are recorded with ``fail_flag=1`` and
    excluded from summaries, and the metadata's ``failures_by_code`` counts
    them by the refused error's ``code``; the campaign raises
    :class:`ExcessiveFailures` when more than 5 % (``_MAX_FAIL_SHARE``) of
    them fail.

    On Linux the replications are dealt in turn to forked workers by
    :func:`~geordd._workers.fork_map`, as many as
    :func:`~geordd._workers.worker_count` fits on the usable CPUs at the
    BLAS thread count each runs, while this process waits for their rows.
    So with BLAS left at its default, on one usable CPU (``taskset -c 0``)
    or while a second thread runs, the campaign runs serially here; with
    ``OPENBLAS_NUM_THREADS=1`` on two CPUs it runs in two workers.  Each
    replication draws from its own seed, so the rows, the counts and the
    rate fit are byte-identical either way; only the spans and counters
    that a profiler or tracer records in the workers are not seen here.
    """
    if reps < 10:
        raise ValueError("reps must be >= 10")
    sizes = [int(s) for s in sizes]
    if not sizes or len(set(sizes)) < len(sizes):
        raise ValueError(f"sizes must be distinct and at least one, got {sizes}")
    sized = [replace(dgp, n=n) for n in sizes]
    children = np.random.SeedSequence(seed).spawn(len(sizes) * reps)
    jobs = [(sized[i // reps], i % reps, child, bandwidth) for i, child in enumerate(children)]

    results = fork_map(_rep_row, jobs, _worker_count(len(jobs)))
    rows = [row for row, _, _ in results]
    n_fallback = sum(fallback for _, fallback, _ in results)
    failures_by_code = dict(sorted(Counter(code for *_, code in results if code).items()))
    n_fail = sum(failures_by_code.values())

    total = len(sizes) * reps
    if n_fail > _MAX_FAIL_SHARE * total:
        raise ExcessiveFailures(
            f"{n_fail} of {total} replications failed (limit {_MAX_FAIL_SHARE:.0%})"
        )

    config = {
        "dgp": type(dgp).__name__,
        "dgp_params": {
            f.name: v for f in fields(dgp)
            if isinstance(v := getattr(dgp, f.name), (int, float, str))
        },
        "sizes": sizes,
        "reps": reps,
        "bandwidth": bandwidth if isinstance(bandwidth, str) else float(bandwidth),
    }
    metadata = {
        "seed": seed,
        "rng": RNG_ALGORITHM,
        "sizes": sizes,
        "reps": reps,
        "config_hash": _campaign_config_hash(config),
        "config": config,
        "n_failures": n_fail,
        "failures_by_code": failures_by_code,
        "n_bandwidth_fallbacks": n_fallback,
    }

    rate = None
    if len(sizes) >= 2:
        rate = fit_rate(sizes, list(_mean_bias(rows, sizes).values()))

    return CampaignResult(rows=tuple(rows), rate_fit=rate, metadata=metadata)
