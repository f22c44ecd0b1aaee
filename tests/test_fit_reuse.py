"""The estimators at one cutoff fit each window once per sample.

``compute_weights`` keeps the last profile per side on the tables it is
given, and the tangent chart keeps a sample's Log rows for the last
reference.  A reused fit is the very object the first call built, so the
estimates are the same bytes as on a fresh copy of the sample, and the memo
holds one profile per side whatever the number of calls.
"""

import tracemalloc

import numpy as np
import pytest

from geordd import (
    CompositionalSphere,
    Euclidean,
    NetworkDgp,
    NoncomplianceSide,
    RddSample,
    Side,
    compute_weights,
    estimate_fuzzy_late,
    estimate_geodesic_fuzzy,
    estimate_geodesic_riemannian_fuzzy,
    estimate_riemannian_fuzzy,
    estimate_sharp,
)
from geordd.errors import DegenerateWindow
from geordd.frechet import LocalLinearTables
from geordd.rdd_sharp import SharpEstimate

ALWAYS = NoncomplianceSide.ALWAYS_TAKERS


def _sphere_records(seed, n=400):
    """Dirichlet compositions smooth in r, shifted by treatment, with
    always-takers left of the cutoff only."""
    rng = np.random.default_rng(seed)
    r = rng.uniform(-1.0, 1.0, n)
    z = (r >= 0.0).astype(int)
    t = np.where(z == 1, 1, (rng.random(n) < 0.25).astype(int))
    logits = np.stack([0.4 * np.sin(np.pi * r / 2), -0.3 * r, np.zeros(n)], axis=1)
    logits += np.outer(t, [0.6, -0.3, 0.0])
    mean = np.exp(logits)
    mean /= mean.sum(axis=1, keepdims=True)
    g = rng.gamma(10.0 * mean)
    ys = CompositionalSphere(3).stack(np.sqrt(g / g.sum(axis=1, keepdims=True)))
    return dict(r=r, ys=ys, cutoff=0.0, t=t, z=z)


def _network_records(seed, n=400):
    """Graph Laplacians from the network design, with always-takers left of
    the cutoff only."""
    base = NetworkDgp(n=n, seed=seed).sample()[0]
    rng = np.random.default_rng(seed)
    z = (base.r >= 0.0).astype(int)
    t = np.where(z == 1, 1, (rng.random(n) < 0.3).astype(int))
    return dict(r=base.r, ys=base.ys, cutoff=0.0, t=t, z=z)


def _sphere_estimators(sample, h0, h1):
    return [
        estimate_sharp(sample, h0, h1),
        estimate_riemannian_fuzzy(sample, None, h0, h1),
        estimate_geodesic_riemannian_fuzzy(sample, None, ALWAYS, h0, h1),
    ]


def _network_estimators(sample, h0, h1):
    return [
        estimate_sharp(sample, h0, h1),
        estimate_fuzzy_late(sample, h0, h1),
        estimate_geodesic_fuzzy(sample, h0, h1, ALWAYS),
    ]


def _bytes(est):
    """Every number an estimate reports, as bytes."""
    if isinstance(est, SharpEstimate):
        return [est.start.data.tobytes(), est.end.data.tobytes(),
                np.float64(est.magnitude).tobytes(), repr(est.diagnostics)]
    fit = est.compliance
    out = [est.tau.tobytes(), np.float64(est.magnitude).tobytes(), est.warnings,
           np.array([fit.m0, fit.m1, fit.slope0, fit.slope1, fit.h0, fit.h1]).tobytes()]
    if est.endpoints is not None:
        out += [p.data.tobytes() for p in est.endpoints]
    return out


@pytest.mark.parametrize(
    "records, estimators",
    [(_sphere_records, _sphere_estimators), (_network_records, _network_estimators)],
    ids=["sphere", "network"],
)
@pytest.mark.parametrize("h0, h1", [(0.45, 0.45), (0.35, 0.6)])
def test_estimates_on_one_sample_match_fresh_copies_byte_for_byte(records, estimators, h0, h1):
    data = records(3)
    shared = estimators(RddSample(**data), h0, h1)
    for i, est in enumerate(shared):
        fresh = estimators(RddSample(**data), h0, h1)[i]
        assert _bytes(est) == _bytes(fresh)


def test_the_estimators_on_one_sample_fit_each_window_and_log_once(monkeypatch):
    counts = {"windows": 0, "log_map": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        LocalLinearTables, "windows", counted("windows", LocalLinearTables.windows)
    )
    monkeypatch.setattr(
        CompositionalSphere, "log_map", counted("log_map", CompositionalSphere.log_map)
    )
    _sphere_estimators(RddSample(**_sphere_records(5)), 0.45, 0.45)
    # left, right and the always-takers' stratum; one Log chart
    assert counts == {"windows": 3, "log_map": 1}


def test_a_repeated_window_returns_the_same_profile_and_a_new_one_replaces_it():
    sample = RddSample(**_sphere_records(7))
    tables = sample.weight_tables
    left = compute_weights(sample.r, 0.0, 0.4, Side.LEFT, tables=tables)
    right = compute_weights(sample.r, 0.0, 0.4, Side.RIGHT, tables=tables)
    assert compute_weights(sample.r, 0.0, 0.4, Side.LEFT, tables=tables) is left
    assert compute_weights(sample.r, 0.0, 0.4, Side.RIGHT, tables=tables) is right
    assert not left.weights.flags.writeable
    wider = compute_weights(sample.r, 0.0, 0.5, Side.LEFT, tables=tables)
    assert wider is not left and wider.bandwidth == 0.5
    assert compute_weights(sample.r, 0.0, 0.4, Side.LEFT, tables=tables) is not left
    # a window clamp and the sign of a zero center are part of the window
    clamped = compute_weights(sample.r, 0.0, 0.4, Side.LEFT, (-0.3, 0.0), tables=tables)
    assert clamped.n_norm < left.n_norm
    negzero = compute_weights(sample.r, -0.0, 0.4, Side.RIGHT, tables=tables)
    assert negzero is not right and str(negzero.center) == "-0.0"


def test_a_degenerate_window_raises_on_every_call_and_is_not_kept():
    sample = RddSample(**_sphere_records(7))
    tables = sample.weight_tables
    kept = compute_weights(sample.r, 0.0, 0.4, Side.LEFT, tables=tables)
    for _ in range(2):
        with pytest.raises(DegenerateWindow):
            compute_weights(sample.r, 0.0, 1e-9, Side.LEFT, tables=tables)
    assert compute_weights(sample.r, 0.0, 0.4, Side.LEFT, tables=tables) is kept


def test_the_memo_holds_one_profile_per_side():
    rng = np.random.default_rng(11)
    n = 10_000
    r = rng.uniform(-1.0, 1.0, n)
    sample = RddSample(r, Euclidean(1).stack((r + (r >= 0))[:, None]), 0.0)
    bandwidths = np.linspace(0.3, 0.8, 50)
    estimate_sharp(sample, bandwidths[0], bandwidths[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for h in bandwidths[1:]:
            estimate_sharp(sample, h, h)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    slots = sample.weight_tables._profiles
    assert set(slots) == {Side.LEFT, Side.RIGHT}
    held = [profile for _, profile in slots.values()]
    assert all(p.bandwidth == bandwidths[-1] for p in held)
    # what the two held profiles take, and less than a third one more
    largest = max(p.weights.nbytes + p.slope_weights.nbytes for p in held)
    assert grown < 3 * largest
