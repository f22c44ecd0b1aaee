"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Budgets are asserted where the criterion states one.
"""

import time

import numpy as np
import pytest

from geordd import (
    CompositionalSphere,
    Euclidean,
    GeodesicEffect,
    NetworkLaplacian,
    NoncomplianceSide,
    RddSample,
    ScalarDgp,
    Wasserstein1D,
    compute_bounds,
    estimate_fuzzy_late,
    estimate_geodesic_fuzzy,
    estimate_geodesic_riemannian_fuzzy,
    estimate_riemannian_fuzzy,
    estimate_sharp,
    evaluation_region,
    quotient_distance,
    select_bandwidth,
)
from geordd.errors import TransportOutOfSpace
from geordd.spaces import HilbertSpace
from conftest import (
    SPACE_CASES,
    rand_laplacian,
    rand_quantile,
    wls_intercept_oracle,
)


def _report(num, message):
    print(f"\nACCEPTANCE {num} PASS: {message}")


# ---------------------------------------------------------------------------
# 1. Euclidean oracle equivalence
# ---------------------------------------------------------------------------


def test_acceptance_1_euclidean_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    eu = Euclidean(1)
    worst = 0.0
    for _ in range(50):
        n = 200
        r = rng.uniform(-1, 1, n)
        y = np.sin(2 * r) + rng.uniform(0.5, 2.0) * (r >= 0) + 0.4 * rng.normal(size=n)
        sample = RddSample(r=r, ys=tuple(eu.point([v]) for v in y), cutoff=0.0)
        h0, h1 = rng.uniform(0.2, 0.9, 2)
        est = estimate_sharp(sample, h0, h1)
        left = wls_intercept_oracle(r, y, 0.0, h0, "left")
        right = wls_intercept_oracle(r, y, 0.0, h1, "right")
        worst = max(worst, abs(est.magnitude - abs(right - left)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, worst
    assert elapsed < 5.0, elapsed
    _report(1, f"50 datasets, worst |magnitude - WLS oracle| = {worst:.3e}, "
               f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Setting I recovery with the data-adaptive bandwidth
# ---------------------------------------------------------------------------


def test_acceptance_2_setting_one_recovery():
    start = time.perf_counter()
    mags = []
    for rep in range(200):
        sample = ScalarDgp(setting="I", n=1000, seed=20_000 + rep).sample()[0]
        b = select_bandwidth(sample).b_star
        mags.append(estimate_sharp(sample, b, b).magnitude)
    elapsed = time.perf_counter() - start
    mean, sd = float(np.mean(mags)), float(np.std(mags))
    assert abs(mean - 1.0) <= 0.05, mean
    assert sd < 0.25, sd
    assert elapsed < 120.0, elapsed
    _report(2, f"mean magnitude {mean:.4f} (target 1 +/- 0.05), sd {sd:.4f} "
               f"(< 0.25), {elapsed:.1f}s for 200 reps")


# ---------------------------------------------------------------------------
# 3. Network rate slope
# ---------------------------------------------------------------------------


def test_acceptance_3_network_rate_slope(network_campaign):
    slope = network_campaign.rate_fit.slope
    means = network_campaign.bias_by_size()
    sizes = sorted(means)
    assert -0.55 <= slope <= -0.28, slope
    decreasing = all(means[a] > means[b] for a, b in zip(sizes, sizes[1:]))
    assert decreasing, means
    elapsed = network_campaign.metadata["elapsed_seconds"]
    assert elapsed < 900.0, elapsed
    _report(3, f"log-log slope {slope:.3f} in [-0.55, -0.28]; mean bias "
               f"{[round(means[s], 3) for s in sizes]} strictly decreasing; "
               f"{elapsed:.0f}s for the 200-rep campaign")


# ---------------------------------------------------------------------------
# 4. Oversmoothing ordering on Setting IV
# ---------------------------------------------------------------------------


def test_acceptance_4_oversmoothing_ordering():
    start = time.perf_counter()
    bias_star, bias_max = [], []
    for rep in range(100):
        sample = ScalarDgp(setting="IV", n=1000, seed=40_000 + rep).sample()[0]
        search = select_bandwidth(sample)
        est_star = estimate_sharp(sample, search.b_star, search.b_star)
        est_max = estimate_sharp(sample, search.b_max, search.b_max)
        bias_star.append(abs(est_star.magnitude - 1.0))
        bias_max.append(abs(est_max.magnitude - 1.0))
    elapsed = time.perf_counter() - start
    m_star, m_max = float(np.mean(bias_star)), float(np.mean(bias_max))
    assert m_max >= 1.2 * m_star, (m_star, m_max)
    assert elapsed < 180.0, elapsed
    _report(4, f"mean |bias| at b_max {m_max:.3f} vs at b* {m_star:.3f} "
               f"(ratio {m_max / m_star:.2f} >= 1.2), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Full-compliance fuzzy reduction
# ---------------------------------------------------------------------------


def _sharp_compliance_sample(space, sampler, rng, n=120):
    r = rng.uniform(-1, 1, n)
    t = (r >= 0).astype(int)
    ys = tuple(sampler(space, rng) for _ in range(n))
    return RddSample(r=r, ys=ys, cutoff=0.0, t=t, z=t.copy())


def test_acceptance_5_full_compliance_reduction():
    spaces = {
        "euclidean": (Euclidean(2), lambda sp, rng: sp.point(rng.normal(size=2))),
        "wasserstein": (Wasserstein1D(15), rand_quantile),
        "laplacian": (NetworkLaplacian(5, max_weight=6.0), rand_laplacian),
    }
    rng = np.random.default_rng(5005)
    checked = 0
    for name, (space, sampler) in spaces.items():
        for _ in range(20):
            sample = _sharp_compliance_sample(space, sampler, rng)
            h0, h1 = rng.uniform(0.3, 0.8, 2)
            sharp = estimate_sharp(sample, h0, h1)
            psi_jump = space.embed(sharp.end) - space.embed(sharp.start)

            late = estimate_fuzzy_late(sample, h0, h1)
            np.testing.assert_allclose(late.tau, psi_jump, atol=1e-8)

            for side in NoncomplianceSide:
                geo = estimate_geodesic_fuzzy(sample, h0, h1, side)
                assert space.distance(geo.endpoints[0], sharp.start) < 1e-8
                assert space.distance(geo.endpoints[1], sharp.end) < 1e-8

            if space.logexp_available:
                omega = sampler(space, rng)
                tan = estimate_riemannian_fuzzy(sample, omega, h0, h1)
                np.testing.assert_allclose(tan.tau, psi_jump, atol=1e-8)
                geo_t = estimate_geodesic_riemannian_fuzzy(
                    sample, omega, NoncomplianceSide.ALWAYS_TAKERS, h0, h1
                )
                assert space.distance(geo_t.endpoints[0], sharp.start) < 1e-8
                assert space.distance(geo_t.endpoints[1], sharp.end) < 1e-8
            checked += 1
    _report(5, f"{checked} sharp-compliance instances: every applicable fuzzy "
               "variant reproduced the sharp estimate within 1e-8")


# ---------------------------------------------------------------------------
# 6. Geometry property suite (>= 200 randomized cases per space)
# ---------------------------------------------------------------------------

N_CASES = 200


def _triples(space, sampler, rng, count):
    for _ in range(count):
        yield sampler(space, rng), sampler(space, rng), sampler(space, rng)


def _pointwise_properties(space, sampler, rng):
    """Metric axioms, geodesic parameterization, isometric embedding and the
    Log/Exp round trip, on N_CASES random draws each."""
    # metric axioms
    for a, b, c in _triples(space, sampler, rng, N_CASES):
        dab, dba = space.distance(a, b), space.distance(b, a)
        assert dab >= 0.0
        assert abs(dab - dba) <= 1e-8
        assert space.distance(a, a) <= 1e-8
        assert space.distance(a, c) <= dab + space.distance(b, c) + 1e-8

    # geodesic parameterization
    for a, b, _ in _triples(space, sampler, rng, N_CASES):
        dab = space.distance(a, b)
        s, t = sorted(rng.uniform(0, 1, 2))
        gs, gt = space.geodesic(a, b, s), space.geodesic(a, b, t)
        assert abs(space.distance(gs, gt) - (t - s) * dab) <= 1e-6 * (1 + dab)

    # isometric embedding
    if isinstance(space, HilbertSpace):
        for a, b, _ in _triples(space, sampler, rng, N_CASES):
            gap = abs(
                space.distance(a, b)
                - space.hilbert_distance(space.embed(a), space.embed(b))
            )
            assert gap <= 1e-8

    # Log/Exp roundtrip
    if space.logexp_available:
        for a, b, _ in _triples(space, sampler, rng, N_CASES):
            back = space.exp_map(a, space.log_map(a, b))
            assert space.distance(back, b) <= 1e-8
            assert np.linalg.norm(space.log_map(a, a)) <= 1e-10


def _transport_properties(name, space, sampler, rng):
    """Transport defining property and Lipschitz constant, then the
    quotient-metric axioms; returns the worst Lipschitz ratio seen."""
    worst_ratio = 0.0
    done = 0
    while done < N_CASES:
        a1, b1, w = next(_triples(space, sampler, rng, 1))
        a2 = space.geodesic(a1, sampler(space, rng), 0.25)
        b2 = space.geodesic(b1, sampler(space, rng), 0.25)
        try:
            assert space.distance(space.transport(a1, b1, a1), b1) <= 1e-8
            z1 = space.transport(a1, b1, w)
            z2 = space.transport(a2, b2, w)
        except TransportOutOfSpace:
            continue  # curved-space transports are partial on the orthant
        denom = space.distance(a1, a2) + space.distance(b1, b2)
        if denom > 1e-9:
            worst_ratio = max(worst_ratio, space.distance(z1, z2) / denom)
        done += 1
    if name != "sphere":
        assert worst_ratio <= 1.0 + 1e-8, (name, worst_ratio)
    else:
        assert worst_ratio <= 5.0, worst_ratio

    # quotient-metric axioms on effects sharing a reference point
    done = 0
    while done < N_CASES:
        rng_pts = [sampler(space, rng) for _ in range(7)]
        omega = rng_pts[6]
        try:
            e1 = GeodesicEffect(rng_pts[0], rng_pts[1], omega)
            e2 = GeodesicEffect(rng_pts[2], rng_pts[3], omega)
            e3 = GeodesicEffect(rng_pts[4], rng_pts[5], omega)
            d11 = quotient_distance(e1, e1, omega)
            d12 = quotient_distance(e1, e2, omega)
            d21 = quotient_distance(e2, e1, omega)
            d13 = quotient_distance(e1, e3, omega)
            d23 = quotient_distance(e2, e3, omega)
        except TransportOutOfSpace:
            continue
        assert d11 <= 1e-8
        assert abs(d12 - d21) <= 1e-8
        assert d13 <= d12 + d23 + 1e-8
        done += 1
    return worst_ratio


def test_acceptance_6_geometry_property_suite():
    lipschitz = {}
    for name, space, sampler in SPACE_CASES:
        rng = np.random.default_rng(abs(hash(name)) % 2**32)
        _pointwise_properties(space, sampler, rng)
        lipschitz[name] = _transport_properties(name, space, sampler, rng)

    summary = ", ".join(f"{k}: C<={v:.3f}" for k, v in lipschitz.items())
    _report(6, f"metric/geodesic/isometry/log-exp/transport/quotient checks on "
               f">= {N_CASES} cases per space; transport Lipschitz {summary}")


@pytest.mark.parametrize("seed", range(60))
def test_acceptance_6_sphere_seed_sweep(seed):
    # the per-point sphere checks under generator seeds 0-59, so that they do
    # not hold for one seed only; arccos-based charts failed seeds 32, 33, 35
    # and 59 at |log_map(a, a)| <= 1e-10
    _, space, sampler = next(case for case in SPACE_CASES if case[0] == "sphere")
    _pointwise_properties(space, sampler, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# 7. Closed-form endpoint checks for the one-sided noncompliance formulas
# ---------------------------------------------------------------------------


def test_acceptance_7_one_sided_noncompliance_formulas():
    # distributional outcomes: embedding-space composition
    rng = np.random.default_rng(7007)
    space = Wasserstein1D(20)
    grid = np.linspace(0, 1, 20)
    base = 2.0 * grid - 1.0
    direction = 0.5 * grid + 0.2
    n = 600
    r = rng.uniform(-1, 1, n)
    z = (r >= 0).astype(int)
    always = (rng.random(n) < 0.3).astype(int)
    t = np.where(z == 1, 1, always)
    ys = tuple(
        space.point(base + ri * 0.3 * grid + ti * direction) for ri, ti in zip(r, t)
    )
    sample = RddSample(r=r, ys=ys, cutoff=0.0, t=t, z=z)
    h = 0.4
    est = estimate_geodesic_fuzzy(sample, h, h, NoncomplianceSide.ALWAYS_TAKERS)

    # records are stored sorted by R, so read all pieces back off the sample
    r_s, t_s, z_s = sample.r, sample.t.astype(float), sample.z
    emb = np.stack([y.data for y in sample.ys])
    m0 = np.clip(wls_intercept_oracle(r_s, t_s, 0.0, h, "left"), 0, 1)
    m1 = np.clip(wls_intercept_oracle(r_s, t_s, 0.0, h, "right"), 0, 1)
    den = m1 - m0
    strat = (sample.t == 1) & (z_s == 0)
    mu_plus = np.array(
        [wls_intercept_oracle(r_s[strat], emb[strat, j], 0.0, h, "left") for j in range(20)]
    )
    for k, side in enumerate(("left", "right")):
        nu_z = np.array(
            [wls_intercept_oracle(r_s, emb[:, j], 0.0, h, side) for j in range(20)]
        )
        hand = mu_plus + (nu_z - mu_plus) / den
        assert np.all(np.diff(hand) >= -1e-12)  # composition stays feasible
        np.testing.assert_allclose(space.embed(est.endpoints[k]), hand, atol=1e-8)

    # compositional outcomes: tangent-space composition through Log/Exp
    sp = CompositionalSphere(3)
    omega = CompositionalSphere.from_shares(np.array([0.4, 0.35, 0.25]))
    u1 = np.array([1.0, -1.0, 0.0])
    u1 -= (u1 @ omega.data) * omega.data
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(omega.data, u1)
    n = 600
    r = rng.uniform(-1, 1, n)
    z = (r >= 0).astype(int)
    always = (rng.random(n) < 0.3).astype(int)
    t = np.where(z == 1, 1, always)
    ys = []
    for ri, ti in zip(r, t):
        v = 0.25 * (0.3 * ri * u1 + 0.6 * ti * u2)
        norm = np.linalg.norm(v)
        pt = np.cos(norm) * omega.data + np.sin(norm) * v / max(norm, 1e-15)
        ys.append(sp.point(sp.project_to_orthant(pt)))
    sample = RddSample(r=r, ys=tuple(ys), cutoff=0.0, t=t, z=z)
    est = estimate_geodesic_riemannian_fuzzy(
        sample, omega, NoncomplianceSide.ALWAYS_TAKERS, h, h
    )

    def log_oracle(y):
        dot = float(np.clip(omega.data @ y, -1, 1))
        theta = np.arccos(dot)
        if theta < 1e-15:
            return np.zeros(3)
        u = y - dot * omega.data
        return theta * u / np.linalg.norm(u)

    r_s, t_s = sample.r, sample.t.astype(float)
    logs = np.stack([log_oracle(y.data) for y in sample.ys])
    m0 = np.clip(wls_intercept_oracle(r_s, t_s, 0.0, h, "left"), 0, 1)
    m1 = np.clip(wls_intercept_oracle(r_s, t_s, 0.0, h, "right"), 0, 1)
    den = m1 - m0
    strat = (sample.t == 1) & (sample.z == 0)
    nu_plus = np.array(
        [wls_intercept_oracle(r_s[strat], logs[strat, j], 0.0, h, "left") for j in range(3)]
    )
    for k, side in enumerate(("left", "right")):
        nu_z = np.array(
            [wls_intercept_oracle(r_s, logs[:, j], 0.0, h, side) for j in range(3)]
        )
        arg = nu_plus + (nu_z - nu_plus) / den
        norm = np.linalg.norm(arg)
        hand = np.cos(norm) * omega.data + np.sin(norm) * arg / max(norm, 1e-15)
        assert sp.distance(est.endpoints[k], sp.point(hand)) <= 1e-8
    _report(7, "one-sided noncompliance endpoints match hand-composed "
               "embedding and tangent formulas within 1e-8")


# ---------------------------------------------------------------------------
# 8. Bandwidth-selector conformance
# ---------------------------------------------------------------------------


def _bounds_oracle(r, c, k=20):
    r = np.sort(np.asarray(r, dtype=float))
    below = np.sort(c - r[r < c])
    above = np.sort(r[r >= c] - c)
    return (
        max((r[1:] - r[:-1]).max(), below[k - 1], above[k - 1]),
        0.5 * min(c - r[0], r[-1] - c),
    )


def test_acceptance_8_bandwidth_algorithm_conformance():
    rng = np.random.default_rng(8008)
    eu = Euclidean(1)
    n_checked = 0
    while n_checked < 50:
        n = int(rng.integers(120, 500))
        r = rng.uniform(-1.5, 1.5, n) ** 3  # uneven designs
        c = float(rng.uniform(-0.2, 0.2))
        try:
            b_min, b_max = compute_bounds(r, c)
        except Exception:
            continue
        o_min, o_max = _bounds_oracle(r, c)
        assert b_min == pytest.approx(o_min, abs=1e-14)
        assert b_max == pytest.approx(o_max, abs=1e-14)
        pts = evaluation_region(r, c, b_min)
        assert np.all(np.abs(pts - c) > b_min)
        assert np.all(pts > r.min() + b_min)
        assert np.all(pts < r.max() - b_min)
        n_checked += 1

    # b* always within bounds
    for seed in range(10):
        sample, _ = ScalarDgp(setting=["II", "IV"][seed % 2], n=500, seed=800 + seed).sample()
        search = select_bandwidth(sample)
        assert search.b_min <= search.b_star <= search.b_max

    # affine-reparameterization equivariance
    sample = ScalarDgp(setting="II", n=700, seed=888).sample()[0]
    a, d = 2.25, -0.4
    moved = RddSample(r=a * sample.r + d, ys=sample.ys, cutoff=d)
    s1, s2 = select_bandwidth(sample), select_bandwidth(moved)
    np.testing.assert_allclose(s2.grid, a * s1.grid, rtol=1e-12)
    assert s2.b_star == pytest.approx(a * s1.b_star, rel=1e-12)
    _report(8, "bounds and exclusion zones match the order-statistic oracle on "
               "50 designs; b* within bounds; affine equivariance exact up to "
               "grid rounding")
