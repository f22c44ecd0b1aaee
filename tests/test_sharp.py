"""Tests for the sharp-design estimator."""

import numpy as np
import pytest

from geordd import (
    Euclidean,
    GeodesicEffect,
    NoncomplianceSide,
    RddSample,
    ScalarDgp,
    Side,
    compute_weights,
    estimate_geodesic_riemannian_fuzzy,
    estimate_riemannian_fuzzy,
    estimate_sharp,
    quotient_distance,
)
from geordd.rdd_sharp import sample_frechet_mean
from geordd.errors import DegenerateWindow

from conftest import wls_intercept_oracle


def _scalar_sample(rng, n=300, fn=lambda r: np.sin(2 * r), jump=1.0, sigma=0.4):
    eu = Euclidean(1)
    r = rng.uniform(-1, 1, n)
    y = fn(r) + jump * (r >= 0) + sigma * rng.normal(size=n)
    return RddSample(r=r, ys=tuple(eu.point([v]) for v in y), cutoff=0.0)


class TestEstimateSharp:
    def test_no_discontinuity_noiseless(self):
        rng = np.random.default_rng(0)
        sample = _scalar_sample(rng, fn=lambda r: 2 * r - 1, jump=0.0, sigma=0.0)
        est = estimate_sharp(sample, 0.4, 0.4)
        assert est.magnitude < 1e-10

    def test_matches_two_wls_intercepts(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            sample = _scalar_sample(rng)
            h0, h1 = rng.uniform(0.2, 0.8, 2)
            est = estimate_sharp(sample, h0, h1)
            y = np.array([p.data[0] for p in sample.ys])
            left = wls_intercept_oracle(sample.r, y, 0.0, h0, "left")
            right = wls_intercept_oracle(sample.r, y, 0.0, h1, "right")
            assert est.magnitude == pytest.approx(abs(right - left), abs=1e-10)
            assert est.start.data[0] == pytest.approx(left, abs=1e-10)
            assert est.end.data[0] == pytest.approx(right, abs=1e-10)

    def test_setting_one_recovery_seeded(self):
        # short deterministic version of the full acceptance campaign
        mags = []
        for seed in range(30):
            sample = ScalarDgp(setting="I", n=1000, seed=seed).sample()[0]
            mags.append(estimate_sharp(sample, 0.3, 0.3).magnitude)
        assert np.mean(mags) == pytest.approx(1.0, abs=0.05)

    def test_counts_and_invariants(self):
        rng = np.random.default_rng(2)
        sample = _scalar_sample(rng, n=250)
        est = estimate_sharp(sample, 0.5, 0.5)
        assert est.n0 + est.n1 == sample.n
        assert est.magnitude == pytest.approx(est.effect.length, abs=1e-12)

    def test_degenerate_side_identified(self):
        rng = np.random.default_rng(3)
        sample = _scalar_sample(rng)
        with pytest.raises(DegenerateWindow, match="left"):
            estimate_sharp(sample, 1e-9, 0.5)
        with pytest.raises(DegenerateWindow, match="right"):
            estimate_sharp(sample, 0.5, 1e-9)

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(4)
        eu = Euclidean(1)
        r = rng.uniform(-1, 1, 120)
        y = np.cos(r) + (r >= 0) + 0.3 * rng.normal(size=120)
        sample = RddSample(r=r, ys=tuple(eu.point([v]) for v in y), cutoff=0.0)
        perm = rng.permutation(120)
        shuffled = RddSample(
            r=r[perm], ys=tuple(eu.point([v]) for v in y[perm]), cutoff=0.0
        )
        a = estimate_sharp(sample, 0.5, 0.5)
        b = estimate_sharp(shuffled, 0.5, 0.5)
        assert a.magnitude == b.magnitude  # bit-identical

    def test_boundary_point_goes_right(self):
        rng = np.random.default_rng(5)
        r = np.concatenate([rng.uniform(-1, -0.01, 60), [0.0], rng.uniform(0.01, 1, 60)])
        profile_left = compute_weights(r, 0.0, 0.8, Side.LEFT)
        profile_right = compute_weights(r, 0.0, 0.8, Side.RIGHT)
        at_cutoff = r == 0.0
        assert profile_left.weights[at_cutoff] == 0.0
        assert profile_right.weights[at_cutoff] != 0.0
        # and no cross-side leakage anywhere
        assert np.all(profile_left.weights[r >= 0] == 0.0)
        assert np.all(profile_right.weights[r < 0] == 0.0)


class TestDefaultReference:
    def test_sample_mean_is_solved_once_per_sample(self, monkeypatch):
        import geordd.rdd_sharp as rdd_sharp

        solves = []
        solve = rdd_sharp.weighted_frechet_mean

        def counted(objects, weights, *args, **kwargs):
            solves.append(len(objects))
            return solve(objects, weights, *args, **kwargs)

        monkeypatch.setattr(rdd_sharp, "weighted_frechet_mean", counted)
        rng = np.random.default_rng(11)
        eu = Euclidean(1)
        r = rng.uniform(-1, 1, 200)
        z = (r >= 0).astype(int)
        t = np.where(z == 1, 1, (rng.random(200) < 0.3).astype(int))
        sample = RddSample(r=r, ys=tuple(eu.point([v]) for v in r + t), cutoff=0.0, t=t, z=z)
        sharp = estimate_sharp(sample, 0.5, 0.5)
        tangent = estimate_riemannian_fuzzy(sample, None, 0.5, 0.5)
        geodesic = estimate_geodesic_riemannian_fuzzy(
            sample, None, NoncomplianceSide.ALWAYS_TAKERS, 0.5, 0.5
        )
        assert solves == [200]
        mean = sample_frechet_mean(sample)
        assert sharp.effect.reference is mean
        assert geodesic.effect.reference is mean
        assert "data_dependent_reference" in tangent.warnings
        assert mean.data[0] == pytest.approx(np.mean(r + t), abs=1e-12)

        # a second sample, even with the same records, gets its own solve
        twin = RddSample(r=r, ys=sample.ys, cutoff=0.0, t=t, z=z)
        assert sample_frechet_mean(twin) is not mean
        assert solves == [200, 200]


class TestEffectDistance:
    def test_same_estimate_zero(self):
        rng = np.random.default_rng(6)
        sample = _scalar_sample(rng)
        est = estimate_sharp(sample, 0.5, 0.5)
        assert quotient_distance(est.effect, est.effect) == 0.0

    def test_euclidean_displacements(self):
        rng = np.random.default_rng(7)
        s1 = _scalar_sample(rng, fn=lambda r: 0 * r, jump=1.0, sigma=0.0)
        s2 = _scalar_sample(rng, fn=lambda r: 0 * r, jump=3.0, sigma=0.0)
        e1 = estimate_sharp(s1, 0.5, 0.5)
        e2 = estimate_sharp(s2, 0.5, 0.5)
        assert quotient_distance(e1.effect, e2.effect) == pytest.approx(2.0, abs=1e-9)

    def test_reference_defaults_to_first(self):
        eu = Euclidean(1)
        rng = np.random.default_rng(8)
        s1 = _scalar_sample(rng, sigma=0.0)
        est = estimate_sharp(s1, 0.5, 0.5)
        truth = GeodesicEffect(eu.point([0.0]), eu.point([1.0]), eu.point([9.0]))
        d1 = quotient_distance(est.effect, truth)
        d2 = quotient_distance(est.effect, truth, reference=eu.point([-3.0]))
        assert d1 == pytest.approx(d2, abs=1e-12)  # flat space: reference-free


class TestNetworkConsistencyDrift:
    def test_median_bias_monotone_nonincreasing(self, network_campaign):
        rows = [r for r in network_campaign.rows if r["rep"] < 100 and not r["fail_flag"]]
        medians = []
        for n in (100, 200, 500, 1000):
            medians.append(np.median([r["bias"] for r in rows if r["n"] == n]))
        assert all(m1 >= m2 for m1, m2 in zip(medians, medians[1:])), medians
