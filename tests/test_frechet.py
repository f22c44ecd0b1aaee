"""Tests for the kernel, local-linear weights and weighted Frechet means."""

import numpy as np
import pytest

from geordd import (
    CompositionalSphere,
    Euclidean,
    NetworkLaplacian,
    RddSample,
    Side,
    SpdSpace,
    compute_weights,
    lfr_estimate,
    weighted_frechet_mean,
)
from geordd.errors import DegenerateWindow, EmptyInput, SolverDiverged
from geordd.frechet import batch_lfr_embeddings
from geordd.spaces import HilbertSpace

from conftest import (
    golden_section,
    rand_laplacian,
    rand_spd,
    rand_sphere,
    triangular,
    wls_intercept_oracle,
    wls_line_oracle,
)


def applied_kernel(r, center, h, side):
    """The kernel K((R - center) / h) that ``compute_weights`` applies at
    each observation, read back from its profile: with weights w and slope
    weights s, mu0 w + mu1 s = K / h."""
    p = compute_weights(r, center, h, side)
    return h * (p.mu0 * p.weights + p.mu1 * p.slope_weights)


class TestKernelEval:
    def test_triangular_peak(self):
        xs = np.linspace(-1, 1, 41)
        k = applied_kernel(xs, 0.0, 1.0, Side.TWO_SIDED)
        assert k[20] == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(k) == 20

    def test_left_kernel_vanishes_right(self):
        xs = np.array([-0.6, -0.3, 0.0, 0.5])
        k = applied_kernel(xs, 0.0, 1.0, Side.LEFT)
        assert k[2] == 0.0 and k[3] == 0.0

    def test_zero_outside_support(self):
        xs = np.array([-1.0 - 1e-9, -1.0, -0.5, 0.0, 0.5, 1.0, 1.0 + 1e-9])
        k = applied_kernel(xs, 0.0, 1.0, Side.TWO_SIDED)
        assert np.all(k[[0, 1, 5, 6]] == 0.0)

    def test_nonnegative_bounded_on_grid(self):
        xs = np.linspace(-2, 2, 401)
        k = applied_kernel(xs, 0.0, 1.0, Side.TWO_SIDED)
        assert np.all(k >= 0.0) and np.all(k <= 1.0 + 1e-12)
        np.testing.assert_allclose(k, triangular(xs), rtol=0, atol=1e-12)

    def test_side_masks(self):
        xs = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
        left = applied_kernel(xs, 0.0, 1.0, Side.LEFT)
        right = applied_kernel(xs, 0.0, 1.0, Side.RIGHT)
        assert left[0] > 0 and left[2] == 0 and left[4] == 0
        assert right[0] == 0 and right[2] == pytest.approx(1.0, abs=1e-12) and right[4] > 0


class TestComputeWeights:
    def test_hand_computed_moments(self):
        # triangular left kernel, h=1: K = 1 - |d| at the three points below c
        r = np.array([-0.2, -0.4, -0.6])
        profile = compute_weights(r, 0.0, 1.0, Side.LEFT)
        k = 1.0 - np.abs(r)  # K_{0,1}(d) on the window
        d = r
        mu0 = k.sum() / 3
        mu1 = (k * d).sum() / 3
        mu2 = (k * d * d).sum() / 3
        sigma2 = mu0 * mu2 - mu1**2
        expected = k * (mu2 - mu1 * d) / sigma2
        np.testing.assert_allclose(profile.weights, expected, atol=1e-12)
        assert profile.sigma2 == pytest.approx(sigma2, abs=1e-15)
        assert profile.weights.sum() / profile.n_norm == pytest.approx(1.0, abs=1e-8)

    def test_sigma2_identity(self):
        rng = np.random.default_rng(0)
        r = rng.uniform(-1, 1, 200)
        profile = compute_weights(r, 0.0, 0.5, Side.LEFT)
        assert profile.sigma2 == pytest.approx(
            profile.mu0 * profile.mu2 - profile.mu1**2, abs=1e-12
        )

    # the ids name the kernel between the scale and the ties
    @pytest.mark.parametrize("ties", [2, 100_000], ids=lambda t: f"triangular-{t}")
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_single_distinct_point_degenerate(self, scale, ties):
        # sigma^2 of a single distinct value is rounding noise under the
        # floor at any scale of R, also with points off the kernel support
        r = np.concatenate([np.full(ties, -0.5), [-3.0, -2.0, 0.5]]) * scale
        with pytest.raises(DegenerateWindow):
            compute_weights(r, 0.0, 1.0 * scale, Side.LEFT)

    def test_empty_window_degenerate(self):
        r = np.array([-5.0, -4.0, 3.0, 4.0])
        with pytest.raises(DegenerateWindow):
            compute_weights(r, 0.0, 1.0, Side.LEFT)

    def test_weights_vanish_outside_bandwidth(self):
        rng = np.random.default_rng(1)
        r = rng.uniform(-1, 1, 300)
        h = 0.3
        profile = compute_weights(r, 0.0, h, Side.LEFT)
        outside = np.abs(r) > h
        assert np.all(profile.weights[outside] == 0.0)

    def test_first_moment_annihilation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            r = rng.uniform(-1, 1, 150)
            h = rng.uniform(0.1, 0.8)
            profile = compute_weights(r, 0.0, h, Side.RIGHT)
            val = (profile.weights * r).sum() / profile.n_norm
            assert abs(val) < 1e-8

    def test_weight_sum_normalization(self):
        rng = np.random.default_rng(3)
        for side in (Side.LEFT, Side.RIGHT, Side.TWO_SIDED):
            r = rng.uniform(-1, 1, 100)
            profile = compute_weights(r, 0.1, 0.4, side)
            assert profile.weights.sum() / profile.n_norm == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bandwidth_must_be_positive_and_finite(self, h):
        with pytest.raises(ValueError, match="positive and finite"):
            compute_weights(np.linspace(-1, 1, 50), 0.0, h)


class TestWeightedFrechetMean:
    def test_euclidean_average(self):
        eu = Euclidean(1)
        out = weighted_frechet_mean([eu.point([1.0]), eu.point([3.0])], [0.5, 0.5])
        assert out.data[0] == pytest.approx(2.0, abs=1e-12)

    def test_single_object(self):
        eu = Euclidean(2)
        p = eu.point([4.0, -1.0])
        out = weighted_frechet_mean([p], [1.0])
        assert eu.distance(out, p) < 1e-12

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            weighted_frechet_mean([], [])

    @pytest.mark.parametrize(
        "space, sampler",
        [
            (NetworkLaplacian(6, max_weight=5.0), rand_laplacian),
            (SpdSpace(3, "power", power=0.5), rand_spd),
        ],
        ids=["laplacian", "spd_power"],
    )
    def test_one_projection_per_solve(self, space, sampler, monkeypatch):
        rng = np.random.default_rng(21)
        objects = [sampler(space, rng) for _ in range(12)]
        # signed weights, so the raw weighted average can leave the image set
        w = np.linspace(-0.4, 1.0, 12)
        calls = []
        project = type(space)._project

        def counted(self, rows):
            calls.append(rows.shape[0])
            return project(self, rows)

        monkeypatch.setattr(type(space), "_project", counted)
        out, info = weighted_frechet_mean(objects, w, return_info=True)
        assert calls == [1]
        assert out.space == space and info.method == "embedding"

    def test_nonpositive_total_weight(self):
        eu = Euclidean(1)
        with pytest.raises(SolverDiverged):
            weighted_frechet_mean([eu.point([0.0]), eu.point([1.0])], [-1.0, -1.0])

    def test_sphere_midpoint_vs_golden_section(self):
        sp = CompositionalSphere(3)
        rng = np.random.default_rng(4)
        a, b = rand_sphere(sp, rng), rand_sphere(sp, rng)
        out = weighted_frechet_mean([a, b], [0.5, 0.5])

        def objective_at(t):
            z = sp.geodesic(a, b, t)
            return 0.5 * sp.distance(z, a) ** 2 + 0.5 * sp.distance(z, b) ** 2

        t_star = golden_section(objective_at, 0.0, 1.0)
        oracle = sp.geodesic(a, b, t_star)
        assert sp.distance(out, oracle) < 1e-6
        assert t_star == pytest.approx(0.5, abs=1e-6)

    @staticmethod
    def _extrapolating_sample(dim):
        """Signed local-linear weights at r = 0 from r in [-1, -0.3], on
        points whose first two coordinates run along a quarter circle towards
        its end: the fit extrapolates past the orthant's face."""
        sp = CompositionalSphere(dim)
        rng = np.random.default_rng(0)
        r = np.sort(rng.uniform(-1.0, -0.3, 60))
        phi = -0.2 - r + 0.02 * rng.normal(size=60)
        x = np.column_stack([np.cos(phi), np.sin(phi), rng.uniform(0.2, 0.4, (60, dim - 2))])
        pts = list(sp.stack(x / np.linalg.norm(x, axis=1, keepdims=True)))
        w = compute_weights(r, 0.0, 2.0, Side.LEFT).weights
        return sp, pts, w

    @pytest.mark.parametrize(
        "signed_dim", [None, 3, 5], ids=["positive-dim4", "signed-dim3", "signed-dim5"]
    )
    def test_sphere_certified_against_candidates(self, signed_dim):
        if signed_dim is None:
            sp = CompositionalSphere(4)
            rng = np.random.default_rng(5)
            pts = [rand_sphere(sp, rng) for _ in range(12)]
            w = rng.normal(1.0, 0.4, 12)  # mostly positive, some mass variation
        else:
            sp, pts, w = self._extrapolating_sample(signed_dim)
        out, info = weighted_frechet_mean(pts, w, return_info=True)
        if signed_dim is not None:
            assert info.method == "sphere_descent"
            assert info.converged
        f_best = sum(wi * sp.distance(out, p) ** 2 for wi, p in zip(w, pts))
        for p in pts:
            f_p = sum(wi * sp.distance(p, q) ** 2 for wi, q in zip(w, pts))
            assert f_best <= f_p + 1e-9

    def test_sphere_newton_iterations_pinned(self):
        # a sample like the benchmark's: n = 500 compositions and one-sided
        # local-linear weights at the cutoff
        rng = np.random.default_rng(17)
        r = rng.uniform(-1.0, 1.0, 500)
        mean = np.exp(np.outer(r, [0.4, -0.3, 0.0]))
        g = rng.gamma(10.0 * mean / mean.sum(axis=1, keepdims=True))
        ys = CompositionalSphere(3).points_from_shares(g / g.sum(axis=1, keepdims=True))
        w = compute_weights(r, 0.0, 0.45, Side.LEFT).weights
        assert w.min() < 0.0
        _, info = weighted_frechet_mean(ys, w, return_info=True)
        assert info.method == "sphere_newton"
        assert info.iterations <= 10
        assert info.grad_norm <= 1e-10

    def test_sphere_newton_converges_quadratically(self):
        # compositions spread over the orthant, where theta cot(theta) is far
        # from one: an inexact Hessian converges only linearly (6-7 iterations
        # with theta cot(theta) replaced by 1)
        rng = np.random.default_rng(0)
        ys = CompositionalSphere(3).points_from_shares(rng.dirichlet(np.full(3, 0.5), 200))
        _, info = weighted_frechet_mean(ys, rng.uniform(0.2, 1.0, 200), return_info=True)
        assert info.method == "sphere_newton"
        assert info.iterations <= 4

    def test_embeddable_optimality(self, space_case):
        name, space, sampler = space_case
        if not isinstance(space, HilbertSpace):
            pytest.skip("solver covered separately")
        rng = np.random.default_rng(6)
        pts = [sampler(space, rng) for _ in range(8)]
        w = rng.uniform(0.2, 1.0, 8)
        out = weighted_frechet_mean(pts, w)
        f_out = sum(wi * space.distance(out, p) ** 2 for wi, p in zip(w, pts))
        for p in pts:
            f_p = sum(wi * space.distance(p, q) ** 2 for wi, q in zip(w, pts))
            assert f_out <= f_p + 1e-8


class TestSphereQuarterArcOracle:
    """At dim = 2 the orthant is the quarter arc z(phi) = (cos phi, sin phi),
    phi in [0, pi/2], on which arc length is the difference of angles.  From
    the solver's angle phi0 the objective along the arc is, up to a
    constant, sum_i w_i x (x + 2 (phi0 - phi_i)) at phi = phi0 + x; written
    so, it keeps its relative precision near its minimum, and golden-section
    search locates the exact minimiser x* to about 1e-12."""

    @staticmethod
    def _solve(phi, w):
        sp = CompositionalSphere(2)
        pts = tuple(sp.stack(np.column_stack([np.cos(phi), np.sin(phi)])))
        out, info = weighted_frechet_mean(pts, w, return_info=True)
        phi0 = float(np.arctan2(out.data[1], out.data[0]))
        shift = golden_section(
            lambda x: float(np.sum(w * x * (x + 2.0 * (phi0 - phi)))), -phi0, np.pi / 2 - phi0
        )
        return shift, info

    def test_positive_weights(self):
        rng = np.random.default_rng(21)
        phi = rng.uniform(0.1, 1.4, 40)
        shift, info = self._solve(phi, rng.uniform(0.2, 1.0, 40))
        assert info.method == "sphere_newton"
        assert abs(shift) <= 1e-10

    def test_signed_local_linear_weights(self):
        rng = np.random.default_rng(22)
        r = rng.uniform(-1.0, 1.0, 300)
        phi = 0.7 + 0.3 * r + 0.05 * rng.normal(size=300)
        w = compute_weights(r, 0.0, 0.6, Side.LEFT).weights
        assert w.min() < 0.0
        shift, info = self._solve(phi, w)
        assert info.method == "sphere_newton"
        assert abs(shift) <= 1e-10

    @pytest.mark.parametrize(
        "r, intercept, slope",
        [
            (np.linspace(-1.0, -0.3, 60), -0.2, -1.0),
            (np.linspace(-1.0, -0.8, 40), -2.0, -3.0),
        ],
        ids=["step-leaves-orthant", "far-extrapolation"],
    )
    def test_fallback_when_newton_leaves_the_orthant(self, r, intercept, slope):
        # the local-linear fit extrapolates to phi = intercept at the cutoff,
        # off the arc: Newton's step leaves the orthant, the step is clamped
        # and the minimiser on the arc is its end phi = 0, where the solve
        # stops as stationary on the orthant
        phi = intercept + slope * r
        w = compute_weights(r, 0.0, 2.0, Side.LEFT).weights
        shift, info = self._solve(phi, w)
        assert info.method == "sphere_descent"
        assert info.projected
        assert abs(shift) <= 1e-10
        assert info.converged
        assert info.iterations <= 20


class TestBatchLfrEmbeddings:
    @pytest.mark.parametrize("clamp", [False, True], ids=["free", "clamped"])
    @pytest.mark.parametrize(
        "side", [Side.LEFT, Side.RIGHT, Side.TWO_SIDED], ids=lambda s: f"{s}-triangular"
    )
    def test_matches_wls_oracle(self, side, clamp):
        rng = np.random.default_rng(13)
        r = np.sort(rng.uniform(-1, 1, 400))
        emb = rng.normal(size=(400, 3))
        # centers inside the data and past both edges; bandwidths down to
        # windows holding fewer than two distinct running values
        centers = np.concatenate([np.linspace(-1.2, 1.2, 25), r[[5, 200, 394]]])
        lo = np.where(np.arange(centers.size) % 2, centers - 0.25, -0.6) if clamp else None
        hi = 0.7 if clamp else None
        seen = set()
        for h in (0.3, 0.02, 1e-4):
            fits, valid = batch_lfr_embeddings(r, emb, centers, h, side, lo=lo, hi=hi)
            lo_j = np.broadcast_to(-np.inf if lo is None else lo, centers.shape)
            hi_j = np.inf if hi is None else hi
            for j, c in enumerate(centers):
                window = (lo_j[j], hi_j)
                try:
                    compute_weights(r, c, h, side, window=window)
                except DegenerateWindow:
                    assert not valid[j]
                    assert np.all(np.isnan(fits[j]))
                    continue
                assert valid[j]
                keep = (r >= window[0]) & (r <= window[1])
                keep &= {Side.LEFT: r < c, Side.RIGHT: r >= c}.get(side, True)
                oracle = wls_line_oracle(r, emb, c, h, keep)[0]
                np.testing.assert_allclose(fits[j], oracle, rtol=1e-10, atol=1e-10)
            seen.update(valid.tolist())
        assert seen == {True, False}


def _euclid_sample(rng, n=120, fn=lambda r: r, sigma=0.0):
    eu = Euclidean(1)
    r = rng.uniform(-1, 1, n)
    y = fn(r) + sigma * rng.normal(size=n)
    return RddSample(r=r, ys=tuple(eu.point([v]) for v in y), cutoff=0.0), y


class TestLfrEstimate:
    def test_constant_outcome(self):
        rng = np.random.default_rng(7)
        sample, _ = _euclid_sample(rng, fn=lambda r: np.full_like(r, 3.25))
        for side in (Side.LEFT, Side.RIGHT):
            for h in (0.2, 0.5, 1.0):
                out = lfr_estimate(sample, 0.0, h, side)
                assert out.data[0] == pytest.approx(3.25, abs=1e-12)

    def test_linear_reproduction_at_cutoff(self):
        rng = np.random.default_rng(8)
        sample, _ = _euclid_sample(rng, fn=lambda r: r)
        out = lfr_estimate(sample, 0.0, 0.4, Side.LEFT)
        assert out.data[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_wls_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            sample, y = _euclid_sample(rng, n=200, fn=lambda r: np.sin(r), sigma=0.3)
            h = rng.uniform(0.2, 0.9)
            fit = lfr_estimate(sample, 0.0, h, Side.LEFT)
            oracle = wls_intercept_oracle(sample.r, [p.data[0] for p in sample.ys], 0.0, h, "left")
            assert fit.data[0] == pytest.approx(oracle, abs=1e-10)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(10)
        sample, y = _euclid_sample(rng, n=150, fn=lambda r: r**2, sigma=0.2)
        eu = Euclidean(1)
        lam = 3.7
        scaled = RddSample(
            r=sample.r, ys=tuple(eu.point(lam * p.data) for p in sample.ys), cutoff=0.0
        )
        f1 = lfr_estimate(sample, 0.0, 0.5, Side.RIGHT).data[0]
        f2 = lfr_estimate(scaled, 0.0, 0.5, Side.RIGHT).data[0]
        assert f2 == pytest.approx(lam * f1, abs=1e-10 * max(1, abs(lam * f1)))

    def test_affine_exactness_embeddable(self, space_case):
        # outcomes affine in the embedding are reproduced exactly at any r
        name, space, sampler = space_case
        if not isinstance(space, HilbertSpace):
            pytest.skip("needs an embedding")
        rng = np.random.default_rng(11)
        p1, p2 = sampler(space, rng), sampler(space, rng)
        base = 0.5 * (space.embed(p1) + space.embed(p2))
        # shrink the direction until the whole family stays strictly feasible
        direction = space.embed(p2) - base
        r = rng.uniform(-1, 1, 80)
        for _ in range(40):
            ys = tuple(
                space.inverse_embed(base + 0.3 * ri * direction, project=True)
                for ri in r
            )
            exact = all(
                space.hilbert_distance(space.embed(y), base + 0.3 * ri * direction)
                < 1e-10
                for y, ri in zip(ys, r)
            )
            if exact:
                break
            direction = 0.5 * direction
        assert exact, "could not build a feasible affine family"
        sample = RddSample(r=r, ys=ys, cutoff=0.0)
        for point, side in ((0.0, Side.LEFT), (0.0, Side.RIGHT), (-0.3, Side.LEFT)):
            fit = lfr_estimate(sample, point, 0.6, side)
            target = space.inverse_embed(base + 0.3 * point * direction, project=True)
            assert space.distance(fit, target) < 1e-8

    def test_degenerate_propagates(self):
        rng = np.random.default_rng(12)
        sample, _ = _euclid_sample(rng)
        with pytest.raises(DegenerateWindow):
            lfr_estimate(sample, 0.0, 1e-6, Side.LEFT)
