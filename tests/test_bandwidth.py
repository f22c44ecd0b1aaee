"""Tests for the data-adaptive bandwidth selector."""

import numpy as np
import pytest

from geordd import (
    CompositionalSphere,
    Euclidean,
    NetworkDgp,
    RddSample,
    ScalarDgp,
    compute_bounds,
    discrepancy_loss,
    evaluation_region,
    select_bandwidth,
)
from geordd.bandwidth import _TIE_TOL, _loss_unit, _piecewise_integrals, _window_bounds
from geordd.errors import DegenerateWindow, InsufficientData, InvertedBounds, SolverDiverged
from geordd.frechet import (
    _CELL_BUDGET,
    LocalLinearTables,
    Side,
    compute_weights,
    weighted_frechet_mean,
)


def _bounds_oracle(r, c, k=20):
    """Order-statistic oracle computed with plain sorting."""
    r = np.sort(np.asarray(r, dtype=float))
    gaps = r[1:] - r[:-1]
    below = np.sort(c - r[r < c])
    above = np.sort(r[r >= c] - c)
    b_min = max(gaps.max(), below[k - 1], above[k - 1])
    b_max = 0.5 * min(c - r[0], r[-1] - c)
    return b_min, b_max


def _euclid_sample(r, y, c=0.0):
    eu = Euclidean(1)
    return RddSample(r=np.asarray(r, float), ys=tuple(eu.point([v]) for v in y), cutoff=c)


class TestComputeBounds:
    def test_uniform_grid_oracle(self):
        r = np.linspace(-1, 1, 200)
        b_min, b_max = compute_bounds(r, 0.0)
        o_min, o_max = _bounds_oracle(r, 0.0)
        assert b_min == pytest.approx(o_min, abs=1e-15)
        assert b_max == pytest.approx(o_max, abs=1e-15)

    def test_symmetric_support_half(self):
        r = np.linspace(-1, 1, 201)  # includes the endpoints and 0
        _, b_max = compute_bounds(r, 0.0)
        assert b_max == pytest.approx(0.5, abs=1e-15)

    def test_random_designs_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = rng.integers(60, 400)
            r = rng.uniform(-2, 3, n)
            c = rng.uniform(-0.5, 1.0)
            try:
                b_min, b_max = compute_bounds(r, c)
            except (InsufficientData, InvertedBounds):
                continue
            o_min, o_max = _bounds_oracle(r, c)
            assert b_min == pytest.approx(o_min, abs=1e-14)
            assert b_max == pytest.approx(o_max, abs=1e-14)

    def test_insufficient_data(self):
        r = np.concatenate([np.linspace(-1, -0.1, 19), np.linspace(0.1, 1, 50)])
        with pytest.raises(InsufficientData):
            compute_bounds(r, 0.0)

    def test_inverted_bounds(self):
        # plenty of points, but the 20th-closest distances exceed half-support
        r = np.concatenate([np.linspace(-1, -0.8, 30), np.linspace(0.8, 1, 30)])
        with pytest.raises(InvertedBounds) as err:
            compute_bounds(r, 0.0)
        assert err.value.b_min >= err.value.b_max


class TestEvaluationRegion:
    def test_exclusion_zones_exact(self):
        rng = np.random.default_rng(1)
        r = rng.uniform(-1, 1, 500)
        c = 0.1
        b_min = 0.17
        pts = evaluation_region(r, c, b_min)
        r_lo, r_hi = r.min(), r.max()
        assert np.all(np.abs(pts - c) > b_min)
        assert np.all(pts > r_lo + b_min)
        assert np.all(pts < r_hi - b_min)
        # and nothing outside the zones was dropped from the base grid
        base = np.linspace(r_lo, r_hi, 100)
        keep = (np.abs(base - c) > b_min) & (base > r_lo + b_min) & (base < r_hi - b_min)
        np.testing.assert_array_equal(pts, base[keep])


class TestDiscrepancyLoss:
    def test_noiseless_linear_near_zero(self):
        rng = np.random.default_rng(2)
        r = rng.uniform(-1, 1, 400)
        sample = _euclid_sample(r, 2.0 * r - 0.5)
        b_min, b_max = compute_bounds(sample.r, 0.0)
        pts = evaluation_region(sample.r, 0.0, b_min)
        for b in (b_min, 0.5 * (b_min + b_max), b_max):
            loss, skipped = discrepancy_loss(sample, 0.0, b, pts)
            assert loss <= 1e-16

    def test_constant_outcome_exact_zero(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(-1, 1, 300)
        sample = _euclid_sample(r, np.full(300, 4.2))
        b_min, _ = compute_bounds(sample.r, 0.0)
        pts = evaluation_region(sample.r, 0.0, b_min)
        loss, _ = discrepancy_loss(sample, 0.0, 0.3, pts)
        # zero up to the last-bit rounding of the two weighted averages
        assert loss <= 1e-25

    def test_oscillation_punishes_oversmoothing(self):
        sample = ScalarDgp(setting="IV", n=1000, seed=11).sample()[0]
        b_min, b_max = compute_bounds(sample.r, 0.0)
        pts = evaluation_region(sample.r, 0.0, b_min)
        small, _ = discrepancy_loss(sample, 0.0, max(b_min, 0.05), pts)
        large, _ = discrepancy_loss(sample, 0.0, b_max, pts)
        assert small < large

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        r = rng.uniform(-1, 1, 200)
        y = np.sin(3 * r) + (r >= 0)
        sample = _euclid_sample(r, y)
        perm = rng.permutation(200)
        shuffled = _euclid_sample(r[perm], y[perm])
        pts = evaluation_region(r, 0.0, 0.15)
        l1, _ = discrepancy_loss(sample, 0.0, 0.3, pts)
        l2, _ = discrepancy_loss(shuffled, 0.0, 0.3, pts)
        assert l1 == l2  # records are canonicalized, sums identical


class TestSelectBandwidth:
    def test_linear_noiseless_tie_breaks_small(self):
        rng = np.random.default_rng(5)
        r = rng.uniform(-1, 1, 500)
        sample = _euclid_sample(r, r)
        search = select_bandwidth(sample)
        assert search.b_star == search.grid[0]
        assert search.b_star == pytest.approx(search.b_min, abs=1e-15)

    def test_bstar_within_bounds_randomized(self):
        rng = np.random.default_rng(6)
        for seed in range(8):
            sample, _ = ScalarDgp(
                setting=["I", "II", "III", "IV"][seed % 4], n=400, seed=seed
            ).sample()
            search = select_bandwidth(sample)
            assert search.b_min <= search.b_star <= search.b_max
            assert np.all(search.losses >= 0.0)

    def test_affine_equivariance(self):
        sample = ScalarDgp(setting="II", n=600, seed=21).sample()[0]
        a, d = 3.0, 1.5
        eu = Euclidean(1)
        moved = RddSample(
            r=a * sample.r + d, ys=sample.ys, cutoff=d
        )
        s1 = select_bandwidth(sample)
        s2 = select_bandwidth(moved)
        assert s2.b_min == pytest.approx(a * s1.b_min, rel=1e-12)
        assert s2.b_max == pytest.approx(a * s1.b_max, rel=1e-12)
        np.testing.assert_allclose(s2.grid, a * s1.grid, rtol=1e-12)
        assert s2.b_star == pytest.approx(a * s1.b_star, rel=1e-12)
        # losses scale by the length element of the integral
        np.testing.assert_allclose(s2.losses, a * s1.losses, rtol=1e-9)

    def test_setting_one_estimate_at_bstar(self):
        from geordd import estimate_sharp

        mags = []
        for seed in range(10):
            sample = ScalarDgp(setting="I", n=1000, seed=100 + seed).sample()[0]
            b = select_bandwidth(sample).b_star
            mags.append(estimate_sharp(sample, b, b).magnitude)
        assert np.mean(mags) == pytest.approx(1.0, abs=0.1)

    def test_search_csv_rows(self):
        sample = ScalarDgp(setting="I", n=200, seed=31).sample()[0]
        search = select_bandwidth(sample, grid_size=7)
        rows = search.to_rows()
        assert len(rows) == 7
        assert all(len(row) == 2 for row in rows)

    @pytest.mark.parametrize("r_scale, y_scale", [(1e-9, 1.0), (1.0, 1e-6)])
    def test_choice_is_scale_free(self, r_scale, y_scale):
        # the losses scale by r_scale * y_scale**2, so the chosen candidate,
        # the argmin here, must not move
        sample = ScalarDgp(n=400, seed=3).sample()[0]
        scaled = RddSample(
            r=sample.r * r_scale, ys=Euclidean(1).stack(sample.ys.data * y_scale), cutoff=0.0
        )
        base, moved = select_bandwidth(sample), select_bandwidth(scaled)
        np.testing.assert_allclose(moved.losses, base.losses * r_scale * y_scale**2, rtol=1e-9)
        index = np.flatnonzero(base.grid == base.b_star)[0]
        assert index == np.argmin(base.losses)
        assert moved.b_star == moved.grid[index]

    def test_empty_grid_is_refused(self):
        sample = ScalarDgp(setting="I", n=200, seed=31).sample()[0]
        with pytest.raises(ValueError, match="grid_size must be >= 1"):
            select_bandwidth(sample, grid_size=0)

    def test_wasserstein_outcomes(self):
        # distributional outcomes exercise the isotonic projection inside the
        # discrepancy loss; a location-shift jump should be recovered at b*
        from geordd import Wasserstein1D, estimate_sharp

        rng = np.random.default_rng(41)
        space = Wasserstein1D(30)
        u = np.linspace(0, 1, 30)
        base = 2.0 * u - 1.0
        n = 600
        r = rng.uniform(-1, 1, n)
        noise = 0.15 * rng.normal(size=n)
        ys = tuple(
            space.point(base + 0.4 * ri + (ri >= 0) * 1.0 + e)
            for ri, e in zip(r, noise)
        )
        sample = RddSample(r=r, ys=ys, cutoff=0.0)
        search = select_bandwidth(sample)
        est = estimate_sharp(sample, search.b_star, search.b_star)
        assert est.magnitude == pytest.approx(1.0, abs=0.15)

    def test_sphere_solver_path(self):
        # non-embeddable outcomes use the iterative solver inside the loss;
        # keep the candidate grid small to bound the runtime
        from geordd import CompositionalSphere

        from conftest import rand_sphere

        rng = np.random.default_rng(43)
        sp = CompositionalSphere(3)
        center = rand_sphere(sp, rng)
        n = 120
        r = rng.uniform(-1, 1, n)
        ys = tuple(
            sp.geodesic(center, rand_sphere(sp, rng), 0.2 + 0.1 * (ri >= 0))
            for ri in r
        )
        sample = RddSample(r=r, ys=ys, cutoff=0.0)
        search = select_bandwidth(sample, grid_size=4)
        assert search.b_min <= search.b_star <= search.b_max
        assert np.all(np.isfinite(search.losses))


def _network_sample(n):
    return NetworkDgp(n=n, seed=5).sample()[0]


def _tied_scalar_sample(setting, n, decimals):
    sample = ScalarDgp(setting=setting, n=n, seed=9).sample()[0]
    return RddSample(r=np.round(sample.r, decimals), ys=sample.ys, cutoff=0.0)


def _lattice_sample():
    # running values on the evaluation grid, so that at b_min (the lattice
    # step) the left window at each grid point right of the cutoff holds
    # one value with weight: those points are skipped, most others are not
    rng = np.random.default_rng(3)
    lattice = np.linspace(-1, 1, 100)
    r = np.concatenate([lattice, np.repeat([-1 / 99, 1 / 99], 20), rng.uniform(-1, 0, 150)])
    y = np.sin(2 * r) + (r >= 0) + rng.normal(0, 0.3, r.size)
    return RddSample(r=r, ys=Euclidean(1).stack(y[:, None]), cutoff=0.0)


def _count_windows(monkeypatch):
    # the centers of each engine pass: the runs that windows takes them in
    calls = []
    run = LocalLinearTables._run

    def spy(self, *args, **kwargs):
        calls.append(np.size(args[0]))
        return run(self, *args, **kwargs)

    monkeypatch.setattr(LocalLinearTables, "_run", spy)
    return calls


class TestBatchedSearch:
    @pytest.mark.parametrize(
        "make, chunked",
        [
            (lambda: _network_sample(100), False),
            (lambda: _network_sample(1000), False),
            (lambda: _network_sample(20_000), True),
            (lambda: _tied_scalar_sample("II", 500, 2), False),
            (lambda: _tied_scalar_sample("IV", 2000, 2), False),
            (_lattice_sample, False),
        ],
        ids=[
            "network-100", "network-1000", "network-20000",
            "scalar-500-ties", "scalar-2000-ties", "scalar-lattice",
        ],
    )
    def test_search_equals_a_loop_of_discrepancy_loss(self, make, chunked, monkeypatch):
        sample = make()
        calls = _count_windows(monkeypatch)
        search = select_bandwidth(sample)
        # every (candidate, point) window once per side; at large n in
        # several chunks of consecutive candidates
        assert sum(calls) == 2 * search.grid.size * search.eval_points.size
        assert (len(calls) > 2) == chunked
        rows = [discrepancy_loss(sample, sample.cutoff, b, search.eval_points) for b in search.grid]
        losses = np.array([loss for loss, _ in rows])
        np.testing.assert_array_equal(search.skipped, [skipped for _, skipped in rows])
        np.testing.assert_allclose(search.losses, losses, rtol=1e-12, atol=0)
        unit = _loss_unit(sample, search.eval_points)
        ties = losses <= losses.min() * (1 + _TIE_TOL) + _TIE_TOL * unit
        assert search.b_star == search.grid[np.flatnonzero(ties)[0]]

    def test_network_search_makes_one_engine_pass_per_side(self, monkeypatch):
        calls = _count_windows(monkeypatch)
        for n in (100, 300, 1000):
            sample = _network_sample(n)
            del calls[:]
            search = select_bandwidth(sample, grid_size=20)
            assert calls == [20 * search.eval_points.size] * 2


def _sphere_sample(dim, r, seed):
    # compositions whose mean moves smoothly with r and jumps at the cutoff
    rng = np.random.default_rng(seed)
    logits = np.zeros((r.size, dim))
    logits[:, 0] = 0.4 * np.sin(np.pi * r / 2) + 0.5 * (r >= 0)
    logits[:, 1] = -0.3 * r
    mean = np.exp(logits) / np.exp(logits).sum(1, keepdims=True)
    g = rng.gamma(10.0 * mean)
    ys = CompositionalSphere(dim).points_from_shares(g / g.sum(1, keepdims=True))
    return RddSample(r=r, ys=ys, cutoff=0.0)


def _first_support_point(monkeypatch):
    # a stand-in for the sphere solve, for tests that count engine calls only
    monkeypatch.setattr(
        "geordd.bandwidth.weighted_frechet_mean", lambda ys, profile: ys[profile.support][0]
    )


class TestSphereSearch:
    @pytest.mark.parametrize("n, split", [(500, False), (5000, True)])
    def test_sphere_search_makes_one_engine_pass_per_side(self, n, split, monkeypatch):
        sample = _sphere_sample(3, np.random.default_rng(0).uniform(-1, 1, n), 1)
        _first_support_point(monkeypatch)
        calls = _count_windows(monkeypatch)
        search = select_bandwidth(sample, grid_size=20)
        # above the cell budget, in runs of consecutive windows
        run = _CELL_BUDGET // sample.weight_tables._cells_per_center(Side.LEFT)
        windows = 20 * search.eval_points.size
        assert calls == [min(run, windows - i) for i in range(0, windows, run)] * 2
        assert (len(calls) > 2) == split

    @pytest.mark.parametrize(
        "dim, r, skips",
        [
            (3, np.random.default_rng(4).uniform(-1, 1, 120), False),
            (5, np.random.default_rng(5).uniform(-1, 1, 150), False),
            (3, _lattice_sample().r, True),
            (5, _lattice_sample().r, True),
        ],
        ids=["dim3", "dim5", "dim3-lattice", "dim5-lattice"],
    )
    def test_losses_equal_a_loop_of_single_window_solves(self, dim, r, skips):
        sample = _sphere_sample(dim, r, 6)
        search = select_bandwidth(sample, grid_size=4)
        assert search.skipped.any() == skips
        pts, c = search.eval_points, sample.cutoff
        shape = (search.grid.size, pts.size)
        bounds = _window_bounds(pts, c, search.grid[:, None], sample.r[0], sample.r[-1])
        lo_l, hi_l, lo_r, hi_r = (np.broadcast_to(v, shape) for v in bounds)
        sq, valid = np.zeros(shape), np.zeros(shape, dtype=bool)

        def fit(p, h, side, window):
            tables = sample.weight_tables
            profile = compute_weights(sample.r, p, h, side, window=window, tables=tables)
            return weighted_frechet_mean(sample.ys, profile)

        for (g, j), p in np.ndenumerate(np.broadcast_to(pts, shape)):
            h = 2 * search.grid[g]
            try:
                fit_l = fit(p, h, Side.LEFT, (lo_l[g, j], hi_l[g, j]))
                fit_r = fit(p, h, Side.RIGHT, (lo_r[g, j], hi_r[g, j]))
            except (DegenerateWindow, SolverDiverged):
                continue
            valid[g, j] = True
            sq[g, j] = sample.space.distance(fit_l, fit_r) ** 2
        losses, skipped, _ = _piecewise_integrals(pts, sq, valid, c)
        np.testing.assert_array_equal(search.losses, losses)
        np.testing.assert_array_equal(search.skipped, skipped)


def _rescaled(sample, a):
    return RddSample(r=a * sample.r, ys=sample.ys, cutoff=a * sample.cutoff)


def _assert_search_scales(search, base, a):
    # r -> a r moves every length by a and keeps every window's weights
    np.testing.assert_array_equal(search.skipped, base.skipped)
    assert search.b_star / a == pytest.approx(base.b_star, rel=1e-13)
    np.testing.assert_allclose(search.grid / a, base.grid, rtol=1e-13)
    np.testing.assert_allclose(search.losses / a, base.losses, rtol=1e-9)


class TestRunningVariableScale:
    """The engine works in units of a power of two near the span of r, so no
    scale of the running variable lets its power sums overflow or underflow
    (tier-1 turns a NumPy RuntimeWarning into an error)."""

    def test_any_scale_keeps_the_search_and_the_estimate(self):
        from geordd import estimate_sharp

        rng = np.random.default_rng(7)
        r = rng.uniform(-1, 1, 400)
        y = np.sin(2 * r) + (r >= 0) + rng.normal(0, 0.3, r.size)
        sample = _euclid_sample(r, y)
        base = select_bandwidth(sample)
        magnitude = estimate_sharp(sample, base.b_star, base.b_star).magnitude
        for k in range(-300, 301, 30):
            a = 10.0**k
            moved = _rescaled(sample, a)
            search = select_bandwidth(moved)
            _assert_search_scales(search, base, a)
            est = estimate_sharp(moved, search.b_star, search.b_star)
            assert est.magnitude == pytest.approx(magnitude, rel=1e-12)

    @pytest.mark.parametrize("a", [1e-150, 1e150])
    def test_network_search_at_an_extreme_scale(self, a):
        sample = _network_sample(300)
        _assert_search_scales(select_bandwidth(_rescaled(sample, a)), select_bandwidth(sample), a)

    @pytest.mark.parametrize("a", [1e-150, 1e150])
    def test_sphere_search_at_an_extreme_scale(self, a):
        sample = _sphere_sample(3, np.random.default_rng(4).uniform(-1, 1, 120), 6)
        base = select_bandwidth(sample, grid_size=4)
        _assert_search_scales(select_bandwidth(_rescaled(sample, a), grid_size=4), base, a)
