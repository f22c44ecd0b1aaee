"""Edge-input oracle tests for the exact local-linear engine.

Every batched fit is checked against the explicit weighted least squares
solve (``wls_line_oracle``), and its ``valid`` flag against what
``compute_weights`` accepts at the same window, on inputs chosen to hit the
engine's seams: tied running values on every window bound, extreme scales,
single-valued windows, unsorted input, and all three sides.  The per-block
products of the partial blocks are checked against the one sparse product
they replaced, kept here as the oracle.
"""

import gc
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse

from geordd import (
    CompositionalSphere,
    Euclidean,
    NetworkDgp,
    NoncomplianceSide,
    RddSample,
    Side,
    compute_weights,
    estimate_geodesic_riemannian_fuzzy,
    estimate_sharp,
)
from geordd.bandwidth import select_bandwidth
from geordd.io import ingest, write_sample_csv
from geordd.errors import DegenerateWindow
from geordd.frechet import (
    _CELL_BUDGET,
    LocalLinearTables,
    WeightProfile,
    batch_lfr_embeddings,
)

from conftest import dense, rand_sphere, triangular, wls_line_oracle

SIDES = [Side.LEFT, Side.RIGHT, Side.TWO_SIDED]


def side_id(side: Side) -> str:
    """A case id names the side and the kernel of its fits."""
    return f"{side.value}-triangular"


def check_against_oracle(r, emb, centers, h, side, lo=None, hi=None):
    """Batched fits equal the WLS oracle to 1e-10 wherever compute_weights
    accepts the window, and are flagged invalid (NaN rows) elsewhere.
    Returns the valid mask."""
    fits, valid = batch_lfr_embeddings(r, emb, centers, h, side, lo=lo, hi=hi)
    lo_j = np.broadcast_to(-np.inf if lo is None else lo, centers.shape)
    hi_j = np.broadcast_to(np.inf if hi is None else hi, centers.shape)
    for j, c in enumerate(centers):
        window = (lo_j[j], hi_j[j])
        try:
            profile = compute_weights(r, c, h, side, window=window)
        except DegenerateWindow:
            assert not valid[j], (j, c)
            assert np.all(np.isnan(fits[j]))
            continue
        assert valid[j], (j, c)
        keep = (r >= window[0]) & (r <= window[1])
        keep &= {Side.LEFT: r < c, Side.RIGHT: r >= c}.get(side, True)
        assert profile.n_norm == keep.sum()
        oracle = wls_line_oracle(r, emb, c, h, keep)[0]
        np.testing.assert_allclose(fits[j], oracle, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(
            dense(profile, r.size) @ emb / profile.n_norm, oracle, rtol=1e-10, atol=1e-10
        )
    return valid


@pytest.mark.parametrize("side", SIDES, ids=side_id)
class TestEdgeInputs:
    def test_ties_on_every_bound(self, side):
        # dyadic values: lo, hi, the centers and center +- h are all exact
        # running values, each tied three times
        rng = np.random.default_rng(7)
        grid = np.arange(-16, 17) / 16.0
        r = np.concatenate([np.repeat(grid, 3), rng.uniform(-1, 1, 150)])
        emb = rng.normal(size=(r.size, 2))
        centers = np.arange(-12, 13, 2) / 16.0
        for h in (0.25, 0.125):
            valid = check_against_oracle(
                r, emb, centers, h, side, lo=centers - 0.1875, hi=0.6875
            )
            assert valid.any()
            check_against_oracle(r, emb, centers, h, side)

    def test_ties_where_rounding_moves_the_support(self, side):
        # c + h and c - h round, so values tied at fl(c + h) and fl(c - h)
        # sit where searchsorted and the kernel's own test |d / h| < 1 can
        # disagree: the engine must follow the kernel
        rng = np.random.default_rng(8)
        centers = np.array([0.1, 0.3, -0.7, 0.55])
        h = 0.2
        edges = np.concatenate([centers + h, centers - h])
        edges = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
        r = np.concatenate([np.repeat(edges, 2), centers, rng.uniform(-1, 1, 200)])
        emb = rng.normal(size=(r.size, 3))
        check_against_oracle(r, emb, centers, h, side)
        check_against_oracle(r, emb, centers, h, side, lo=centers - h, hi=centers + h)

    @pytest.mark.parametrize(
        "transform",
        [lambda r: r * 1e-6, lambda r: r * 1e6, lambda r: r + 1e3],
        ids=["times_1e-6", "times_1e6", "plus_1e3"],
    )
    def test_extreme_scales(self, side, transform):
        rng = np.random.default_rng(9)
        base = rng.uniform(-1, 1, 500)
        emb = rng.normal(size=(500, 2))
        centers = np.linspace(-0.9, 0.9, 19)
        r = transform(base)
        scale = transform(np.array(1.0)) - transform(np.array(0.0))
        for h in (0.3, 0.05):
            check_against_oracle(
                r, emb, transform(centers), h * scale, side,
                lo=transform(centers - 0.4), hi=transform(np.array(0.8)),
            )

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_single_distinct_value_is_degenerate(self, side, scale):
        # windows whose only points carrying kernel weight share one value,
        # with other points just off the support, at the clamp or in dead
        # tails of blocks
        rng = np.random.default_rng(10)
        r = np.concatenate([np.full(400, -0.5), np.full(300, 0.5), [-3.0, -2.0, 2.0, 3.0]]) * scale
        emb = rng.normal(size=(r.size, 2))
        centers = np.array([-0.5, 0.5, -0.25, 0.25, 0.0]) * scale
        valid = check_against_oracle(r, emb, centers, 0.4 * scale, side)
        assert not valid.any()
        both = check_against_oracle(r, emb, centers, 1.2 * scale, side)
        assert both[centers == 0.0].all() == (side is Side.TWO_SIDED)

    def test_unsorted_input(self, side):
        rng = np.random.default_rng(11)
        r = np.round(rng.uniform(-1, 1, 600), 2)  # ties, in random order
        emb = rng.normal(size=(600, 4))
        centers = np.linspace(-1.1, 1.1, 23)
        lo = centers - 0.3
        for h in (0.4, 0.03, 0.004):
            check_against_oracle(r, emb, centers, h, side, lo=lo, hi=0.9)
            order = np.argsort(r, kind="stable")
            shuffled = batch_lfr_embeddings(r, emb, centers, h, side, lo=lo, hi=0.9)
            ordered = batch_lfr_embeddings(r[order], emb[order], centers, h, side, lo=lo, hi=0.9)
            np.testing.assert_array_equal(shuffled[1], ordered[1])
            np.testing.assert_allclose(shuffled[0], ordered[0], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("side", SIDES, ids=side_id)
def test_per_center_bandwidths_match_scalar_calls(side):
    # one call over (bandwidth, center) pairs gives each window exactly what
    # a call at its bandwidth alone gives, whatever else shares the call:
    # dyadic ties sit on the bounds, as in test_ties_on_every_bound
    rng = np.random.default_rng(17)
    grid = np.arange(-16, 17) / 16.0
    r = np.concatenate([np.repeat(grid, 3), rng.uniform(-1, 1, 450)])
    tables = LocalLinearTables(r, rng.normal(size=(r.size, 3)))
    centers = np.arange(-12, 13, 2) / 16.0
    lo = centers - 0.1875
    hs = np.array([0.25, 0.125, 0.0625, 0.5, 1.0, 0.03])
    m = centers.size
    joint = tables.windows(np.tile(centers, hs.size), np.repeat(hs, m), side, np.tile(lo, hs.size), 0.6875)
    for g, h in enumerate(hs):
        alone = tables.windows(centers, h, side, lo, 0.6875)
        part = slice(g * m, (g + 1) * m)
        for name in ("n_norm", "valid", "lo", "hi"):
            np.testing.assert_array_equal(getattr(joint, name)[part], getattr(alone, name))
        np.testing.assert_array_equal(joint.mu[:, part], alone.mu)
        np.testing.assert_allclose(joint.fits[part], alone.fits, rtol=1e-12, atol=0)
        assert alone.valid.any()


def _sparse_partial_fits(tables, w, starts, ends):
    """The engine's partial-block fits as they were before the per-block
    products: one sparse (m, n) matrix of the slot weights times the outcome
    rows.  Returns them with the sums of the absolute terms, their scale."""
    m, _, width = w.shape
    block = width // 2
    slot = starts[..., None] + np.arange(block)
    live = (slot < ends[..., None]).reshape(m, -1)
    indptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(live.sum(1), out=indptr[1:])
    weights = w[..., block:].reshape(m, -1)[live]
    matrix = sparse.csr_matrix((weights, slot.reshape(m, -1)[live], indptr), shape=(m, tables.n))
    return matrix @ tables.psi, abs(matrix) @ np.abs(tables.psi)


@pytest.fixture
def partial_fits(monkeypatch):
    """Every partial-block product the engine adds from now on, as
    (per-block products, sparse product, scale) of one engine pass."""
    seen = []
    add = LocalLinearTables._add_partial_fits

    def spy(self, fits, w, starts, ends):
        alone = np.zeros_like(fits)
        add(self, alone, w, starts, ends)
        seen.append((alone, *_sparse_partial_fits(self, w, starts, ends)))
        add(self, fits, w, starts, ends)

    monkeypatch.setattr(LocalLinearTables, "_add_partial_fits", spy)
    return seen


def assert_partial_fits_agree(seen):
    """The per-block products equal the sparse product to 1e-13 of each
    row's largest sum of absolute terms."""
    assert seen
    for per_block, oracle, scale in seen:
        bound = 1e-13 * scale.max(axis=1, keepdims=True)
        assert np.all(np.abs(per_block - oracle) <= bound)


def test_partial_fits_of_a_network_search_match_the_sparse_product(partial_fits):
    sample, _ = NetworkDgp(n=20_000, seed=21).sample()
    block = sample.lfr_tables._offsets.size
    assert sample.n % block  # the last block is short
    select_bandwidth(sample)
    assert len(partial_fits) > 2  # the search runs in several engine passes
    assert_partial_fits_agree(partial_fits)


@pytest.mark.parametrize("side", SIDES, ids=side_id)
def test_partial_fits_match_the_sparse_product(side, partial_fits):
    rng = np.random.default_rng(18)
    r = rng.uniform(-1, 1, 1000)  # blocks of 32, the last one of 8
    tables = LocalLinearTables(r, rng.normal(size=(1000, 4)))
    assert tables.n % tables._offsets.size
    centers = np.linspace(-1.05, 1.05, 43)
    for h in (0.004, 0.03, 0.2, 1.5):
        tables.windows(centers, h, side)
        tables.windows(centers, h, side, centers - 0.5 * h, centers + 0.7 * h)
    assert_partial_fits_agree(partial_fits)


@pytest.mark.parametrize("offset", [0.0, 1e6], ids=["unit", "offset_1e6"])
def test_large_n_fits_match_the_oracle(offset):
    rng = np.random.default_rng(19)
    r = rng.uniform(-1, 1, 20_000) + offset
    emb = rng.normal(size=(20_000, 3))
    centers = np.linspace(-0.95, 0.95, 7) + offset
    for side in SIDES:
        for h in (0.003, 0.3):
            valid = check_against_oracle(
                r, emb, centers, h, side, lo=centers - 0.25, hi=offset + 0.8
            )
            assert valid.any()


@pytest.mark.parametrize("bad", [0.0, -0.2, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("in_array", [False, True], ids=["scalar", "in_array"])
def test_bad_bandwidths_are_refused(bad, in_array):
    r = np.linspace(-1, 1, 200)
    emb = np.ones((200, 2))
    tables = LocalLinearTables(r, emb)
    centers = np.array([-0.5, 0.0, 0.5])
    h = np.array([0.3, bad, 0.3]) if in_array else bad
    message = "bandwidth must be positive and finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            tables.windows(centers, h, Side.LEFT)
        for table in (tables, None):
            with pytest.raises(ValueError, match=message):
                batch_lfr_embeddings(r, emb, centers, h, Side.RIGHT, tables=table)


def test_tables_are_reused_without_change():
    rng = np.random.default_rng(12)
    r = rng.uniform(-1, 1, 2000)
    emb = rng.normal(size=(2000, 3))
    tables = LocalLinearTables(r, emb)
    centers = np.linspace(-0.8, 0.8, 30)
    for h, side in ((0.1, Side.LEFT), (0.5, Side.RIGHT), (0.02, Side.TWO_SIDED)):
        fresh = batch_lfr_embeddings(r, emb, centers, h, side, lo=centers - 0.3, hi=0.7)
        reused = batch_lfr_embeddings(
            r, emb, centers, h, side, lo=centers - 0.3, hi=0.7, tables=tables
        )
        np.testing.assert_array_equal(fresh[0], reused[0])
        np.testing.assert_array_equal(fresh[1], reused[1])


def test_tables_must_match_the_data():
    r = np.linspace(-1, 1, 100)
    emb = np.ones((100, 1))
    with pytest.raises(ValueError, match="tables"):
        batch_lfr_embeddings(r, emb, [0.0], 0.5, Side.LEFT, tables=LocalLinearTables(r[:50], emb[:50]))


def _dense_weights(r_values, center, h, side):
    """compute_weights as it was before the engine, on dense (1, n) window
    arrays (48 us per call at n = 500): the timing yardstick."""
    r = np.asarray(r_values, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("r_values must be a nonempty 1-d array")
    h = float(h)
    if not (np.isfinite(h) and h > 0):
        raise ValueError("bandwidth must be positive and finite")
    center = float(center)
    d = r[None, :] - np.array([center])[:, None]
    if side is Side.LEFT:
        keep = d < 0.0
    elif side is Side.RIGHT:
        keep = d >= 0.0
    else:
        keep = np.ones(d.shape, dtype=bool)
    n_norm = keep.sum(axis=1)
    k = np.where(keep, triangular(d / h), 0.0) / h
    kd = k * d
    mu = np.stack([k.sum(axis=1), kd.sum(axis=1), (kd * d).sum(axis=1)])
    mu /= np.maximum(n_norm, 1)
    sigma2 = mu[0] * mu[2] - mu[1] * mu[1]
    valid = sigma2 > 1e-14
    safe = np.where(valid, sigma2, 1.0)
    weights = k * (mu[2][:, None] - mu[1][:, None] * d) / safe[:, None]
    mu0, mu1, mu2 = (float(v) for v in mu[:, 0])
    if not valid[0]:
        raise DegenerateWindow("degenerate")
    return WeightProfile(
        bandwidth=h, side=side, center=center, mu0=mu0, mu1=mu1, mu2=mu2,
        sigma2=float(sigma2[0]), weights=weights[0], n_norm=int(n_norm[0]),
        slope_weights=k[0] * (mu0 * d[0] - mu1) / float(sigma2[0]),
        support=slice(0, r.size),
    )


def test_compute_weights_stays_cheap():
    # at most 150 us per call at n = 500 on a host where the dense weights
    # took 48 us: timed against that yardstick on the host running the test,
    # as the median ratio over rounds that alternate which runs first, so
    # that a burst of load on a shared host slows both sides of a round
    r = np.sort(np.random.default_rng(13).uniform(-1, 1, 500))

    def per_call(fn, calls=100):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    engine = lambda: per_call(lambda: compute_weights(r, 0.0, 0.4, Side.LEFT))  # noqa: E731
    yardstick = lambda: per_call(lambda: _dense_weights(r, 0.0, 0.4, Side.LEFT))  # noqa: E731
    ratios = []
    gc.collect()
    gc.disable()
    try:
        for i in range(15):
            if i % 2:
                e, y = engine(), yardstick()
            else:
                y, e = yardstick(), engine()
            ratios.append(e / y)
    finally:
        gc.enable()
    ratio = float(np.median(ratios))
    assert ratio <= 150 / 48, f"compute_weights takes {ratio:.2f} x the yardstick"


@pytest.mark.parametrize("sort", [True, False], ids=["sorted", "unsorted"])
def test_compute_weights_memory_is_the_window(sort):
    # a window of about 1,000 of 10**6 points: with the sample's tables the
    # profile holds the window only (n-long weight vectors peaked at 30 MB)
    r = np.random.default_rng(20).uniform(-1, 1, 1_000_000)
    if sort:
        r.sort()
    tables = LocalLinearTables(r)
    gc.collect()
    tracemalloc.start()
    try:
        profile = compute_weights(r, 0.1, 0.001, Side.TWO_SIDED, tables=tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 500 < len(profile.weights) < 2_000
    assert peak < 2**20


def test_large_n_search_memory():
    # the dense windows peaked at 384 MB here
    n = 100_000
    rng = np.random.default_rng(14)
    r = rng.uniform(-1, 1, n)
    y = np.sin(2 * r) + (r >= 0) + rng.normal(0, 0.3, n)
    sample = RddSample(r, Euclidean(1).stack(y[:, None]), 0.0)
    tracemalloc.start()
    try:
        search = select_bandwidth(sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(search.b_star)
    assert peak < 64 * 2**20


def test_large_n_network_search_memory():
    # the search fits all its candidates together, in engine passes that
    # each stay under a fixed cell budget; in one pass it peaked at 48 MB
    sample, _ = NetworkDgp(n=20_000, seed=21).sample()
    sample.lfr_tables
    gc.collect()
    tracemalloc.start()
    try:
        search = select_bandwidth(sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(search.b_star)
    assert peak < 32 * 2**20


def test_windows_memory_is_bounded():
    # one call at 5,000 centers runs in passes under the cell budget; in one
    # pass it peaked at 192 MB
    r = np.random.default_rng(22).uniform(-1, 1, 20_000)
    tables = LocalLinearTables(r)
    centers = np.linspace(-0.9, 0.9, 5_000)
    gc.collect()
    tracemalloc.start()
    try:
        win = tables.windows(centers, 0.1, Side.TWO_SIDED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert win.valid.all()
    assert peak < 24 * 2**20


@pytest.mark.parametrize("side", SIDES, ids=side_id)
def test_windows_in_several_runs_equal_their_runs(side, monkeypatch):
    rng = np.random.default_rng(23)
    r = rng.uniform(-1, 1, 3_000)
    tables = LocalLinearTables(r, rng.normal(size=(3_000, 2)))
    m = 2_000
    centers = rng.uniform(-1, 1, m)
    h = rng.uniform(0.02, 0.4, m)
    lo = centers - rng.uniform(0, 0.5, m)
    # pieces of 300 centers, which cut across the runs of the joint call
    run = _CELL_BUDGET // tables._cells_per_center(side)
    assert run < m
    pieces = [
        tables.windows(centers[i : i + 300], h[i : i + 300], side, lo[i : i + 300], 0.75)
        for i in range(0, m, 300)
    ]
    runs = []
    engine = LocalLinearTables._run

    def spy(self, c, *args):
        runs.append(c.size)
        return engine(self, c, *args)

    monkeypatch.setattr(LocalLinearTables, "_run", spy)
    joint = tables.windows(centers, h, side, lo, 0.75)
    assert runs == [min(run, m - i) for i in range(0, m, run)]
    # every field but the fits has its centers on the last axis
    for name, alone in zip(joint._fields[:-1], zip(*(p[:-1] for p in pieces))):
        np.testing.assert_array_equal(getattr(joint, name), np.concatenate(alone, axis=-1))
    # a fit depends on the other centers of its pass only to rounding
    alone = np.concatenate([p.fits for p in pieces])
    np.testing.assert_allclose(joint.fits, alone, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("exponent", [-500, 500])
def test_power_of_two_scales_are_exact(exponent):
    # the engine works in units of a power of two near the span of r, so at
    # r * 2**k every length scales exactly and the weights keep their bits;
    # without those units the power sums underflow or overflow here
    a = 2.0**exponent
    rng = np.random.default_rng(24)
    r = rng.uniform(-1, 1, 700)
    emb = rng.normal(size=(700, 3))
    base, scaled = LocalLinearTables(r, emb), LocalLinearTables(a * r, emb)
    for side in SIDES:
        for center, h, window in [(0.0, 0.3, None), (0.35, 0.2, (0.1, 0.5))]:
            p = compute_weights(r, center, h, side, window, tables=base)
            q = compute_weights(
                a * r, a * center, a * h, side,
                None if window is None else (a * window[0], a * window[1]), tables=scaled,
            )
            assert (q.center, q.bandwidth) == (a * p.center, a * p.bandwidth)
            assert (q.mu0, q.mu1, q.mu2, q.sigma2) == (p.mu0 / a, p.mu1, p.mu2 * a, p.sigma2)
            assert q.n_norm == p.n_norm
            np.testing.assert_array_equal(q.support, p.support)
            np.testing.assert_array_equal(q.weights.view(np.int64), p.weights.view(np.int64))
            np.testing.assert_array_equal(q.slope_weights, p.slope_weights / a)
        centers = np.linspace(-0.95, 0.95, 41)
        h = np.linspace(0.02, 0.6, 41)
        fits, valid = batch_lfr_embeddings(r, emb, centers, h, side, lo=centers - 0.3, tables=base)
        moved = batch_lfr_embeddings(
            a * r, emb, a * centers, a * h, side, lo=a * (centers - 0.3), tables=scaled
        )
        assert valid.any()
        np.testing.assert_array_equal(moved[1], valid)
        np.testing.assert_array_equal(moved[0].view(np.int64), fits.view(np.int64))


def test_large_n_ingest_memory(tmp_path):
    # the csv-module reader, with its list of 2 million strings, peaked at
    # 208 MB here
    sample, _ = NetworkDgp(n=20_000, seed=21).sample()
    path = tmp_path / "graphs.csv"
    write_sample_csv(sample, path)
    del sample
    gc.collect()
    tracemalloc.start()
    try:
        back = ingest(path, "laplacian", 0.0, max_weight=3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.n == 20_000
    assert peak < 150 * 2**20


class TestSharedWeightTables:
    @pytest.mark.parametrize("side", SIDES)
    def test_weights_with_tables_are_bit_identical(self, side):
        r = np.random.default_rng(15).uniform(-1, 1, 300)  # unsorted
        tables = LocalLinearTables(r)
        for center, h, window in [(0.0, 0.3, None), (0.2, 0.5, (-0.1, 0.6))]:
            fresh = compute_weights(r, center, h, side, window)
            shared = compute_weights(r, center, h, side, window, tables=tables)
            for name in ("mu0", "mu1", "mu2", "sigma2", "n_norm"):
                assert getattr(fresh, name) == getattr(shared, name)
            for name in ("weights", "slope_weights"):
                np.testing.assert_array_equal(
                    getattr(fresh, name).view(np.int64), getattr(shared, name).view(np.int64)
                )

    def test_tables_of_another_variable_are_refused(self):
        r = np.linspace(-1, 1, 50)
        with pytest.raises(ValueError, match="r_values"):
            compute_weights(r, 0.0, 0.5, tables=LocalLinearTables(r[:40]))

    def test_estimators_build_the_sample_tables_once(self, monkeypatch):
        rng = np.random.default_rng(16)
        n = 300
        r = rng.uniform(-1, 1, n)
        z = (r >= 0).astype(int)
        t = np.where(z == 1, (rng.random(n) < 0.9).astype(int), 0)
        space = CompositionalSphere(3)
        ys = tuple(rand_sphere(space, rng) for _ in range(n))
        sample = RddSample(r=r, ys=ys, cutoff=0.0, t=t, z=z)
        built = []
        init = LocalLinearTables.__init__

        def spy(self, r, psi=None):
            built.append(np.size(r))
            init(self, r, psi)

        monkeypatch.setattr(LocalLinearTables, "__init__", spy)
        estimate_sharp(sample, 0.5, 0.5)
        estimate_geodesic_riemannian_fuzzy(
            sample, None, NoncomplianceSide.NEVER_TAKERS, 0.5, 0.5
        )
        assert sample.weight_tables.psi is None
        # the sample's tables once, plus one set for the never-taker stratum
        assert built == [n, int(((t == 0) & (z == 1)).sum())]
