"""Unit tests for the metric spaces: worked examples and error paths."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import logm

import geordd
from geordd import (
    CompositionalSphere,
    Euclidean,
    FunctionalL2,
    GeodesicEffect,
    NetworkDgp,
    NetworkLaplacian,
    SpdSpace,
    Wasserstein1D,
    quotient_distance,
)
from geordd.errors import (
    AntipodalPoints,
    EmbeddingUnavailable,
    GeorddError,
    InvariantViolation,
    InverseInfeasible,
    LogExpUnavailable,
    NonFinitePayload,
    ShapeMismatch,
    SpaceMismatch,
)
from geordd.frechet import Side, batch_lfr_embeddings
from geordd.io import object_from_json
from geordd.spaces import HilbertSpace
from geordd.spaces.network import laplacian_from_weights

from conftest import EMBEDDABLE_CASES, SPACE_CASES, rand_laplacian, rand_sphere, wls_line_oracle


class TestDistance:
    def test_sphere_identity(self):
        sp = CompositionalSphere(3)
        z = sp.point([1.0, 0.0, 0.0])
        assert sp.distance(z, z) == 0.0

    def test_sphere_orthogonal(self):
        sp = CompositionalSphere(3)
        z1 = sp.point([1.0, 0.0, 0.0])
        z2 = sp.point([0.0, 1.0, 0.0])
        assert sp.distance(z1, z2) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_spd_log_euclidean_oracle(self):
        # direct matrix-logarithm oracle for d(I, e*I) on 2x2 matrices
        spd = SpdSpace(2, "log_euclidean")
        a, b = np.eye(2), np.e * np.eye(2)
        expected = np.linalg.norm(logm(a) - logm(b), "fro")
        assert expected == pytest.approx(np.sqrt(2), abs=1e-12)
        d = spd.distance(spd.point(a), spd.point(b))
        assert d == pytest.approx(expected, abs=1e-10)

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            Euclidean(2).distance(Euclidean(2).point([0, 0]), Euclidean(3).point([0, 0, 0]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            Euclidean(2).point([1.0, 2.0, 3.0])

    def test_non_finite(self):
        with pytest.raises(NonFinitePayload):
            Euclidean(2).point([np.nan, 0.0])


class TestGeodesic:
    def test_endpoints(self, space_case):
        name, space, sampler = space_case
        rng = np.random.default_rng(0)
        a, b = sampler(space, rng), sampler(space, rng)
        assert space.distance(space.geodesic(a, b, 0.0), a) < 1e-8
        assert space.distance(space.geodesic(a, b, 1.0), b) < 1e-8

    def test_euclidean_midpoint(self):
        eu = Euclidean(1)
        mid = eu.geodesic(eu.point([0.0]), eu.point([2.0]), 0.5)
        assert mid.data[0] == pytest.approx(1.0, abs=1e-15)

    def test_mccann_interpolant(self):
        # the interpolant pushes mu_a forward through x + t(T(x) - x) with
        # T = Q_b o F_a; in quantile coordinates that is Q_a + t (Q_b - Q_a)
        w = Wasserstein1D(2)
        qa, qb = w.point([0.0, 1.0]), w.point([2.0, 3.0])
        mid = w.geodesic(qa, qb, 0.5)
        np.testing.assert_allclose(mid.data, [1.0, 2.0], atol=1e-12)
        # pushforward oracle on a finer grid
        w2 = Wasserstein1D(51)
        grid = np.linspace(0, 1, 51)
        q_a = grid * 2.0 - 1.0
        q_b = np.sqrt(grid) * 3.0
        t = 0.37
        oracle = q_a + t * (q_b - q_a)  # T(Q_a(u)) with T linear in quantiles
        fit = w2.geodesic(w2.point(q_a), w2.point(q_b), t)
        np.testing.assert_allclose(fit.data, oracle, atol=1e-10)

    def test_sphere_antipodal_rejected(self):
        # antipodal pairs cannot both sit in the positive orthant, so smuggle
        # one past validation to exercise the rejection
        sp = CompositionalSphere(3)
        z1 = sp.point([1.0, 0.0, 0.0])
        z2 = _antipode(sp, z1)
        with pytest.raises(AntipodalPoints):
            sp.geodesic(z1, z2, 0.5)
        with pytest.raises(AntipodalPoints):
            sp.log_map(z1, z2)


def _antipode(space, z):
    from geordd import MetricObject

    return MetricObject(space, -z.data.copy())


class TestTransport:
    def test_defining_property_random(self, space_case):
        name, space, sampler = space_case
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b, w = (sampler(space, rng) for _ in range(3))
            assert space.distance(space.transport(a, b, a), b) < 1e-8

    def test_flat_formula(self):
        eu = Euclidean(1)
        out = eu.transport(eu.point([1.0]), eu.point([3.0]), eu.point([0.0]))
        assert out.data[0] == pytest.approx(2.0, abs=1e-15)

    def test_sphere_zero_geodesic(self):
        sp = CompositionalSphere(3)
        rng = np.random.default_rng(2)
        a = sp.point(np.array([0.6, 0.64, np.sqrt(1 - 0.6**2 - 0.64**2)]))
        w = sp.point(np.array([0.2, 0.5, np.sqrt(1 - 0.04 - 0.25)]))
        assert sp.distance(sp.transport(a, a, w), w) < 1e-12


class TestQuotientDistance:
    def _effect(self, space, a, b, omega):
        return GeodesicEffect(a, b, omega)

    def test_identical_effects(self, space_case):
        name, space, sampler = space_case
        rng = np.random.default_rng(3)
        a, b, omega = (sampler(space, rng) for _ in range(3))
        e = self._effect(space, a, b, omega)
        assert quotient_distance(e, e) < 1e-12

    def test_equal_displacement(self):
        eu = Euclidean(1)
        omega = eu.point([7.0])
        e1 = GeodesicEffect(eu.point([0.0]), eu.point([1.0]), omega)
        e2 = GeodesicEffect(eu.point([5.0]), eu.point([6.0]), omega)
        assert quotient_distance(e1, e2) == pytest.approx(0.0, abs=1e-12)

    def test_displacement_difference(self):
        eu = Euclidean(1)
        omega = eu.point([-2.0])
        e1 = GeodesicEffect(eu.point([0.0]), eu.point([1.0]), omega)
        e2 = GeodesicEffect(eu.point([0.0]), eu.point([3.0]), omega)
        assert quotient_distance(e1, e2) == pytest.approx(2.0, abs=1e-12)

    def test_network_shift_equivalence(self):
        from geordd.spaces.network import laplacian_from_weights

        space = NetworkLaplacian(4)
        rng = np.random.default_rng(4)
        w1 = np.triu(rng.uniform(0.2, 1.0, (4, 4)), 1)
        w2 = np.triu(rng.uniform(0.2, 1.0, (4, 4)), 1)
        shift = np.triu(rng.uniform(0.0, 0.3, (4, 4)), 1)
        l1 = space.point(laplacian_from_weights(w1 + w1.T))
        l2 = space.point(laplacian_from_weights(w2 + w2.T))
        l1s = space.point(laplacian_from_weights((w1 + shift) + (w1 + shift).T))
        l2s = space.point(laplacian_from_weights((w2 + shift) + (w2 + shift).T))
        omega = space.point(laplacian_from_weights(shift + shift.T))
        e1 = GeodesicEffect(l1, l2, omega)
        e2 = GeodesicEffect(l1s, l2s, omega)
        assert quotient_distance(e1, e2) < 1e-10


class TestEmbedding:
    def test_euclidean_identity(self):
        eu = Euclidean(3)
        p = eu.point([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(eu.embed(p), [1.0, 2.0, 3.0])

    def test_spd_log_euclidean_diagonal(self):
        spd = SpdSpace(2, "log_euclidean")
        p = spd.point(np.diag([np.e, np.e**2]))
        emb = spd.embed(p).reshape(2, 2)
        np.testing.assert_allclose(emb, np.diag([1.0, 2.0]), atol=1e-12)

    def test_wasserstein_identity(self):
        w = Wasserstein1D(5)
        q = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_array_equal(w.embed(w.point(q)), q)

    def test_sphere_unavailable(self):
        sp = CompositionalSphere(3)
        with pytest.raises(EmbeddingUnavailable):
            sp.embed(sp.point([1.0, 0.0, 0.0]))

    def test_inverse_infeasible_signals_projection(self):
        w = Wasserstein1D(4)
        with pytest.raises(InverseInfeasible):
            w.inverse_embed(np.array([1.0, 0.0, 2.0, 3.0]))
        out = w.inverse_embed(np.array([1.0, 0.0, 2.0, 3.0]), project=True)
        assert np.all(np.diff(out.data) >= 0)

        spd = SpdSpace(2, "frobenius")
        bad = np.array([[1.0, 0.0], [0.0, -1.0]]).ravel()
        with pytest.raises(InverseInfeasible):
            spd.inverse_embed(bad)
        fixed = spd.inverse_embed(bad, project=True)
        assert np.linalg.eigvalsh(fixed.data).min() >= spd.eps_pd - 1e-15

    def test_roundtrip_random(self, space_case):
        name, space, sampler = space_case
        if not isinstance(space, HilbertSpace):
            pytest.skip("no embedding")
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = sampler(space, rng)
            back = space.inverse_embed(space.embed(p))
            assert space.distance(p, back) < 1e-8


#: embeddable spaces whose image set is a proper subset of the Hilbert space
BOUNDED_IMAGE_CASES = [
    c for c in EMBEDDABLE_CASES if not isinstance(c[1], (Euclidean, FunctionalL2))
]


class TestEmbeddingContract:
    @pytest.mark.parametrize("case", EMBEDDABLE_CASES, ids=[c[0] for c in EMBEDDABLE_CASES])
    def test_embed_many_rows_are_embeddings(self, case):
        name, space, sampler = case
        rng = np.random.default_rng(9)
        pts = [sampler(space, rng) for _ in range(6)]
        many = space.embed_many(pts)
        assert many.shape == (6, space.embedding_dim)
        np.testing.assert_array_equal(many, np.stack([space.embed(p) for p in pts]))
        assert space.embed_many([]).shape == (0, space.embedding_dim)

    @pytest.mark.parametrize("case", EMBEDDABLE_CASES, ids=[c[0] for c in EMBEDDABLE_CASES])
    def test_inverse_of_embedding_roundtrips(self, case):
        name, space, sampler = case
        rng = np.random.default_rng(10)
        for _ in range(6):
            p = sampler(space, rng)
            v = space.embed(p)
            back = space.inverse_embed(v)
            np.testing.assert_allclose(back.data, p.data, rtol=0, atol=1e-12)
            # noise far under the feasibility tolerance is not refused
            near = v + 1e-11 * rng.normal(size=v.size)
            assert space.distance(space.inverse_embed(near), p) < 1e-9

    @pytest.mark.parametrize(
        "case", BOUNDED_IMAGE_CASES, ids=[c[0] for c in BOUNDED_IMAGE_CASES]
    )
    def test_infeasible_vector_needs_projection(self, case):
        name, space, sampler = case
        rng = np.random.default_rng(11)
        for _ in range(6):
            v = space.embed(sampler(space, rng)) + rng.normal(size=space.embedding_dim)
            proj = space.project_embedding(v)
            assert np.abs(proj - v).max() > 1e-3
            with pytest.raises(InverseInfeasible):
                space.inverse_embed(v)
            projected = space.inverse_embed(v, project=True)
            np.testing.assert_allclose(
                projected.data, space.inverse_embed(proj).data, rtol=0, atol=1e-12
            )


def _bad_payload(name, data, kind):
    """A copy of ``data`` that ``point`` refuses: by the space's first
    invariant check, by a later one, or (kind "nan", and in the spaces without
    invariants) as non-finite."""
    bad = data.copy()
    if kind == "nan" or name in ("euclidean", "functional_l2"):
        bad.flat[0] = np.nan
        return bad
    first = kind == "first"
    if name == "sphere":  # off the sphere, or on it with a negative coordinate
        return 2.0 * bad if first else np.concatenate([-bad[:1], bad[1:]])
    if name == "laplacian":  # asymmetric, or an edge weight above the cap of 5
        w = np.zeros(bad.shape)
        w[0, 1] = w[1, 0] = 10.0
        return bad + np.triu(np.ones(bad.shape), 1) if first else bad + laplacian_from_weights(w)
    if name.startswith("spd"):  # asymmetric, or negative eigenvalues
        return bad + np.triu(np.ones(bad.shape), 1) if first else -bad
    return bad[::-1].copy() if first else bad + 100.0  # decreasing, or off the support


def _refusal(fn, *args):
    with pytest.raises(GeorddError) as info:
        fn(*args)
    return info.value


class TestStackContract:
    @pytest.mark.parametrize("case", SPACE_CASES, ids=[c[0] for c in SPACE_CASES])
    def test_points_equal_pointwise(self, case):
        name, space, sampler = case
        rng = np.random.default_rng(21)
        stack = np.stack([sampler(space, rng).data for _ in range(7)])
        # perturb within tolerance so that canonicalization has work to do
        stack = stack * (1.0 + 1e-12 * rng.normal(size=stack.shape))
        for rows in (stack, stack[::2]):  # contiguous and strided
            pts = space.stack(rows)
            assert len(pts) == len(rows)
            for i in range(len(rows)):
                p, q = pts[i], space.point(rows[i])
                assert p.space == space
                assert p.data.shape == q.data.shape == space.shape
                assert p.data.tobytes() == q.data.tobytes()
        assert tuple(space.stack(np.empty((0,) + space.shape))) == ()

    @pytest.mark.parametrize("case", SPACE_CASES, ids=[c[0] for c in SPACE_CASES])
    @pytest.mark.parametrize(
        "kinds", [("first", "first"), ("late", "first"), ("late", "nan"), ("nan", "first")]
    )
    def test_first_bad_row_is_refused_like_point(self, case, kinds):
        name, space, sampler = case
        rng = np.random.default_rng(22)
        stack = np.stack([sampler(space, rng).data for _ in range(6)])
        bad = stack.copy()
        for i, kind in zip((2, 4), kinds):
            bad[i] = _bad_payload(name, stack[i], kind)
            with pytest.raises(GeorddError):
                space.point(bad[i])
        want = _refusal(space.point, bad[2])
        got = _refusal(space.stack, bad)
        assert (got.code, str(got), got.index) == (want.code, str(want), 2)

    @pytest.mark.parametrize("case", SPACE_CASES, ids=[c[0] for c in SPACE_CASES])
    def test_wrong_shape_stack_is_refused(self, case):
        name, space, sampler = case
        with pytest.raises(ShapeMismatch):
            space.stack(np.zeros((3,) + space.shape + (1,)))

    @pytest.mark.parametrize("case", SPACE_CASES, ids=[c[0] for c in SPACE_CASES])
    def test_projecting_a_stack_projects_each_row(self, case):
        name, space, sampler = case
        rng = np.random.default_rng(23)
        if not isinstance(space, HilbertSpace):
            with pytest.raises(EmbeddingUnavailable):
                space.project_embedding(np.zeros((2, space.shape[0])))
            return
        pts = [sampler(space, rng) for _ in range(8)]
        # half feasible, half pushed off the image set
        stack = space.embed_many(pts) + rng.normal(size=(8, space.embedding_dim)) * (
            np.arange(8) % 2
        )[:, None]
        before = stack.copy()
        proj = space.project_embedding(stack)
        assert proj.shape == stack.shape
        np.testing.assert_array_equal(stack, before)  # the input is not modified
        for row, p in zip(stack, proj):
            assert space.project_embedding(row).tobytes() == p.tobytes()
        assert space.project_embedding(stack[:0]).shape == (0, space.embedding_dim)


def _half_vec(stack):
    """The Laplacian chart written out: sqrt(2) L_ij for i < j in
    ``np.triu_indices`` order, then the diagonal, for each matrix of a stack."""
    m = stack.shape[-1]
    iu = np.triu_indices(m, k=1)
    return np.concatenate(
        [np.sqrt(2.0) * stack[:, iu[0], iu[1]], np.diagonal(stack, axis1=1, axis2=2)], axis=1
    )


def _clamp_and_reset(stack, wmax):
    """The flattened-matrix feasibility rule the chart must reproduce:
    symmetrise, clamp the off-diagonal entries into [-wmax, 0] and reset the
    diagonal from the row sums."""
    diag = np.arange(stack.shape[1])
    off = 0.5 * (stack + np.swapaxes(stack, 1, 2))
    off[:, diag, diag] = 0.0
    out = np.clip(off, -np.inf if wmax is None else -wmax, 0.0)
    out[:, diag, diag] = -out.sum(axis=2)
    return out


def _laplacian_stack(space, rng, k):
    return np.stack([rand_laplacian(space, rng).data for _ in range(k)])


class TestLaplacianChart:
    @pytest.mark.parametrize("m", [2, 3, 10])
    def test_embedding_dim_is_half_vectorised(self, m):
        space = NetworkLaplacian(m)
        assert space.embedding_dim == m * (m + 1) // 2
        rng = np.random.default_rng(m)
        assert space.embed_many(space.stack(_laplacian_stack(space, rng, 3))).shape == (
            3, m * (m + 1) // 2
        )

    @pytest.mark.parametrize("wmax", [None, 2.0])
    def test_chart_distances_are_frobenius_distances(self, wmax):
        space = NetworkLaplacian(7, max_weight=wmax)
        rng = np.random.default_rng(31)
        a, b = (space.stack(_laplacian_stack(space, rng, 40)) for _ in range(2))
        ea, eb = space.embed_many(a), space.embed_many(b)
        np.testing.assert_array_equal(ea, _half_vec(a.data))
        frob = np.linalg.norm(a.data - b.data, axis=(1, 2))
        np.testing.assert_allclose(np.linalg.norm(ea - eb, axis=1), frob, rtol=1e-12)
        norms = np.linalg.norm(a.data, axis=(1, 2))
        np.testing.assert_allclose(np.sqrt(space.hilbert_sq_norms(ea)), norms, rtol=1e-12)
        for i in range(0, 40, 7):
            assert space.distance(a[i], b[i]) == pytest.approx(frob[i], rel=1e-12)

    @pytest.mark.parametrize("wmax", [None, 2.0])
    def test_projection_is_the_clamp_and_reset_rule(self, wmax):
        space = NetworkLaplacian(6, max_weight=wmax)
        rng = np.random.default_rng(32)
        noise = rng.normal(scale=1.5, size=(60, 6, 6))
        stack = _laplacian_stack(space, rng, 60) + noise + np.swapaxes(noise, 1, 2)
        z = _half_vec(stack)
        proj = space.project_embedding(z)
        want = _half_vec(_clamp_and_reset(stack, wmax))
        np.testing.assert_allclose(proj, want, rtol=1e-14, atol=1e-14)
        # the rule had work to do on both bounds
        edges = z[:, :15]  # the 6 * 5 / 2 edge coordinates
        lo = -np.inf if wmax is None else -np.sqrt(2) * wmax
        assert (edges > 0).any() and (wmax is None or (edges < lo).any())
        # edge coordinates already in range come back bit for bit
        inside = (edges <= 0) & (edges >= lo)
        np.testing.assert_array_equal(proj[:, :15][inside], edges[inside])
        np.testing.assert_array_equal(space.project_embedding(proj), proj)
        # every projected row is the chart of an admissible Laplacian
        back = space.stack(np.stack([space._inverse(row) for row in proj]))
        np.testing.assert_allclose(space.embed_many(back), proj, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    def test_batched_fit_maps_back_to_the_wls_fit(self, side):
        sample, _ = NetworkDgp(n=300, seed=33).sample()
        space, r, n = sample.space, sample.r, sample.n
        centers = np.array([-0.6, -0.3, 0.0, 0.2, 0.5])
        h = 0.45
        fits, valid = batch_lfr_embeddings(
            r, sample.embeddings, centers, h, side, tables=sample.lfr_tables
        )
        assert valid.sum() >= 3
        y = sample.ys.data.reshape(n, -1)
        for c, fit, ok in zip(centers, fits, valid):
            if not ok:
                continue
            keep = r < c if side is Side.LEFT else r >= c
            oracle = wls_line_oracle(r, y, c, h, keep)[0].reshape(space.shape)
            np.testing.assert_allclose(space._inverse(fit), oracle, rtol=1e-10, atol=1e-10)

    def test_network_sample_is_fitted_in_55_columns(self):
        sample, _ = NetworkDgp(n=100, seed=34).sample()
        assert sample.space.n_nodes == 10
        assert sample.embeddings.shape == (100, 55)
        assert sample.lfr_tables.psi.shape[1] == 55


def _sphere_pairs(dim, rng):
    """Pairs of orthant points whose distances span 1e-12 to pi/2."""
    sp = CompositionalSphere(dim)
    pairs = []
    for delta in np.geomspace(1e-12, np.pi / 2, 25):
        # a and e have disjoint supports, so cos(delta) a + sin(delta) e stays
        # in the orthant up to a quarter turn
        head = np.arange(dim) < rng.integers(1, dim)
        x = rng.uniform(0.1, 1.0, dim)
        a = np.where(head, x, 0.0) / np.linalg.norm(x[head])
        e = np.where(head, 0.0, x) / np.linalg.norm(x[~head])
        pairs.append((sp.point(a), sp.point(np.cos(delta) * a + np.sin(delta) * e)))
        # interior points, the second on the chord towards a third point
        p, q = rand_sphere(sp, rng), rand_sphere(sp, rng)
        b = p.data + min(delta, 1.0) * (q.data - p.data)
        pairs.append((p, sp.point(b / np.linalg.norm(b))))
    return sp, pairs


class TestLogExp:
    def test_zero_vector(self):
        sp = CompositionalSphere(3)
        z = sp.point(np.array([0.5, 0.5, np.sqrt(0.5)]))
        np.testing.assert_allclose(sp.log_map(z, z), 0.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [3, 5, 10])
    def test_sphere_log_norm_is_distance(self, dim):
        sp, pairs = _sphere_pairs(dim, np.random.default_rng(dim))
        dists = np.array([sp.distance(a, b) for a, b in pairs])
        assert dists.min() < 1e-11 and dists.max() == pytest.approx(np.pi / 2, abs=1e-12)
        for (a, b), d in zip(pairs, dists):
            assert abs(np.linalg.norm(sp.log_map(a, b)) - d) <= 1e-12 * d

    @pytest.mark.parametrize("dim", [3, 5, 10])
    def test_sphere_exp_inverts_log(self, dim):
        sp, pairs = _sphere_pairs(dim, np.random.default_rng(dim))
        for a, b in pairs:
            np.testing.assert_allclose(sp.exp_map(a, sp.log_map(a, b)).data, b.data,
                                       rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("dim", [3, 5, 10])
    def test_sphere_log_of_self_is_exactly_zero(self, dim):
        sp = CompositionalSphere(dim)
        rng = np.random.default_rng(dim)
        for _ in range(200):
            a = rand_sphere(sp, rng)
            again = sp.point(a.data)
            assert not np.any(sp.log_map(again, again))
            assert not np.any(sp.log_map(a, again))

    def test_sphere_quarter_turn(self):
        sp = CompositionalSphere(3)
        omega = sp.point([1.0, 0.0, 0.0])
        a = sp.point([0.0, 1.0, 0.0])
        v = sp.log_map(omega, a)
        assert np.linalg.norm(v) == pytest.approx(np.pi / 2, abs=1e-12)
        np.testing.assert_allclose(v / np.linalg.norm(v), [0.0, 1.0, 0.0], atol=1e-12)

    def test_euclidean_shift(self):
        eu = Euclidean(2)
        omega, a = eu.point([1.0, 1.0]), eu.point([2.0, -1.0])
        v = eu.log_map(omega, a)
        np.testing.assert_array_equal(v, [1.0, -2.0])
        back = eu.exp_map(omega, v)
        assert eu.distance(back, a) == 0.0

    def test_unavailable(self):
        spd = SpdSpace(2, "log_euclidean")
        p = spd.point(np.eye(2))
        with pytest.raises(LogExpUnavailable):
            spd.log_map(p, p)
        w = Wasserstein1D(3)
        q = w.point([0.0, 1.0, 2.0])
        with pytest.raises(LogExpUnavailable):
            w.exp_map(q, np.zeros(3))


class TestValidation:
    def test_off_sphere(self):
        with pytest.raises(InvariantViolation):
            CompositionalSphere(3).point([1.0, 1.0, 0.0])

    def test_negative_sphere_coordinate(self):
        with pytest.raises(InvariantViolation):
            CompositionalSphere(2).point([np.sqrt(0.5), -np.sqrt(0.5)])

    def test_laplacian_asymmetric(self):
        with pytest.raises(InvariantViolation):
            NetworkLaplacian(2).point([[1.0, -1.0], [0.0, 1.0]])

    def test_laplacian_row_sums(self):
        with pytest.raises(InvariantViolation):
            NetworkLaplacian(2).point([[1.0, -0.5], [-0.5, 1.0]])

    def test_laplacian_weight_cap(self):
        space = NetworkLaplacian(2, max_weight=1.0)
        with pytest.raises(InvariantViolation):
            space.point([[2.0, -2.0], [-2.0, 2.0]])

    def test_spd_not_positive(self):
        with pytest.raises(InvariantViolation):
            SpdSpace(2).point([[1.0, 0.0], [0.0, 0.0]])

    def test_quantile_not_monotone(self):
        with pytest.raises(InvariantViolation):
            Wasserstein1D(3).point([0.0, 1.0, 0.5])

    def test_quantile_support(self):
        with pytest.raises(InvariantViolation):
            Wasserstein1D(3, support=(0.0, 1.0)).point([0.0, 0.5, 2.0])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: NetworkLaplacian(3, max_weight=float("nan")),
            lambda: SpdSpace(2, "power", power=float("nan")),
            lambda: SpdSpace(2, "power", power=float("inf")),
            lambda: FunctionalL2(24, (0.0, float("inf"))),
            lambda: FunctionalL2(24, (float("-inf"), 0.0)),
            lambda: FunctionalL2(24, (0.0, float("nan"))),
        ],
        ids=["wmax-nan", "power-nan", "power-inf", "domain-inf", "domain-neg-inf",
             "domain-nan"],
    )
    def test_non_finite_parameters_are_refused(self, make):
        with pytest.raises(ValueError):
            make()


class TestSerialization:
    def test_json_roundtrip(self, space_case):
        name, space, sampler = space_case
        rng = np.random.default_rng(6)
        p = sampler(space, rng)
        d = p.to_json()
        assert d["space"] == space.tag
        back = object_from_json(d, space)
        assert space.distance(p, back) < 1e-12

    def test_equality_is_identity_first_then_key(self, space_case, monkeypatch):
        name, space, _ = space_case
        twin = copy.deepcopy(space)
        assert space == twin and hash(space) == hash(twin)
        monkeypatch.setattr(type(space), "_key", lambda self: pytest.fail("key built"))
        assert space == space

    def test_descriptor_capabilities(self):
        assert isinstance(Euclidean(2), HilbertSpace)
        assert Euclidean(2).logexp_available
        assert not isinstance(CompositionalSphere(3), HilbertSpace)
        assert CompositionalSphere(3).logexp_available
        assert isinstance(SpdSpace(2, "log_cholesky"), HilbertSpace)
        assert not SpdSpace(2, "log_cholesky").logexp_available
        assert isinstance(FunctionalL2(24), HilbertSpace)
        assert not FunctionalL2(24).logexp_available

    def test_effect_length_is_endpoint_distance(self):
        rng = np.random.default_rng(8)
        for name, space, sampler in SPACE_CASES:
            start, end, omega = (sampler(space, rng) for _ in range(3))
            effect = GeodesicEffect(start, end, omega)
            assert effect.length == space.distance(start, end), name
            assert effect.to_json()["length"] == effect.length


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is slow to import and only the Wasserstein projection
    # needs it, so it is imported there
    env = {**os.environ, "PYTHONPATH": str(Path(geordd.__file__).parents[1])}
    code = "import sys, geordd; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
