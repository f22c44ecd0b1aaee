"""Unit tests for the metric spaces: worked examples and error paths."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm, fractional_matrix_power, logm

import geordd
from geordd import (
    CompositionalSphere,
    Euclidean,
    FunctionalL2,
    GeodesicEffect,
    NetworkDgp,
    NetworkLaplacian,
    PointStack,
    SpdSpace,
    Wasserstein1D,
    quotient_distance,
)
from geordd.errors import (
    AntipodalPoints,
    EmbeddingUnavailable,
    EmptyInput,
    ExpOutOfDomain,
    GeorddError,
    InvariantViolation,
    InverseInfeasible,
    LogExpUnavailable,
    NonFinitePayload,
    NotAPoint,
    ShapeMismatch,
    SpaceMismatch,
    TransportOutOfSpace,
)
from geordd.frechet import Side, batch_lfr_embeddings
from geordd.io import object_from_json
from geordd.spaces import SPD_VARIANTS, HilbertSpace, Space
from geordd.spaces import base as spaces_base
from geordd.spaces.base import refuse_rows
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

    @pytest.mark.parametrize("dim", [3, 5, 10])
    def test_sphere_matches_slerp(self, dim):
        sp, pairs = _sphere_pairs(dim, np.random.default_rng(dim))
        rng = np.random.default_rng(100 + dim)
        pairs += [(rand_sphere(sp, rng), rand_sphere(sp, rng)) for _ in range(50)]
        for a, b in pairs:
            theta = 2.0 * np.arcsin(np.linalg.norm(b.data - a.data) / 2.0)
            for t in (0.0, 0.25, rng.uniform(), 0.5, 1.0):
                got = sp.geodesic(a, b, t).data
                if theta < 1e-14:
                    want = a.data
                else:
                    want = (np.sin((1 - t) * theta) * a.data
                            + np.sin(t * theta) * b.data) / np.sin(theta)
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)

    def test_sphere_extrapolation_is_refused_off_the_orthant(self):
        sp = CompositionalSphere(3)
        a = CompositionalSphere.from_shares([0.4, 0.35, 0.25])
        b = CompositionalSphere.from_shares([0.2, 0.3, 0.5])
        assert np.all(sp.geodesic(a, b, 2.0).data > 0.0)  # inside the orthant
        for t in (-3.0, 3.0):
            err = _refusal(sp.geodesic, a, b, t)
            assert err.code == "invariant_violation"
            assert isinstance(err, InvariantViolation)


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

    @staticmethod
    def _sphere_transport_oracle(a, b, w):
        """Log at a, the rotation that carries the geodesic a -> w, and Exp
        at w, each written out by hand; None where Exp leaves the orthant."""
        def log(x, y):
            theta = 2.0 * np.arcsin(np.linalg.norm(y - x) / 2.0)
            u = y - (x @ y) * x
            return np.zeros_like(x) if theta == 0.0 else theta * u / np.linalg.norm(u)

        v, xi = log(a, b), log(a, w)
        phi = np.linalg.norm(xi)
        if phi > 0.0:
            u = xi / phi
            along = v @ u
            v = v - along * u + along * (np.cos(phi) * u - np.sin(phi) * a)
        norm = np.linalg.norm(v)
        z = w if norm == 0.0 else np.cos(norm) * w + np.sin(norm) * v / norm
        return None if z.min() < -1e-9 else z

    @pytest.mark.parametrize("dim", [3, 5, 10])
    def test_sphere_matches_hand_composed_log_rotation_exp(self, dim):
        sp = CompositionalSphere(dim)
        rng = np.random.default_rng(dim)
        moved = 0
        for _ in range(300):
            conc = rng.choice([0.5, 5.0, 50.0])
            a, b, w = (rand_sphere(sp, rng, conc) for _ in range(3))
            want = self._sphere_transport_oracle(a.data, b.data, w.data)
            if want is None:
                with pytest.raises(TransportOutOfSpace):
                    sp.transport(a, b, w)
                continue
            got = sp.transport(a, b, w).data
            np.testing.assert_allclose(got, np.maximum(want, 0.0), rtol=0.0, atol=1e-13)
            moved += 1
        assert 50 < moved < 300  # both outcomes are exercised

    def test_sphere_refusal_codes(self):
        sp = CompositionalSphere(3)
        z = sp.point([1.0, 0.0, 0.0])
        w = CompositionalSphere.from_shares([0.4, 0.35, 0.25])
        for args in ((z, _antipode(sp, z), w), (z, w, _antipode(sp, z))):
            err = _refusal(sp.transport, *args)
            assert err.code == "antipodal_points" and isinstance(err, AntipodalPoints)
        # w sits near the face x3 = 0; the shift from a to b, carried to w,
        # pushes it past that face
        a, b, w = (CompositionalSphere.from_shares(s) for s in
                   ([0.283, 0.00003, 0.71697], [0.174, 0.121, 0.705], [0.3, 0.685, 0.015]))
        err = _refusal(sp.transport, a, b, w)
        assert err.code == "transport_out_of_space" and isinstance(err, TransportOutOfSpace)
        assert str(err).startswith(
            "transported point: exponential image leaves the positive orthant")


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


#: SPD variants whose every chart vector is a point
_WHOLE_CHART = ("log_euclidean", "log_cholesky")


def _below_floor(space, v):
    """The chart vector ``v`` of an SPD space with the smallest eigenvalue of
    its chart matrix moved to -0.5, below every variant's floor, and the
    other eigenvalues kept."""
    lam, vec = np.linalg.eigh(space._symmetric(v[None])[0])
    return v - space._half_vec((lam[0] + 0.5) * np.outer(vec[:, 0], vec[:, 0])[None])[0]


class TestEmbedding:
    def test_euclidean_identity(self):
        eu = Euclidean(3)
        p = eu.point([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(eu.embed(p), [1.0, 2.0, 3.0])

    def test_spd_log_euclidean_diagonal(self):
        spd = SpdSpace(2, "log_euclidean")
        p = spd.point(np.diag([np.e, np.e**2]))
        # the half-vectorised chart: sqrt(2) log(A)_01, then the diagonal of log(A)
        np.testing.assert_allclose(spd.embed(p), [0.0, 1.0, 2.0], atol=1e-12)

    def test_wasserstein_identity(self):
        w = Wasserstein1D(5)
        q = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_array_equal(w.embed(w.point(q)), q)

    def test_sphere_unavailable(self):
        sp = CompositionalSphere(3)
        with pytest.raises(EmbeddingUnavailable):
            sp.embed(sp.point([1.0, 0.0, 0.0]))
        with pytest.raises(EmbeddingUnavailable):
            sp.hilbert_norm(np.ones(3))
        for other in (np.zeros(3), np.zeros(4)):  # whatever the shapes
            with pytest.raises(EmbeddingUnavailable):
                sp.hilbert_distance(np.ones(3), other)

    def test_inverse_gap_is_relative_to_the_vector(self):
        # at outcome scale 1e-6 the projection moves this vector by 5e-15,
        # under an absolute 1e-8 gap but 1.7e-9 of the vector's own scale
        v = 1e-6 * np.array([0.0, 1.0, 2.0, 1.99, 3.0])
        with pytest.raises(InverseInfeasible):
            Wasserstein1D(5).inverse_embed(v)
        out = Wasserstein1D(5).inverse_embed(v, project=True)
        assert np.all(np.diff(out.data) >= 0.0)
        near = 1e-6 * np.array([0.0, 1.0, 2.0, 2.0 - 1e-9, 3.0])  # moved by 5e-16
        out = Wasserstein1D(5).inverse_embed(near)
        assert out.data[2] == out.data[3]

    def test_inverse_infeasible_signals_projection(self):
        w = Wasserstein1D(4)
        with pytest.raises(InverseInfeasible):
            w.inverse_embed(np.array([1.0, 0.0, 2.0, 3.0]))
        out = w.inverse_embed(np.array([1.0, 0.0, 2.0, 3.0]), project=True)
        assert np.all(np.diff(out.data) >= 0)

        spd = SpdSpace(2, "frobenius")
        bad = np.array([0.0, 1.0, -1.0])  # the chart of diag(1, -1)
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


#: embeddable spaces whose image set is a proper subset of the Hilbert space:
#: not the linear spaces, nor the SPD variants whose chart is all of it
BOUNDED_IMAGE_CASES = [
    c for c in EMBEDDABLE_CASES
    if not isinstance(c[1], (Euclidean, FunctionalL2)) and c[1].variant not in _WHOLE_CHART
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
            if isinstance(space, SpdSpace):  # noise stays symmetric: push the spectrum too
                v = _below_floor(space, v)
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
        if space.logexp_available:
            base = sampler(space, np.random.default_rng(23))
            d = space.shape[0]
            for v in (np.zeros(d - 1), np.zeros(d + 1), np.zeros((1, d)), np.zeros(())):
                with pytest.raises(ShapeMismatch):
                    space.exp_map(base, v)
            with pytest.raises(NotAPoint):  # the base is checked first
                space.exp_map(base.data, np.zeros(d + 1))
        if not isinstance(space, HilbertSpace):
            return
        for size in (space.embedding_dim - 1, space.embedding_dim + 1):
            with pytest.raises(ShapeMismatch):
                space.hilbert_norm(np.ones(size))
            with pytest.raises(ShapeMismatch):
                space.hilbert_distance(np.ones(size), np.zeros(size))
            # one right-length vector and one wrong-length vector
            with pytest.raises(ShapeMismatch):
                space.hilbert_distance(np.zeros(space.embedding_dim), np.zeros(size))

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


def _whole_stack(space, payloads):
    """The payloads validated as one block, as ``Space.stack`` did before it
    validated in row blocks: the oracle of the blocked stack, returned as the
    canonical array."""
    arr = np.ascontiguousarray(payloads, dtype=float)
    if not np.isfinite(arr).all():
        finite = np.isfinite(arr).reshape(len(arr), -1).all(axis=1)
        space._validate(arr[: np.argmin(finite)])
        refuse_rows((~finite, "payload contains NaN or infinite entries"),
                    error=NonFinitePayload)
    return space._validate(arr)


def _blocks_of(monkeypatch, space, rows: int) -> None:
    """Make ``space`` validate its stacks ``rows`` rows per block."""
    monkeypatch.setattr(spaces_base, "_BLOCK_ENTRIES", rows * int(np.prod(space.shape)))


class TestStackBlocks:
    """``Space.stack`` validates a block of rows at a time; the blocks are
    made small here so that a short stack spans several."""

    @pytest.mark.parametrize("case", SPACE_CASES, ids=[c[0] for c in SPACE_CASES])
    def test_blocked_stack_equals_rows_and_whole_stack(self, case, monkeypatch):
        name, space, sampler = case
        rng = np.random.default_rng(31)
        stack = np.stack([sampler(space, rng).data for _ in range(11)])
        stack = stack * (1.0 + 1e-12 * rng.normal(size=stack.shape))
        whole = _whole_stack(space, stack)
        _blocks_of(monkeypatch, space, 3)  # blocks of 3, 3, 3 and 2 rows
        wide = np.concatenate([np.zeros_like(stack), stack], axis=1)[:, len(stack[0]):]
        for rows in (stack, wide):  # contiguous, and rows that are not
            pts = space.stack(rows)
            assert pts.data.tobytes() == whole.tobytes()
            for i in range(len(rows)):
                assert pts[i].data.tobytes() == space.point(rows[i]).data.tobytes()

    @pytest.mark.parametrize("case", SPACE_CASES, ids=[c[0] for c in SPACE_CASES])
    @pytest.mark.parametrize(
        "bad",
        [{7: "first"}, {7: "nan"}, {4: "late", 7: "nan"}, {4: "nan", 7: "first"},
         {6: "nan", 7: "first"}, {6: "late", 7: "nan"}, {7: "nan", 8: "first"}],
        ids=["third-block", "third-block-nan", "invariant-then-nan", "nan-then-invariant",
             "nan-first-in-block", "invariant-first-in-block", "nan-then-later-invariant"],
    )
    def test_refusal_is_the_whole_stacks(self, case, bad, monkeypatch):
        # rows 6-8 are the third block: a refusal there carries the row's
        # position in the whole stack, and the first bad row is refused
        # first, an invariant violation before a non-finite row included
        name, space, sampler = case
        rng = np.random.default_rng(32)
        stack = np.stack([sampler(space, rng).data for _ in range(11)])
        for i, kind in bad.items():
            stack[i] = _bad_payload(name, stack[i], kind)
        want = _refusal(_whole_stack, space, stack)
        _blocks_of(monkeypatch, space, 3)
        got = _refusal(space.stack, stack)
        assert (got.code, str(got), got.index) == (want.code, str(want), want.index)
        assert got.index == min(bad)

    @pytest.mark.parametrize("case", SPACE_CASES, ids=[c[0] for c in SPACE_CASES])
    @pytest.mark.parametrize("blocks", [0, 1, 2], ids=["empty", "one-block", "one-block-and-a-row"])
    def test_stack_at_the_real_budget_equals_whole_stack(self, case, blocks):
        # no rows; one full block of at most ``_BLOCK_ENTRIES`` entries
        # (exactly that many for the sphere's 4); and one row more
        name, space, sampler = case
        rng = np.random.default_rng(33)
        entries = int(np.prod(space.shape))
        block = spaces_base.block_rows(entries)
        assert block * entries <= spaces_base._BLOCK_ENTRIES < (block + 1) * entries
        assert name != "sphere" or block * entries == spaces_base._BLOCK_ENTRIES
        rows = [0, block, block + 1][blocks]
        payload = np.resize(np.stack([sampler(space, rng).data for _ in range(7)]),
                            (rows,) + space.shape)
        payload = payload * (1.0 + 1e-12 * rng.normal(size=payload.shape))
        pts = space.stack(payload)
        assert pts.data.shape == payload.shape
        assert pts.data.tobytes() == _whole_stack(space, payload).tobytes()

    def test_stack_at_the_block_budget_equals_rows(self):
        # three full blocks of ten-node Laplacians and part of a fourth
        space = NetworkDgp().space
        rows = 3 * spaces_base.block_rows(100) + 5
        sample, _ = NetworkDgp(n=rows, seed=5).sample()
        noise = np.random.default_rng(5).normal(size=(rows, 10, 10))
        payload = sample.ys.data * (1.0 + 1e-12 * noise)
        pts = space.stack(payload)
        assert pts.data.tobytes() == _whole_stack(space, payload).tobytes()
        assert all(pts[i].data.tobytes() == space.point(payload[i]).data.tobytes()
                   for i in range(rows))
        bad = payload.copy()
        bad[rows - 3, 0, 1] += 1.0
        err = _refusal(space.stack, bad)
        assert (err.code, err.index) == ("invariant_violation", rows - 3)


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

    def test_laplacian_from_weights_is_degree_minus_weight(self):
        rng = np.random.default_rng(34)
        w = rng.uniform(0.0, 2.0, (50, 6, 6)) * (rng.random((50, 6, 6)) < 0.5)
        w[::5, 0, :] = w[::5, :, 0] = 0.0  # isolated nodes: degree +0.0
        w = w + np.swapaxes(w, 1, 2)
        want = np.empty_like(w)
        for k, wk in enumerate(w):
            off = wk - np.diag(np.diag(wk))
            want[k] = np.diag(off.sum(axis=1)) - off
        assert laplacian_from_weights(w).tobytes() == want.tobytes()  # sign of zero too
        assert laplacian_from_weights(w[5]).tobytes() == want[5].tobytes()

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
        back = space.stack(space._inverse(proj))
        np.testing.assert_allclose(space.embed_many(back), proj, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("side", [Side.LEFT, Side.RIGHT])
    def test_batched_fit_maps_back_to_the_wls_fit(self, side):
        sample, _ = NetworkDgp(n=300, seed=33).sample()
        space, r, n = sample.space, sample.r, sample.n
        centers = np.array([-0.6, -0.3, 0.0, 0.2, 0.5])
        h = 0.45
        fits, valid = batch_lfr_embeddings(
            r, sample.ys.embedded, centers, h, side, tables=sample.lfr_tables
        )
        assert valid.sum() >= 3
        y = sample.ys.data.reshape(n, -1)
        for c, fit, ok in zip(centers, fits, valid):
            if not ok:
                continue
            keep = r < c if side is Side.LEFT else r >= c
            oracle = wls_line_oracle(r, y, c, h, keep)[0].reshape(space.shape)
            np.testing.assert_allclose(space._inverse(fit), oracle, rtol=1e-10, atol=1e-10)

    def test_embeddings_are_c_ordered(self):
        # the engine's block products read contiguous outcome rows
        sample, _ = NetworkDgp(n=100, seed=35).sample()
        assert sample.ys.embedded.flags.c_contiguous
        assert sample.lfr_tables.psi.flags.c_contiguous

    def test_network_sample_is_fitted_in_55_columns(self):
        sample, _ = NetworkDgp(n=100, seed=34).sample()
        assert sample.space.n_nodes == 10
        assert sample.ys.embedded.shape == (100, 55)
        assert sample.lfr_tables.psi.shape[1] == 55


def _spd_stack(m, rng, k):
    """k SPD matrices with eigenvalues in [0.5, 3]."""
    q = np.linalg.qr(rng.normal(size=(k, m, m)))[0]
    return (q * rng.uniform(0.5, 3.0, (k, 1, m))) @ np.swapaxes(q, 1, 2)


def _spd_chart_matrices(variant, mats):
    """Each variant's chart matrix, written out with scipy: A, A^0.5, log A,
    or the Cholesky factor with the log of its diagonal."""
    if variant == "frobenius":
        return mats
    if variant == "power":
        return np.stack([fractional_matrix_power(a, 0.5) for a in mats])
    if variant == "log_euclidean":
        return np.stack([logm(a) for a in mats])
    low = np.linalg.cholesky(mats)
    diag = np.einsum("...ii->...i", low)
    diag[...] = np.log(diag)
    return low


def _spd_from_chart(variant, mats):
    """The inverse of :func:`_spd_chart_matrices` on symmetric matrices (the
    lower triangle, for log-Cholesky)."""
    if variant == "frobenius":
        return mats
    if variant in ("power", "log_euclidean"):
        return np.stack([(a @ a) if variant == "power" else expm(a) for a in mats])
    low = np.tril(mats, -1) + np.stack([np.diag(np.exp(np.diag(a))) for a in mats])
    return low @ np.swapaxes(low, 1, 2)


def _variants_and_sizes(variants):
    cases = [(v, m) for v in variants for m in (1, 2, 3, 5)]
    return pytest.mark.parametrize("variant,m", cases, ids=[f"{v}-{m}" for v, m in cases])


_ALL_VARIANTS = _variants_and_sizes(SPD_VARIANTS)


class TestSpdChart:
    @_ALL_VARIANTS
    def test_embedding_dim_is_half_vectorised(self, variant, m):
        space = SpdSpace(m, variant)
        assert space.embedding_dim == m * (m + 1) // 2
        pts = space.stack(_spd_stack(m, np.random.default_rng(m), 4))
        assert space.embed_many(pts).shape == (4, m * (m + 1) // 2)

    @_ALL_VARIANTS
    def test_chart_distances_are_the_metric(self, variant, m):
        space = SpdSpace(m, variant)
        rng = np.random.default_rng(40 + m)
        a, b = (space.stack(_spd_stack(m, rng, 30)) for _ in range(2))
        ca, cb = (_spd_chart_matrices(variant, p.data) for p in (a, b))
        want = np.linalg.norm(ca - cb, axis=(1, 2))
        got = np.linalg.norm(space.embed_many(a) - space.embed_many(b), axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-14)
        for i in range(0, 30, 7):
            assert space.distance(a[i], b[i]) == pytest.approx(want[i], rel=1e-14)

    @_ALL_VARIANTS
    def test_stacked_rows_equal_single_rows(self, variant, m):
        space = SpdSpace(m, variant)
        rng = np.random.default_rng(50 + m)
        pts = space.stack(_spd_stack(m, rng, 6))
        rows = space.embed_many(pts)
        rows[1::2] += rng.normal(size=(3, space.embedding_dim))  # some off the image set
        proj = space.project_embedding(rows)
        back = space._inverse(proj)
        for i in range(6):
            assert space.embed(pts[i]).tobytes() == space.embed_many(pts[i : i + 1]).tobytes()
            assert space.project_embedding(rows[i]).tobytes() == proj[i].tobytes()
            assert space._inverse(proj[i]).tobytes() == back[i].tobytes()
        empty = np.empty((0, space.embedding_dim))
        assert space._inverse(empty).shape == (0, m, m)
        assert space.project_embedding(empty).shape == empty.shape
        assert space.embed_many([]).shape == empty.shape

    @_variants_and_sizes(_WHOLE_CHART)
    def test_every_chart_vector_is_a_point(self, variant, m):
        space = SpdSpace(m, variant)
        rng = np.random.default_rng(60 + m)
        for v in rng.normal(size=(8, space.embedding_dim)):
            assert space.project_embedding(v).tobytes() == v.tobytes()
            p = space.inverse_embed(v)
            np.testing.assert_allclose(space.embed(p), v, rtol=0, atol=1e-12)

    @_variants_and_sizes(["frobenius", "power"])
    def test_eigenvalue_below_the_floor_needs_projection(self, variant, m):
        space = SpdSpace(m, variant)
        rng = np.random.default_rng(70 + m)
        for p in space.stack(_spd_stack(m, rng, 6)):
            v = _below_floor(space, space.embed(p))
            with pytest.raises(InverseInfeasible):
                space.inverse_embed(v)
            proj = space.project_embedding(v)
            # the metric projection moves the one low eigenvalue up to the floor
            floor = space.eps_pd ** (space.power if variant == "power" else 1.0)
            assert np.linalg.norm(proj - v) == pytest.approx(0.5 + floor, rel=1e-12)
            lam = np.linalg.eigvalsh(space._symmetric(proj[None])[0])
            assert lam.min() == pytest.approx(floor, rel=1e-6)
            np.testing.assert_allclose(space.project_embedding(proj), proj, rtol=0, atol=1e-14)
            space.inverse_embed(proj)  # feasible: no projection needed

    @pytest.mark.parametrize("variant", ["frobenius", "power"])
    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e9])
    def test_projected_points_pass_validation_at_any_scale(self, variant, scale):
        # above |A| = 1e3 a floor of 1e-10 is below the rounding of the
        # largest eigenvalue, and the payload's smallest one could read <= 0
        space = SpdSpace(4, variant)
        rng = np.random.default_rng(90)
        for _ in range(40):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            chart = (q * (scale * np.array([1.0, 0.5, 0.3, -0.2]))) @ q.T
            v = space._half_vec(0.5 * (chart + chart.T)[None])[0]
            lam = np.linalg.eigvalsh(space.inverse_embed(v, project=True).data)
            assert lam.min() > 0.0

    @_ALL_VARIANTS
    def test_batched_fit_maps_back_to_the_wls_fit(self, variant, m):
        space = SpdSpace(m, variant)
        rng = np.random.default_rng(80 + m)
        n = 120
        r = rng.uniform(-1.0, 1.0, n)
        pts = space.stack(_spd_stack(m, rng, n) + (1.5 + r + (r >= 0))[:, None, None] * np.eye(m))
        y = _spd_chart_matrices(variant, pts.data).reshape(n, -1)
        centers = np.array([-0.6, -0.3, 0.0, 0.2, 0.5])
        h = 0.45
        for side in (Side.LEFT, Side.RIGHT):
            fits, valid = batch_lfr_embeddings(r, space.embed_many(pts), centers, h, side)
            assert valid.sum() >= 3
            got = space._inverse(fits[valid])  # the stack form
            for c, fit in zip(centers[valid], got):
                keep = r < c if side is Side.LEFT else r >= c
                chart = wls_line_oracle(r, y, c, h, keep)[0].reshape(1, m, m)
                oracle = _spd_from_chart(variant, chart)[0]
                np.testing.assert_allclose(fit, oracle, rtol=1e-10, atol=1e-10)


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

    def test_euclidean_stack_rows_equal_single_calls(self):
        eu = Euclidean(4)
        rng = np.random.default_rng(4)
        base = eu.point(rng.normal(size=4))
        pts = eu.stack(rng.normal(size=(60, 4)) * np.geomspace(1e-8, 1e8, 60)[:, None])
        rows = eu.log_map(base, pts)
        single = np.stack([eu.log_map(base, p) for p in pts])
        assert rows.shape == (60, 4) and rows.tobytes() == single.tobytes()
        assert eu.log_map(base, list(pts)).tobytes() == single.tobytes()

    @staticmethod
    def _assert_rows_match_single_calls(sp, base, pts):
        rows = sp.log_map(base, pts)
        single = np.stack([sp.log_map(base, p) for p in pts])
        assert rows.shape == single.shape == (len(pts), sp.shape[0])
        # the stack's inner products round as BLAS rounds k rows, not one
        bound = 4 * np.finfo(float).eps * np.linalg.norm(single, axis=1)
        assert np.all(np.abs(rows - single) <= bound[:, None])

    @pytest.mark.parametrize("dim", [3, 5, 10])
    def test_sphere_stack_rows_match_single_calls_on_pairs(self, dim):
        sp, pairs = _sphere_pairs(dim, np.random.default_rng(dim))
        pts = PointStack.of([b for _, b in pairs])
        for a, _ in pairs:
            self._assert_rows_match_single_calls(sp, a, pts)

    @pytest.mark.parametrize("dim", [3, 5, 10])
    def test_sphere_stack_rows_match_single_calls_near_the_base(self, dim):
        sp = CompositionalSphere(dim)
        rng = np.random.default_rng(dim)
        for _ in range(20):
            base = rand_sphere(sp, rng)
            near = base.data + rng.uniform(-1e-9, 1e-9, (100, dim)) / np.sqrt(dim)
            far = np.sqrt(rng.dirichlet(np.full(dim, rng.uniform(0.5, 20.0)), 100))
            pts = sp.stack(np.vstack([near / np.linalg.norm(near, axis=1)[:, None], far]))
            assert np.abs(pts.data[:100] - base.data).max() < 1e-9
            self._assert_rows_match_single_calls(sp, base, pts)

    @pytest.mark.parametrize("dim", [3, 5, 10])
    def test_sphere_base_row_is_exactly_zero_in_a_stack(self, dim):
        sp = CompositionalSphere(dim)
        rng = np.random.default_rng(dim)
        base = rand_sphere(sp, rng)
        pts = PointStack.of([rand_sphere(sp, rng), sp.point(base.data), rand_sphere(sp, rng), base])
        rows = sp.log_map(base, pts)
        assert not np.any(rows[[1, 3]]) and np.all(np.any(rows[[0, 2]], axis=1))

    def test_sphere_antipodal_row_is_refused_by_position(self):
        sp = CompositionalSphere(3)
        z = sp.point([1.0, 0.0, 0.0])
        pts = PointStack(sp, np.stack([[0.0, 1.0, 0.0], -z.data, [0.0, 0.0, 1.0], -z.data]))
        with pytest.raises(AntipodalPoints) as err:
            sp.log_map(z, pts)
        assert err.value.index == 1

    @pytest.mark.parametrize("case", SPACE_CASES, ids=[c[0] for c in SPACE_CASES])
    def test_stack_refusals(self, case):
        name, space, sampler = case
        rng = np.random.default_rng(31)
        pts = PointStack.of([sampler(space, rng) for _ in range(5)])
        if not space.logexp_available:
            with pytest.raises(LogExpUnavailable):
                space.log_map(pts[0], pts)
            return
        assert space.log_map(pts[0], pts).shape == (5, space.shape[0])
        other = Euclidean(space.shape[0] + 1)
        with pytest.raises(SpaceMismatch):
            space.log_map(pts[0], other.stack(np.zeros((2, space.shape[0] + 1))))
        with pytest.raises(NotAPoint):
            space.log_map(pts[0], pts.data)
        with pytest.raises(NotAPoint):
            space.log_map(pts.data[0], pts)
        with pytest.raises(EmptyInput):
            space.log_map(pts[0], [])

    def test_sphere_exp_refusals(self):
        sp = CompositionalSphere(3)
        z = sp.point([1.0, 0.0, 0.0])
        for norm in (np.pi, 3.5):
            err = _refusal(sp.exp_map, z, [0.0, norm, 0.0])
            assert err.code == "exp_out_of_domain" and isinstance(err, ExpOutOfDomain)
            assert "cut locus" in str(err)
        err = _refusal(sp.exp_map, z, [0.0, -0.5, 0.0])
        assert err.code == "exp_out_of_domain" and isinstance(err, ExpOutOfDomain)
        assert str(err).startswith("exponential image leaves the positive orthant")
        # an image within the orthant tolerance is clamped onto it
        edge = sp.exp_map(z, [0.0, -1e-10, 0.0])
        assert edge.data.min() == 0.0

    def test_unavailable(self):
        spd = SpdSpace(2, "log_euclidean")
        p = spd.point(np.eye(2))
        with pytest.raises(LogExpUnavailable):
            spd.log_map(p, p)
        w = Wasserstein1D(3)
        q = w.point([0.0, 1.0, 2.0])
        with pytest.raises(LogExpUnavailable):
            w.exp_map(q, np.zeros(3))


def test_each_chart_operation_has_one_body():
    """Log and Exp are written once, in Space; each chart space supplies only
    its array hooks."""
    exported = {obj for obj in vars(geordd.spaces).values()
                if isinstance(obj, type) and issubclass(obj, Space)}
    assert {type(space) for _, space, _ in SPACE_CASES} == exported - {Space, HilbertSpace}
    for _, space, _ in SPACE_CASES:
        if space.logexp_available:
            for hook in ("_log", "_exp"):
                own = getattr(type(space), hook, None)
                assert own not in (None, getattr(Space, hook, None)), (type(space), hook)
    for cls in exported:
        for klass in cls.__mro__:
            if klass is not Space:
                assert "log_map" not in vars(klass) and "exp_map" not in vars(klass), klass


#: the payloads of :class:`TestValidation`, and payloads each space accepts,
#: some of them only after canonicalisation
_VALIDATION_CASES = [
    ("off-sphere", CompositionalSphere(3), [1.0, 1.0, 0.0]),
    ("negative-sphere-coordinate", CompositionalSphere(2), [np.sqrt(0.5), -np.sqrt(0.5)]),
    ("laplacian-asymmetric", NetworkLaplacian(2), [[1.0, -1.0], [0.0, 1.0]]),
    ("laplacian-row-sums", NetworkLaplacian(2), [[1.0, -0.5], [-0.5, 1.0]]),
    ("laplacian-weight-cap", NetworkLaplacian(2, max_weight=1.0), [[2.0, -2.0], [-2.0, 2.0]]),
    ("laplacian-weight", NetworkLaplacian(2, max_weight=2.0), [[3.0, -3.0], [-3.0, 3.0]]),
    ("spd-not-positive", SpdSpace(2), [[1.0, 0.0], [0.0, 0.0]]),
    ("quantile-step", Wasserstein1D(3), [0.0, 1.0, 0.0]),
    ("quantile-not-monotone", Wasserstein1D(3), [0.0, 1.0, 0.5]),
    ("quantile-support", Wasserstein1D(3, support=(0.0, 1.0)), [0.0, 0.5, 2.0]),
    ("non-finite", Euclidean(2), [0.0, np.nan]),
    ("wrong-shape", Euclidean(2), [0.0, 1.0, 2.0]),
    ("sphere", CompositionalSphere(3), [0.6, 0.8 + 1e-12, -1e-12]),
    ("laplacian", NetworkLaplacian(3), [[1.0, -1.0, -0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, -0.0]]),
    ("spd", SpdSpace(2, "power"), [[2.0, 1e-11], [0.0, 1.0]]),
    ("quantile", Wasserstein1D(3, support=(0.0, 1.0)), [0.0, 0.5, 0.5 - 1e-12]),
    ("euclidean", Euclidean(2), [1.0, -2.0]),
]


class TestValidation:
    @pytest.mark.parametrize("space, payload", [c[1:] for c in _VALIDATION_CASES],
                             ids=[c[0] for c in _VALIDATION_CASES])
    def test_point_is_the_stacks_one_row_case(self, space, payload):
        x = np.array(payload, dtype=float)
        try:
            want = space.stack(x[None])[0]
        except GeorddError as err:
            got = _refusal(space.point, x)
            assert type(got) is type(err)
            assert (got.code, str(got), got.index) == (err.code, str(err), err.index)
            return
        before = x.copy()
        p = space.point(x)
        assert p.data.tobytes() == want.data.tobytes()
        assert not p.data.flags.writeable and x.flags.writeable
        assert not np.shares_memory(p.data, x)
        x += 1.0
        assert p.data.tobytes() == want.data.tobytes()
        assert space.point(before).data.tobytes() == want.data.tobytes()

    def test_laplacian_tolerance_is_relative(self):
        # at outcome scale 1e-6 an asymmetry of 1e-11 is 1e-5 of the largest
        # entry, under an absolute 1e-10 tolerance but far over 1e-10 of it
        lap = 1e-6 * laplacian_from_weights(np.ones((4, 4)))
        NetworkLaplacian(4).point(lap)
        lap[0, 1] += 1e-11
        with pytest.raises(InvariantViolation, match="symmetric"):
            NetworkLaplacian(4).point(lap)

    def test_quantile_tolerance_is_relative(self):
        q = 1e-6 * np.array([0.0, 1.0, 2.0, 2.0 - 1e-5, 3.0])  # a step of -1e-11
        with pytest.raises(InvariantViolation, match="nondecreasing"):
            Wasserstein1D(5).point(q)
        q[3] = 2e-6 - 1e-23  # an inversion of rounding size is repaired
        assert Wasserstein1D(5).point(q).data[3] == 2e-6

    @pytest.mark.parametrize("variant", SPD_VARIANTS)
    def test_spd_refuses_a_negative_eigenvalue_at_any_scale(self, variant):
        # at |A| = 1e6 a margin of 1e-12 of the largest entry would pass
        # -2.6e-10, and the power and log charts of that matrix are NaN
        q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
        a = (q * np.array([1e6, 5e5, -2.7e-10])) @ q.T
        a = 0.5 * (a + a.T)
        lam = float(np.linalg.eigvalsh(a).min())
        assert lam < 0.0
        err = _refusal(SpdSpace(3, variant).point, a)
        assert type(err) is InvariantViolation
        assert str(err) == f"smallest eigenvalue {lam!r} is below the floor 1e-10"

    @pytest.mark.parametrize("variant", SPD_VARIANTS)
    def test_spd_symmetry_tolerance_is_relative(self, variant):
        # at scale 1e-6 an asymmetry of 1e-13 is 1e-7 of the largest entry
        a = 1e-6 * np.array([[2.0, 0.5, 0.0], [0.5, 2.0, 0.0], [0.0, 0.0, 2.0]])
        SpdSpace(3, variant).point(a)
        a[0, 1] += 1e-13
        with pytest.raises(InvariantViolation, match="^matrix must be symmetric$"):
            SpdSpace(3, variant).point(a)

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

    @pytest.mark.parametrize(
        "refuse,text",
        [
            (lambda: NetworkLaplacian(2, max_weight=2.0).point([[3.0, -3.0], [-3.0, 3.0]]),
             "edge weights must not exceed 2.0, got 3.0"),
            (lambda: Wasserstein1D(3).point([0.0, 1.0, 0.0]), "worst step -1.0"),
            (lambda: CompositionalSphere.from_shares([0.5, 0.5, 0.3]),
             "shares must sum to one, got 1.3"),
            (lambda: CompositionalSphere(3).exp_map(
                CompositionalSphere(3).point([1.0, 0.0, 0.0]), [0.0, -1.0, 0.0]),
             f"min coordinate {-float(np.sin(1.0))!r}"),
        ],
        ids=["laplacian-weight", "quantile-step", "share-sum", "exp-orthant"],
    )
    def test_refusals_print_plain_floats(self, refuse, text):
        # a NumPy scalar would print as np.float64(...) under NumPy 2
        message = str(_refusal(refuse))
        assert message.endswith(text), message

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


def test_import_search_and_estimates_leave_scipy_unloaded():
    # SciPy costs a process 0.2 s and 17 MB to load, and only the Wasserstein
    # projection uses it: importing geordd and its CLI, a Laplacian search
    # and estimate, and a sphere fuzzy estimate load none of it
    env = {**os.environ, "PYTHONPATH": str(Path(geordd.__file__).parents[1])}
    code = """if True:
        import sys
        import numpy as np
        import geordd, geordd.cli
        from geordd import (CompositionalSphere, NetworkDgp, RddSample, estimate_sharp,
                            estimate_riemannian_fuzzy, select_bandwidth)
        sample, _ = NetworkDgp(n=300, seed=1).sample()
        b = select_bandwidth(sample).b_star
        estimate_sharp(sample, b, b)
        rng = np.random.default_rng(2)
        r = rng.uniform(-1, 1, 300)
        z = (r >= 0).astype(int)
        t = np.where(z == 1, 1, (rng.random(300) < 0.25).astype(int))
        shares = rng.dirichlet(np.full(3, 10.0), 300)
        ys = CompositionalSphere(3).points_from_shares(shares)
        estimate_riemannian_fuzzy(RddSample(r, ys, 0.0, t, z), None, 0.5, 0.5)
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"
