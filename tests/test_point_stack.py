"""Samples and solvers hold their points as one validated payload stack.

A :class:`PointStack` and the equivalent tuple of points give bit-identical
samples and weighted Frechet means, a stack is read-only, and the layers of
an estimate touch each observation's payload as an array row, never as an
object of its own.
"""

import dataclasses

import numpy as np
import pytest

from geordd import (
    CompositionalSphere,
    Euclidean,
    FunctionalL2,
    MetricObject,
    NetworkDgp,
    NoncomplianceSide,
    PointStack,
    RddSample,
    Side,
    Space,
    SpdSpace,
    compute_weights,
    estimate_fuzzy_late,
    estimate_geodesic_fuzzy,
    estimate_geodesic_riemannian_fuzzy,
    estimate_riemannian_fuzzy,
    estimate_sharp,
    select_bandwidth,
    weighted_frechet_mean,
)
from geordd.errors import (
    EmbeddingUnavailable,
    EmptyInput,
    GeorddError,
    MixedSpaces,
    NonFinitePayload,
    NotAPoint,
    SpaceMismatch,
)
from geordd.io import ingest_csv, write_sample_csv

from conftest import SPACE_CASES, dense


def _payloads(space, sampler, n, seed):
    rng = np.random.default_rng(seed)
    return np.stack([sampler(space, rng).data for _ in range(n)])


def _solve(objects, weights):
    try:
        out, info = weighted_frechet_mean(objects, weights, return_info=True)
    except GeorddError as err:
        return type(err).__name__, str(err)
    return out.data.tobytes(), repr(dataclasses.asdict(info))


@pytest.mark.parametrize("name, space, sampler", SPACE_CASES, ids=[c[0] for c in SPACE_CASES])
class TestStackMatchesTuple:
    def test_weighted_frechet_mean_bit_for_bit(self, name, space, sampler):
        payloads = _payloads(space, sampler, 60, seed=3)
        stack, objs = space.stack(payloads), tuple(space.stack(payloads))
        assert isinstance(objs, tuple)
        r = np.random.default_rng(4).uniform(-1.0, 1.0, 60)
        for center, side in ((0.1, Side.LEFT), (0.1, Side.RIGHT), (-0.9, Side.TWO_SIDED)):
            profile = compute_weights(r, center, 0.6, side)
            w = dense(profile, 60)
            assert (w < 0).any() and (w > 0).any()  # signed local-linear weights
            assert _solve(stack, w) == _solve(objs, w) == _solve(list(objs), w)
            assert _solve(stack, profile) == _solve(objs, profile) == _solve(list(objs), profile)

    def test_sample_bit_for_bit(self, name, space, sampler):
        payloads = _payloads(space, sampler, 50, seed=5)
        rng = np.random.default_rng(6)
        r = np.round(rng.uniform(-1.0, 1.0, 50), 1)  # many ties
        t = (rng.random(50) < 0.5).astype(int)
        from_stack = RddSample(r=r, ys=space.stack(payloads), cutoff=0.0, t=t)
        from_tuple = RddSample(r=r, ys=tuple(space.stack(payloads)), cutoff=0.0, t=t)
        order = np.argsort(r, kind="stable")
        for s in (from_stack, from_tuple):
            assert isinstance(s.ys, PointStack) and s.space == space
            assert s.r.tobytes() == r[order].tobytes()
            assert s.t.tobytes() == t[order].tobytes()
            assert s.ys.data.tobytes() == space.stack(payloads[order]).data.tobytes()


class TestPointStack:
    @pytest.fixture
    def stack(self):
        space = FunctionalL2(5)
        return space.stack(np.random.default_rng(0).normal(size=(12, 5)))

    def test_integer_index_wraps_one_row(self, stack):
        for i in (0, 7, -1, np.int64(3)):
            y = stack[i]
            assert isinstance(y, MetricObject) and y.space is stack.space
            assert y.data.tobytes() == stack.data[i].tobytes()
        with pytest.raises(IndexError):
            stack[12]

    @pytest.mark.parametrize("index", [slice(None, None, 3), slice(2, 9), np.array([5, 0, 5, 11])])
    def test_slices_and_index_arrays_give_stacks(self, stack, index):
        sub = stack[index]
        assert isinstance(sub, PointStack) and sub.space is stack.space
        np.testing.assert_array_equal(sub.data, stack.data[index])
        assert not sub.data.flags.writeable

    def test_iteration_wraps_rows_in_order(self, stack):
        rows = list(stack)
        assert len(rows) == len(stack) == 12
        assert all(isinstance(y, MetricObject) and y.space is stack.space for y in rows)
        np.testing.assert_array_equal(np.stack([y.data for y in rows]), stack.data)

    def test_stack_is_read_only(self, stack):
        assert not stack.data.flags.writeable
        with pytest.raises(ValueError):
            stack.data[0, 0] = 1.0
        with pytest.raises(ValueError):
            stack[0].data[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            stack.data = np.zeros((12, 5))

    def test_stack_does_not_alias_the_payloads(self):
        payloads = np.ones((4, 3))
        stack = Euclidean(3).stack(payloads)
        payloads[0, 0] = 5.0
        assert stack.data[0, 0] == 1.0 and payloads.flags.writeable

    def test_of_takes_a_stack_as_it_is(self, stack):
        assert PointStack.of(stack) is stack
        assert PointStack.of(stack, FunctionalL2(5)) is stack
        with pytest.raises(SpaceMismatch):
            PointStack.of(stack, FunctionalL2(6))

    def test_embed_many_returns_an_array_the_caller_owns(self, stack):
        emb = stack.space.embed_many(stack)
        assert emb.flags.writeable and not np.shares_memory(emb, stack.data)
        np.testing.assert_array_equal(emb, stack.data)

    def test_embedded_rows_are_computed_once_and_read_only(self, stack):
        emb = stack.embedded
        assert stack.embedded is emb and not emb.flags.writeable
        np.testing.assert_array_equal(emb, stack.space.embed_many(stack))
        with pytest.raises(ValueError):
            emb[0, 0] = 1.0

    def test_a_stack_without_an_embedding_has_no_embedded_rows(self):
        stack = CompositionalSphere(3).points_from_shares(np.full((2, 3), 1.0 / 3.0))
        with pytest.raises(EmbeddingUnavailable) as info:
            stack.embedded
        assert info.value.code == "embedding_unavailable"


class TestRefusals:
    r = np.array([-0.5, 0.1, 0.4])

    @pytest.mark.parametrize(
        "ys", [[1.0, 2.0, 3.0], np.ones((3, 1)), "abc", 3.0], ids=["floats", "array", "str", "scalar"]
    )
    def test_non_points_are_refused(self, ys):
        with pytest.raises(NotAPoint) as info:
            RddSample(r=self.r, ys=ys, cutoff=0.0)
        assert info.value.code == "not_a_point"
        assert isinstance(info.value, GeorddError) and isinstance(info.value, TypeError)
        with pytest.raises(NotAPoint):
            weighted_frechet_mean(ys, np.ones(3))

    def test_a_point_among_non_points_is_refused(self):
        ys = [Euclidean(1).point([0.0]), 1.0, 2.0]
        with pytest.raises(NotAPoint, match="float"):
            RddSample(r=self.r, ys=ys, cutoff=0.0)

    def test_a_lone_point_is_not_a_sequence_of_points(self):
        with pytest.raises(NotAPoint, match="MetricObject"):
            weighted_frechet_mean(Euclidean(1).point([0.0]), np.ones(1))

    def test_an_array_in_place_of_points_is_named(self):
        sp = CompositionalSphere(3)
        a, b = sp.from_shares([0.5, 0.3, 0.2]), sp.from_shares([0.2, 0.3, 0.5])
        calls = [lambda: sp.log_map(a, b.data), lambda: sp.geodesic(a, b.data, 0.5),
                 lambda: sp.log_map(a, sp.stack(b.data[None]).data)]
        for call in calls:
            with pytest.raises(NotAPoint, match="numpy array: a point must be a MetricObject"):
                call()

    @pytest.mark.parametrize(
        "other", [Euclidean(2), FunctionalL2(2)], ids=["other-dimension", "other-space"]
    )
    def test_mixed_spaces_are_refused(self, other):
        ys = (Euclidean(1).point([0.0]), Euclidean(1).point([1.0]), other.point([0.0, 1.0]))
        with pytest.raises(MixedSpaces) as info:
            RddSample(r=self.r, ys=ys, cutoff=0.0)
        assert info.value.code == "mixed_spaces"
        with pytest.raises(MixedSpaces):
            weighted_frechet_mean(ys, np.ones(3))

    def test_equal_spaces_are_not_mixed(self):
        ys = [Euclidean(1).point([float(v)]) for v in range(3)]  # three equal instances
        sample = RddSample(r=self.r, ys=ys, cutoff=0.0)
        assert sample.space == Euclidean(1)

    def test_empty_outcomes_are_refused(self):
        with pytest.raises(EmptyInput):
            RddSample(r=self.r, ys=(), cutoff=0.0)

    def test_points_of_another_space_are_refused_by_embed_many(self):
        with pytest.raises(SpaceMismatch):
            Euclidean(2).embed_many(Euclidean(3).stack(np.zeros((2, 3))))

    @pytest.mark.parametrize("cutoff", [np.nan, np.inf, -np.inf])
    def test_non_finite_cutoff_is_refused(self, cutoff):
        ys = Euclidean(1).stack(self.r[:, None])
        with pytest.raises(NonFinitePayload, match="cutoff") as info:
            RddSample(r=self.r, ys=ys, cutoff=cutoff)
        assert info.value.code == "non_finite_payload"


def test_estimates_leave_the_embeddings_unchanged():
    sample, _ = NetworkDgp(n=400, seed=8).sample()
    emb = sample.ys.embedded
    before = emb.copy()
    search = select_bandwidth(sample)
    estimate_sharp(sample, search.b_star, search.b_star)
    assert sample.ys.embedded is emb and not emb.flags.writeable
    np.testing.assert_array_equal(emb, before)
    np.testing.assert_array_equal(emb, sample.space.embed_many(sample.ys))


def _log_euclidean_fuzzy_sample(n: int) -> RddSample:
    """3 x 3 log-Euclidean outcomes with always-takers left of the cutoff,
    built as one stack of payloads."""
    rng = np.random.default_rng(n)
    r = rng.uniform(-1.0, 1.0, n)
    z = (r >= 0).astype(int)
    t = np.where(z == 1, 1, (rng.random(n) < 0.3).astype(int))
    logs = 0.2 * rng.normal(size=(n, 3, 3)) + np.diag([0.5, 0.0, -0.5]) * (r + t)[:, None, None]
    lam, vec = np.linalg.eigh(logs + np.swapaxes(logs, 1, 2))
    payloads = (vec * np.exp(lam)[:, None, :]) @ np.swapaxes(vec, 1, 2)
    return RddSample(r=r, ys=SpdSpace(3, "log_euclidean").stack(payloads), cutoff=0.0, t=t, z=z)


def test_estimates_map_no_embedded_row_again(monkeypatch):
    """Once a sample's rows are embedded, the sharp, fuzzy LATE and geodesic
    fuzzy estimates map as many rows through the SPD chart at n = 2,000 as
    at n = 500: the solves read ``ys.embedded`` and embed nothing again."""
    chart = SpdSpace._chart
    counts = {}
    for n in (500, 2_000):
        sample = _log_euclidean_fuzzy_sample(n)
        sample.ys.embedded
        mapped = []

        def counted(self, mats, inverse=False):
            if not inverse:
                mapped[-1] += len(mats)
            return chart(self, mats, inverse)

        with monkeypatch.context() as patched:
            patched.setattr(SpdSpace, "_chart", counted)
            for estimate in (
                lambda: estimate_sharp(sample, 0.5, 0.5),
                lambda: estimate_fuzzy_late(sample, 0.5, 0.5),
                lambda: estimate_geodesic_fuzzy(
                    sample, 0.5, 0.5, NoncomplianceSide.ALWAYS_TAKERS),
            ):
                mapped.append(0)
                assert estimate().magnitude > 0.0
        counts[n] = mapped
    assert counts[500] == counts[2_000], counts


def _count_points(monkeypatch) -> dict:
    """Counts of :class:`MetricObject` constructions and ``_check_member``
    calls from here to the end of the test."""
    counts = {"objects": 0, "checks": 0}
    post_init, check = MetricObject.__post_init__, Space._check_member

    def counted_post_init(self):
        counts["objects"] += 1
        post_init(self)

    def counted_check(self, *args, **kwargs):
        counts["checks"] += 1
        return check(self, *args, **kwargs)

    monkeypatch.setattr(MetricObject, "__post_init__", counted_post_init)
    monkeypatch.setattr(Space, "_check_member", counted_check)
    return counts


def test_no_per_observation_objects_in_ingest_search_or_estimate(tmp_path, monkeypatch):
    """Reading 10,000 graphs, searching a bandwidth and estimating the effect
    wrap and check a fixed number of points, whatever the sample size."""
    sample, _ = NetworkDgp(n=10_000, seed=3).sample()
    path = tmp_path / "graphs.csv"
    write_sample_csv(sample, path)

    counts = _count_points(monkeypatch)
    loaded = ingest_csv(path, "laplacian", cutoff=0.0)
    search = select_bandwidth(loaded)
    est = estimate_sharp(loaded, search.b_star, search.b_star)
    assert loaded.n == 10_000 and est.magnitude > 0.0
    assert counts["objects"] <= 16, counts
    assert counts["checks"] <= 16, counts


def _fuzzy_sphere_sample(n: int) -> RddSample:
    """Compositional outcomes with always-takers left of the cutoff, built as
    one stack of shares."""
    rng = np.random.default_rng(n)
    r = rng.uniform(-1.0, 1.0, n)
    z = (r >= 0).astype(int)
    t = np.where(z == 1, 1, (rng.random(n) < 0.3).astype(int))
    shares = rng.dirichlet(np.ones(3), n) * 0.2 + np.array([0.4, 0.35, 0.25]) * 0.8
    shares[:, 0] += 0.1 * t * shares[:, 2]
    shares[:, 2] -= 0.1 * t * shares[:, 2]
    return RddSample(r=r, ys=CompositionalSphere(3).points_from_shares(shares),
                     cutoff=0.0, t=t, z=z)


def test_no_per_observation_objects_in_tangent_estimates(monkeypatch):
    """Both tangent-chart estimators wrap and check as many points at
    n = 2,000 as at n = 200: the Log chart maps the sample as one stack."""
    samples = {n: _fuzzy_sphere_sample(n) for n in (200, 2_000)}
    counts = {}
    for n, sample in samples.items():
        with monkeypatch.context() as patched:
            count = _count_points(patched)
            late = estimate_riemannian_fuzzy(sample, None, 0.5, 0.5)
            geo = estimate_geodesic_riemannian_fuzzy(
                sample, None, NoncomplianceSide.ALWAYS_TAKERS, 0.5, 0.5)
        assert late.magnitude > 0.0 and geo.magnitude > 0.0
        counts[n] = count
    assert counts[200] == counts[2_000], counts
