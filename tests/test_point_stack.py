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
    Euclidean,
    FunctionalL2,
    MetricObject,
    NetworkDgp,
    PointStack,
    RddSample,
    Side,
    Space,
    compute_weights,
    estimate_sharp,
    select_bandwidth,
    weighted_frechet_mean,
)
from geordd.errors import (
    EmptyInput,
    GeorddError,
    MixedSpaces,
    NonFinitePayload,
    NotAPoint,
    SpaceMismatch,
)
from geordd.io import ingest_csv, write_sample_csv

from conftest import SPACE_CASES


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
            w = compute_weights(r, center, 0.6, side).weights
            assert (w < 0).any() and (w > 0).any()  # signed local-linear weights
            assert _solve(stack, w) == _solve(objs, w) == _solve(list(objs), w)

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
    emb = sample.embeddings
    before = emb.copy()
    search = select_bandwidth(sample)
    estimate_sharp(sample, search.b_star, search.b_star)
    assert sample.embeddings is emb and not emb.flags.writeable
    np.testing.assert_array_equal(emb, before)
    np.testing.assert_array_equal(emb, sample.space.embed_many(sample.ys))


def test_no_per_observation_objects_in_ingest_search_or_estimate(tmp_path, monkeypatch):
    """Reading 10,000 graphs, searching a bandwidth and estimating the effect
    wrap and check a fixed number of points, whatever the sample size."""
    sample, _ = NetworkDgp(n=10_000, seed=3).sample()
    path = tmp_path / "graphs.csv"
    write_sample_csv(sample, path)

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
    loaded = ingest_csv(path, "laplacian", cutoff=0.0)
    search = select_bandwidth(loaded)
    est = estimate_sharp(loaded, search.b_star, search.b_star)
    assert loaded.n == 10_000 and est.magnitude > 0.0
    assert counts["objects"] <= 16, counts
    assert counts["checks"] <= 16, counts
