"""A point is validated once, where it enters its space.

Caller data is checked by ``_validate``; rows that an operation has just
built enter through ``Space._trusted`` (or, in the sphere's share map,
``_canonical`` directly), which skips the checks.  These tests show that
every row handed to the canonical step unchecked is one that ``_validate``
accepts, at outcome scales from 1e-6 to 1e6; that the trusted path gives
the checked path's bits; that it still refuses non-finite rows; and that
the operations which trust their rows call ``_validate`` no more.
"""

import contextlib

import numpy as np
import pytest

from geordd import (
    CompositionalSphere,
    Euclidean,
    FunctionalL2,
    NetworkDgp,
    NetworkLaplacian,
    RddSample,
    SpdSpace,
    Wasserstein1D,
    estimate_sharp,
    weighted_frechet_mean,
)
from geordd import rdd_fuzzy, spaces
from geordd.errors import ExpOutOfDomain, NonFinitePayload
from geordd.spaces import HilbertSpace, Space

SCALES = (1e-6, 1e-3, 1.0, 1e3, 1e6)

#: every space whose projection is trusted, with a way to scale it
_FLAT = {
    "euclidean": lambda s: Euclidean(3),
    "functional_l2": lambda s: FunctionalL2(8),
    "laplacian": lambda s: NetworkLaplacian(5, max_weight=2.0 * s),
    "laplacian_unbounded": lambda s: NetworkLaplacian(4),
    "wasserstein": lambda s: Wasserstein1D(12, support=(-3.0 * s, 2.0 * s)),
    "wasserstein_unbounded": lambda s: Wasserstein1D(12),
}


def _off(laplacians):
    """The off-diagonal parts of a stack of Laplacians."""
    return laplacians * (1.0 - np.eye(laplacians.shape[-1]))


def _validate_classes():
    return [cls for cls in vars(spaces).values()
            if isinstance(cls, type) and issubclass(cls, Space) and "_validate" in vars(cls)]


@pytest.fixture
def unchecked(monkeypatch):
    """The (space, rows) pairs handed to ``_canonical`` outside ``_validate``
    from here to the end of the test, and the count of ``_validate`` calls
    and of the rows they check."""
    record = {"rows": [], "validate_calls": 0, "validated_rows": 0}
    depth = [0]

    def spy_validate(validate):
        def wrapper(self, stack):
            record["validate_calls"] += 1
            record["validated_rows"] += len(stack)
            depth[0] += 1
            try:
                return validate(self, stack)
            finally:
                depth[0] -= 1
        return wrapper

    def spy_canonical(canonical):
        def wrapper(self, stack):
            if not depth[0]:
                record["rows"].append((self, stack.copy()))
            return canonical(self, stack)
        return wrapper

    for cls in _validate_classes():
        monkeypatch.setattr(cls, "_validate", spy_validate(vars(cls)["_validate"]))
    for cls in [c for c in vars(spaces).values() if isinstance(c, type)]:
        if "_canonical" in vars(cls):
            monkeypatch.setattr(cls, "_canonical", spy_canonical(vars(cls)["_canonical"]))
    return record


def _assert_members(record):
    """Each unchecked block passes ``_validate``, which returns the block's
    canonical copy bit for bit."""
    assert record["rows"]
    for space, rows in list(record["rows"]):
        checked = space._validate(rows)
        assert checked.tobytes() == space._canonical(rows).tobytes()


def _points(space, scale, rng, k):
    """k points of a flat space at outcome scale ``scale``: projected random
    chart vectors."""
    rows = space.project_embedding(scale * rng.normal(size=(k, space.embedding_dim)))
    return space.stack([space._inverse(row) for row in rows])


def _signed_weights(rng, k, extrapolate):
    """Weights of total 1 with negative entries; with ``extrapolate``, the
    large opposite-signed pair of a local-linear fit far outside its data."""
    w = rng.uniform(-0.5, 1.0, k)
    if extrapolate:
        w[0] += 4.0
        w[1] -= 4.0
    return w / w.sum()


# ---------------------------------------------------------------------------
# the rows handed to the canonical step unchecked are members
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(_FLAT))
@pytest.mark.parametrize("scale", SCALES)
def test_projected_points_are_members(name, scale, unchecked):
    space = _FLAT[name](scale)
    assert isinstance(space, HilbertSpace) and space._projection_proves_membership
    rng = np.random.default_rng(int(np.log10(scale)) + 40)
    pts = _points(space, scale, rng, 9)
    unchecked["rows"].clear()
    for extrapolate in (False, True):
        weighted_frechet_mean(pts, _signed_weights(rng, 9, extrapolate))
    for i in range(4):
        a, b, w = pts[i], pts[i + 1], pts[i + 2]
        space.geodesic(a, b, -1.5 + i)
        space.transport(a, b, w)
        space.inverse_embed(scale * rng.normal(size=space.embedding_dim), project=True)
    _assert_members(unchecked)


def test_laplacian_projections_at_the_weight_cap_are_members(unchecked):
    for scale in SCALES:
        space = NetworkLaplacian(6, max_weight=scale)
        rng = np.random.default_rng(8)
        v = -scale * rng.uniform(0.5, 3.0, size=(12, space.embedding_dim))
        for row in v:
            w = space.weights_of(space.inverse_embed(row, project=True))
            assert w.max() == pytest.approx(scale, rel=1e-15)
    _assert_members(unchecked)


@pytest.mark.parametrize("variant", ["frobenius", "power", "log_euclidean", "log_cholesky"])
def test_spd_projected_points_are_checked(variant, unchecked):
    # no SPD projection is trusted: each projected point goes through point
    space = SpdSpace(3, variant, power=1.5)
    assert not space._projection_proves_membership
    rng = np.random.default_rng(9)
    q = np.linalg.qr(rng.normal(size=(6, 3, 3)))[0]
    pts = space.stack((q * rng.uniform(0.5, 3.0, (6, 1, 3))) @ np.swapaxes(q, 1, 2))
    for op in (lambda: space.inverse_embed(space.embed(pts[0]), project=True),
               lambda: weighted_frechet_mean(pts, _signed_weights(rng, 6, False))):
        unchecked["validate_calls"] = 0
        op()
        assert unchecked["validate_calls"] >= 1


@pytest.mark.parametrize("dim", [2, 3, 7])
def test_share_images_are_members(dim, unchecked):
    rng = np.random.default_rng(dim)
    shares = rng.dirichlet(np.full(dim, 0.3), 300)
    shares[::5, 0] = 0.0
    shares[2::5, 0] = 1e-300
    shares /= shares.sum(axis=1, keepdims=True)
    shares[1::5, 0] += shares[1::5, -1] + 0.5e-12
    shares[1::5, -1] = -0.5e-12  # negative within the tolerance
    space = CompositionalSphere(dim)
    stacked = space.points_from_shares(shares)
    for i in range(0, 300, 37):
        one = CompositionalSphere.from_shares(shares[i])
        assert one.data.tobytes() == stacked[i].data.tobytes()
    _assert_members(unchecked)


@pytest.mark.parametrize("extrapolate", [False, True])
def test_sphere_means_are_members(extrapolate, unchecked):
    rng = np.random.default_rng(11)
    space = CompositionalSphere(4)
    for conc in (0.5, 5.0, 500.0):  # spread out, and concentrated
        pts = space.points_from_shares(rng.dirichlet(np.full(4, conc), 30))
        for _ in range(5):
            weighted_frechet_mean(pts, _signed_weights(rng, 30, extrapolate))
    _assert_members(unchecked)


@pytest.mark.parametrize("jump", [0.0, 1.0, 3.7])
@pytest.mark.parametrize("n_nodes", [2, 6, 10])
def test_network_draws_are_members(jump, n_nodes, unchecked):
    sample, _ = NetworkDgp(n=300, seed=n_nodes, n_nodes=n_nodes, jump=jump).sample()
    _assert_members(unchecked)
    # a draw includes graphs with isolated nodes and with weights near the cap
    assert (np.diagonal(sample.ys.data, axis1=1, axis2=2) == 0.0).any()
    assert -_off(sample.ys.data).min() > 0.9 * sample.space.max_weight


# ---------------------------------------------------------------------------
# the trusted path is the checked path's bits, and refuses non-finite rows
# ---------------------------------------------------------------------------


def _network_rows():
    dgp = NetworkDgp(n=500, seed=4)
    return dgp.space, dgp._laplacians(np.random.default_rng(4).uniform(-1.0, 1.0, 500),
                                      np.random.default_rng(5))


def _sphere_rows():
    space = CompositionalSphere(3)
    z = np.random.default_rng(6).normal(size=(500, 3))
    return space, np.stack([space.project_to_orthant(row) for row in z if row.max() > 0.0])


@pytest.mark.parametrize("make", [_network_rows, _sphere_rows], ids=["laplacian", "sphere"])
def test_trusted_rows_are_the_checked_rows(make):
    space, rows = make()
    checked = space.stack(rows).data
    assert space._trusted(rows).data.tobytes() == checked.tobytes()
    # the canonical step moves bits here (a -0.0 degree, a renormalised
    # row), so a trusted path that skipped it would fail the comparison above
    assert rows.tobytes() != checked.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_row_is_never_trusted(bad):
    space, rows = _network_rows()
    rows[7, 1, 2] = bad
    with pytest.raises(NonFinitePayload) as info:
        space._trusted(rows)
    assert info.value.index == 7
    with pytest.raises(NonFinitePayload):
        CompositionalSphere(3)._trusted(np.array([[0.6, 0.8, bad]]))


# ---------------------------------------------------------------------------
# operations that trust their rows call ``_validate`` no more
# ---------------------------------------------------------------------------


def _network_sample():
    return NetworkDgp(n=400, seed=12).sample()[0]


def _log_euclidean_sample():
    rng = np.random.default_rng(13)
    r = rng.uniform(-1.0, 1.0, 300)
    logs = 0.3 * rng.normal(size=(300, 3, 3)) + np.diag([0.5, 0.0, -0.5]) * r[:, None, None]
    lam, vec = np.linalg.eigh(logs + np.swapaxes(logs, 1, 2))
    payloads = (vec * np.exp(lam)[:, None, :]) @ np.swapaxes(vec, 1, 2)
    return RddSample(r=r, ys=SpdSpace(3, "log_euclidean").stack(payloads), cutoff=0.0)


def test_trusting_operations_do_not_validate(unchecked):
    shares = np.random.default_rng(14).dirichlet(np.ones(3), 50)
    sphere = CompositionalSphere(3).points_from_shares(shares)
    network = _network_sample()
    spd = _log_euclidean_sample()
    checked = {}
    for name, op in [
        ("from_shares", lambda: [CompositionalSphere.from_shares(y) for y in shares]),
        ("NetworkDgp.sample", lambda: NetworkDgp(n=200, seed=15).sample()),
        ("sphere mean", lambda: weighted_frechet_mean(sphere, np.full(50, 0.02))),
        ("network estimate_sharp", lambda: estimate_sharp(network, 0.5, 0.5)),
        ("log-Euclidean estimate_sharp", lambda: estimate_sharp(spd, 0.5, 0.5)),
    ]:
        unchecked["validated_rows"] = 0
        op()
        checked[name] = unchecked["validated_rows"]
    assert checked.pop("log-Euclidean estimate_sharp") >= 1, checked
    # a draw's 200 graphs are trusted; its effect's three Laplacians are checked
    assert checked.pop("NetworkDgp.sample") == 3, checked
    assert set(checked.values()) == {0}, checked


def test_the_sphere_exp_fallback_trusts_its_projection(unchecked):
    # Exp arguments beyond the orthant: the clamped great-circle image is
    # built as a trusted point, with the checked point's bits
    space = CompositionalSphere(4)
    rng = np.random.default_rng(16)
    omegas = space.points_from_shares(rng.dirichlet(np.ones(4), 30))
    tangents, checked = [], []
    for omega, u in zip(omegas, rng.normal(size=(30, 4))):
        u -= (u @ omega.data) * omega.data
        tangents.append(rng.uniform(0.5, 3.0) * u / np.linalg.norm(u))
        z = rdd_fuzzy._great_circle(omega.data, tangents[-1][None])[0][0]
        if z.max() > 0.0:  # else the image clamps to zero, and is refused
            checked.append(space.point(space.project_to_orthant(z)).data.tobytes())
    unchecked["rows"].clear()
    unchecked["validated_rows"] = 0
    trusted = []
    for omega, v in zip(omegas, tangents):
        with contextlib.suppress(ExpOutOfDomain):
            trusted.append(rdd_fuzzy._projected_exp(omega, v).data.tobytes())
    assert unchecked["validated_rows"] == 0
    _assert_members(unchecked)
    assert trusted == checked and len(checked) >= 20
