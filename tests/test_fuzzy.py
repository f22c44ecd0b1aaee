"""Tests for the fuzzy-design estimators."""

import numpy as np
import pytest

from geordd import (
    CompositionalSphere,
    Euclidean,
    NoncomplianceSide,
    RddSample,
    Side,
    Wasserstein1D,
    estimate_compliance,
    estimate_fuzzy_late,
    estimate_geodesic_fuzzy,
    estimate_geodesic_riemannian_fuzzy,
    estimate_riemannian_fuzzy,
    estimate_sharp,
    sample_frechet_mean,
    weighted_frechet_mean,
)
from geordd.errors import (
    EmbeddingUnavailable,
    EmptyStratum,
    ExpOutOfDomain,
    LogExpUnavailable,
    MissingAssignment,
    MissingTreatment,
    WeakCompliance,
)
import geordd.rdd_fuzzy as rdd_fuzzy
from geordd.frechet import LocalLinearTables, compute_weights
from conftest import EMBEDDABLE_CASES, rand_sphere, wls_intercept_oracle, wls_line_oracle


def _euclid_fuzzy(rng, n=600, jump_p=(0.2, 0.8), theta=1.0, sigma=0.0):
    """Euclidean outcomes with imperfect compliance and effect theta."""
    eu = Euclidean(1)
    r = rng.uniform(-1, 1, n)
    p = np.where(r < 0, jump_p[0], jump_p[1])
    t = (rng.random(n) < p).astype(int)
    y = r + theta * t + sigma * rng.normal(size=n)
    return RddSample(r=r, ys=eu.stack(y[:, None]), cutoff=0.0, t=t)


def _sharp_compliance(rng, n=400, sigma=0.0):
    eu = Euclidean(1)
    r = rng.uniform(-1, 1, n)
    t = (r >= 0).astype(int)
    y = np.sin(r) + 1.0 * t + sigma * rng.normal(size=n)
    return RddSample(r=r, ys=eu.stack(y[:, None]), cutoff=0.0, t=t, z=t.copy())


def _one_sided_wasserstein(rng, n=500, p_at=0.3, shift=1.0):
    """Always-takers DGP with distributional outcomes, noiseless in r."""
    space = Wasserstein1D(20)
    grid = np.linspace(0, 1, 20)
    base = 2.0 * grid - 1.0
    direction = 0.5 * grid + 0.2
    r = rng.uniform(-1, 1, n)
    z = (r >= 0).astype(int)
    always = (rng.random(n) < p_at).astype(int)
    t = np.where(z == 1, 1, always)
    ys = tuple(
        space.point(base + ri * 0.3 * grid + shift * ti * direction)
        for ri, ti in zip(r, t)
    )
    return RddSample(r=r, ys=ys, cutoff=0.0, t=t, z=z), space


def _one_sided_treatment(rng, z, p_nc, side):
    """T with noncompliers of share ``p_nc`` on the stratum's side of the cutoff."""
    nc = (rng.random(z.size) < p_nc).astype(int)
    if side is NoncomplianceSide.ALWAYS_TAKERS:
        return np.where(z == 1, 1, nc)
    return np.where(z == 1, 1 - nc, 0)


def _one_sided_euclid(rng, n=500, p_nc=0.3, side=NoncomplianceSide.ALWAYS_TAKERS):
    """Scalar outcomes with one noncomplier stratum."""
    eu = Euclidean(1)
    r = rng.uniform(-1, 1, n)
    z = (r >= 0).astype(int)
    t = _one_sided_treatment(rng, z, p_nc, side)
    y = np.sin(r) + 1.0 * t
    return RddSample(r=r, ys=eu.stack(y[:, None]), cutoff=0.0, t=t, z=z)


def _tangent_late(sample, reference):
    return estimate_riemannian_fuzzy(sample, reference, 0.4, 0.4)


def _tangent_geodesic(sample, reference, side=NoncomplianceSide.ALWAYS_TAKERS):
    return estimate_geodesic_riemannian_fuzzy(sample, reference, side, 0.4, 0.4)


def _embedding_geodesic(sample, reference, side=NoncomplianceSide.ALWAYS_TAKERS):
    return estimate_geodesic_fuzzy(sample, 0.4, 0.4, side)


TANGENT_ESTIMATORS = [_tangent_late, _tangent_geodesic]
GEODESIC_ESTIMATORS = [_embedding_geodesic, _tangent_geodesic]


class TestEstimateCompliance:
    def test_sharp_compliance(self):
        rng = np.random.default_rng(0)
        sample = _sharp_compliance(rng)
        fit = estimate_compliance(sample, 0.4, 0.4)
        assert fit.m0 == pytest.approx(0.0, abs=1e-12)
        assert fit.m1 == pytest.approx(1.0, abs=1e-12)
        assert fit.denominator == pytest.approx(1.0, abs=1e-12)

    def test_intercepts_and_slopes_match_wls_oracle(self):
        rng = np.random.default_rng(5)
        sample = _euclid_fuzzy(rng)
        fit = estimate_compliance(sample, 0.3, 0.5)
        r, t = sample.r, sample.t.astype(float)
        left = wls_line_oracle(r, t, 0.0, 0.3, r < 0.0)
        right = wls_line_oracle(r, t, 0.0, 0.5, r >= 0.0)
        np.testing.assert_allclose(
            [fit.m0, fit.slope0, fit.m1, fit.slope1], [*left, *right], rtol=0, atol=1e-10
        )

    def test_constant_treatment_weak(self):
        rng = np.random.default_rng(1)
        eu = Euclidean(1)
        r = rng.uniform(-1, 1, 200)
        sample = RddSample(
            r=r,
            ys=tuple(eu.point([v]) for v in r),
            cutoff=0.0,
            t=np.ones(200, dtype=int),
        )
        with pytest.raises(WeakCompliance):
            estimate_fuzzy_late(sample, 0.5, 0.5)

    def test_logistic_jump_monte_carlo(self):
        # expected denominator 0.6 under the 0.2 -> 0.8 jump
        dens = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            sample = _euclid_fuzzy(rng, n=2000)
            dens.append(estimate_compliance(sample, 0.3, 0.3).denominator)
        assert np.mean(dens) == pytest.approx(0.6, abs=0.1)

    def test_missing_treatment(self):
        rng = np.random.default_rng(2)
        eu = Euclidean(1)
        r = rng.uniform(-1, 1, 100)
        sample = RddSample(r=r, ys=tuple(eu.point([v]) for v in r), cutoff=0.0)
        with pytest.raises(MissingTreatment):
            estimate_compliance(sample, 0.4, 0.4)


class TestFuzzyLate:
    def test_full_compliance_matches_sharp(self):
        rng = np.random.default_rng(3)
        sample = _sharp_compliance(rng, sigma=0.3)
        sharp = estimate_sharp(sample, 0.4, 0.4)
        fuzzy = estimate_fuzzy_late(sample, 0.4, 0.4)
        expected = sharp.end.data[0] - sharp.start.data[0]
        assert fuzzy.denominator == pytest.approx(1.0, abs=1e-12)
        assert fuzzy.tau[0] == pytest.approx(expected, abs=1e-8)

    def test_zero_outcome_jump(self):
        rng = np.random.default_rng(4)
        sample = _euclid_fuzzy(rng, n=1500, jump_p=(0.25, 0.75), theta=0.0)
        est = estimate_fuzzy_late(sample, 0.4, 0.4)
        assert abs(est.denominator - 0.5) < 0.15
        assert np.linalg.norm(est.tau) < 1e-8

    def test_wasserstein_quantile_contrast(self):
        rng = np.random.default_rng(5)
        sample, space = _one_sided_wasserstein(rng)
        est = estimate_fuzzy_late(sample, 0.4, 0.4)
        assert est.tau.shape == space.shape
        # the contrast is a quantile-function difference: here proportional to
        # the treated-shift direction used by the DGP
        grid = np.linspace(0, 1, 20)
        direction = 0.5 * grid + 0.2
        cos = est.tau @ direction / np.linalg.norm(est.tau) / np.linalg.norm(direction)
        assert cos == pytest.approx(1.0, abs=1e-6)

    def test_sphere_has_no_embedding(self):
        rng = np.random.default_rng(6)
        sp = CompositionalSphere(3)
        r = rng.uniform(-1, 1, 100)
        t = (r >= 0).astype(int)
        ys = tuple(rand_sphere(sp, rng) for _ in range(100))
        sample = RddSample(r=r, ys=ys, cutoff=0.0, t=t)
        with pytest.raises(EmbeddingUnavailable):
            estimate_fuzzy_late(sample, 0.5, 0.5)


class TestGeodesicFuzzy:
    def test_full_compliance_collapses_to_sharp(self):
        rng = np.random.default_rng(7)
        sample = _sharp_compliance(rng, sigma=0.2)
        sharp = estimate_sharp(sample, 0.4, 0.4)
        est = estimate_geodesic_fuzzy(
            sample, 0.4, 0.4, NoncomplianceSide.ALWAYS_TAKERS
        )
        assert est.effect.space.distance(est.endpoints[0], sharp.start) < 1e-8
        assert est.effect.space.distance(est.endpoints[1], sharp.end) < 1e-8

    def test_empty_stratum_with_partial_compliance(self):
        # never-takers requested but the data has only always-takers
        rng = np.random.default_rng(8)
        sample, _ = _one_sided_wasserstein(rng)
        with pytest.raises(EmptyStratum):
            estimate_geodesic_fuzzy(sample, 0.4, 0.4, NoncomplianceSide.NEVER_TAKERS)

    def test_effect_length_equals_late_norm(self):
        rng = np.random.default_rng(9)
        sample, space = _one_sided_wasserstein(rng)
        late = estimate_fuzzy_late(sample, 0.4, 0.4)
        geo = estimate_geodesic_fuzzy(sample, 0.4, 0.4, NoncomplianceSide.ALWAYS_TAKERS)
        if not geo.warnings:  # no projection bound: exact algebra
            assert geo.magnitude == pytest.approx(late.magnitude, abs=1e-8)

    def test_endpoint_contrast_identity(self):
        # Psi(mu1) - Psi(mu0) equals tau exactly before projection
        rng = np.random.default_rng(10)
        sample, space = _one_sided_wasserstein(rng)
        geo = estimate_geodesic_fuzzy(sample, 0.4, 0.4, NoncomplianceSide.ALWAYS_TAKERS)
        assert not geo.warnings
        diff = space.embed(geo.endpoints[1]) - space.embed(geo.endpoints[0])
        np.testing.assert_allclose(diff, geo.tau, atol=1e-8)


def _embeddable_fuzzy(space, sampler, seed, full):
    """An always-takers sample of ``space``'s outcomes, drawn around the
    segment between two random points, or a fully compliant one."""
    rng = np.random.default_rng(seed)
    a, b = sampler(space, rng), sampler(space, rng)
    r = rng.uniform(-1, 1, 300)
    z = (r >= 0).astype(int)
    t = z.copy() if full else np.where(z == 1, 1, (rng.random(r.size) < 0.3).astype(int))
    ys = [space.geodesic(space.geodesic(a, b, 0.25 + 0.2 * ri + 0.3 * ti), sampler(space, rng), 0.2)
          for ri, ti in zip(r, t)]
    return RddSample(r=r, ys=ys, cutoff=0.0, t=t, z=z)


def _relative(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestEmbeddingChart:
    """The embedding chart fits the projected weighted average of the
    embedded rows; it equals psi of the weighted Frechet mean, the fit
    solved as an object and embedded again."""

    @pytest.mark.parametrize("name, space, sampler", EMBEDDABLE_CASES,
                             ids=[c[0] for c in EMBEDDABLE_CASES])
    def test_against_the_solve_then_embed_oracle(self, name, space, sampler):
        sample = _embeddable_fuzzy(space, sampler, 12, full=False)
        h0, h1 = 0.4, 0.5
        profiles = [compute_weights(sample.r, 0.0, h, side)
                    for h, side in ((h0, Side.LEFT), (h1, Side.RIGHT))]
        nu0, nu1 = (space.embed(weighted_frechet_mean(sample.ys, p)) for p in profiles)
        late = estimate_fuzzy_late(sample, h0, h1)
        assert _relative(late.tau, (nu1 - nu0) / late.denominator) <= 1e-13

        idx = np.flatnonzero((sample.t == 1) & (sample.z == 0))
        stratum = compute_weights(sample.r[idx], 0.0, h0, Side.LEFT)
        plus = space.embed(weighted_frechet_mean(sample.ys[idx], stratum))
        geo = estimate_geodesic_fuzzy(sample, h0, h1, NoncomplianceSide.ALWAYS_TAKERS)
        for got, nu in zip(geo.endpoints, (nu0, nu1)):
            want = space.inverse_embed(plus + (nu - plus) / geo.denominator, project=True)
            assert _relative(got.data, want.data) <= 1e-13

    @pytest.mark.parametrize("name, space, sampler", EMBEDDABLE_CASES,
                             ids=[c[0] for c in EMBEDDABLE_CASES])
    def test_full_compliance_endpoints_are_the_sharp_ones(self, name, space, sampler):
        sample = _embeddable_fuzzy(space, sampler, 13, full=True)
        sharp = estimate_sharp(sample, 0.4, 0.5)
        geo = estimate_geodesic_fuzzy(sample, 0.4, 0.5, NoncomplianceSide.ALWAYS_TAKERS)
        assert geo.denominator == pytest.approx(1.0, abs=1e-12)
        for got, want in zip(geo.endpoints, (sharp.start, sharp.end)):
            assert _relative(got.data, want.data) <= 1e-12


@pytest.mark.parametrize("estimate", GEODESIC_ESTIMATORS)
class TestGeodesicRefusals:
    def test_missing_assignment(self, estimate):
        sample = _euclid_fuzzy(np.random.default_rng(18))
        with pytest.raises(MissingAssignment):
            estimate(sample, Euclidean(1).point([0.0]))

    def test_empty_never_taker_stratum(self, estimate):
        # only always-takers exist, the compliance jump is partial
        sample = _one_sided_euclid(np.random.default_rng(19))
        with pytest.raises(EmptyStratum, match="empty"):
            estimate(
                sample, Euclidean(1).point([0.0]), NoncomplianceSide.NEVER_TAKERS
            )

    def test_stratum_too_thin_for_window(self, estimate):
        # a single always-taker: one distinct running value in the window
        base = _one_sided_euclid(np.random.default_rng(20), p_nc=0.0)
        t = base.t.copy()
        t[np.flatnonzero(base.r < 0)[-1]] = 1
        sample = RddSample(r=base.r, ys=base.ys, cutoff=0.0, t=t, z=base.z)
        with pytest.raises(EmptyStratum, match="degenerate"):
            estimate(sample, Euclidean(1).point([0.0]))


class TestRiemannianFuzzy:
    def test_euclidean_coincides_with_embedding_variant(self):
        rng = np.random.default_rng(11)
        sample = _euclid_fuzzy(rng, n=800, sigma=0.2)
        late = estimate_fuzzy_late(sample, 0.4, 0.4)
        omega = Euclidean(1).point([0.3])
        tangent = estimate_riemannian_fuzzy(sample, omega, 0.4, 0.4)
        np.testing.assert_allclose(tangent.tau, late.tau, atol=1e-10)

    def test_zero_tangent_jump(self):
        rng = np.random.default_rng(12)
        sample = _euclid_fuzzy(rng, n=1200, theta=0.0)
        omega = Euclidean(1).point([0.0])
        est = estimate_riemannian_fuzzy(sample, omega, 0.4, 0.4)
        assert np.linalg.norm(est.tau) < 1e-8

    def test_sphere_matches_tangent_wls_oracle(self):
        rng = np.random.default_rng(13)
        sample, sp, omega = _sphere_fuzzy(rng)
        est = estimate_riemannian_fuzzy(sample, omega, 0.5, 0.5)

        logs = np.stack([_sphere_log_oracle(omega.data, y.data) for y in sample.ys])
        t = sample.t.astype(float)
        m0 = wls_intercept_oracle(sample.r, t, 0.0, 0.5, "left")
        m1 = wls_intercept_oracle(sample.r, t, 0.0, 0.5, "right")
        nu0 = np.array(
            [wls_intercept_oracle(sample.r, logs[:, j], 0.0, 0.5, "left") for j in range(3)]
        )
        nu1 = np.array(
            [wls_intercept_oracle(sample.r, logs[:, j], 0.0, 0.5, "right") for j in range(3)]
        )
        oracle = (nu1 - nu0) / (np.clip(m1, 0, 1) - np.clip(m0, 0, 1))
        np.testing.assert_allclose(est.tau, oracle, atol=1e-8)

    def test_weight_profiles_computed_once_per_side(self, monkeypatch):
        # the outcome fits take the compliance fit's two windows from the
        # sample's weight tables: one engine pass per side, not two
        calls = []
        windows = LocalLinearTables.windows

        def counted(self, centers, h, side, *args):
            calls.append((float(h), side))
            return windows(self, centers, h, side, *args)

        monkeypatch.setattr(LocalLinearTables, "windows", counted)
        sample = _euclid_fuzzy(np.random.default_rng(14), n=300)
        est = estimate_riemannian_fuzzy(sample, Euclidean(1).point([0.0]), 0.4, 0.5)
        assert calls == [(0.4, Side.LEFT), (0.5, Side.RIGHT)]
        assert est.compliance.to_json() == estimate_compliance(sample, 0.4, 0.5).to_json()

    @pytest.mark.parametrize("estimate", TANGENT_ESTIMATORS)
    def test_wasserstein_has_no_logexp(self, estimate):
        sample, _ = _one_sided_wasserstein(np.random.default_rng(21))
        with pytest.raises(LogExpUnavailable):
            estimate(sample, sample.ys[0])

    @pytest.mark.parametrize("estimate", TANGENT_ESTIMATORS)
    def test_data_dependent_reference(self, estimate):
        sample = _one_sided_euclid(np.random.default_rng(22))
        est = estimate(sample, None)
        assert est.warnings[0] == "data_dependent_reference"
        fixed = estimate(sample, sample_frechet_mean(sample))
        assert "data_dependent_reference" not in fixed.warnings
        np.testing.assert_array_equal(est.tau, fixed.tau)


def _sphere_log_oracle(base, y):
    """Independent sphere log-map implementation for oracles."""
    dot = float(np.clip(base @ y, -1, 1))
    theta = np.arccos(dot)
    if theta < 1e-15:
        return np.zeros_like(base)
    u = y - dot * base
    return theta * u / np.linalg.norm(u)


def _sphere_exp_oracle(base, v):
    norm = float(np.linalg.norm(v))
    if norm < 1e-15:
        return base.copy()
    return np.cos(norm) * base + np.sin(norm) * v / norm


def _tangent_direction(base, direction):
    """The unit tangent vector at ``base`` along the tangent part of ``direction``."""
    u = np.asarray(direction, dtype=float)
    u = u - (u @ base) * base
    return u / np.linalg.norm(u)


def _sphere_fuzzy(
    rng, n=500, p_nc=0.3, scale=0.25, side=NoncomplianceSide.ALWAYS_TAKERS
):
    """One-sided noncompliance with compositional outcomes, mild dispersion."""
    sp = CompositionalSphere(3)
    omega = CompositionalSphere.from_shares(np.array([0.4, 0.35, 0.25]))
    u1 = np.array([1.0, -1.0, 0.0])
    u1 -= (u1 @ omega.data) * omega.data
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(omega.data, u1)

    r = rng.uniform(-1, 1, n)
    z = (r >= 0).astype(int)
    t = _one_sided_treatment(rng, z, p_nc, side)
    ys = []
    for ri, ti in zip(r, t):
        v = scale * (0.3 * ri * u1 + ti * 0.6 * u2)
        point = _sphere_exp_oracle(omega.data, v)
        ys.append(sp.point(sp.project_to_orthant(point)))
    return RddSample(r=r, ys=tuple(ys), cutoff=0.0, t=t, z=z), sp, omega


def _check_hand_composed(sample, sp, omega, side):
    """Endpoints against tangent WLS fits, the stratum shift and the Exp chart."""
    est = estimate_geodesic_riemannian_fuzzy(sample, omega, side, 0.5, 0.5)
    assert not est.warnings
    logs = np.stack([_sphere_log_oracle(omega.data, y.data) for y in sample.ys])
    t = sample.t.astype(float)
    m0 = np.clip(wls_intercept_oracle(sample.r, t, 0.0, 0.5, "left"), 0, 1)
    m1 = np.clip(wls_intercept_oracle(sample.r, t, 0.0, 0.5, "right"), 0, 1)
    den = m1 - m0
    if side is NoncomplianceSide.ALWAYS_TAKERS:
        strat, strat_side = (sample.t == 1) & (sample.z == 0), "left"
    else:
        strat, strat_side = (sample.t == 0) & (sample.z == 1), "right"
    nu_plus = np.array(
        [
            wls_intercept_oracle(
                sample.r[strat], logs[strat, j], 0.0, 0.5, strat_side
            )
            for j in range(3)
        ]
    )
    for k, kside in enumerate(("left", "right")):
        nu_z = np.array(
            [
                wls_intercept_oracle(sample.r, logs[:, j], 0.0, 0.5, kside)
                for j in range(3)
            ]
        )
        arg = nu_plus + (nu_z - nu_plus) / den
        oracle = _sphere_exp_oracle(omega.data, arg)
        assert sp.distance(est.endpoints[k], sp.point(oracle)) < 1e-8


class TestGeodesicRiemannianFuzzy:
    def test_full_compliance_euclidean(self):
        rng = np.random.default_rng(14)
        sample = _sharp_compliance(rng, sigma=0.2)
        sharp = estimate_sharp(sample, 0.4, 0.4)
        omega = Euclidean(1).point([0.5])
        est = estimate_geodesic_riemannian_fuzzy(
            sample, omega, NoncomplianceSide.ALWAYS_TAKERS, 0.4, 0.4
        )
        eu = Euclidean(1)
        assert eu.distance(est.endpoints[0], sharp.start) < 1e-8
        assert eu.distance(est.endpoints[1], sharp.end) < 1e-8

    def test_sphere_hand_composed_endpoints(self):
        rng = np.random.default_rng(15)
        _check_hand_composed(*_sphere_fuzzy(rng), NoncomplianceSide.ALWAYS_TAKERS)

    def test_sphere_hand_composed_never_takers(self):
        rng = np.random.default_rng(23)
        side = NoncomplianceSide.NEVER_TAKERS
        _check_hand_composed(*_sphere_fuzzy(rng, side=side), side)

    def test_exp_out_of_domain_projected_with_warning(self):
        rng = np.random.default_rng(16)
        # small denominator amplifies the tangent jump past the cut locus
        sample, sp, omega = _sphere_fuzzy(rng, n=900, p_nc=0.88, scale=1.2)
        est = estimate_geodesic_riemannian_fuzzy(
            sample, omega, NoncomplianceSide.ALWAYS_TAKERS, 0.5, 0.5
        )
        assert "exp_out_of_domain" in est.warnings
        for p in est.endpoints:
            assert np.all(p.data >= 0.0)

    @staticmethod
    def _chart():
        sample, sp, omega = _sphere_fuzzy(np.random.default_rng(24), n=60)
        return rdd_fuzzy._TangentChart(sample, omega, "geodesic embedding variant"), omega

    def test_fallback_clamps_an_image_off_the_orthant(self):
        chart, omega = self._chart()
        v = _tangent_direction(omega.data, [0.0, 0.0, 1.0]) * 1.3
        z = _sphere_exp_oracle(omega.data, v)
        assert z.min() < -1e-9  # Exp itself refuses this vector
        got = chart.back(v)
        assert chart.warnings == ["exp_out_of_domain"]
        want = np.maximum(z, 0.0) / np.linalg.norm(np.maximum(z, 0.0))
        np.testing.assert_allclose(got.data, want, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("norm", [2.5, 4.0])
    def test_fallback_refuses_what_it_cannot_project(self, norm):
        # at 2.5 the image clamps to zero; at 4 the vector is past the cut locus
        chart, omega = self._chart()
        v = _tangent_direction(omega.data, [1.0, -1.0, 0.0]) * norm
        with pytest.raises(ExpOutOfDomain):
            chart.back(v)
        assert chart.warnings == ["exp_out_of_domain"]


class TestInvariances:
    def test_affine_reparameterization(self):
        rng = np.random.default_rng(17)
        sample = _euclid_fuzzy(rng, n=700, sigma=0.3)
        a, d = 2.5, -0.7
        eu = Euclidean(1)
        moved = RddSample(
            r=a * sample.r + d, ys=sample.ys, cutoff=d, t=sample.t
        )
        base = estimate_fuzzy_late(sample, 0.4, 0.5)
        scaled = estimate_fuzzy_late(moved, a * 0.4, a * 0.5)
        np.testing.assert_allclose(scaled.tau, base.tau, rtol=1e-9, atol=1e-12)
        assert scaled.denominator == pytest.approx(base.denominator, abs=1e-12)

    def test_fuzzy_rate_desk_scale(self):
        # with h = n^(-1/5) the Hilbert-norm error should decrease with n,
        # allowing at most one inversion across adjacent sizes
        theta = 0.8
        sizes = [200, 500, 1000, 2000]
        medians = []
        for n in sizes:
            errs = []
            for rep in range(100):
                rng = np.random.default_rng(1000 * n + rep)
                sample = _euclid_fuzzy(
                    rng, n=n, jump_p=(0.15, 0.85), theta=theta, sigma=0.3
                )
                h = n ** (-0.2)
                try:
                    est = estimate_fuzzy_late(sample, h, h)
                except WeakCompliance:  # rare small-window refusals
                    continue
                errs.append(abs(est.tau[0] - theta))
            assert len(errs) >= 95
            medians.append(np.median(errs))
        inversions = sum(m2 > m1 for m1, m2 in zip(medians, medians[1:]))
        assert inversions <= 1, medians
