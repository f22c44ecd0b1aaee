"""Tests for the data-generating processes and campaign harness."""

import dataclasses

import numpy as np
import pytest

from geordd import (
    Euclidean,
    GeodesicEffect,
    NetworkDgp,
    RddSample,
    ScalarDgp,
    run_campaign,
)
from geordd import simlab
from geordd.errors import ExcessiveFailures, InsufficientData
from geordd.simlab import fit_rate, scalar_regression_functions


class TestScalarDgp:
    def test_noiseless_setting_one_formula(self):
        dgp = ScalarDgp(setting="I", sigma=0.0, n=200, seed=0)
        sample = dgp.sample()[0]
        y = np.array([p.data[0] for p in sample.ys])
        expected = sample.r + 1.0 * (sample.r >= 0)
        np.testing.assert_allclose(y, expected, atol=1e-15)

    def test_setting_three_jump_oracle(self):
        # evaluate the displayed regression functions at the cutoff directly
        m_minus, m_plus = scalar_regression_functions("III")
        tau = 1.0
        left = m_minus(0.0)  # 0 + sin(0) + cos(0) = 1
        right = m_plus(0.0, tau)  # 0 + sin(0) + cos(0) + tau
        assert left == pytest.approx(1.0, abs=1e-15)
        assert right - left == pytest.approx(tau, abs=1e-15)
        dgp = ScalarDgp(setting="III", sigma=0.0, n=100, seed=1)
        truth = dgp.true_effect()
        assert truth.length == pytest.approx(tau, abs=1e-15)

    def test_seed_reproducibility(self):
        a = ScalarDgp(setting="II", n=150, seed=42).sample()[0]
        b = ScalarDgp(setting="II", n=150, seed=42).sample()[0]
        np.testing.assert_array_equal(a.r, b.r)
        assert all(
            (x.data == y.data).all() for x, y in zip(a.ys, b.ys)
        )

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError):
            ScalarDgp(setting="V")


class TestNetworkDgp:
    def test_expected_weights_closed_form(self):
        dgp = NetworkDgp(n=100, seed=0)
        truth = dgp.true_effect()
        probs = dgp.edge_probabilities()
        space = dgp.space
        # expected edge weight 1.5 just below, 2.5 just above the cutoff
        w_start = space.weights_of(truth.start)
        w_end = space.weights_of(truth.end)
        np.testing.assert_allclose(w_start, 1.5 * probs, atol=1e-12)
        np.testing.assert_allclose(w_end, 2.5 * probs, atol=1e-12)
        from geordd.spaces.network import laplacian_from_weights

        delta = laplacian_from_weights(probs)  # unit jump scaled by probability
        assert truth.length == pytest.approx(np.linalg.norm(delta, "fro"), abs=1e-12)

    def test_zero_jump_truth(self):
        dgp = NetworkDgp(n=100, seed=0, jump=0.0)
        assert dgp.true_effect().length == pytest.approx(0.0, abs=1e-12)

    def test_draws_satisfy_invariants(self):
        # space.point() revalidates every Laplacian invariant on each draw
        dgp = NetworkDgp(n=1000, seed=3)
        sample, _ = dgp.sample()
        assert sample.n == 1000
        for y in sample.ys[::100]:
            arr = y.data
            assert np.abs(arr - arr.T).max() == 0.0
            assert np.abs(arr.sum(axis=1)).max() < 1e-12
            off = arr - np.diag(np.diag(arr))
            assert off.max() <= 0.0
            assert np.diag(arr).min() >= 0.0

    @pytest.mark.parametrize("jump", [-2.0, -1e-9, float("nan"), float("inf")])
    def test_negative_or_non_finite_jump_refused(self, jump):
        # near R = 1 the base weight cos(pi R / 2) vanishes, so any negative
        # jump would draw negative edge weights there
        with pytest.raises(ValueError, match="jump"):
            NetworkDgp(n=200, jump=jump)

    @pytest.mark.parametrize("field", ["p_within", "p_between"])
    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_edge_probability_outside_unit_interval_refused(self, field, p):
        with pytest.raises(ValueError, match=field):
            NetworkDgp(n=200, **{field: p})

    def test_boundary_probabilities_accepted(self):
        dgp = NetworkDgp(n=100, p_within=1.0, p_between=0.0)
        sample, truth = dgp.sample()
        assert sample.n == 100 and truth.length > 0.0

    def test_seed_reproducibility(self):
        s1, _ = NetworkDgp(n=80, seed=9).sample()
        s2, _ = NetworkDgp(n=80, seed=9).sample()
        np.testing.assert_array_equal(s1.r, s2.r)
        assert all((x.data == y.data).all() for x, y in zip(s1.ys, s2.ys))


DESIGNS = [ScalarDgp(setting="III", n=100, seed=2), NetworkDgp(n=100, seed=2)]


@dataclasses.dataclass(frozen=True)
class StepDesign:
    """The least a design needs to run a campaign: a unit jump in scalar
    outcomes, with nothing of ScalarDgp or NetworkDgp."""

    n: int = 200
    seed: int = 0
    setting: str = "step"

    def sample(self, rng=None):
        rng = rng if rng is not None else np.random.default_rng(self.seed)
        space = Euclidean(1)
        r = rng.uniform(-1.0, 1.0, self.n)
        y = (r >= 0.0) + rng.normal(0.0, 0.1, self.n)
        start = space.point([0.0])
        truth = GeodesicEffect(start, space.point([1.0]), start)
        return RddSample(r=r, ys=space.stack(y[:, None]), cutoff=0.0), truth


class TestSamplingProtocol:
    @pytest.mark.parametrize("dgp", DESIGNS, ids=["scalar", "network"])
    def test_sample_is_the_draw_and_the_true_effect(self, dgp):
        sample, truth = dgp.sample()
        assert isinstance(sample, RddSample) and isinstance(truth, GeodesicEffect)
        assert sample.n == dgp.n and sample.space == dgp.space
        want = dgp.true_effect()
        for got, exp in zip((truth.start, truth.end, truth.reference),
                            (want.start, want.end, want.reference)):
            assert got.data.tobytes() == exp.data.tobytes()

    @pytest.mark.parametrize("dgp", DESIGNS, ids=["scalar", "network"])
    def test_no_generator_means_one_seeded_from_seed(self, dgp):
        a, _ = dgp.sample()
        b, _ = dgp.sample(np.random.default_rng(dgp.seed))
        assert a.r.tobytes() == b.r.tobytes()
        assert a.ys.data.tobytes() == b.ys.data.tobytes()

    def test_setting_names_the_design(self):
        assert ScalarDgp(setting="IV").setting == "IV"
        assert NetworkDgp().setting == "network"
        # a class constant: the campaign records only the fields of the draw
        assert "setting" not in {f.name for f in dataclasses.fields(NetworkDgp)}
        assert "setting" not in NetworkDgp().__dict__

    def test_any_design_with_the_protocol_runs_a_campaign(self):
        res = run_campaign(StepDesign(), sizes=[100, 200], reps=10, seed=4)
        assert {row["setting"] for row in res.rows} == {"step"}
        assert res.metadata["n_failures"] == 0
        assert res.metadata["config"]["dgp"] == "StepDesign"
        assert res.metadata["config"]["dgp_params"] == {"n": 200, "seed": 0, "setting": "step"}
        assert all(row["bias"] < 0.2 for row in res.rows)

    @pytest.mark.parametrize("dgp", [StepDesign(), NetworkDgp()], ids=["step", "network"])
    def test_a_refused_replication_keeps_the_design_setting(self, monkeypatch, dgp):
        one_rep = simlab._one_rep
        calls = iter(range(20))

        def refuse_first(dgp, rng, bandwidth):
            if next(calls) == 0:
                raise InsufficientData("refused")
            return one_rep(dgp, rng, bandwidth)

        monkeypatch.setattr(simlab, "_one_rep", refuse_first)
        res = run_campaign(dgp, sizes=[100], reps=20, seed=3, bandwidth=0.5)
        assert [row["fail_flag"] for row in res.rows] == [1] + [0] * 19
        assert {row["setting"] for row in res.rows} == {dgp.setting}


class TestRunCampaign:
    def test_smoke_run_emits_all_columns(self):
        res = run_campaign(
            ScalarDgp(setting="I", seed=0), sizes=[100], reps=10, seed=5,
            bandwidth=0.4,
        )
        assert len(res.rows) == 10
        for row in res.rows:
            assert set(row) == {"setting", "n", "rep", "bandwidth", "bias", "fail_flag"}
        csv_text = res.to_csv()
        assert csv_text.splitlines()[0] == "setting,n,rep,bandwidth,bias,fail_flag"
        assert len(csv_text.splitlines()) == 11

    def test_byte_determinism(self):
        kw = dict(sizes=[100, 200], reps=10, seed=77, bandwidth="auto")
        r1 = run_campaign(ScalarDgp(setting="II", seed=0), **kw)
        r2 = run_campaign(ScalarDgp(setting="II", seed=0), **kw)
        assert r1.to_csv() == r2.to_csv()
        assert r1.metadata["config_hash"] == r2.metadata["config_hash"]

    def test_noiseless_setting_one_bias_vanishes(self):
        res = run_campaign(
            ScalarDgp(setting="I", sigma=0.0, seed=0),
            sizes=[200],
            reps=10,
            seed=13,
            bandwidth="auto",
        )
        for row in res.rows:
            assert not row["fail_flag"]
            assert row["bias"] <= 1e-10

    def test_rate_fit_slope(self):
        rate = fit_rate([100, 1000], [1.0, 0.1])
        assert rate.slope == pytest.approx(-1.0, abs=1e-12)

    def test_reps_floor(self):
        with pytest.raises(ValueError):
            run_campaign(ScalarDgp(seed=0), sizes=[100], reps=5, seed=0)

    def test_metadata_records_rng(self):
        res = run_campaign(
            ScalarDgp(setting="I", seed=0), sizes=[100], reps=10, seed=1,
            bandwidth=0.5,
        )
        assert res.metadata["rng"] == "numpy-pcg64-seedsequence"
        assert "config_hash" in res.metadata

    def test_mostly_failing_campaign_raises(self):
        # at n = 40 most draws have fewer than 20 observations on one side
        with pytest.raises(ExcessiveFailures, match=r"limit 5%"):
            run_campaign(ScalarDgp(n=40), sizes=[40], reps=10, seed=0)

    @pytest.mark.parametrize("n_refused", [1, 2])
    def test_failure_limit_is_five_percent(self, monkeypatch, n_refused):
        one_rep = simlab._one_rep
        calls = iter(range(20))

        def refuse_first(dgp, rng, bandwidth):
            if next(calls) < n_refused:
                raise InsufficientData("refused")
            return one_rep(dgp, rng, bandwidth)

        monkeypatch.setattr(simlab, "_one_rep", refuse_first)
        kw = dict(sizes=[100], reps=20, seed=3, bandwidth=0.4)
        if n_refused == 1:  # 1 of 20 is within the limit
            assert run_campaign(ScalarDgp(seed=0), **kw).metadata["n_failures"] == 1
        else:
            with pytest.raises(ExcessiveFailures, match=r"2 of 20 .*limit 5%"):
                run_campaign(ScalarDgp(seed=0), **kw)
