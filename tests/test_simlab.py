"""Tests for the data-generating processes and campaign harness."""

import numpy as np
import pytest

from geordd import (
    NetworkDgp,
    ScalarDgp,
    generate_network,
    generate_scalar,
    run_campaign,
)
from geordd import simlab
from geordd.errors import ExcessiveFailures, InsufficientData
from geordd.simlab import fit_rate, scalar_regression_functions


class TestScalarDgp:
    def test_noiseless_setting_one_formula(self):
        dgp = ScalarDgp(setting="I", sigma=0.0, n=200, seed=0)
        sample = generate_scalar(dgp)
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
        a = generate_scalar(ScalarDgp(setting="II", n=150, seed=42))
        b = generate_scalar(ScalarDgp(setting="II", n=150, seed=42))
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
        sample, _ = generate_network(dgp)
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
        sample, truth = generate_network(dgp)
        assert sample.n == 100 and truth.length > 0.0

    def test_seed_reproducibility(self):
        s1, _ = generate_network(NetworkDgp(n=80, seed=9))
        s2, _ = generate_network(NetworkDgp(n=80, seed=9))
        np.testing.assert_array_equal(s1.r, s2.r)
        assert all((x.data == y.data).all() for x, y in zip(s1.ys, s2.ys))


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
