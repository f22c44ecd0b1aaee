"""Tests for the data-generating processes and campaign harness."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import no_child_left
from geordd import (
    Euclidean,
    GeodesicEffect,
    NetworkDgp,
    RddSample,
    ScalarDgp,
    run_campaign,
)
from geordd import errors, simlab
from geordd._workers import BLAS_THREAD_VARS, worker_count
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


def _replication(rng):
    """A replication's position in its campaign, read from its generator's
    seed, so that a replacement ``_one_rep`` can pick replications out in
    any process and in any order."""
    return rng.bit_generator.seed_seq.spawn_key[-1]


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

    @pytest.mark.parametrize("dgp", DESIGNS, ids=["scalar", "network"])
    def test_space_and_truth_are_built_once(self, dgp):
        dgp = dataclasses.replace(dgp)  # a fresh design, nothing built yet
        sample, truth = dgp.sample()
        assert dgp.space is dgp.space and sample.space == dgp.space
        assert truth is dgp.true_effect() is dgp.sample()[1]
        again = dataclasses.replace(dgp, n=dgp.n + 10)
        assert again.space is not dgp.space and again.space == dgp.space
        assert again.true_effect().start.data.tobytes() == truth.start.data.tobytes()

    @pytest.mark.parametrize(
        "dgp, config_hash, params",
        [(ScalarDgp(setting="II", seed=0), "98a81d446078ce5e",
          {"n": 1000, "seed": 0, "setting": "II", "sigma": 0.5, "tau": 1.0}),
         (NetworkDgp(seed=3), "a937b5ff21971704",
          {"jump": 1.0, "n": 500, "n_nodes": 10, "p_between": 0.2, "p_within": 0.5,
           "seed": 3})],
        ids=["scalar", "network"],
    )
    def test_a_built_design_gives_the_same_campaign(self, dgp, config_hash, params):
        # the config holds the design's fields alone, as before the space and
        # truth were kept on it; the hashes are those of that code
        fresh = run_campaign(dataclasses.replace(dgp), sizes=[100, 200], reps=10, seed=3)
        dgp.space, dgp.true_effect()
        vars(dgp)["_cached_scale"] = 2.0  # a number kept on a design is no field of it
        built = run_campaign(dgp, sizes=[100, 200], reps=10, seed=3)
        assert built.metadata["config"]["dgp_params"] == params
        assert built.metadata["config_hash"] == config_hash
        assert json.dumps(built.metadata) == json.dumps(fresh.metadata)
        assert built.to_csv() == fresh.to_csv()

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

        def refuse_first(dgp, rng, bandwidth):
            if _replication(rng) == 0:
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

    @pytest.mark.parametrize("sizes", [[], [100, 100], [100, 200, 100]])
    def test_sizes_must_be_distinct_and_at_least_one(self, monkeypatch, sizes):
        def no_rep(dgp, rng, bandwidth):
            raise AssertionError("a replication ran")

        monkeypatch.setattr(simlab, "_one_rep", no_rep)
        with pytest.raises(ValueError, match="sizes must be distinct and at least one"):
            run_campaign(ScalarDgp(seed=0), sizes=sizes, reps=10, bandwidth=0.4)

    def test_mostly_failing_campaign_raises(self):
        # at n = 40 most draws have fewer than 20 observations on one side
        with pytest.raises(ExcessiveFailures, match=r"limit 5%"):
            run_campaign(ScalarDgp(n=40), sizes=[40], reps=10, seed=0)

    @pytest.mark.parametrize("n_refused", [1, 2])
    def test_failure_limit_is_five_percent(self, monkeypatch, n_refused):
        one_rep = simlab._one_rep

        def refuse_first(dgp, rng, bandwidth):
            if _replication(rng) < n_refused:
                raise InsufficientData("refused")
            return one_rep(dgp, rng, bandwidth)

        monkeypatch.setattr(simlab, "_one_rep", refuse_first)
        kw = dict(sizes=[100], reps=20, seed=3, bandwidth=0.4)
        if n_refused == 1:  # 1 of 20 is within the limit
            assert run_campaign(ScalarDgp(seed=0), **kw).metadata["n_failures"] == 1
        else:
            with pytest.raises(ExcessiveFailures, match=r"2 of 20 .*limit 5%"):
                run_campaign(ScalarDgp(seed=0), **kw)


def _use_workers(monkeypatch, workers):
    monkeypatch.setattr(simlab, "_worker_count", lambda n_jobs: workers)


class TestParallelCampaign:
    """Replications in forked workers give the serial campaign, byte for byte."""

    @pytest.mark.parametrize(
        "dgp, bandwidth",
        [(NetworkDgp(seed=3), "auto"), (ScalarDgp(setting="II", seed=3), "auto")],
        ids=["network", "setting-II"],
    )
    def test_workers_give_the_serial_campaign(self, monkeypatch, dgp, bandwidth):
        one_rep = simlab._one_rep

        def refuse_one(dgp, rng, bandwidth):
            if _replication(rng) == 13:
                raise InsufficientData("refused")
            return one_rep(dgp, rng, bandwidth)

        monkeypatch.setattr(simlab, "_one_rep", refuse_one)
        results = []
        for workers in (1, 2):
            _use_workers(monkeypatch, workers)
            results.append(run_campaign(dgp, sizes=[100, 200], reps=10, seed=3,
                                        bandwidth=bandwidth))
            no_child_left()
        serial, parallel = results
        assert serial.metadata["n_failures"] == 1
        assert serial.metadata["failures_by_code"] == {"insufficient_data": 1}
        assert serial.metadata["n_bandwidth_fallbacks"] >= 1
        assert parallel.to_csv() == serial.to_csv()
        assert json.dumps(parallel.metadata) == json.dumps(serial.metadata)
        assert parallel.rate_fit == serial.rate_fit
        assert [row["rep"] for row in parallel.rows] == list(range(10)) * 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_metadata_counts_failures_by_code(self, monkeypatch, workers):
        refusals = {7: errors.WeakCompliance, 21: errors.InsufficientData,
                    44: errors.WeakCompliance}

        def refuse_three(dgp, rng, bandwidth):
            rep = _replication(rng)
            if rep in refusals:
                raise refusals[rep]("refused")
            return dgp.setting, 0.5, 1.0 / dgp.n, False

        monkeypatch.setattr(simlab, "_one_rep", refuse_three)
        _use_workers(monkeypatch, workers)
        res = run_campaign(ScalarDgp(seed=0), sizes=[100, 200], reps=30, bandwidth=0.4)
        no_child_left()
        by_code = res.metadata["failures_by_code"]
        assert by_code == {"insufficient_data": 1, "weak_compliance": 2}
        assert list(by_code) == sorted(by_code)
        assert sum(by_code.values()) == res.metadata["n_failures"] == 3
        assert [row["fail_flag"] for row in res.rows].count(1) == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_error_in_a_replication_propagates(self, monkeypatch, workers):
        def fail_one(dgp, rng, bandwidth):
            if _replication(rng) == 4:
                raise ValueError(f"bug in process {os.getpid()}")
            return dgp.setting, 0.5, 0.0, False

        monkeypatch.setattr(simlab, "_one_rep", fail_one)
        _use_workers(monkeypatch, workers)
        with pytest.raises(ValueError, match="bug in process") as info:
            run_campaign(ScalarDgp(seed=0), sizes=[100], reps=10, bandwidth=0.4)
        raised_here = str(info.value) == f"bug in process {os.getpid()}"
        assert raised_here == (workers == 1)
        no_child_left()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_worker_outlives_excessive_failures(self, monkeypatch, workers):
        _use_workers(monkeypatch, workers)
        with pytest.raises(ExcessiveFailures, match=r"limit 5%"):
            run_campaign(ScalarDgp(n=40), sizes=[40], reps=10, seed=0)
        no_child_left()

    # (usable CPUs, BLAS variables set, jobs) -> workers
    RULE = [
        (2, {}, 40, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 40, 2),
        (2, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}, 40, 2),
        (2, {"OPENBLAS_NUM_THREADS": "2"}, 40, 1),
        (2, {"OMP_NUM_THREADS": "8"}, 40, 0),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, 40, 1),
        (4, {"MKL_NUM_THREADS": "2"}, 40, 2),
        (4, {"OMP_NUM_THREADS": "1"}, 3, 3),
        (4, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 40, 4),
        (4, {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 40, 4),
        (4, {"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "x",
             "OMP_NUM_THREADS": "2"}, 40, 2),
        (4, {"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "-1"}, 40, 1),
        (8, {}, 40, 1),
    ]

    @pytest.mark.parametrize("usable, env, n_jobs, want", RULE)
    def test_worker_rule(self, monkeypatch, usable, env, n_jobs, want):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)),
                            raising=False)
        monkeypatch.setattr(sys, "platform", "linux")
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert worker_count(n_jobs) == want

    def test_no_workers_off_linux(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "darwin")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert worker_count(40) == 1


def test_import_leaves_process_pools_unloaded():
    # nor does a parallel campaign load one: its replications are forked by
    # geordd._workers.fork_map, which needs neither multiprocessing nor
    # concurrent.futures (24 ms of import)
    env = {**os.environ, "PYTHONPATH": str(Path(simlab.__file__).parents[1])}
    code = ("import sys, geordd, geordd.cli; "
            "geordd.simlab._worker_count = lambda n_jobs: 2; "
            "geordd.run_campaign(geordd.ScalarDgp(seed=0), sizes=[100], reps=10, "
            "bandwidth=0.4); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"

