"""End-to-end tests for the command-line interface and ingestion."""

import json
from pathlib import Path

import numpy as np
import pytest

from geordd import (
    Euclidean,
    NetworkLaplacian,
    RddSample,
    ScalarDgp,
    Wasserstein1D,
    generate_scalar,
)
from geordd.cli import main
from geordd.errors import InvariantViolation, ParseError
from geordd.io import ingest, ingest_csv, write_sample_csv

from conftest import rand_laplacian, rand_quantile


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


class TestIngest:
    def test_three_row_euclidean(self, tmp_path):
        path = _write(tmp_path / "s.csv", "r,y0\n-1.0,0.5\n0.0,1.5\n1.0,2.5\n")
        sample = ingest_csv(path, "euclid", cutoff=0.0)
        assert sample.n == 3
        assert sample.space == Euclidean(1)

    def test_compositional_shares_sqrt_transform(self, tmp_path):
        path = _write(
            tmp_path / "s.csv",
            "r,y0,y1,y2\n-0.1,0.44,0.364,0.196\n0.1,0.452,0.374,0.174\n",
        )
        sample = ingest_csv(path, "simplex", cutoff=0.0)
        z = sample.ys[0].data
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(z**2, [0.44, 0.364, 0.196], atol=1e-9)

    def test_non_monotone_quantile_names_row(self, tmp_path):
        path = _write(
            tmp_path / "s.csv",
            "r,y0,y1,y2\n-0.5,0.0,1.0,2.0\n0.5,1.0,0.2,2.0\n",
        )
        with pytest.raises(InvariantViolation, match="row 3"):
            ingest_csv(path, "wass", cutoff=0.0)

    def test_parse_error_locates_cell(self, tmp_path):
        path = _write(tmp_path / "s.csv", "r,y0\noops,1.0\n")
        with pytest.raises(ParseError, match="row 2"):
            ingest_csv(path, "euclid", cutoff=0.0)

    def test_header_must_start_with_r(self, tmp_path):
        path = _write(tmp_path / "s.csv", "x,y0\n0.0,1.0\n")
        with pytest.raises(ParseError):
            ingest_csv(path, "euclid", cutoff=0.0)

    def test_csv_roundtrip_exact(self, tmp_path):
        sample = generate_scalar(ScalarDgp(setting="II", n=60, seed=4))
        path = tmp_path / "roundtrip.csv"
        write_sample_csv(sample, path)
        back = ingest_csv(path, "euclid", cutoff=0.0)
        np.testing.assert_array_equal(back.r, sample.r)
        assert all(
            (x.data == y.data).all() for x, y in zip(back.ys, sample.ys)
        )

    def test_wasserstein_roundtrip_with_t_and_z(self, tmp_path):
        rng = np.random.default_rng(5)
        space = Wasserstein1D(12)
        r = rng.uniform(-1, 1, 50)
        z = (r >= 0).astype(int)
        t = np.where(z == 1, 1, (rng.random(50) < 0.3).astype(int))
        ys = tuple(rand_quantile(space, rng) for _ in range(50))
        from geordd import RddSample

        sample = RddSample(r=r, ys=ys, cutoff=0.0, t=t, z=z)
        path = tmp_path / "w.csv"
        write_sample_csv(sample, path)
        back = ingest_csv(path, "wass", cutoff=0.0)
        np.testing.assert_array_equal(back.r, sample.r)
        np.testing.assert_array_equal(back.t, sample.t)
        np.testing.assert_array_equal(back.z, sample.z)

    def test_compositional_roundtrip_via_shares(self, tmp_path):
        from geordd import CompositionalSphere, RddSample
        from conftest import rand_sphere

        rng = np.random.default_rng(11)
        sp = CompositionalSphere(4)
        r = rng.uniform(-1, 1, 40)
        ys = tuple(rand_sphere(sp, rng) for _ in range(40))
        sample = RddSample(r=r, ys=ys, cutoff=0.0)
        path = tmp_path / "comp.csv"
        write_sample_csv(sample, path)
        back = ingest_csv(path, "simplex", cutoff=0.0)
        np.testing.assert_array_equal(back.r, sample.r)
        # shares round-trip through one square-root, exact to the ulp
        worst = max(sp.distance(a, b) for a, b in zip(sample.ys, back.ys))
        assert worst < 1e-14

    def test_bad_row_after_blank_line_keeps_its_line_number(self, tmp_path):
        path = _write(
            tmp_path / "s.csv",
            "r,y0,y1,y2\n-0.5,0.0,1.0,2.0\n\n0.5,1.0,0.2,2.0\n",
        )
        with pytest.raises(InvariantViolation, match="^row 4: quantile function"):
            ingest_csv(path, "wass", cutoff=0.0)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("column", ["t", "z"])
    @pytest.mark.parametrize("value", [0.7, 1.9, 2.0, -1.0])
    def test_treatment_columns_must_be_zero_or_one(self, tmp_path, fmt, column, value):
        # row 3 (the second record) carries the bad value
        t, z = [0, 1], [0, 1]
        (t if column == "t" else z)[1] = value
        if fmt == "csv":
            text = f"r,t,z,y0\n-0.5,{t[0]},{z[0]},1.0\n0.5,{t[1]},{z[1]},2.0\n"
            path = _write(tmp_path / "s.csv", text)
        else:
            y = Euclidean(1).point([1.0]).to_json()
            recs = [{"r": r, "t": ti, "z": zi, "y": y} for r, ti, zi in zip((-0.5, 0.5), t, z)]
            text = "\n" + "\n".join(json.dumps(rec) for rec in recs) + "\n"
            path = _write(tmp_path / "s.jsonl", text)
        with pytest.raises(ParseError, match=f"row 3, column {column}") as info:
            ingest(path, "euclid", cutoff=0.0)
        assert (info.value.row, info.value.column) == (3, column)

    def test_jsonl_ingestion(self, tmp_path):
        space = Euclidean(2)
        lines = []
        rng = np.random.default_rng(6)
        for i in range(10):
            obj = space.point(rng.normal(size=2))
            lines.append(json.dumps({"r": float(rng.uniform(-1, 1)), "y": obj.to_json()}))
        path = _write(tmp_path / "s.jsonl", "\n".join(lines) + "\n")
        sample = ingest(path, space, cutoff=0.0)
        assert sample.n == 10


def _setting_one_csv(tmp_path, n=1000, sigma=0.0, seed=3):
    sample = generate_scalar(ScalarDgp(setting="I", sigma=sigma, n=n, seed=seed))
    path = tmp_path / "setting1.csv"
    write_sample_csv(sample, path)
    return path


class TestCommands:
    def test_sharp_fixed_bandwidth_recovers_unit_jump(self, tmp_path):
        path = _setting_one_csv(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["sharp", "--input", str(path), "--space", "euclid",
             "--cutoff", "0", "--bw", "0.3,0.3", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["estimate"]["magnitude"] == pytest.approx(1.0, abs=1e-10)
        assert (out / "curves.csv").exists()
        assert (out / "bins.csv").exists()

    def test_sharp_auto_bandwidth_writes_search(self, tmp_path):
        path = _setting_one_csv(tmp_path, sigma=0.5)
        out = tmp_path / "out"
        code = main(
            ["sharp", "--input", str(path), "--space", "euclid",
             "--cutoff", "0", "--bw", "auto", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "bandwidth_search.csv").read_text().splitlines()
        assert lines[0] == "b,loss"
        assert len(lines) == 21  # header + default grid

    def test_fuzzy_missing_t_exits_one(self, tmp_path, capsys):
        path = _setting_one_csv(tmp_path)
        code = main(
            ["fuzzy", "--input", str(path), "--space", "euclid",
             "--cutoff", "0", "--bw", "0.3", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "missing_treatment"

    def test_degenerate_window_exits_two(self, tmp_path, capsys):
        path = _setting_one_csv(tmp_path, n=100)
        code = main(
            ["sharp", "--input", str(path), "--space", "euclid",
             "--cutoff", "0", "--bw", "1e-9", "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "degenerate_window"

    @pytest.mark.parametrize("bw", ["0", "-1", "nan", "inf"])
    def test_bad_bandwidth_exits_one(self, tmp_path, capsys, bw):
        # a bandwidth that is not positive and finite is a configuration
        # error, not a refusal on the data
        path = _setting_one_csv(tmp_path, n=100)
        code = main(
            ["sharp", "--input", str(path), "--space", "euclid",
             "--cutoff", "0", "--bw", bw, "--out", str(tmp_path / "o")]
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "ValueError"

    def test_fuzzy_geodesic_needs_side(self, tmp_path):
        rng = np.random.default_rng(7)
        eu = Euclidean(1)
        r = rng.uniform(-1, 1, 200)
        z = (r >= 0).astype(int)
        t = np.where(z == 1, 1, (rng.random(200) < 0.4).astype(int))
        from geordd import RddSample

        sample = RddSample(
            r=r, ys=tuple(eu.point([v]) for v in r + t), cutoff=0.0, t=t, z=z
        )
        path = tmp_path / "f.csv"
        write_sample_csv(sample, path)
        code = main(
            ["fuzzy", "--input", str(path), "--space", "euclid", "--cutoff", "0",
             "--bw", "0.4", "--fuzzy-variant", "geodesic", "--out", str(tmp_path / "o")]
        )
        assert code == 1  # missing --side

        code = main(
            ["fuzzy", "--input", str(path), "--space", "euclid", "--cutoff", "0",
             "--bw", "0.4", "--fuzzy-variant", "geodesic", "--side", "always",
             "--out", str(tmp_path / "o")]
        )
        assert code == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["estimate"]["variant"] == "geodesic_one_sided"

    def test_bandwidth_command(self, tmp_path):
        path = _setting_one_csv(tmp_path, sigma=0.5)
        out = tmp_path / "bw"
        code = main(
            ["bandwidth", "--input", str(path), "--space", "euclid",
             "--cutoff", "0", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["search"]["b_min"] < report["search"]["b_star"] <= report["search"]["b_max"]

    def test_validate_command(self, tmp_path):
        path = _setting_one_csv(tmp_path, n=100)
        out = tmp_path / "val"
        code = main(
            ["validate", "--input", str(path), "--space", "euclid",
             "--cutoff", "0", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["ok"] and report["n"] == 100

    @pytest.mark.parametrize("spec", ["wass", "laplacian"])
    def test_validate_jsonl_sizes_space_from_first_record(self, tmp_path, spec):
        rng = np.random.default_rng(12)
        if spec == "wass":
            space, sampler, flags = Wasserstein1D(12), rand_quantile, []
        else:
            space, sampler, flags = NetworkLaplacian(4, 5.0), rand_laplacian, ["--wmax", "5"]
        lines = [
            json.dumps({"r": float(r), "y": sampler(space, rng).to_json()})
            for r in rng.uniform(-1, 1, 20)
        ]
        path = _write(tmp_path / "x.jsonl", "\n".join(lines) + "\n")
        args = ["validate", "--input", str(path), "--space", spec, "--cutoff", "0"]
        out = tmp_path / "val"
        assert main(args + flags + ["--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["space"], report["shape"], report["n"]) == (
            space.tag, list(space.shape), 20
        )
        if flags:  # the weight cap reaches the inferred space
            assert main(args + ["--wmax", "0.01", "--out", str(out)]) == 1

    def test_simulate_network_artifacts(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            ["simulate", "--dgp", "network", "--reps", "10",
             "--sizes", "100,200", "--seed", "7", "--bw", "0.4",
             "--out", str(out)]
        )
        assert code == 0
        assert (out / "campaign.csv").exists()
        assert (out / "metadata.json").exists()
        assert (out / "slope.json").exists()
        slope = json.loads((out / "slope.json").read_text())
        assert set(slope) >= {"sizes", "mean_bias", "slope"}

    def test_simulate_byte_determinism(self, tmp_path):
        args = ["simulate", "--dgp", "setting-I", "--reps", "10",
                "--sizes", "100", "--seed", "99", "--bw", "0.5"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ("campaign.csv", "metadata.json", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize(
        "second",
        [
            '{"r": 0.2, "y": 5}',
            '{"r": 0.2, "y": {"space": "euclidean", "shape": [1]}}',
            '{"r": "abc", "y": {"space": "euclidean", "shape": [1], "data": [1.0]}}',
            '{"r": 0.2, "y": {"space": "euclidean", "shape": [1], "data": ["x"]}}',
            '{"r": 0.2, "t": "yes", "y": {"space": "euclidean", "shape": [1], "data": [1.0]}}',
            "[0.2, 1.0]",
        ],
        ids=["y-not-a-record", "y-without-data", "r-not-numeric", "data-not-numeric",
             "t-not-numeric", "record-not-an-object"],
    )
    def test_malformed_jsonl_record_is_a_parse_error(self, tmp_path, capsys, second):
        first = {"r": -0.2, "y": Euclidean(1).point([0.0]).to_json()}
        if '"t"' in second:
            first["t"] = 0
        path = _write(tmp_path / "s.jsonl", json.dumps(first) + "\n" + second + "\n")
        code = main(["validate", "--input", str(path), "--space", "euclid",
                     "--cutoff", "0", "--out", str(tmp_path / "o")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "parse_error"
        assert "(row 2" in err["message"]

    def test_malformed_reference_file_is_a_parse_error(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        r = rng.uniform(-1, 1, 200)
        t = np.where(r >= 0, 1, (rng.random(200) < 0.3).astype(int))
        path = tmp_path / "f.csv"
        write_sample_csv(RddSample(r, Euclidean(1).points((r + t)[:, None]), 0.0, t), path)
        ref = _write(tmp_path / "ref.json", json.dumps({"space": "euclidean", "shape": [1]}))
        code = main(["fuzzy", "--input", str(path), "--space", "euclid", "--cutoff", "0",
                     "--bw", "0.5", "--fuzzy-variant", "tangent", "--ref", str(ref),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "parse_error"

    @pytest.mark.parametrize(
        "entries",
        [{"bw": "0.5,0.5"}, {"bw": "0.5,0.5", "out": "from-config"}],
        ids=["bw", "bw-and-out"],
    )
    def test_config_file_sets_options_without_flags(self, tmp_path, monkeypatch, entries):
        path = _setting_one_csv(tmp_path)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        args = ["sharp", "--input", str(path), "--space", "euclid", "--cutoff", "0",
                "--config", str(cfg)]
        assert main(args) == 0
        report = json.loads((tmp_path / entries.get("out", ".") / "report.json").read_text())
        assert report["estimate"]["bandwidths"] == {"h0": 0.5, "h1": 0.5}
        assert "bandwidth_search" not in report

    def test_config_file_sets_fuzzy_variant_and_dgp(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dgp": "setting-II", "bw": "0.5", "reps": 10,
                                   "sizes": "100"}))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["dgp"] == "setting-II"

        cfg.write_text(json.dumps({"fuzzy_variant": "sideways"}))
        path = _setting_one_csv(tmp_path, n=100)
        code = main(["fuzzy", "--input", str(path), "--space", "euclid", "--cutoff", "0",
                     "--bw", "0.5", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "parse_error"

    @pytest.mark.parametrize("entries", [{"bins": "x"}, {"bins": 2.5}, {"seed": [1]}],
                             ids=["text", "fraction", "list"])
    def test_config_file_values_get_the_flag_type(self, tmp_path, capsys, entries):
        path = _setting_one_csv(tmp_path)
        cfg = _write(tmp_path / "cfg.json", json.dumps({"bw": "0.5,0.5", **entries}))
        code = main(["sharp", "--input", str(path), "--space", "euclid", "--cutoff", "0",
                     "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "parse_error"

    def test_config_file_flags_win(self, tmp_path):
        path = _setting_one_csv(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bw": "0.9,0.9", "bins": 10}))
        out = tmp_path / "cfgout"
        code = main(
            ["sharp", "--input", str(path), "--space", "euclid", "--cutoff", "0",
             "--bw", "0.3,0.3", "--config", str(cfg), "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        # the flag bandwidth (0.3) wins over the config value (0.9)
        assert report["estimate"]["bandwidths"]["h0"] == 0.3
