"""End-to-end tests for the command-line interface and ingestion."""

import csv
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from geordd import (
    CompositionalSphere,
    Euclidean,
    FunctionalL2,
    NetworkLaplacian,
    RddSample,
    ScalarDgp,
    SpdSpace,
    Wasserstein1D,
)
from geordd import io
from geordd.cli import build_parser, main
from geordd.errors import InvariantViolation, NonFinitePayload, ParseError
from geordd.io import ingest, ingest_csv, write_sample_csv

from conftest import rand_function, rand_laplacian, rand_quantile, rand_spd


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
        sample = ScalarDgp(setting="II", n=60, seed=4).sample()[0]
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

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("r", [[-0.6, -0.2, 0.4, 0.8], [0.4, 0.8, -0.2, -0.6]],
                             ids=["sorted", "unsorted"])
    @pytest.mark.parametrize("fault, error, message", [
        ("r", NonFinitePayload, "running variable contains NaN or infinite values"),
        ("z", InvariantViolation, "assignment column must equal the cutoff indicator 1{R >= c}"),
    ], ids=["nan-r", "z-off-cutoff"])
    def test_record_refusals_name_the_line(self, tmp_path, fmt, r, fault, error, message):
        # records 2 and 3 are refused; the first of them in the file, on line
        # 4, is named, also where record 3 sorts first
        r, z = list(r), [int(x >= 0.0) for x in r]
        for i in (2, 3):
            if fault == "r":
                r[i] = math.nan
            else:
                z[i] = 1 - z[i]
        if fmt == "csv":
            rows = (f"{ri!r},{zi},{zi},{i}.0\n" for i, (ri, zi) in enumerate(zip(r, z)))
            text = "r,t,z,y0\n" + "".join(rows)
            path = _write(tmp_path / "s.csv", text)
        else:
            recs = [{"r": ri, "t": zi, "z": zi, "y": Euclidean(1).point([float(i)]).to_json()}
                    for i, (ri, zi) in enumerate(zip(r, z))]
            path = _write(tmp_path / "s.jsonl", "\n" + "\n".join(map(json.dumps, recs)) + "\n")
        with pytest.raises(error) as info:
            ingest(path, "euclid", cutoff=0.0)
        assert (type(info.value), info.value.code, str(info.value)) == (
            error, error.code, f"row 4: {message}")

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


def _csv_float_oracle(path):
    """Reference reader: the nonblank csv records after the header, each
    field converted by ``float``."""
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in row] for row in rows if row])


def _random_csv(rng, path, n, width):
    """A CSV with t and z whose records mix the forms a writer or a hand edit
    produces: padded and quoted fields, -0.0, blank lines, and CRLF and LF
    line ends."""
    def field(x):
        text = repr(float(x))
        return [text, f" {text} ", f"\t{text}", f'"{text}"', f'" {text}"'][rng.integers(5)]

    r = rng.uniform(-1, 1, n)
    r[rng.integers(n, size=3)] = -0.0
    t = (rng.random(n) < 0.5).astype(int)
    lines = [",".join(["r", "t", "z"] + [f"y{j}" for j in range(width)])]
    for i in range(n):
        payload = rng.normal(size=width)
        payload[rng.random(width) < 0.1] = -0.0
        meta = [str(t[i]), str(int(r[i] >= 0))]
        lines.append(",".join([field(r[i])] + meta + [field(v) for v in payload]))
        if rng.random() < 0.1:
            lines.append("")
    text = "".join(line + ("\r\n" if rng.random() < 0.5 else "\n") for line in lines)
    path.write_bytes(text.encode())
    return path


class TestCsvReader:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_csv_and_float_bit_for_bit(self, tmp_path, seed):
        path = _random_csv(np.random.default_rng(seed), tmp_path / "s.csv", 40, 3)
        sample = ingest_csv(path, "euclid", cutoff=0.0)
        expected = _csv_float_oracle(path)
        expected = expected[np.argsort(expected[:, 0], kind="stable")]
        payload = np.stack([y.data.ravel() for y in sample.ys])
        got = np.column_stack([sample.r, sample.t, sample.z, payload]).astype(float)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize(
        "record, message, column",
        [
            ("0.5,1,1.0", "expected 4 fields, got 3", None),
            ("oops,1,1.0,2.0", "bad running value 'oops'", "r"),
            ("0.5,x,1.0,2.0", "bad t value 'x'", "t"),
            ("0.5,1,1.0,2.0x", "bad payload value", None),
            ("0.5,1,1.0,2.0,", "expected 4 fields, got 5", None),
            ("0.5,1,1_0,2.0", "bad payload value", None),
            ("1_0,1,1.0,2.0", "bad running value '1_0'", "r"),
            ("   ", "expected 4 fields, got 1", None),
        ],
    )
    def test_bad_record_is_located(self, tmp_path, record, message, column):
        # the bad record is the third, on line 5 after a blank line
        text = f"r,t,y0,y1\r\n-0.5,0,1.0,2.0\r\n\r\n0.25,1,1.0,2.0\r\n{record}\r\n0.75,1,1,1\r\n"
        path = _write(tmp_path / "s.csv", text)
        with pytest.raises(ParseError) as info:
            ingest_csv(path, "euclid", cutoff=0.0)
        assert (info.value.row, info.value.column) == (5, column)
        assert str(info.value).startswith(message + " (row 5")

    @pytest.mark.parametrize(
        "record, message, column",
        [
            ("0.5,1,oops,2.0", "bad payload value", None),
            ("x,1,1.0,2.0", "bad running value 'x'", "r"),
            ("0.5,1,1.0", "expected 4 fields, got 3", None),
        ],
    )
    def test_bad_last_record_is_found_in_few_reads(self, tmp_path, monkeypatch, record, message, column):
        # records before the first miscounted one are bisected, not read one
        # by one: at most about 2 log2(n) reads plus one per field
        n = 20_000
        r = np.random.default_rng(5).uniform(-1, 1, n - 1).tolist()
        body = "".join(f"{v!r},{int(v >= 0)},1.0,2.0\n" for v in r)
        path = _write(tmp_path / "s.csv", f"r,t,y0,y1\n{body}{record}\n")
        reads = []
        read_numbers = io._read_numbers

        def spy(lines):
            reads.append(1)
            return read_numbers(lines)

        monkeypatch.setattr(io, "_read_numbers", spy)
        with pytest.raises(ParseError) as info:
            ingest_csv(path, "euclid", cutoff=0.0)
        assert (info.value.row, info.value.column) == (n + 1, column)
        assert str(info.value).startswith(message + f" (row {n + 1}")
        assert len(reads) <= 2 * math.log2(n) + 4

    def test_records_spanning_lines_keep_their_record_numbers(self, tmp_path):
        path = _write(tmp_path / "s.csv", 'r,y0\n-0.5,"1.0\n"\n0.5,oops\n')
        with pytest.raises(ParseError, match="row 3") as info:
            ingest_csv(path, "euclid", cutoff=0.0)
        assert info.value.row == 3

    @pytest.mark.parametrize("text", ["r,y0\n", "r,y0", "r,y0\r\n\r\n\n"])
    def test_header_only_file_is_an_empty_sample_without_warning(self, tmp_path, text):
        path = _write(tmp_path / "s.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match="nonempty"):
                ingest_csv(path, "euclid", cutoff=0.0)

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = _write(tmp_path / "s.csv", "")
        with pytest.raises(ParseError, match="empty file"):
            ingest_csv(path, "euclid", cutoff=0.0)


def _csv_writer_rendering(sample, path):
    """The sample written through ``csv.writer``, one ``repr`` per value."""
    meta = [name for name in ("t", "z") if getattr(sample, name) is not None]
    payload = np.stack([y.data.ravel() for y in sample.ys])
    if isinstance(sample.space, CompositionalSphere):
        payload = payload**2
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r"] + meta + [f"y{j}" for j in range(payload.shape[1])])
        columns = [sample.r.tolist()] + [getattr(sample, name).tolist() for name in meta]
        for r, *tz, y in zip(*columns, payload.tolist()):
            writer.writerow([repr(r)] + [str(v) for v in tz] + [repr(v) for v in y])


class TestWriteSampleCsv:
    def test_bytes_match_csv_writer_with_t_and_z(self, tmp_path):
        rng = np.random.default_rng(8)
        r = rng.uniform(-1, 1, 30)
        r[:2] = (-0.0, 1e-300)
        z = (r >= 0).astype(int)
        t = np.where(z == 1, 1, (rng.random(30) < 0.3).astype(int))
        y = rng.normal(size=(30, 2)) * np.logspace(-20, 20, 30)[:, None]
        y[0] = (1.7976931348623157e308, 5e-324)
        sample = RddSample(r=r, ys=Euclidean(2).stack(y), cutoff=0.0, t=t, z=z)
        write_sample_csv(sample, tmp_path / "new.csv")
        _csv_writer_rendering(sample, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_bytes_match_csv_writer_for_shares(self, tmp_path):
        from conftest import rand_sphere

        rng = np.random.default_rng(9)
        space = CompositionalSphere(5)
        ys = tuple(rand_sphere(space, rng) for _ in range(25))
        sample = RddSample(r=rng.uniform(-1, 1, 25), ys=ys, cutoff=0.0)
        write_sample_csv(sample, tmp_path / "new.csv")
        _csv_writer_rendering(sample, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _setting_one_csv(tmp_path, n=1000, sigma=0.0, seed=3):
    sample = ScalarDgp(setting="I", sigma=sigma, n=n, seed=seed).sample()[0]
    path = tmp_path / "setting1.csv"
    write_sample_csv(sample, path)
    return path


def _one_sided_fuzzy_csv(tmp_path, n=200):
    """Scalar outcomes with always-takers below the cutoff only."""
    rng = np.random.default_rng(8)
    r = rng.uniform(-1, 1, n)
    z = (r >= 0).astype(int)
    t = np.where(z == 1, 1, (rng.random(n) < 0.3).astype(int))
    path = tmp_path / "f.csv"
    write_sample_csv(RddSample(r, Euclidean(1).stack((r + t)[:, None]), 0.0, t, z), path)
    return path


def _one_parse_error(capsys) -> dict:
    """The stderr of a refused command line: one JSON record and nothing else."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    record = json.loads(err)
    assert record["error"] == "parse_error"
    return record


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

    def test_bandwidth_command_refuses_empty_grid(self, tmp_path, capsys):
        path = _setting_one_csv(tmp_path, n=200)
        for grid in ("0", "-2"):
            code = main(
                ["bandwidth", "--input", str(path), "--space", "euclid", "--cutoff", "0",
                 "--grid-size", grid, "--out", str(tmp_path / "bw")]
            )
            assert code == 1
            assert "--grid-size" in _one_parse_error(capsys)["message"]

    @pytest.mark.parametrize("bins", [0, -1])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_sharp_refuses_fewer_than_one_bin(self, tmp_path, capsys, bins, source):
        path = _setting_one_csv(tmp_path, n=200)
        out = tmp_path / "o"
        args = ["sharp", "--input", str(path), "--space", "euclid", "--cutoff", "0",
                "--bw", "0.5", "--out", str(out)]
        if source == "flag":
            args += [f"--bins={bins}"]
        else:
            args += ["--config", str(_write(tmp_path / "cfg.json", json.dumps({"bins": bins})))]
        assert main(args) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "parse_error"
        assert not (out / "bins.csv").exists()

    def test_seed_is_refused_outside_simulate(self, tmp_path, capsys):
        path = _setting_one_csv(tmp_path, n=200)
        out = tmp_path / "o"
        code = main(["sharp", "--input", str(path), "--space", "euclid", "--cutoff", "0",
                     "--bw", "0.5", "--seed", "1", "--out", str(out)])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "parse_error"
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "space, sampler, spec, flags",
        [
            (NetworkLaplacian(3, 5.0), rand_laplacian, "laplacian", ["--wmax", "nan"]),
            (SpdSpace(2, "power"), rand_spd, "spd:power", ["--power", "nan"]),
            (FunctionalL2(6), rand_function, "l2", ["--domain", "0,inf"]),
        ],
        ids=["wmax-nan", "power-nan", "domain-inf"],
    )
    def test_non_finite_space_parameter_exits_one(
        self, tmp_path, capsys, space, sampler, spec, flags
    ):
        rng = np.random.default_rng(14)
        r = rng.uniform(-1, 1, 60)
        path = tmp_path / "s.csv"
        write_sample_csv(RddSample(r, [sampler(space, rng) for _ in r], 0.0), path)
        code = main(["sharp", "--input", str(path), "--space", spec, "--cutoff", "0",
                     "--bw", "0.5", *flags, "--out", str(tmp_path / "o")])
        assert code == 1
        assert flags[0] in _one_parse_error(capsys)["message"]

    @pytest.mark.parametrize(
        "spec, flags",
        [
            ("laplacian", ["--wmax", "0"]),
            ("spd:power", ["--power", "-1"]),
            ("spd:power", ["--power", "inf"]),
            ("l2", ["--domain", "1,1"]),
            ("wass", ["--support", "nan,1"]),
            ("wass", ["--support", "1,0"]),
        ],
        ids=["wmax-zero", "power-negative", "power-inf", "domain-empty", "support-nan",
             "support-reversed"],
    )
    def test_space_parameter_out_of_range_is_a_parse_error(self, tmp_path, capsys, spec, flags):
        # the command line is refused before the input is opened
        code = main(["sharp", "--input", str(tmp_path / "absent.csv"), "--space", spec,
                     "--cutoff", "0", "--bw", "0.5", *flags, "--out", str(tmp_path / "o")])
        assert code == 1
        assert flags[0] in _one_parse_error(capsys)["message"]
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("cutoff", ["nan", "inf", "-inf"])
    def test_validate_refuses_non_finite_cutoff(self, tmp_path, capsys, cutoff):
        path = _setting_one_csv(tmp_path, n=100)
        out = tmp_path / "val"
        code = main(
            ["validate", "--input", str(path), "--space", "euclid",
             f"--cutoff={cutoff}", "--out", str(out)]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "non_finite_payload"
        assert not (out / "report.json").exists()

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
        metadata = json.loads((out / "metadata.json").read_text())
        assert sum(metadata["failures_by_code"].values()) == metadata["n_failures"]
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
        write_sample_csv(RddSample(r, Euclidean(1).stack((r + t)[:, None]), 0.0, t), path)
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

    @pytest.mark.parametrize("entries", [{"bins": "x"}, {"bins": 2.5}, {"bins": [1]}],
                             ids=["text", "fraction", "list"])
    def test_config_file_values_get_the_flag_type(self, tmp_path, capsys, entries):
        path = _setting_one_csv(tmp_path)
        cfg = _write(tmp_path / "cfg.json", json.dumps({"bw": "0.5,0.5", **entries}))
        code = main(["sharp", "--input", str(path), "--space", "euclid", "--cutoff", "0",
                     "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "parse_error"

    @pytest.mark.parametrize("entries", [{"seed": 1}, {"grid_size": 5}, {"bin": 10}],
                             ids=["other-command", "config-only", "abbreviation"])
    def test_config_file_refuses_keys_that_are_not_options(self, tmp_path, capsys, entries):
        # seed belongs to simulate, grid-size to bandwidth, and --bin is not
        # read as --bins
        path = _setting_one_csv(tmp_path, n=200)
        cfg = _write(tmp_path / "cfg.json", json.dumps(entries))
        out = tmp_path / "o"
        code = main(["sharp", "--input", str(path), "--space", "euclid", "--cutoff", "0",
                     "--bw", "0.5", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert f"--{next(iter(entries)).replace('_', '-')}=" in _one_parse_error(capsys)["message"]
        assert not out.exists()

    def test_abbreviated_flag_is_refused(self, tmp_path, capsys):
        path = _setting_one_csv(tmp_path, n=200)
        code = main(["sharp", "--input", str(path), "--space", "euclid", "--cutoff", "0",
                     "--bw", "0.5", "--bin", "10", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "--bin 10" in _one_parse_error(capsys)["message"]

    @pytest.mark.parametrize("entries", [[0.5], {"config": "other.json"}, {"support": [0, 1]},
                                         {"out": None}, {"out": True}],
                             ids=["not-an-object", "nested-config", "list-value", "null-value",
                                  "true-value"])
    def test_config_file_refuses_other_shapes(self, tmp_path, capsys, monkeypatch, entries):
        # a null or boolean value is refused, not written out as None or True
        monkeypatch.chdir(tmp_path)
        path = _setting_one_csv(tmp_path, n=200)
        cfg = _write(tmp_path / "cfg.json", json.dumps(entries))
        out = [] if "out" in entries else ["--out", str(tmp_path / "o")]
        code = main(["sharp", "--input", str(path), "--space", "euclid", "--cutoff", "0",
                     "--bw", "0.5", "--config", str(cfg), *out])
        assert code == 1
        _one_parse_error(capsys)
        assert not any((tmp_path / d).exists() for d in ("o", "None", "True"))

    @pytest.mark.parametrize("key", ["fuzzy-variant", "fuzzy_variant"])
    def test_config_keys_take_either_spelling(self, tmp_path, key):
        path = _one_sided_fuzzy_csv(tmp_path)
        cfg = _write(tmp_path / "cfg.json", json.dumps({key: "tangent", "cutoff": -0.0}))
        out = tmp_path / "o"
        code = main(["fuzzy", "--input", str(path), "--space", "euclid", "--bw", "0.5",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["estimate"]["variant"] == "riemannian_tangent"

    @pytest.mark.parametrize(
        "variant, flags",
        [
            ("late", ["--side", "always"]),
            ("tangent", ["--side", "never"]),
            ("geodesic", []),
            ("geodesic-tangent", []),
            ("late", ["--ref", "ref.json"]),
            ("geodesic", ["--side", "always", "--ref", "ref.json"]),
        ],
    )
    def test_fuzzy_refuses_options_its_variant_ignores(self, tmp_path, capsys, variant, flags):
        path = _one_sided_fuzzy_csv(tmp_path)
        _write(tmp_path / "ref.json", json.dumps(Euclidean(1).point([0.0]).to_json()))
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        out = tmp_path / "o"
        code = main(["fuzzy", "--input", str(path), "--space", "euclid", "--cutoff", "0",
                     "--bw", "0.5", "--fuzzy-variant", variant, *flags, "--out", str(out)])
        assert code == 1
        message = _one_parse_error(capsys)["message"]
        assert ("--ref" if "--ref" in flags else "--side") in message
        assert not (out / "report.json").exists()

    def test_fuzzy_geodesic_tangent_takes_side_and_ref(self, tmp_path):
        path = _one_sided_fuzzy_csv(tmp_path)
        ref = _write(tmp_path / "ref.json", json.dumps(Euclidean(1).point([0.0]).to_json()))
        out = tmp_path / "o"
        code = main(["fuzzy", "--input", str(path), "--space", "euclid", "--cutoff", "0",
                     "--bw", "0.5", "--fuzzy-variant", "geodesic-tangent", "--side", "always",
                     "--ref", str(ref), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["estimate"]["variant"] == "geodesic_riemannian"

    def test_fuzzy_geodesic_tangent_refused_past_the_cut_locus_exits_two(self, tmp_path, capsys):
        # the always-takers' outcome (A) is far from the treated outcome right
        # of the cutoff (C), and the compliance jump is 0.1: the amplified
        # shift puts the complier endpoint past the sphere's cut locus
        rng = np.random.default_rng(5)
        r = rng.uniform(-1, 1, 200)
        z = (r >= 0).astype(int)
        t = np.where(z == 1, 1, (rng.random(200) < 0.9).astype(int))
        sp = CompositionalSphere(3)
        shares = np.array([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]])
        which = np.where(z == 1, 2, 1 - t)
        ys = sp.stack(np.sqrt(shares[which]))
        path = tmp_path / "f.csv"
        write_sample_csv(RddSample(r, ys, 0.0, t, z), path)
        out = tmp_path / "o"
        code = main(["fuzzy", "--input", str(path), "--space", "simplex", "--cutoff", "0",
                     "--bw", "0.5", "--fuzzy-variant", "geodesic-tangent", "--side", "always",
                     "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "exp_out_of_domain"
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("sizes", [",", "", " , "])
    def test_simulate_refuses_empty_sizes(self, tmp_path, capsys, sizes):
        code = main(["simulate", "--dgp", "setting-I", "--reps", "10", f"--sizes={sizes}",
                     "--out", str(tmp_path / "sim")])
        assert code == 1
        assert "--sizes" in _one_parse_error(capsys)["message"]

    def test_simulate_refuses_repeated_sizes(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main(["simulate", "--dgp", "setting-I", "--sizes", "100,100", "--reps", "10",
                     "--bw", "0.3", "--out", str(out)])
        assert code == 1
        assert "--sizes" in _one_parse_error(capsys)["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value", [("--sizes", "10,100"), ("--sizes", "39"), ("--reps", "5"), ("--seed", "-1")]
    )
    def test_simulate_refuses_bad_counts_by_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "sim"
        args = ["simulate", "--dgp", "setting-I", "--sizes", "100", "--reps", "10",
                "--bw", "0.3", "--out", str(out)]
        code = main(args + [f"{flag}={value}"])
        assert code == 1
        assert flag in _one_parse_error(capsys)["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sharp", "validate"])
    def test_unknown_spd_variant_is_a_parse_error(self, tmp_path, capsys, command):
        path = _write(tmp_path / "s.csv", "r,y0,y1,y2,y3\n0.5,1,0,0,1\n")
        code = main([command, "--input", str(path), "--space", "spd:bogus", "--cutoff", "0",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "unknown SPD variant 'bogus'" in _one_parse_error(capsys)["message"]

    @pytest.mark.parametrize("bw", ["x", "0.3,0.3", "", "auto,0.3"])
    def test_simulate_bad_bandwidth_is_a_parse_error(self, tmp_path, capsys, bw):
        code = main(["simulate", "--dgp", "setting-I", "--reps", "10", "--sizes", "100",
                     f"--bw={bw}", "--out", str(tmp_path / "sim")])
        assert code == 1
        assert "--bw" in _one_parse_error(capsys)["message"]
        assert not (tmp_path / "sim" / "campaign.csv").exists()

    @pytest.mark.parametrize("command", ["sharp", "fuzzy"])
    @pytest.mark.parametrize("bw", ["x", "0.3,y", "0.3,0.3,0.3", "", ",0.3"])
    def test_bad_bandwidth_spec_is_a_parse_error(self, tmp_path, capsys, command, bw):
        path = _one_sided_fuzzy_csv(tmp_path, n=100)
        code = main([command, "--input", str(path), "--space", "euclid", "--cutoff", "0",
                     f"--bw={bw}", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "--bw" in _one_parse_error(capsys)["message"]

    def test_bandwidths_are_parsed_by_the_flag_type(self):
        parser = build_parser()
        io_flags = ["--input", "s.csv", "--space", "euclid", "--cutoff", "0"]
        for command in ("sharp", "fuzzy"):
            assert parser.parse_args([command, *io_flags]).bw == "auto"
            assert parser.parse_args([command, *io_flags, "--bw", "0.3"]).bw == (0.3, 0.3)
            assert parser.parse_args([command, *io_flags, "--bw", "0.3,"]).bw == (0.3, 0.3)
            assert parser.parse_args([command, *io_flags, "--bw", "0.3,0.4"]).bw == (0.3, 0.4)
        assert parser.parse_args(["simulate"]).bw == "auto"
        assert parser.parse_args(["simulate", "--bw", "0.3"]).bw == 0.3

    def test_simulate_bandwidth_from_config_is_typed(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json", json.dumps({"bw": "0.3,0.3"}))
        code = main(["simulate", "--dgp", "setting-I", "--reps", "10", "--sizes", "100",
                     "--config", str(cfg), "--out", str(tmp_path / "sim")])
        assert code == 1
        assert "--bw" in _one_parse_error(capsys)["message"]

    @pytest.mark.parametrize(
        "flags", [["--tau", "5"], ["--noise", "9"], ["--tau", "1.0", "--noise", "0.5"]],
        ids=["tau", "noise", "both-at-scalar-defaults"],
    )
    def test_simulate_network_refuses_scalar_options(self, tmp_path, capsys, flags):
        out = tmp_path / "sim"
        code = main(["simulate", "--dgp", "network", "--reps", "10", "--sizes", "100",
                     *flags, "--out", str(out)])
        assert code == 1
        message = _one_parse_error(capsys)["message"]
        assert "--tau" in message and "network" in message
        assert not (out / "metadata.json").exists()

    def test_simulate_network_refuses_scalar_options_from_config(self, tmp_path, capsys):
        cfg = _write(tmp_path / "cfg.json", json.dumps({"tau": 5}))
        code = main(["simulate", "--dgp", "network", "--reps", "10", "--sizes", "100",
                     "--config", str(cfg), "--out", str(tmp_path / "sim")])
        assert code == 1
        _one_parse_error(capsys)

    @pytest.mark.parametrize(
        "flags, tau, sigma",
        [([], 1.0, 0.5), (["--tau", "2"], 2.0, 0.5), (["--tau", "2", "--noise", "0.1"], 2.0, 0.1)],
        ids=["defaults", "tau", "tau-and-noise"],
    )
    def test_simulate_scalar_design_takes_tau_and_noise(self, tmp_path, flags, tau, sigma):
        out = tmp_path / "sim"
        code = main(["simulate", "--dgp", "setting-II", "--reps", "10", "--sizes", "100",
                     "--bw", "0.5", *flags, "--out", str(out)])
        assert code == 0
        params = json.loads((out / "metadata.json").read_text())["config"]["dgp_params"]
        assert (params["tau"], params["sigma"], params["setting"]) == (tau, sigma, "II")

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


    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--dgp", "network", "--tau", "5"],
         ["sharp", "--input", "missing.csv", "--space", "euclid", "--cutoff", "0"],
         ["fuzzy", "--input", "fuzzy.csv", "--space", "euclid", "--cutoff", "0", "--bw", "0.5",
          "--side", "always"]],
        ids=["simulate-network-tau", "sharp-missing-input", "fuzzy-late-side"],
    )
    def test_refused_command_leaves_no_output_directory(self, tmp_path, capsys, argv):
        _one_sided_fuzzy_csv(tmp_path).rename(tmp_path / "fuzzy.csv")
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        out = tmp_path / "d"
        assert main([*argv, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] in ("parse_error", "error")
        assert not out.exists()

    def test_nested_output_directory_is_created_on_success(self, tmp_path):
        path = _setting_one_csv(tmp_path, n=200)
        out = tmp_path / "a" / "b" / "c"
        code = main(["validate", "--input", str(path), "--space", "euclid", "--cutoff", "0",
                     "--out", str(out)])
        assert code == 0
        assert json.loads((out / "report.json").read_text())["ok"]

    @pytest.mark.parametrize(
        "command, flag",
        [("simulate", "--bw"), ("sharp", "--bw"), ("fuzzy", "--bw"), ("sharp", "--bins"),
         ("fuzzy", "--bins"), ("simulate", "--sizes")],
    )
    def test_type_error_names_the_flag_and_no_private_function(
        self, tmp_path, capsys, command, flag
    ):
        io_flags = [] if command == "simulate" else [
            "--input", "s.csv", "--space", "euclid", "--cutoff", "0"]
        code = main([command, *io_flags, flag, "x", "--out", str(tmp_path / "o")])
        assert code == 1
        message = _one_parse_error(capsys)["message"]
        assert f"argument {flag}: bad " in message and "expected" in message
        assert not re.search(r"(?<![\w-])_[a-z]", message), message
        assert not (tmp_path / "o").exists()


def _readme_command_lines() -> list[str]:
    """The ``geordd`` command lines of README's CLI block, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command-line interface", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [line.strip() for line in joined.splitlines() if line.strip().startswith("geordd ")]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    commands = {shlex.split(line)[1] for line in lines}
    assert commands == {"sharp", "fuzzy", "bandwidth", "simulate", "validate"}
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
