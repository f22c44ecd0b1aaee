"""A large CSV body is parsed in ranges at once, in this process and in
forked children, and gives the serial parse's sample and refusals.

The tests lower the size floor ``_RANGE_BYTES`` so that a small body spans
several ranges, and report four usable CPUs with BLAS on one thread, so
that the body is cut into four ranges, each parsed by its own process.
Where a test leaves the CPUs as they are, it reads them through the real
``os.sched_getaffinity`` (CI reruns this file under ``taskset -c 0``).
"""

from __future__ import annotations

import json
import os
import sys
import threading

import numpy as np
import pytest

from conftest import SPACE_CASES
from geordd import Euclidean, NetworkDgp, RddSample, run_campaign, simlab
from geordd import io as gio
from geordd._workers import BLAS_THREAD_VARS
from geordd.errors import GeorddError
from geordd.io import ingest, ingest_csv, ingest_jsonl, write_sample_csv

#: payload fields after r in the hand-written bodies below
WIDTH = 3


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls made in this process from here on."""
    calls = []
    fork = os.fork

    def spy():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", spy)
    return calls


@pytest.fixture
def in_ranges(monkeypatch):
    """For each body read from here on, whether the ranges gave its records
    (False where the serial read decided)."""
    calls = []
    read_in_ranges = gio._read_in_ranges

    def spy(*args):
        values = read_in_ranges(*args)
        calls.append(values is not None)
        return values

    monkeypatch.setattr(gio, "_read_in_ranges", spy)
    return calls


def _cpus(monkeypatch, usable=4, blas="1"):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)),
                        raising=False)
    monkeypatch.setattr(sys, "platform", "linux")
    _pin_blas(monkeypatch, blas)


def _pin_blas(monkeypatch, blas="1"):
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if blas is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)


def _floor(monkeypatch, path, ranges=4):
    """Lower the size floor so that the body of ``path`` holds ``ranges``
    of it."""
    monkeypatch.setattr(gio, "_RANGE_BYTES", max(1, path.stat().st_size // (ranges + 1)))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _serial(fn, *args, **kwargs):
    """``fn(*args)`` with the body read serially."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gio, "_RANGE_BYTES", 1 << 62)
        return fn(*args, **kwargs)


def _outcome(fn, *args, **kwargs):
    """The sample's bits, or the refusal's class, message, row and column."""
    try:
        s = fn(*args, **kwargs)
    except GeorddError as err:
        return type(err), str(err), getattr(err, "row", None), getattr(err, "column", None)
    return tuple(None if col is None else col.tobytes()
                 for col in (s.r, s.t, s.z, s.ys.data))


def _lf(path):
    path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
    return path


def _body(n=60):
    """``n`` records of r and ``WIDTH`` Euclidean payload fields."""
    rng = np.random.default_rng(5)
    return [",".join(map(repr, row)) for row in rng.normal(size=(n, 1 + WIDTH)).tolist()]


def _write(path, lines, newline):
    header = ",".join(["r"] + [f"y{j}" for j in range(WIDTH)])
    path.write_bytes((newline.join([header, *lines]) + newline).encode("utf-8"))
    return path


def _line_ranges(path):
    """The body's 1-based file lines in each range of the parallel parse."""
    data = path.read_bytes()
    start = data.index(b"\n") + 1
    k = (len(data) - start) // gio._RANGE_BYTES
    ranges = gio._ranges(path, start, len(data), min(k, 4))
    return [range(data.count(b"\n", 0, lo) + 1, data.count(b"\n", 0, hi) + 1)
            for lo, hi in ranges]


NEWLINES = pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])


# ---------------------------------------------------------------------------
# the parallel parse gives the serial parse's sample and refusals
# ---------------------------------------------------------------------------


@NEWLINES
@pytest.mark.parametrize("case", SPACE_CASES, ids=[c[0] for c in SPACE_CASES])
def test_ranges_give_the_serial_sample(tmp_path, monkeypatch, forks, in_ranges, case,
                                       newline):
    name, space, draw = case
    rng = np.random.default_rng(17)
    r = rng.uniform(-1.0, 1.0, 80)
    t, z = (rng.random(80) < 0.5).astype(float), (r >= 0.0).astype(float)
    ys = space.stack(np.stack([draw(space, rng).data for _ in r]))
    path = tmp_path / f"{name}.csv"
    write_sample_csv(RddSample(r=r, ys=ys, cutoff=0.0, t=t, z=z), path)
    if newline == "\n":
        _lf(path)
    _cpus(monkeypatch)
    _floor(monkeypatch, path)
    assert len(_line_ranges(path)) == 4
    parallel = _outcome(ingest_csv, path, space, 0.0)
    assert len(forks) == 3 and in_ranges == [True]
    assert parallel == _outcome(_serial, ingest_csv, path, space, 0.0)
    assert parallel[0] == np.sort(r).tobytes()  # a sample keeps its records sorted by r
    _no_child_left()


def _put(lines, line, at, char):
    """Put ``char`` at ``at`` in file line ``line`` of ``lines``, the body
    records, so that the file keeps its length and its ranges."""
    text = lines[line - 2]
    at %= len(text)
    lines[line - 2] = text[:at] + char + text[at + 1:]


def _split_last_field(lines, line):
    _put(lines, line, lines[line - 2].rindex("."), ",")


REFUSALS = {
    "value-in-first-range": lambda lines, ranges: _put(lines, ranges[0][3], 1, "x"),
    "value-in-later-range": lambda lines, ranges: _put(lines, ranges[2][3], -3, "x"),
    "value-on-first-line-of-range": lambda lines, ranges: _put(lines, ranges[1][0], 0, "x"),
    "value-on-last-line-of-range": lambda lines, ranges: _put(lines, ranges[2][-1], -1, "x"),
    "field-count-in-later-range": lambda lines, ranges: _split_last_field(lines, ranges[3][2]),
    "later-range-of-another-width":
        lambda lines, ranges: [_split_last_field(lines, line) for line in ranges[2]],
}


@NEWLINES
@pytest.mark.parametrize("refusal", list(REFUSALS))
def test_ranges_give_the_serial_refusal(tmp_path, monkeypatch, forks, refusal, newline):
    _cpus(monkeypatch)
    lines = _body()
    path = _write(tmp_path / "body.csv", lines, newline)
    _floor(monkeypatch, path)
    ranges = _line_ranges(path)
    assert len(ranges) == 4 and all(len(lines_of_range) > 3 for lines_of_range in ranges)
    REFUSALS[refusal](lines, ranges)
    _write(path, lines, newline)
    assert _line_ranges(path) == ranges
    parallel = _outcome(ingest_csv, path, "euclid", 0.0)
    assert len(forks) == 3
    serial = _outcome(_serial, ingest_csv, path, "euclid", 0.0)
    assert parallel == serial
    assert serial[0] is gio.ParseError and serial[2] is not None, serial
    _no_child_left()


@NEWLINES
def test_blank_lines_at_a_cut_are_skipped(tmp_path, monkeypatch, forks, in_ranges, newline):
    _cpus(monkeypatch)
    lines = _body()
    spaced = [line for record in lines for line in (record, "", "")]
    path = _write(tmp_path / "spaced.csv", spaced, newline)
    _floor(monkeypatch, path)
    parallel = _outcome(ingest_csv, path, "euclid", 0.0)
    assert len(forks) == 3 and in_ranges == [True]
    assert parallel == _outcome(_serial, ingest_csv, path, "euclid", 0.0)
    assert parallel == _outcome(ingest_csv, _write(tmp_path / "dense.csv", lines, newline),
                                "euclid", 0.0)


@NEWLINES
def test_a_quoted_body_is_parsed_serially(tmp_path, monkeypatch, forks, in_ranges, newline):
    _cpus(monkeypatch)
    lines = _body()
    lines[45] = '"' + lines[45].replace(",", '","') + '"'
    path = _write(tmp_path / "quoted.csv", lines, newline)
    _floor(monkeypatch, path)
    parallel = _outcome(ingest_csv, path, "euclid", 0.0)
    assert len(forks) == 3 and in_ranges == [False]
    assert parallel == _outcome(_serial, ingest_csv, path, "euclid", 0.0)
    assert parallel == _outcome(ingest_csv, _write(tmp_path / "plain.csv", _body(), newline),
                                "euclid", 0.0)
    _no_child_left()


def test_lone_carriage_returns_are_read_serially(tmp_path, monkeypatch, forks, in_ranges):
    # after a header ended by a lone "\r" the text decoder holds state, so
    # the body's start is no byte offset
    _cpus(monkeypatch)
    lf = _write(tmp_path / "lf.csv", _body(), "\n")
    want = _outcome(_serial, ingest_csv, lf, "euclid", 0.0)
    path = _write(tmp_path / "mac.csv", _body(), "\r")
    _floor(monkeypatch, path)
    assert _outcome(ingest_csv, path, "euclid", 0.0) == want
    assert forks == [] and in_ranges == [False, False]


# ---------------------------------------------------------------------------
# the fork rule
# ---------------------------------------------------------------------------


def _one_cpu(monkeypatch):
    _cpus(monkeypatch, usable=1)


def _blas_unpinned(monkeypatch):
    _cpus(monkeypatch, blas=None)


def _below_the_floor(monkeypatch):
    _cpus(monkeypatch)
    monkeypatch.setattr(gio, "_RANGE_BYTES", 1 << 30)


@pytest.mark.parametrize("setting", [_one_cpu, _blas_unpinned, _below_the_floor],
                         ids=["one-cpu", "blas-unpinned", "below-the-floor"])
def test_no_fork(tmp_path, monkeypatch, forks, setting):
    path = _write(tmp_path / "body.csv", _body(), "\n")
    _floor(monkeypatch, path)
    setting(monkeypatch)
    assert ingest_csv(path, "euclid", 0.0).n == 60
    assert forks == []


def test_no_fork_beside_a_second_thread(tmp_path, monkeypatch, forks):
    path = _write(tmp_path / "body.csv", _body(), "\n")
    _cpus(monkeypatch)
    _floor(monkeypatch, path)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert ingest_csv(path, "euclid", 0.0).n == 60
    finally:
        stop.set()
        thread.join()
    assert forks == []
    assert ingest_csv(path, "euclid", 0.0).n == 60
    assert len(forks) == 3


def test_ingest_forks_on_the_usable_cpus(tmp_path, monkeypatch, forks):
    # the real affinity: no child on one usable CPU
    _pin_blas(monkeypatch)
    path = _write(tmp_path / "body.csv", _body(), "\n")
    _floor(monkeypatch, path, ranges=4)
    sample = ingest_csv(path, "euclid", 0.0)
    assert len(forks) == min(len(os.sched_getaffinity(0)), 4) - 1
    assert _outcome(lambda: sample) == _outcome(_serial, ingest_csv, path, "euclid", 0.0)
    _no_child_left()


# ---------------------------------------------------------------------------
# no child process outlives a call
# ---------------------------------------------------------------------------


def test_a_campaign_leaves_no_child(monkeypatch):
    monkeypatch.setattr(simlab, "_worker_count", lambda n_jobs: 2)
    run_campaign(NetworkDgp(seed=3), sizes=[100], reps=10, seed=3)
    _no_child_left()


def test_a_parallel_ingest_leaves_no_child(tmp_path, monkeypatch, forks):
    sample, _ = NetworkDgp(n=600, seed=8).sample()
    path = tmp_path / "graphs.csv"
    write_sample_csv(sample, path)
    _cpus(monkeypatch)
    _floor(monkeypatch, path)
    back = ingest_csv(path, "laplacian", 0.0, max_weight=3.0)
    assert back.ys.data.tobytes() == sample.ys.data.tobytes()
    assert len(forks) == 3
    _no_child_left()


def test_a_refusal_in_a_later_range_leaves_no_child(tmp_path, monkeypatch, forks):
    _cpus(monkeypatch)
    lines = _body()
    path = _write(tmp_path / "body.csv", lines, "\n")
    _floor(monkeypatch, path)
    line = _line_ranges(path)[3][1]
    _split_last_field(lines, line)
    _write(path, lines, "\n")
    with pytest.raises(gio.ParseError, match=f"expected 4 fields, got 5 \\(row {line}\\)"):
        ingest_csv(path, "euclid", 0.0)
    assert len(forks) == 3
    _no_child_left()


def test_an_error_in_this_process_kills_every_child(tmp_path, monkeypatch, forks):
    # a child still parsing when this process gives up is killed, not waited for
    _cpus(monkeypatch)
    path = _write(tmp_path / "body.csv", _body(), "\n")
    _floor(monkeypatch, path)
    read_range, pid, killed = gio._read_range, os.getpid(), []

    def out_of_memory_here(*args):
        if os.getpid() == pid:
            raise MemoryError
        return read_range(*args)

    kill = os.kill
    monkeypatch.setattr(gio, "_read_range", out_of_memory_here)
    monkeypatch.setattr(os, "kill", lambda child, sig: killed.append(child) or kill(child, sig))
    with pytest.raises(MemoryError):
        ingest_csv(path, "euclid", 0.0)
    assert len(forks) == len(killed) == 3
    _no_child_left()


def test_the_campaign_forks_on_the_usable_cpus(monkeypatch, forks):
    # the real affinity: a serial campaign on one usable CPU
    _pin_blas(monkeypatch)
    run_campaign(NetworkDgp(seed=3), sizes=[100], reps=10, seed=3)
    assert bool(forks) == (len(os.sched_getaffinity(0)) > 1)
    _no_child_left()


# ---------------------------------------------------------------------------
# a UTF-8 byte-order mark
# ---------------------------------------------------------------------------


def _bom(path):
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return path


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_a_csv_with_a_bom_is_the_same_sample(tmp_path, monkeypatch, parallel):
    path = _write(tmp_path / "plain.csv", _body(), "\r\n")
    marked = _bom(_write(tmp_path / "marked.csv", _body(), "\r\n"))
    if parallel:
        _cpus(monkeypatch)
        _floor(monkeypatch, path)
    assert _outcome(ingest, marked, "euclid", 0.0) == _outcome(ingest, path, "euclid", 0.0)
    lines = _body()
    lines[20] = lines[20].replace(",", ",x", 1)
    for target in (path, marked):
        _write(target, lines, "\r\n")
    _bom(marked)
    refused = _outcome(ingest_csv, marked, "euclid", 0.0)
    assert refused == _outcome(ingest_csv, path, "euclid", 0.0)
    assert refused[2:] == (22, None)


def test_json_lines_with_a_bom_are_the_same_sample(tmp_path):
    space = Euclidean(2)
    records = [{"r": r, "y": space.point([r, 1.0 - r]).to_json()}
               for r in np.linspace(-1.0, 1.0, 12).tolist()]
    lines = [json.dumps(rec) for rec in records]
    path, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    marked.write_text("\ufeff" + "\n".join(lines) + "\n", encoding="utf-8")
    want = _outcome(ingest_jsonl, path, space, 0.0)
    assert _outcome(ingest_jsonl, marked, space, 0.0) == want
    assert _outcome(ingest, marked, space, 0.0) == want
    assert _outcome(ingest, marked, "euclid", 0.0) == want
    lines[6] = lines[6].replace('"r"', '"q"')
    marked.write_text("\ufeff" + "\n".join(lines) + "\n", encoding="utf-8")
    assert _outcome(ingest, marked, "euclid", 0.0)[2] == 7
