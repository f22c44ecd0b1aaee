"""A large CSV body is parsed in ranges at once, each in a forked child,
and gives the serial parse's sample and refusals; a large sample is written
in ranges, each formatted in a forked child, and gives the serial writer's
bytes.

The tests lower the size floor ``_RANGE_BYTES`` so that a small body spans
several ranges, and report four usable CPUs with BLAS on one thread, so
that the body is cut into four ranges, each parsed by its own child.
The writer's tests cut its blocks to a few rows and force the process
count through ``worker_count`` or the same CPU report.  Where a test
leaves the CPUs as they are, it reads them through the real
``os.sched_getaffinity`` (CI reruns this file under ``taskset -c 0``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import SPACE_CASES, no_child_left
from geordd import Euclidean, NetworkDgp, RddSample, run_campaign, simlab
from geordd import _workers
from geordd import io as gio
from geordd._workers import BLAS_THREAD_VARS
from geordd.errors import GeorddError, InvariantViolation
from geordd.io import ingest, ingest_csv, ingest_jsonl, write_sample_csv
from geordd.spaces import PointStack, SpdSpace
from geordd.spaces import base as spaces_base

#: payload fields after r in the hand-written bodies below
WIDTH = 3


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
    assert len(forks) == 4 and in_ranges == [True]
    assert parallel == _outcome(_serial, ingest_csv, path, space, 0.0)
    assert parallel[0] == np.sort(r).tobytes()  # a sample keeps its records sorted by r
    no_child_left()


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
    assert len(forks) == 4
    serial = _outcome(_serial, ingest_csv, path, "euclid", 0.0)
    assert parallel == serial
    assert serial[0] is gio.ParseError and serial[2] is not None, serial
    no_child_left()


@NEWLINES
def test_blank_lines_at_a_cut_are_skipped(tmp_path, monkeypatch, forks, in_ranges, newline):
    _cpus(monkeypatch)
    lines = _body()
    spaced = [line for record in lines for line in (record, "", "")]
    path = _write(tmp_path / "spaced.csv", spaced, newline)
    _floor(monkeypatch, path)
    parallel = _outcome(ingest_csv, path, "euclid", 0.0)
    assert len(forks) == 4 and in_ranges == [True]
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
    assert len(forks) == 4 and in_ranges == [False]
    assert parallel == _outcome(_serial, ingest_csv, path, "euclid", 0.0)
    assert parallel == _outcome(ingest_csv, _write(tmp_path / "plain.csv", _body(), newline),
                                "euclid", 0.0)
    no_child_left()


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


def test_a_start_past_the_end_is_cut_into_no_ranges(tmp_path, monkeypatch, forks, in_ranges):
    # the start is checked for a byte offset before the body is cut, not
    # through the process count of a negative body length
    _cpus(monkeypatch)
    monkeypatch.setattr(gio, "worker_count", lambda n_tasks: 4)
    cut, ranges = [], gio._ranges
    monkeypatch.setattr(gio, "_ranges", lambda *args: cut.append(args[1]) or ranges(*args))
    want = _outcome(ingest_csv, _write(tmp_path / "lf.csv", _body(), "\n"), "euclid", 0.0)
    assert len(forks) == 4 and len(cut) == 1
    path = _write(tmp_path / "mac.csv", _body(), "\r")
    assert _outcome(ingest_csv, path, "euclid", 0.0) == want
    assert len(forks) == 4 and len(cut) == 1 and in_ranges == [True, False]


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
    assert len(forks) == 4


def test_ingest_forks_on_the_usable_cpus(tmp_path, monkeypatch, forks):
    # the real affinity: no child on one usable CPU
    _pin_blas(monkeypatch)
    path = _write(tmp_path / "body.csv", _body(), "\n")
    _floor(monkeypatch, path, ranges=4)
    sample = ingest_csv(path, "euclid", 0.0)
    cpus = min(len(os.sched_getaffinity(0)), 4)
    assert len(forks) == (cpus if cpus > 1 else 0)
    assert _outcome(lambda: sample) == _outcome(_serial, ingest_csv, path, "euclid", 0.0)
    no_child_left()


# ---------------------------------------------------------------------------
# no child process outlives a call
# ---------------------------------------------------------------------------


def test_a_campaign_leaves_no_child(monkeypatch):
    monkeypatch.setattr(simlab, "_worker_count", lambda n_jobs: 2)
    run_campaign(NetworkDgp(seed=3), sizes=[100], reps=10, seed=3)
    no_child_left()


def test_a_parallel_ingest_leaves_no_child(tmp_path, monkeypatch, forks):
    sample, _ = NetworkDgp(n=600, seed=8).sample()
    path = tmp_path / "graphs.csv"
    write_sample_csv(sample, path)
    _cpus(monkeypatch)
    _floor(monkeypatch, path)
    back = ingest_csv(path, "laplacian", 0.0, max_weight=3.0)
    assert back.ys.data.tobytes() == sample.ys.data.tobytes()
    assert len(forks) == 4
    no_child_left()


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
    assert len(forks) == 4
    no_child_left()


def test_an_error_in_this_process_kills_every_child(tmp_path, monkeypatch, forks):
    # a child still parsing when this process gives up is killed, not waited for
    _cpus(monkeypatch)
    path = _write(tmp_path / "body.csv", _body(), "\n")
    _floor(monkeypatch, path)
    killed, kill = [], os.kill

    def out_of_memory_here(pipe):
        raise MemoryError

    monkeypatch.setattr(_workers, "_receive", out_of_memory_here)
    monkeypatch.setattr(os, "kill", lambda child, sig: killed.append(child) or kill(child, sig))
    with pytest.raises(MemoryError):
        ingest_csv(path, "euclid", 0.0)
    assert len(forks) == len(killed) == 4
    no_child_left()


def test_the_campaign_forks_on_the_usable_cpus(monkeypatch, forks):
    # the real affinity: a serial campaign on one usable CPU
    _pin_blas(monkeypatch)
    run_campaign(NetworkDgp(seed=3), sizes=[100], reps=10, seed=3)
    assert bool(forks) == (len(os.sched_getaffinity(0)) > 1)
    no_child_left()


# ---------------------------------------------------------------------------
# a large sample is written in ranges, each formatted in a forked child
# ---------------------------------------------------------------------------


def _small_blocks(monkeypatch, sample, rows=5):
    """Blocks of ``rows`` rows of ``sample``: 80 rows are a first block and
    15 more."""
    width = int(np.prod(sample.space.shape))
    monkeypatch.setattr(spaces_base, "_BLOCK_ENTRIES", rows * width)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _serial_sha256(sample, path):
    """The SHA-256 of ``sample`` written with one process."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gio, "worker_count", lambda n_tasks: 1)
        write_sample_csv(sample, path)
    return _sha256(path)


def _draw(case, n=80):
    """``n`` records of the geometry of ``case``, with t and z columns."""
    _, space, draw = case
    rng = np.random.default_rng(23)
    r = rng.uniform(-1.0, 1.0, n)
    t, z = (rng.random(n) < 0.5).astype(float), (r >= 0.0).astype(float)
    return RddSample(r=r, ys=space.stack(np.stack([draw(space, rng).data for _ in r])),
                     cutoff=0.0, t=t, z=z)


def _signed_zeros(n=80):
    """Symmetric (4, 4) payloads, with 0.0 opposite -0.0 in a row of the
    first block and in one of a later range: those blocks are written entry
    by entry, the others from their upper triangles."""
    rng = np.random.default_rng(29)
    a = rng.normal(size=(n, 4, 4))
    ys = a + np.swapaxes(a, 1, 2)
    for row in (2, 57):
        ys[row, 0, 2], ys[row, 2, 0] = 0.0, -0.0
    return RddSample(np.linspace(-1.0, 1.0, n), PointStack(SpdSpace(4), ys), 0.0)


WRITES = [pytest.param(lambda case=case: _draw(case), id=case[0]) for case in SPACE_CASES]
WRITES.append(pytest.param(_signed_zeros, id="signed-zeros"))


@pytest.mark.parametrize("make", WRITES)
def test_ranges_write_the_serial_bytes(tmp_path, monkeypatch, forks, make):
    sample = make()
    _small_blocks(monkeypatch, sample)
    want = _serial_sha256(sample, tmp_path / "serial.csv")
    assert forks == []
    monkeypatch.setattr(gio, "worker_count", lambda n_tasks: 4)
    path = tmp_path / "ranges.csv"
    write_sample_csv(sample, path)
    assert len(forks) == 4  # 15 blocks in ranges of 4, 4, 4 and 3
    assert _sha256(path) == want
    assert ingest_csv(path, "euclid", 0.0).r.tobytes() == sample.r.tobytes()
    no_child_left()


def _write_floor(monkeypatch, sample, path, ranges=4):
    """Cut the size floor so that the body of ``sample`` holds ``ranges``
    of it, and write it there serially."""
    _small_blocks(monkeypatch, sample)
    want = _serial_sha256(sample, path)
    monkeypatch.setattr(gio, "_RANGE_BYTES", path.stat().st_size // (ranges + 1))
    return want


@pytest.mark.parametrize("setting", [_one_cpu, _blas_unpinned, _below_the_floor],
                         ids=["one-cpu", "blas-unpinned", "below-the-floor"])
def test_no_fork_in_a_write(tmp_path, monkeypatch, forks, setting):
    sample = _draw(SPACE_CASES[3])
    want = _write_floor(monkeypatch, sample, tmp_path / "serial.csv")
    _cpus(monkeypatch)
    write_sample_csv(sample, tmp_path / "sample.csv")
    assert len(forks) == 4
    setting(monkeypatch)
    write_sample_csv(sample, tmp_path / "sample.csv")
    assert len(forks) == 4
    assert _sha256(tmp_path / "sample.csv") == want


def test_no_fork_in_a_write_beside_a_second_thread(tmp_path, monkeypatch, forks):
    sample = _draw(SPACE_CASES[3])
    want = _write_floor(monkeypatch, sample, tmp_path / "serial.csv")
    _cpus(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        write_sample_csv(sample, tmp_path / "sample.csv")
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == [] and _sha256(tmp_path / "sample.csv") == want
    write_sample_csv(sample, tmp_path / "sample.csv")
    assert len(forks) == 4 and _sha256(tmp_path / "sample.csv") == want


def test_a_write_forks_on_the_usable_cpus(tmp_path, monkeypatch, forks):
    # the real affinity: no child on one usable CPU
    _pin_blas(monkeypatch)
    sample = _draw(SPACE_CASES[3])
    want = _write_floor(monkeypatch, sample, tmp_path / "serial.csv")
    write_sample_csv(sample, tmp_path / "sample.csv")
    cpus = min(len(os.sched_getaffinity(0)), 4)
    assert len(forks) == (cpus if cpus > 1 else 0)
    assert _sha256(tmp_path / "sample.csv") == want
    no_child_left()


def test_a_child_error_in_a_write_is_raised_here(tmp_path, monkeypatch, forks):
    sample = _draw(SPACE_CASES[3])
    _small_blocks(monkeypatch, sample)
    monkeypatch.setattr(gio, "worker_count", lambda n_tasks: 4)
    here, format_rows = os.getpid(), gio._format_rows

    def refuse_in_a_child(sample, start, stop):
        if os.getpid() != here and start <= 45 < stop:
            raise InvariantViolation(f"rows {start}:{stop} refused in a child")
        return format_rows(sample, start, stop)

    monkeypatch.setattr(gio, "_format_rows", refuse_in_a_child)
    with pytest.raises(InvariantViolation, match="^rows 45:65 refused in a child$"):
        write_sample_csv(sample, tmp_path / "sample.csv")
    assert len(forks) == 4
    no_child_left()


def test_a_write_in_rounds_holds_at_most_one_range_per_process(tmp_path, monkeypatch,
                                                                forks):
    # 2 processes and ranges of 4 blocks of 50 rows (at the longest repr of
    # each value): the 1,950 rows after the first block go in 10 ranges, 5
    # rounds of 2
    sample, _ = NetworkDgp(n=2_000, seed=4, n_nodes=6).sample()
    _small_blocks(monkeypatch, sample, rows=50)
    row_text = 37 * (gio._REPR_CHARS + 1) + 1
    monkeypatch.setattr(gio, "_RANGE_TEXT", 4 * 50 * row_text)
    want = _serial_sha256(sample, tmp_path / "serial.csv")
    monkeypatch.setattr(gio, "worker_count", lambda n_tasks: 2)
    gc.collect()
    tracemalloc.start()
    try:
        gio._format_rows(sample, 0, 50)
        block = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        write_sample_csv(sample, tmp_path / "sample.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(forks) == 10
    assert _sha256(tmp_path / "sample.csv") == want
    # this process holds two ranges beside its own first block, not the body
    bound = 2 * gio._RANGE_TEXT + block
    assert peak < bound < (tmp_path / "sample.csv").stat().st_size
    no_child_left()


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
