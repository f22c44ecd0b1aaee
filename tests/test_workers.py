"""``fork_map`` gives ``[fn(*job) for job in jobs]`` from forked children:
in job order, with their exceptions and arrays intact, and no child left
behind on any outcome.  Where a test leaves the CPUs as they are, it reads
them through the real ``os.sched_getaffinity`` (CI reruns this file under
``taskset -c 0``)."""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from conftest import no_child_left
from geordd import ScalarDgp, run_campaign, simlab
from geordd import _workers
from geordd._workers import BLAS_THREAD_VARS, fork_map, worker_count
from geordd.errors import InvariantViolation


def _jobs(n):
    return [(i,) for i in range(n)]


def _open_fds():
    return sorted(os.listdir("/dev/fd"))


def _beside_a_thread(fn):
    """``fn()`` while a second thread runs."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        return fn()
    finally:
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_results_come_back_in_job_order(forks):
    fds = _open_fds()
    results = fork_map(lambda i: (i, os.getpid()), _jobs(7), 3)
    assert _open_fds() == fds
    assert [i for i, _ in results] == list(range(7))
    pids = [pid for _, pid in results]
    # dealt in turn: job i runs in child i % 3
    assert pids == pids[:3] * 2 + pids[:1]
    assert len(set(pids)) == 3 and os.getpid() not in pids
    assert len(forks) == 3
    no_child_left()


@pytest.mark.parametrize("n_jobs, processes, n_forks",
                         [(0, 4, 0), (5, 1, 0), (5, 0, 0), (2, 5, 2)])
def test_at_most_one_child_per_job(forks, n_jobs, processes, n_forks):
    assert fork_map(lambda i: i * i, _jobs(n_jobs), processes) == [i * i for i in range(n_jobs)]
    assert len(forks) == n_forks
    no_child_left()


def test_a_child_error_arrives_whole():
    def refuse(i):
        if i == 4:
            err = InvariantViolation(f"row 9 of job {i} in process {os.getpid()}")
            err.index = 9
            raise err
        return i

    with pytest.raises(InvariantViolation) as info:
        fork_map(refuse, _jobs(7), 3)
    err = info.value
    assert type(err) is InvariantViolation and err.code == "invariant_violation"
    assert err.index == 9
    assert str(err).startswith("row 9 of job 4 in process ")
    assert str(err) != f"row 9 of job 4 in process {os.getpid()}"
    no_child_left()


def _arrays(seed):
    rng = np.random.default_rng(seed)
    big = rng.normal(size=(3000, 55))
    return [big, np.asfortranarray(rng.integers(-9, 9, size=(7, 5))), big[::3, 1::2],
            np.empty((0, 4)), np.float64(seed), np.array([np.nan, -0.0, np.inf])]


def test_arrays_arrive_bit_equal_and_writable():
    results = fork_map(_arrays, _jobs(3), 3)
    for seed, got in enumerate(results):
        for have, want in zip(got, _arrays(seed)):
            assert type(have) is type(want)
            assert (have.dtype, have.shape) == (want.dtype, want.shape)
            assert have.tobytes() == want.tobytes()
            if isinstance(have, np.ndarray):
                assert have.flags.writeable
    big = results[0][0]
    big[0, 0] = 1.5
    assert big[0, 0] == 1.5
    no_child_left()


def _read_only(seed):
    out = np.random.default_rng(seed).normal(size=(500, 7))
    out.setflags(write=False)
    return out


def test_a_read_only_array_arrives_bit_equal_and_read_only():
    for seed, got in enumerate(fork_map(_read_only, _jobs(2), 2)):
        want = _read_only(seed)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert not got.flags.writeable
    no_child_left()


class _CutPipe:
    """A child's pipe end that passes on only the first ``keep`` bytes
    written to it."""

    def __init__(self, out, keep):
        self.out, self.keep = out, keep

    def write(self, data):
        data = memoryview(data).cast("B")
        self.out.write(data[:self.keep])
        self.keep = max(self.keep - len(data), 0)
        return len(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.out.close()


def test_a_reply_cut_inside_an_array_is_an_error(monkeypatch, forks):
    big = np.arange(8000.0)
    whole = pickle.dumps([big], protocol=5)
    start = whole.index(big.tobytes())
    keep = start + big.nbytes // 2
    with pytest.raises(pickle.UnpicklingError, match="pickle data was truncated"):
        pickle.loads(whole[:keep])
    send = _workers._send
    monkeypatch.setattr(_workers, "_send", lambda out, *rest: send(_CutPipe(out, keep), *rest))
    with pytest.raises(ChildProcessError, match="ended before it sent its results"):
        fork_map(lambda i: big, _jobs(2), 2)
    assert len(forks) == 2
    no_child_left()


def test_no_fork_beside_a_second_thread(forks):
    results = _beside_a_thread(lambda: fork_map(lambda i: (i, os.getpid()), _jobs(7), 3))
    assert results == [(i, os.getpid()) for i in range(7)]
    assert forks == []


def test_an_error_here_kills_and_reaps_every_child(monkeypatch, forks):
    # children still running when this process gives up are killed, not waited for
    killed, reaped = [], []
    kill, waitpid = os.kill, os.waitpid

    def out_of_memory_here(pipe):
        raise MemoryError

    def reap(pid, options):
        pid, status = waitpid(pid, options)
        reaped.append(status)
        return pid, status

    monkeypatch.setattr(_workers, "_receive", out_of_memory_here)
    monkeypatch.setattr(os, "kill", lambda child, sig: killed.append(child) or kill(child, sig))
    monkeypatch.setattr(os, "waitpid", reap)
    fds, start = _open_fds(), time.monotonic()
    with pytest.raises(MemoryError):
        fork_map(time.sleep, [(60,)] * 3, 3)
    assert time.monotonic() - start < 30
    assert _open_fds() == fds
    assert len(forks) == len(set(killed)) == len(reaped) == 3
    assert all(os.WIFSIGNALED(s) and os.WTERMSIG(s) == signal.SIGKILL for s in reaped)
    no_child_left()


def test_a_child_that_ends_early_is_an_error(forks):
    def end(i):
        if i == 5:
            os._exit(0)
        return i

    with pytest.raises(ChildProcessError, match="ended before it sent its results"):
        fork_map(end, _jobs(7), 3)
    assert len(forks) == 3
    no_child_left()


def _pin_blas(monkeypatch):
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def test_fork_map_forks_on_the_usable_cpus(monkeypatch, forks):
    # the real affinity: everything in this process on one usable CPU
    _pin_blas(monkeypatch)
    cpus = len(os.sched_getaffinity(0))
    results = fork_map(lambda i: (i, os.getpid()), _jobs(4), worker_count(4))
    assert [i for i, _ in results] == list(range(4))
    assert (os.getpid() in {pid for _, pid in results}) == (cpus == 1)
    assert len(forks) == (min(cpus, 4) if cpus > 1 else 0)
    no_child_left()


def test_a_campaign_beside_a_second_thread_forks_nothing(monkeypatch, forks):
    def campaign(workers):
        monkeypatch.setattr(simlab, "_worker_count", lambda n_jobs: workers)
        return run_campaign(ScalarDgp(setting="II", seed=3), sizes=[100, 200], reps=10,
                            seed=3)

    beside = _beside_a_thread(lambda: campaign(2))
    assert forks == []
    serial = campaign(1)
    assert beside.to_csv() == serial.to_csv()
    assert beside.metadata == serial.metadata
    assert len(campaign(2).rows) == 20 and len(forks) == 2
    no_child_left()
