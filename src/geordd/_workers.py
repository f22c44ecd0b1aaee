"""How many processes a task may fork (:func:`worker_count`, the one rule
for its three users: a campaign's replications, the ranges of a CSV body
that :func:`~geordd.io.ingest_csv` parses, and the ranges of rows that
:func:`~geordd.io.write_sample_csv` formats), and the one way that they are
forked (:func:`fork_map`, which runs them while this process waits and
reads each child's results as one pickle).

The two CSV users take at most one process per 4 MiB of body, their size
floor.  The writer holds the text of at most one range per process, each
at most 32 MiB, and writes it here; no child touches its file."""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading

#: thread-count variables that BLAS libraries read, in the order consulted
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def worker_count(n_tasks: int) -> int:
    """Processes for ``n_tasks`` tasks: as many as fit on the usable CPUs at
    the BLAS thread count each process runs, at most one per task.  The BLAS
    count is the first of ``BLAS_THREAD_VARS`` set to a positive integer,
    else every usable CPU (BLAS's own default), so an unpinned BLAS gets one
    process.  Processes are forked, so off Linux there is one."""
    if not sys.platform.startswith("linux"):
        return 1
    usable = len(os.sched_getaffinity(0))
    blas = usable
    for var in BLAS_THREAD_VARS:
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            blas = value
            break
    return min(usable // blas, n_tasks)


def _send(out, inherited, fn, jobs):
    """In a forked child: close the ``inherited`` read ends, send ``fn``'s
    results for ``jobs`` (or the exception that one raised) down the pipe
    ``out`` as one protocol-5 pickle, and leave with ``os._exit``."""
    code = 1
    try:
        for pipe in inherited:
            pipe.close()
        try:
            reply = [fn(*job) for job in jobs]
        except Exception as err:
            reply = err
        with out:
            pickle.dump(reply, out, protocol=5)
        code = 0
    finally:
        os._exit(code)


def _receive(pipe) -> list:
    """The results that a child sent down ``pipe``; raise what it raised.
    An array arrives bit-equal, and writable unless it was read-only in the
    child.  A child that ends before its reply is whole is a
    ``ChildProcessError``."""
    try:
        reply = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError("a child process ended before it sent its results") from None
    if isinstance(reply, Exception):
        raise reply
    return reply


def fork_map(fn, jobs: list, processes: int) -> list:
    """``[fn(*job) for job in jobs]``, in job order.

    The jobs are dealt in turn to ``processes`` forked children, at most one
    per job, while this process waits for their results; with fewer than
    two, or while a second thread runs (a forked copy of a lock that it
    holds is never released), they run here.  A child's exception is raised
    here, without its traceback.  On any outcome every child is killed,
    which ends one still running after an exception, and reaped.
    """
    processes = min(processes, len(jobs))
    if processes < 2 or threading.active_count() > 1:
        return [fn(*job) for job in jobs]
    results, pipes, children = [None] * len(jobs), [], []
    try:
        for first in range(processes):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as out:  # closed here whether or not fork fails
                pid = os.fork()
                if pid == 0:
                    _send(out, pipes, fn, jobs[first::processes])
            children.append(pid)
        for first, pipe in enumerate(pipes):
            results[first::processes] = _receive(pipe)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results
