"""How many processes a task may fork: the one rule that sets both a
campaign's worker count and the number of ranges a CSV body is parsed in."""

from __future__ import annotations

import os
import sys

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
