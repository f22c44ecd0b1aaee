"""Host-speed reference kernel: a fixed amount of work timed beside the ops.

The shared host that runs the benchmark changes speed by a quarter or more
over tens of seconds (the same op takes 1.0 s in one half-minute and 1.5 s
in the next, in CPU time as well as wall time).  A run of 25 s sees one such
period, so raw op times spread across runs by as much as the bound allows.
The harness therefore times this kernel right before and after every timed
segment and scales the segment's time by ``NOMINAL_S`` over the kernel's
time: the reported seconds are seconds at the host speed at which the kernel
takes ``NOMINAL_S``.  The raw times and kernel times are kept in the result
file.

The kernel mixes the three kinds of work the workloads do, in roughly equal
parts: interpreted Python (per-call overhead, the campaign), small-array
numpy calls (the sphere solver) and dense array passes over a few MB (the
bandwidth search).  It lives in the benchmark, not in the program, so a
change to the program cannot change it, and its inputs are fixed, not drawn
from the workload seed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: kernel time, in seconds, at the reference host speed
NOMINAL_S = 0.1

_RNG = np.random.default_rng(20250618)
_PTS = _RNG.random((500, 3))
_PTS /= np.linalg.norm(_PTS, axis=1, keepdims=True)
_W = _RNG.random(500)
_DENSE = _RNG.random((400, 1000))
_X = _RNG.random(1000)


def _python(k=170_000):
    acc = 0
    table = {}
    for i in range(k):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return acc


def _small_numpy(k=650):
    z = _PTS[0].copy()
    for _ in range(k):
        d = np.clip(_PTS @ z, -1.0, 1.0)
        theta = np.arccos(d)
        u = _PTS - d[:, None] * z
        norms = np.linalg.norm(u, axis=1)
        scale = np.zeros_like(norms)
        ok = norms > 1e-14
        scale[ok] = theta[ok] / norms[ok]
        z = z + 1e-3 * ((_W * scale) @ u)
        z /= np.linalg.norm(z)
    return z


def _dense(k=11):
    total = 0.0
    for j in range(k):
        d = np.abs(_DENSE - _X[j])
        k_w = np.clip(1.0 - d, 0.0, None)
        total += float((k_w * _DENSE).sum(axis=1) @ (k_w.sum(axis=1) + 1.0))
    return total


def reference_seconds():
    """Wall time of one pass of the fixed kernel."""
    start = time.perf_counter()
    _python()
    _small_numpy()
    _dense()
    return time.perf_counter() - start


class SpeedClock:
    """Scales measured durations by the kernel times around them.

    ``passes`` kernel passes run after every segment (and before the first);
    their median is the kernel time of that gap, and a segment's scale is
    ``NOMINAL_S`` over the mean kernel time of the gaps before and after it.
    """

    def __init__(self, passes=1):
        self.passes = passes
        reference_seconds()  # warm-up, discarded
        self.gaps = [self._gap()]
        self.raw = []

    def _gap(self):
        return statistics.median(reference_seconds() for _ in range(self.passes))

    def measure(self, seconds_fn):
        """Call ``seconds_fn()``, which returns a duration; returns it scaled."""
        raw = seconds_fn()
        self.gaps.append(self._gap())
        scaled = raw * NOMINAL_S / (0.5 * (self.gaps[-2] + self.gaps[-1]))
        self.raw.append(raw)
        return scaled
