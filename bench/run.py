"""geordd benchmark: one workload per invocation, metrics as the last stdout line.

    python3 bench/run.py --workload sphere-fuzzy --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --selftest

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, with every
time scaled to a reference host speed (see hostspeed.py); ``--trace 1`` runs
traced/untraced op pairs on identical inputs and prints the per-layer
metrics in raw seconds.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: one single-threaded client per run.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: set-up passes per untraced run; setup_s is their median
SETUP_REPEATS = 3
#: share of a long op's time spent timing the host-speed kernel after it
REF_SHARE = 0.05

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
]

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import geordd; print(time.perf_counter() - t)"
)


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_geordd():
    """Import geordd from this checkout's src/, never from an installed copy."""
    if not (SRC / "geordd" / "__init__.py").is_file():
        _fail(f"no geordd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import geordd

    if Path(geordd.__file__).resolve().parent != SRC / "geordd":
        _fail(f"imported geordd from {geordd.__file__}, not {SRC}")
    return geordd


def import_seconds():
    """Time ``import geordd`` in a fresh interpreter (the set-up's import)."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip())


def provenance(args, n_ops):
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=60,
        )
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "geordd").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "ops": n_ops,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


class Tally:
    """Attempted/failed units and every violation seen in a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations = []

    def record(self, workload, fn, *args):
        """Run ``fn`` (an op) and verify its result; returns the op's wall time."""
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            units = getattr(workload, "units", 1)
            self.attempted += units
            self.failed += units
            self.violations.append("op raised")
            return elapsed
        elapsed = time.perf_counter() - start
        units, failed, bad = workload.verify(result)
        self.attempted += units
        self.failed += failed
        self.violations += bad
        return elapsed


def ref_passes(cls):
    """Kernel passes per gap: one, or about 5 % of a long op."""
    return max(1, round(REF_SHARE * cls.nominal_op_s / hostspeed.NOMINAL_S))


def op_count(cls, seconds, smoke):
    if smoke:
        return 1
    m = cls.op_multiple
    per_op = cls.nominal_op_s + ref_passes(cls) * hostspeed.NOMINAL_S
    return m * max(1, round(seconds / (per_op * m)))


def _timed_setup(workload):
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def run_untraced(workload, n_ops, tally):
    """Set-up and ops, each timed and scaled to the reference host speed."""
    clock = hostspeed.SpeedClock(ref_passes(type(workload)))
    imports = [clock.measure(import_seconds) for _ in range(SETUP_REPEATS)]
    builds = [clock.measure(lambda: _timed_setup(workload)) for _ in range(SETUP_REPEATS)]
    workload.prepare_checks()
    times = [
        clock.measure(lambda i=i: tally.record(workload, workload.op, i))
        for i in range(n_ops)
    ]
    workload.notes["op_s"] = times
    workload.notes["op_raw_s"] = clock.raw[2 * SETUP_REPEATS:]
    workload.notes["setup_raw_s"] = clock.raw[:2 * SETUP_REPEATS]
    workload.notes["reference_s"] = clock.gaps
    return {
        "setup_s": statistics.median(imports) + statistics.median(builds),
        "wall_s": sum(times),
        "op_p50_s": statistics.median(times),
        "ok_share": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(workload, n_ops, tally, span_path):
    """Pairs of untraced and traced ops on identical inputs, alternating order."""
    tracer = tracing.Tracer()

    def traced(fn, *args):
        uninstall = tracing.install(tracer)
        try:
            return tracer.call(tracing.ROOT, fn, args, {})
        finally:
            uninstall()

    tracer.begin_op("setup")
    workload.call = tracer.call
    try:
        traced(workload.setup)
    finally:
        del workload.call
    workload.prepare_checks()

    m = workload.op_multiple
    pairs = min(n_ops, m * max(1, math.ceil(n_ops / (2 * m))))
    untraced_s = []
    for i in range(pairs):
        for kind in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
            if kind == "plain":
                untraced_s.append(tally.record(workload, workload.op, i))
            else:
                tracer.begin_op(i)
                tally.record(workload, traced, workload.op, i)
    tracer.write(span_path)
    return tracing.layer_metrics(tracer, list(range(pairs)), untraced_s, setup_op="setup")


def run(args):
    """One benchmark run; returns (result line, provenance, extra report fields)."""
    _import_geordd()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        cls = WORKLOADS[args.workload]
        n_ops = op_count(cls, args.seconds, args.smoke)
        workload = cls(args.seed, args.smoke, workdir, n_ops)
        tally = Tally()
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            values, by_layer = run_traced(workload, n_ops, tally, OUT / f"{stem}.spans.jsonl")
            units = dict(tracing.PER_LAYER)
            extra = {"layer_self_s": by_layer}
        else:
            values = run_untraced(workload, n_ops, tally)
            units = dict(END_TO_END)
            extra = {"op_count": n_ops}
        extra["notes"] = workload.notes
        extra["violations"] = tally.violations[:50]
        extra["fail_share"] = tally.failed / tally.attempted
        line = {
            "correct": not tally.violations,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        }
        prov = provenance(args, n_ops)
        (OUT / f"{stem}.json").write_text(
            json.dumps({"provenance": prov, **extra, **line}, indent=2) + "\n",
            encoding="utf-8",
        )
        return line, prov, extra
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def selftest():
    """Smoke-run every workload both ways and check the result contract."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for tr in (0, 1):
            args = argparse.Namespace(
                workload=w["name"], seed=7, seconds=1, trace=tr, smoke=True
            )
            line, _, extra = run(args)
            label = f"{w['name']} trace={tr}"
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want[tr]:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json")
            if not all(math.isfinite(v["value"]) for v in line["metrics"].values()):
                problems.append(f"{label}: non-finite metric")
            if not line["correct"] or line["failed"]:
                problems.append(f"{label}: output checks failed: {extra['violations']}")
            if tr:
                vals = {k: v["value"] for k, v in line["metrics"].items()}
                parts = sum(extra["layer_self_s"].values())
                if abs(parts - vals["trace.op_s"]) > 1e-9 * vals["trace.op_s"] + 1e-9:
                    problems.append(f"{label}: layer self times do not sum to op time")
    # negative cases: a corrupted output must fail its check
    from workloads import WORKLOADS

    for name, cls in WORKLOADS.items():
        OUT.mkdir(exist_ok=True)
        workdir = OUT / f"selftest-{name}-{os.getpid()}"
        workdir.mkdir()
        try:
            wl = cls(7, True, workdir, 1)
            wl.setup()
            wl.prepare_checks()
            result = wl.op(0)
            if wl.verify(result)[2]:
                problems.append(f"{name}: clean output fails its check")
            if not wl.perturbed(result):
                problems.append(f"{name}: perturbed output passes its check")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one op")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        _import_geordd()
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    line, prov, extra = run(args)
    print(json.dumps({"provenance": prov}))
    for name, m in line["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    if extra["violations"]:
        print("violations: " + "; ".join(extra["violations"]))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
