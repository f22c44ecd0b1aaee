"""Spans and counters wrapped around geordd's public functions, from outside.

``install(tracer)`` rebinds the names through which geordd's modules call one
another (``from .x import f`` binds ``f`` in the calling module, so each
caller's name is wrapped) and a few hot ``Space`` methods; the returned undo
function restores the originals.  Nothing is patched while tracing is off, so
untraced runs execute the program unchanged.

Spans stay in memory as ``[name, start_ns, end_ns, parent_index, op_id]`` and
are written out as JSON lines by :meth:`Tracer.write`.  Hot per-object methods
get counters only.  A span's self time is its duration minus the durations of
its child spans; children nest strictly because the client is single-threaded.
"""

from __future__ import annotations

import collections
import importlib
import json
import statistics
import time

import numpy as np

#: (metric, unit) reported by a traced run, in report order
PER_LAYER = [
    ("cli.main_s", "s"),
    ("cli.self_s", "s"),
    ("io.ingest_s", "s"),
    ("io.rows_per_s", "1/s"),
    ("io.self_s", "s"),
    ("sample.build_calls", "count"),
    ("sample.build_s", "s"),
    ("sample.setup_build_s", "s"),
    ("spaces.point_calls", "count"),
    ("spaces.embed_many_calls", "count"),
    ("spaces.embedded_rows", "count"),
    ("spaces.hilbert_distance_calls", "count"),
    ("spaces.project_calls", "count"),
    ("spaces.project_s", "s"),
    ("spaces.log_map_calls", "count"),
    ("frechet.weights_calls", "count"),
    ("frechet.weights_s", "s"),
    ("frechet.batch_lfr_calls", "count"),
    ("frechet.batch_lfr_s", "s"),
    ("frechet.batch_lfr_cells", "count"),
    ("frechet.solve_embedding_calls", "count"),
    ("frechet.solve_embedding_s", "s"),
    ("frechet.projected_share", "ratio"),
    ("frechet.solve_sphere_calls", "count"),
    ("frechet.solve_sphere_s", "s"),
    ("frechet.sphere_iterations", "count"),
    ("frechet.sphere_unconverged", "count"),
    ("frechet.sphere_multistart_spread_max", "rad"),
    ("frechet.self_s", "s"),
    ("bandwidth.select_s", "s"),
    ("bandwidth.candidates", "count"),
    ("bandwidth.candidate_s", "s"),
    ("bandwidth.candidate_self_s", "s"),
    ("bandwidth.valid_window_share", "ratio"),
    ("bandwidth.self_s", "s"),
    ("rdd_sharp.estimate_s", "s"),
    ("rdd_sharp.reference_mean_s", "s"),
    ("rdd_sharp.self_s", "s"),
    ("rdd_fuzzy.tangent_s", "s"),
    ("rdd_fuzzy.geodesic_tangent_s", "s"),
    ("rdd_fuzzy.compliance_s", "s"),
    ("rdd_fuzzy.self_s", "s"),
    ("simlab.generate_s", "s"),
    ("simlab.rep_s", "s"),
    ("simlab.rep_self_s", "s"),
    ("simlab.bandwidth_fallbacks", "count"),
    ("simlab.failed_reps", "count"),
    ("simlab.self_s", "s"),
    ("trace.ops", "count"),
    ("trace.op_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.attributed_share", "ratio"),
    ("trace.spans_per_op", "count"),
    ("trace.overhead_share", "ratio"),
]

#: layers whose span self times partition a traced op's wall time
LAYERS = ("cli", "io", "sample", "frechet", "bandwidth", "rdd_sharp", "rdd_fuzzy", "simlab")

#: name of the harness's root span around one op; its self time is unattributed
ROOT = "bench.op"


class Tracer:
    """In-memory spans plus per-op counters for one traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.op = None
        self.cur = collections.Counter()

    def begin_op(self, op):
        self.op = op
        self.cur = self.counts.setdefault(op, collections.Counter())

    def call(self, name, fn, args, kwargs):
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


# -- probes: counters read from a wrapped call's arguments and result ---------


def _rows(cur, args, kwargs, sample):
    cur["io.rows"] += sample.n


def _search(cur, args, kwargs, search):
    cur["bandwidth.windows"] += search.grid.size * search.eval_points.size
    cur["bandwidth.skipped"] += int(search.skipped.sum())


def _cells(cur, args, kwargs, result):
    r_obs, _, centers = args[:3]
    cur["frechet.batch_lfr_cells"] += np.size(r_obs) * np.size(centers)


def _rep(cur, args, kwargs, result):
    cur["simlab.bandwidth_fallbacks"] += bool(result[3])


#: (module, name in that module, span name, probe)
_SPANNED = [
    ("geordd.cli", "main", "cli.main", None),
    ("geordd.cli", "ingest", "io.ingest", _rows),
    ("geordd.io", "RddSample", "sample.build", None),
    ("geordd.simlab", "RddSample", "sample.build", None),
    ("geordd.cli", "select_bandwidth", "bandwidth.select", _search),
    ("geordd.simlab", "select_bandwidth", "bandwidth.select", _search),
    ("geordd.bandwidth", "discrepancy_loss", "bandwidth.candidate", None),
    ("geordd.bandwidth", "batch_lfr_embeddings", "frechet.batch_lfr", _cells),
    ("geordd.cli", "batch_lfr_embeddings", "frechet.batch_lfr", _cells),
    ("geordd.frechet", "compute_weights", "frechet.weights", None),
    ("geordd.bandwidth", "compute_weights", "frechet.weights", None),
    ("geordd.rdd_sharp", "compute_weights", "frechet.weights", None),
    ("geordd.rdd_fuzzy", "compute_weights", "frechet.weights", None),
    ("geordd.cli", "estimate_sharp", "rdd_sharp.estimate", None),
    ("geordd.simlab", "estimate_sharp", "rdd_sharp.estimate", None),
    ("geordd.rdd_sharp", "estimate_sharp", "rdd_sharp.estimate", None),
    ("geordd.rdd_sharp", "sample_frechet_mean", "rdd_sharp.reference_mean", None),
    ("geordd.rdd_fuzzy", "sample_frechet_mean", "rdd_sharp.reference_mean", None),
    ("geordd.rdd_fuzzy", "estimate_riemannian_fuzzy", "rdd_fuzzy.tangent", None),
    ("geordd.rdd_fuzzy", "estimate_geodesic_riemannian_fuzzy", "rdd_fuzzy.geodesic_tangent", None),
    ("geordd.rdd_fuzzy", "estimate_compliance", "rdd_fuzzy.compliance", None),
    ("geordd.cli", "run_campaign", "simlab.campaign", None),
    ("geordd.simlab", "run_campaign", "simlab.campaign", None),
    ("geordd.simlab", "_one_rep", "simlab.rep", _rep),
]

#: modules whose ``weighted_frechet_mean`` name is wrapped by the solve probe
_SOLVE_CALLERS = ("geordd.frechet", "geordd.bandwidth", "geordd.rdd_sharp", "geordd.rdd_fuzzy")

#: hot Space methods that get counters only: method -> counter
_COUNTED = {
    "point": "spaces.point_calls",
    "hilbert_distance": "spaces.hilbert_distance_calls",
    "log_map": "spaces.log_map_calls",
    "embed_many": "spaces.embed_many_calls",
    "project_embedding": "spaces.project_calls",
}


def _spanned(tracer, name, fn, probe):
    def wrapper(*args, **kwargs):
        try:
            result = tracer.call(name, fn, args, kwargs)
        except Exception:
            if name == "simlab.rep":
                tracer.cur["simlab.failed_reps"] += 1
            raise
        if probe is not None:
            probe(tracer.cur, args, kwargs, result)
        return result

    return wrapper


def _solve(tracer, fn, sphere_type):
    def wrapper(objects, weights, cfg=None, *, return_info=False):
        sphere = len(objects) > 0 and isinstance(objects[0].space, sphere_type)
        path = "sphere" if sphere else "embedding"
        result, info = tracer.call(
            f"frechet.solve_{path}", fn, (objects, weights, cfg), {"return_info": True}
        )
        cur = tracer.cur
        cur[f"frechet.solve_{path}_calls"] += 1
        cur["frechet.projected"] += bool(info.projected)
        if sphere:
            cur["frechet.sphere_iterations"] += info.iterations
            cur["frechet.sphere_unconverged"] += not info.converged
            cur["frechet.sphere_spread_max"] = max(
                cur["frechet.sphere_spread_max"], info.multistart_spread
            )
        return (result, info) if return_info else result

    return wrapper


def _counted(tracer, meth, key, fn):
    if meth == "embed_many":
        def wrapper(self, objs, *args, **kwargs):
            tracer.cur[key] += 1
            tracer.cur["spaces.embedded_rows"] += len(objs)
            return fn(self, objs, *args, **kwargs)
    elif meth == "project_embedding":
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.cur["spaces.project_ns"] += time.perf_counter_ns() - start
                tracer.cur[key] += 1
    else:
        def wrapper(*args, **kwargs):
            tracer.cur[key] += 1
            return fn(*args, **kwargs)
    return wrapper


def install(tracer):
    """Wrap the call sites listed above; returns a function that undoes it."""
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for mod_name, attr, name, probe in _SPANNED:
        mod = importlib.import_module(mod_name)
        patch(mod, attr, _spanned(tracer, name, getattr(mod, attr), probe))
    simlab = importlib.import_module("geordd.simlab")
    dgp = simlab.NetworkDgp
    patch(dgp, "sample", _spanned(tracer, "simlab.generate", dgp.sample, None))

    spaces = importlib.import_module("geordd.spaces")
    for mod_name in _SOLVE_CALLERS:
        mod = importlib.import_module(mod_name)
        patch(mod, "weighted_frechet_mean",
              _solve(tracer, mod.weighted_frechet_mean, spaces.CompositionalSphere))
    for cls in vars(spaces).values():
        if isinstance(cls, type) and issubclass(cls, spaces.Space):
            for meth, key in _COUNTED.items():
                if meth in cls.__dict__:
                    patch(cls, meth, _counted(tracer, meth, key, cls.__dict__[meth]))

    def uninstall():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


# -- aggregation ----------------------------------------------------------------


def self_times(spans):
    """Per-span (duration_ns, self_ns) lists."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0] * len(spans)
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            child[rec[3]] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def layer_metrics(tracer, ops, untraced_op_s, setup_op=None):
    """Per-layer metrics over the traced ``ops``, and per-op self time by layer.

    Times and counts are per op (summed over an op, averaged over ops) unless
    the metric is a median per call (``bandwidth.candidate_s``,
    ``bandwidth.candidate_self_s``, ``simlab.rep_s``, ``simlab.rep_self_s``),
    a mean per sphere solve (``frechet.sphere_iterations``), a ratio, or a
    maximum over the run (``frechet.sphere_multistart_spread_max``).
    ``untraced_op_s`` are the wall times of the same ops run untraced.  The
    self times by layer plus ``unattributed`` (the harness's own time inside
    an op) add up to the mean traced op time.
    """
    n = len(ops)
    opset = set(ops)
    dur, own = self_times(tracer.spans)
    total = collections.defaultdict(int)
    self_ns = collections.defaultdict(int)
    per_call = collections.defaultdict(list)
    setup_build = 0
    n_spans = 0
    for i, (name, _, _, _, op) in enumerate(tracer.spans):
        if op == setup_op and name == "sample.build":
            setup_build += dur[i]
        if op not in opset:
            continue
        n_spans += 1
        total[name] += dur[i]
        self_ns[name.split(".")[0]] += own[i]
        per_call[name].append(i)
        total[name + "#calls"] += 1
    cnt = collections.Counter()
    for op in ops:
        cnt.update(tracer.counts.get(op, {}))
    spread = max(
        float(tracer.counts.get(op, {}).get("frechet.sphere_spread_max", 0.0)) for op in ops
    )

    def per_op_s(x):
        return x / n / 1e9

    def median_s(name, values):
        idx = per_call[name]
        return statistics.median(values[i] for i in idx) / 1e9 if idx else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    solves = cnt["frechet.solve_embedding_calls"] + cnt["frechet.solve_sphere_calls"]
    op_s = per_op_s(total[ROOT])
    untraced = statistics.median(untraced_op_s)
    traced = statistics.median(dur[i] for i in per_call[ROOT]) / 1e9
    attributed = sum(self_ns[layer] for layer in LAYERS)
    out = {
        "cli.main_s": per_op_s(total["cli.main"]),
        "cli.self_s": per_op_s(self_ns["cli"]),
        "io.ingest_s": per_op_s(total["io.ingest"]),
        "io.rows_per_s": ratio(cnt["io.rows"], total["io.ingest"] / 1e9),
        "io.self_s": per_op_s(self_ns["io"]),
        "sample.build_calls": total["sample.build#calls"] / n,
        "sample.build_s": per_op_s(total["sample.build"]),
        "sample.setup_build_s": setup_build / 1e9,
        "spaces.project_s": cnt["spaces.project_ns"] / n / 1e9,
        "frechet.weights_calls": total["frechet.weights#calls"] / n,
        "frechet.weights_s": per_op_s(total["frechet.weights"]),
        "frechet.batch_lfr_calls": total["frechet.batch_lfr#calls"] / n,
        "frechet.batch_lfr_s": per_op_s(total["frechet.batch_lfr"]),
        "frechet.solve_embedding_s": per_op_s(total["frechet.solve_embedding"]),
        "frechet.projected_share": ratio(cnt["frechet.projected"], solves),
        "frechet.solve_sphere_s": per_op_s(total["frechet.solve_sphere"]),
        "frechet.sphere_iterations": ratio(
            cnt["frechet.sphere_iterations"], cnt["frechet.solve_sphere_calls"]
        ),
        "frechet.sphere_multistart_spread_max": spread,
        "frechet.self_s": per_op_s(self_ns["frechet"]),
        "bandwidth.select_s": per_op_s(total["bandwidth.select"]),
        "bandwidth.candidates": total["bandwidth.candidate#calls"] / n,
        "bandwidth.candidate_s": median_s("bandwidth.candidate", dur),
        "bandwidth.candidate_self_s": median_s("bandwidth.candidate", own),
        "bandwidth.valid_window_share": (
            1.0 - ratio(cnt["bandwidth.skipped"], cnt["bandwidth.windows"])
            if cnt["bandwidth.windows"] else 0.0
        ),
        "bandwidth.self_s": per_op_s(self_ns["bandwidth"]),
        "rdd_sharp.estimate_s": per_op_s(total["rdd_sharp.estimate"]),
        "rdd_sharp.reference_mean_s": per_op_s(total["rdd_sharp.reference_mean"]),
        "rdd_sharp.self_s": per_op_s(self_ns["rdd_sharp"]),
        "rdd_fuzzy.tangent_s": per_op_s(total["rdd_fuzzy.tangent"]),
        "rdd_fuzzy.geodesic_tangent_s": per_op_s(total["rdd_fuzzy.geodesic_tangent"]),
        "rdd_fuzzy.compliance_s": per_op_s(total["rdd_fuzzy.compliance"]),
        "rdd_fuzzy.self_s": per_op_s(self_ns["rdd_fuzzy"]),
        "simlab.generate_s": per_op_s(total["simlab.generate"]),
        "simlab.rep_s": median_s("simlab.rep", dur),
        "simlab.rep_self_s": median_s("simlab.rep", own),
        "simlab.self_s": per_op_s(self_ns["simlab"]),
        "trace.ops": n,
        "trace.op_s": op_s,
        "trace.unattributed_s": per_op_s(self_ns[ROOT.split(".")[0]]),
        "trace.attributed_share": ratio(attributed, total[ROOT]),
        "trace.spans_per_op": n_spans / n,
        "trace.overhead_share": (traced - untraced) / untraced,
    }
    for key in (
        "spaces.point_calls", "spaces.embed_many_calls", "spaces.embedded_rows",
        "spaces.hilbert_distance_calls", "spaces.project_calls", "spaces.log_map_calls",
        "frechet.batch_lfr_cells", "frechet.solve_embedding_calls",
        "frechet.solve_sphere_calls", "frechet.sphere_unconverged",
        "simlab.bandwidth_fallbacks", "simlab.failed_reps",
    ):
        out[key] = cnt[key] / n
    by_layer = {layer: per_op_s(self_ns[layer]) for layer in LAYERS}
    by_layer["unattributed"] = out["trace.unattributed_s"]
    return {name: out[name] for name, _ in PER_LAYER}, by_layer
