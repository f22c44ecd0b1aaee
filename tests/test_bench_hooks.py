"""The benchmark tracer still finds every name it wraps, and undoes its patches.

``bench/tracing.py`` rebinds names inside geordd's modules by looking them up
in each module's namespace, so renaming or removing one of those names breaks
traced benchmark runs.  These tests catch that without running the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from geordd import Euclidean, NoncomplianceSide, RddSample

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("geordd_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # load without writing a bytecode cache into bench/
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _namespaces():
    """Copies of every geordd module namespace and of its classes' namespaces."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "geordd" and not name.startswith("geordd."):
            continue
        out[name] = dict(vars(mod))
        for val in vars(mod).values():
            if isinstance(val, type) and val.__module__.startswith("geordd"):
                out[f"{val.__module__}.{val.__qualname__}"] = dict(vars(val))
    return out


def _changed(before, after):
    return sorted(
        f"{ns}.{attr}"
        for ns, names in before.items()
        for attr in names.keys() | after[ns].keys()
        if names.get(attr) is not after[ns].get(attr)
    )


def test_every_traced_name_exists(tracing):
    wanted = [(mod, attr) for mod, attr, _, _ in tracing._SPANNED]
    wanted += [(mod, "weighted_frechet_mean") for mod in tracing._SOLVE_CALLERS]
    missing = [
        f"{mod}.{attr}"
        for mod, attr in wanted
        if attr not in vars(importlib.import_module(mod))
    ]
    assert not missing


def test_install_then_undo_restores_every_name(tracing):
    importlib.import_module("geordd.cli")  # load every module install() patches
    before = _namespaces()
    undo = tracing.install(tracing.Tracer())
    try:
        patched = _changed(before, _namespaces())
    finally:
        undo()
    assert "geordd.rdd_fuzzy.estimate_compliance" in patched
    assert "geordd.rdd_sharp.sample_frechet_mean" in patched
    assert _changed(before, _namespaces()) == []


def test_traced_fuzzy_call_records_layer_spans(tracing):
    import geordd.rdd_fuzzy as rdd_fuzzy

    rng = np.random.default_rng(0)
    r = rng.uniform(-1, 1, 200)
    z = (r >= 0).astype(int)
    t = np.where(z == 1, 1, (rng.random(200) < 0.3).astype(int))
    eu = Euclidean(1)
    sample = RddSample(
        r=r, ys=tuple(eu.point([v]) for v in r + t), cutoff=0.0, t=t, z=z
    )
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        tracer.begin_op(0)
        rdd_fuzzy.estimate_geodesic_riemannian_fuzzy(
            sample, None, NoncomplianceSide.ALWAYS_TAKERS, 0.5, 0.5
        )
    finally:
        undo()
    names = {span[0] for span in tracer.spans}
    assert {
        "rdd_fuzzy.geodesic_tangent",
        "rdd_fuzzy.compliance",
        "rdd_sharp.reference_mean",
        "frechet.weights",
        "frechet.solve_embedding",
    } <= names
    # one stacked Log call maps the whole sample into the tangent chart
    assert tracer.counts[0]["spaces.log_map_calls"] == 1
