"""Imports kept in ``src/`` only for the benchmark tracer stay justified,
and the tracer's counters still count.

``bench/tracing.py`` wraps names inside geordd's modules, so a module may
import a name it never calls, marked with ``PIN``.  Each such import must
name a (module, attribute) pair that the tracer still wraps; once it stops
wrapping one, the pin is dead code and this test says where.  The tracer
also counts calls of the space methods it names in ``_COUNTED``, on each
class that defines one; a method that no longer exists under its name would
leave its counter at 0.  ``weighted_frechet_mean`` keeps a positional
``cfg`` slot, which takes only None, because the tracer's solve wrapper
forwards one.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from geordd import CompositionalSphere, Euclidean, spaces, weighted_frechet_mean

ROOT = Path(__file__).resolve().parents[1]
PIN = "# noqa: F401 - bench/tracing.py wraps this module's name"


def _marked_lines():
    """{module name: line numbers carrying ``PIN``} over ``src/geordd``."""
    out = {}
    for path in sorted((ROOT / "src" / "geordd").rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        marked = {i + 1 for i, line in enumerate(lines) if line.rstrip().endswith(PIN)}
        if marked:
            parts = path.relative_to(ROOT / "src").with_suffix("").parts
            out[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = (path, marked)
    return out


def _pins():
    """(module, imported name, line) of each import alias on a marked line."""
    out = []
    for module, (path, marked) in _marked_lines().items():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out += [(module, a.asname or a.name, a.lineno)
                        for a in node.names if a.lineno in marked]
    return out


def _tracing():
    """``bench/tracing.py``, loaded as a module of its own."""
    spec = importlib.util.spec_from_file_location("geordd_tracer_pins", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    # load without writing a bytecode cache into bench/
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracing)
    finally:
        sys.dont_write_bytecode = saved
    return tracing


def _wrapped():
    """The (module, attribute) pairs that ``bench/tracing.py`` rebinds."""
    tracing = _tracing()
    spanned = {(module, attr) for module, attr, *_ in tracing._SPANNED}
    return spanned | {(module, "weighted_frechet_mean") for module in tracing._SOLVE_CALLERS}


def test_every_marked_line_is_an_import():
    lines = {(module, line) for module, (_, marked) in _marked_lines().items() for line in marked}
    assert {(module, line) for module, _, line in _pins()} == lines


def test_every_pin_names_a_wrapped_name():
    wrapped = _wrapped()
    assert [pin for pin in _pins() if pin[:2] not in wrapped] == []


def test_every_counted_method_is_defined_on_an_exported_space():
    classes = [getattr(spaces, name) for name in spaces.__all__]
    classes = [c for c in classes if isinstance(c, type) and issubclass(c, spaces.Space)]
    defined = {meth for c in classes for meth in vars(c)}
    assert sorted(set(_tracing()._COUNTED) - defined) == []


def test_the_solve_wrapper_forwards_a_third_positional_argument():
    # once it forwards two, the ``cfg`` slot of weighted_frechet_mean can go
    tracing = _tracing()
    seen = []

    def spy(*args, **kwargs):
        seen.append(args)
        return weighted_frechet_mean(*args, **kwargs)

    wrapper = tracing._solve(tracing.Tracer(), spy, spaces.CompositionalSphere)
    wrapper(Euclidean(2).stack(np.eye(2)), np.ones(2))
    assert len(seen) == 1 and len(seen[0]) == 3 and seen[0][2] is None


@pytest.mark.parametrize("space", [Euclidean(3), CompositionalSphere(3)], ids=["flat", "sphere"])
def test_the_cfg_slot_takes_only_none(space):
    rows = np.abs(np.random.default_rng(3).normal(size=(6, 3)))
    pts = space.stack(rows / np.linalg.norm(rows, axis=1, keepdims=True))
    w = np.linspace(0.5, 1.5, 6)
    assert weighted_frechet_mean(pts, w, None).data.tobytes() == (
        weighted_frechet_mean(pts, w).data.tobytes())
    with pytest.raises(TypeError):
        weighted_frechet_mean(pts, w, object())
