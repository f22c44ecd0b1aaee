"""Reference outputs of the estimators, pinned in tier-1.

:func:`compute` runs a fixed list of seeded calls and returns their outputs
as plain JSON values, one entry per call:

- ``bandwidth/<geometry>``: ``select_bandwidth`` on every ``SPACE_CASES``
  geometry (the sphere at n = 120 with a grid of 4), and only ``b_star`` on
  a noiseless linear sample, whose losses are rounding noise;
- ``sharp/<geometry>``: ``estimate_sharp`` at fixed bandwidths, with both
  solves' ``SolveInfo``;
- ``fuzzy/<geometry>/<side>``: the four fuzzy estimators on a Euclidean
  sample and the two tangent ones on a sphere sample, for each
  noncompliance side, with their warnings;
- ``cli/sharp_auto_network``: the report of ``geordd sharp --bw auto`` on a
  seeded 2,000-graph CSV;
- ``campaign/<setting>``: the CSV of one ``NetworkDgp`` campaign and one
  ``ScalarDgp`` campaign per setting, at sizes 100 and 200 with 10
  replications;
- ``refusals``: the error ``code`` of each of a fixed list of refused inputs.

:func:`differences` compares two such dicts: strings, integers, booleans and
every ``b_star`` exactly, and each float or float array to ``RTOL`` of its
own largest magnitude, so the check holds at any BLAS thread count.

``python tests/reference_outputs.py`` prints the largest move of each entry
against ``tests/data/reference_outputs.json``; ``--write [ENTRY ...]``
rewrites the named entries (all of them when none is named).  A change that
moves a number on purpose regenerates only the entries it moves.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from geordd import (
    CompositionalSphere,
    Euclidean,
    FunctionalL2,
    NetworkDgp,
    NetworkLaplacian,
    NoncomplianceSide,
    RddSample,
    ScalarDgp,
    Wasserstein1D,
    errors,
    estimate_fuzzy_late,
    estimate_geodesic_fuzzy,
    estimate_geodesic_riemannian_fuzzy,
    estimate_riemannian_fuzzy,
    estimate_sharp,
    run_campaign,
    select_bandwidth,
)
from geordd.cli import main as cli_main
from geordd.io import ingest_csv, write_sample_csv
from geordd.spaces import PointStack
from geordd.spaces.network import laplacian_from_weights

from conftest import SPACE_CASES

REFERENCE = Path(__file__).parent / "data" / "reference_outputs.json"

#: floats may move by this share of their entry's largest magnitude
RTOL = 1e-12

#: keys whose float values are compared exactly
EXACT_KEYS = {"b_star"}


# ---------------------------------------------------------------------------
# the calls
# ---------------------------------------------------------------------------


def _geometry_sample(space, sampler, n, seed):
    """Payloads on the segment between two random points, moving with r and
    jumping at the cutoff 0, each mixed with a random point (every shipped
    payload set is convex; sphere rows are normalised back onto it)."""
    rng = np.random.default_rng(seed)
    a, b = sampler(space, rng).data, sampler(space, rng).data
    r = rng.uniform(-1.0, 1.0, n)
    t = (0.3 + 0.2 * r + 0.3 * (r >= 0.0)).reshape((n,) + (1,) * a.ndim)
    noise = np.stack([sampler(space, rng).data for _ in range(n)])
    y = 0.85 * ((1.0 - t) * a + t * b) + 0.15 * noise
    if isinstance(space, CompositionalSphere):
        y /= np.linalg.norm(y, axis=1, keepdims=True)
    return RddSample(r=r, ys=space.stack(y), cutoff=0.0)


def _geometry_entries() -> dict:
    out = {}
    for name, space, sampler in SPACE_CASES:
        sphere = isinstance(space, CompositionalSphere)
        sample = _geometry_sample(space, sampler, 120 if sphere else 200, seed=11)
        search = select_bandwidth(sample, grid_size=4 if sphere else 20)
        out[f"bandwidth/{name}"] = search.to_json()
        out[f"sharp/{name}"] = estimate_sharp(sample, 0.5, 0.6).to_json()
    rng = np.random.default_rng(5)
    r = rng.uniform(-1.0, 1.0, 500)
    linear = RddSample(r=r, ys=Euclidean(1).stack(r[:, None]), cutoff=0.0)
    out["bandwidth/linear_noiseless"] = {"b_star": select_bandwidth(linear).b_star}
    return out


def _treatment(rng, z, side):
    """T under one-sided noncompliance, a quarter noncompliers."""
    nc = (rng.random(z.size) < 0.25).astype(int)
    if side is NoncomplianceSide.ALWAYS_TAKERS:
        return np.where(z == 1, 1, nc)
    return np.where(z == 1, 1 - nc, 0)


def _fuzzy_entries() -> dict:
    out = {}
    for side in NoncomplianceSide:
        rng = np.random.default_rng(21)
        r = rng.uniform(-1.0, 1.0, 400)
        z = (r >= 0.0).astype(int)
        t = _treatment(rng, z, side)
        y = np.sin(r) + t + 0.2 * rng.normal(size=r.size)
        sample = RddSample(r=r, ys=Euclidean(1).stack(y[:, None]), cutoff=0.0, t=t, z=z)
        out[f"fuzzy/euclidean/{side.value}"] = {
            "late": estimate_fuzzy_late(sample, 0.4, 0.5).to_json(),
            "geodesic": estimate_geodesic_fuzzy(sample, 0.4, 0.5, side).to_json(),
            "tangent": estimate_riemannian_fuzzy(sample, None, 0.4, 0.5).to_json(),
            "tangent_geodesic": estimate_geodesic_riemannian_fuzzy(
                sample, None, side, 0.4, 0.5
            ).to_json(),
        }

        rng = np.random.default_rng(22)
        r = rng.uniform(-1.0, 1.0, 200)
        z = (r >= 0.0).astype(int)
        t = _treatment(rng, z, side)
        logits = np.stack([0.4 * np.sin(np.pi * r / 2), -0.3 * r, np.zeros(r.size)], axis=1)
        mean = np.exp(logits + np.outer(t, [0.6, -0.3, 0.0]))
        g = rng.gamma(10.0 * mean / mean.sum(axis=1, keepdims=True))
        ys = CompositionalSphere(3).points_from_shares(g / g.sum(axis=1, keepdims=True))
        sample = RddSample(r=r, ys=ys, cutoff=0.0, t=t, z=z)
        out[f"fuzzy/sphere/{side.value}"] = {
            "tangent": estimate_riemannian_fuzzy(sample, None, 0.45, 0.45).to_json(),
            "tangent_geodesic": estimate_geodesic_riemannian_fuzzy(
                sample, None, side, 0.45, 0.45
            ).to_json(),
        }
    return out


def _cli_entry(tmp: Path) -> dict:
    sample, _ = NetworkDgp(n=2_000, seed=3).sample()
    write_sample_csv(sample, tmp / "graphs.csv")
    code = cli_main(["sharp", "--input", str(tmp / "graphs.csv"), "--space", "laplacian",
                     "--wmax", "3", "--cutoff", "0", "--bw", "auto", "--out", str(tmp / "out")])
    return {"exit_code": code, "report": json.loads((tmp / "out" / "report.json").read_text())}


def _campaign_entries() -> dict:
    dgps = [("network", NetworkDgp(seed=7))]
    dgps += [(f"scalar_{s}", ScalarDgp(setting=s, seed=8)) for s in ("I", "II", "III", "IV")]
    out = {}
    for name, dgp in dgps:
        lines = run_campaign(dgp, sizes=[100, 200], reps=10, seed=9).to_csv().splitlines()
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        cols = dict(zip(header, zip(*rows)))
        out[f"campaign/{name}"] = {
            "setting": list(cols["setting"]),
            **{k: [int(v) for v in cols[k]] for k in ("n", "rep", "fail_flag")},
            **{k: [float(v) for v in cols[k]] for k in ("bandwidth", "bias")},
        }
    return out


def _refused_inputs(tmp: Path):
    """(name, call) pairs; each call must raise a ``GeorddError``."""
    eu, l2, sp = Euclidean(2), FunctionalL2(5), CompositionalSphere(3)
    lap = NetworkLaplacian(4, max_weight=2.0)
    rng = np.random.default_rng(4)
    r = rng.uniform(-1.0, 1.0, 200)
    sample = RddSample(r=r, ys=Euclidean(1).stack(r[:, None]), cutoff=0.0)
    z = (r >= 0).astype(int)
    flat = RddSample(r=r, ys=sample.ys, cutoff=0.0, t=np.ones(r.size, int), z=z)
    tiny = RddSample(r=r[:30], ys=sample.ys[:30], cutoff=0.0)
    (tmp / "bad.csv").write_text("r,y0\n0.1,abc\n")
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 3.0
    return [
        ("point_wrong_shape", lambda: eu.point([1.0, 2.0, 3.0])),
        ("point_nan", lambda: l2.point([0.0, np.nan, 0.0, 0.0, 0.0])),
        ("sphere_off_sphere", lambda: sp.point([1.0, 1.0, 0.0])),
        ("sphere_outside_orthant", lambda: sp.point([-0.6, 0.8, 0.0])),
        ("laplacian_asymmetric", lambda: lap.point(np.triu(np.ones((4, 4)), 1))),
        ("laplacian_weight_over_cap", lambda: lap.point(laplacian_from_weights(w))),
        ("stack_wrong_shape", lambda: eu.stack(np.zeros((3, 3)))),
        ("stack_bad_row", lambda: sp.stack(np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))),
        ("empty_point_list", lambda: PointStack.of([])),
        ("mixed_spaces", lambda: PointStack.of([eu.point([0.0, 0.0]), Euclidean(3).point([0.0] * 3)])),
        ("space_mismatch", lambda: eu.distance(eu.point([0.0, 0.0]), l2.point([0.0] * 5))),
        ("hilbert_norm_wrong_length", lambda: l2.hilbert_norm(np.zeros(4))),
        ("hilbert_distance_wrong_length", lambda: l2.hilbert_distance(np.zeros(4), np.zeros(4))),
        ("sphere_hilbert_norm", lambda: sp.hilbert_norm(np.zeros(3))),
        ("sphere_embed", lambda: sp.embed(sp.point([1.0, 0.0, 0.0]))),
        ("inverse_infeasible", lambda: lap.inverse_embed(np.full(10, 5.0))),
        ("wasserstein_log_map", lambda: Wasserstein1D(3).log_map(
            Wasserstein1D(3).point([0.0, 1.0, 2.0]), Wasserstein1D(3).point([0.0, 1.0, 2.0]))),
        ("degenerate_left_window", lambda: estimate_sharp(sample, 1e-9, 0.5)),
        ("too_few_observations", lambda: select_bandwidth(tiny)),
        ("fuzzy_without_treatment", lambda: estimate_fuzzy_late(sample, 0.5, 0.5)),
        ("geodesic_fuzzy_without_assignment", lambda: estimate_geodesic_fuzzy(
            RddSample(r=r, ys=sample.ys, cutoff=0.0, t=z), 0.5, 0.5,
            NoncomplianceSide.ALWAYS_TAKERS)),
        ("weak_compliance", lambda: estimate_fuzzy_late(flat, 0.5, 0.5)),
        ("csv_not_a_number", lambda: ingest_csv(tmp / "bad.csv", "euclid", 0.0)),
    ]


def _refusal_entry(tmp: Path) -> dict:
    codes = {}
    for name, call in _refused_inputs(tmp):
        try:
            call()
        except errors.GeorddError as err:
            codes[name] = err.code
        else:
            codes[name] = "no error"
    return codes


def compute() -> dict:
    """Every reference entry, computed by this tree."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        return {
            **_geometry_entries(),
            **_fuzzy_entries(),
            "cli/sharp_auto_network": _cli_entry(tmp),
            **_campaign_entries(),
            "refusals": _refusal_entry(tmp),
        }


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


def _float_array(value):
    """``value`` as a float array when it is a float or a (nested) list of
    numbers with a float among them, else None."""
    if isinstance(value, float):
        return np.array([value])
    if not isinstance(value, list) or not value:
        return None
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged
        return None
    return arr.astype(float) if arr.dtype.kind == "f" else None


def _walk(got, want, path, exact, out):
    """Append (path, move) to ``out`` for each float leaf, and (path, None)
    for each leaf that differs in kind, shape or exact value."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            out.append((path, None))
            return
        for key in want:
            _walk(got[key], want[key], f"{path}/{key}", exact or key in EXACT_KEYS, out)
        return
    ref = None if exact else _float_array(want)
    if ref is None:
        if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
            for i, (g, w) in enumerate(zip(got, want)):
                _walk(g, w, f"{path}[{i}]", exact, out)
        elif got != want or type(got) is not type(want):
            out.append((path, None))
        return
    new = _float_array(got)
    if new is None or new.shape != ref.shape or (np.isnan(new) != np.isnan(ref)).any():
        out.append((path, None))
        return
    finite = ~np.isnan(ref)
    gap = float(np.abs(new[finite] - ref[finite]).max(initial=0.0))
    scale = float(np.abs(ref[finite]).max(initial=0.0))
    out.append((path, gap / scale if scale else (0.0 if gap == 0.0 else np.inf)))


def moves(got: dict, want: dict) -> list[tuple[str, float | None]]:
    """(path, relative move) of every leaf of ``want``; the move is None
    where a leaf compared exactly differs, or is missing from ``got``."""
    out = []
    _walk(got, want, "", False, out)
    return out


def differences(got: dict, want: dict) -> list[str]:
    """The paths at which ``got`` is not ``want`` within the rules above."""
    return [p for p, m in moves(got, want) if m is None or m > RTOL]


def load() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", nargs="*", metavar="ENTRY",
                        help="rewrite these entries (all when none is named)")
    args = parser.parse_args(argv)
    got = compute()
    if args.write is not None:
        ref = load() if args.write and REFERENCE.exists() else {}
        ref.update({k: got[k] for k in (args.write or got)})
        REFERENCE.parent.mkdir(exist_ok=True)
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    ref = load()
    for entry in sorted(set(ref) | set(got)):
        found = moves(got.get(entry, {}), ref.get(entry, {}))
        worst = max((m for _, m in found), key=lambda m: np.inf if m is None else m, default=0.0)
        print(f"{entry}: largest move {'differs' if worst is None else f'{worst:.3g}'}")
    bad = differences(got, ref)
    for path in bad:
        print(f"DIFFERS {path}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
