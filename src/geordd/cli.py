"""Command-line interface for batch estimation and simulation jobs.

Commands: ``sharp``, ``fuzzy``, ``bandwidth``, ``simulate``, ``validate``.
Every command writes a ``report.json`` into the output directory plus
command-specific artifacts (bandwidth-search CSV, plot-data tables,
campaign CSVs).  Exit codes: 0 success, 2 when estimation was refused on
the data (weak compliance, degenerate windows, ...), 1 for I/O, parse, or
configuration failures.  Failures emit a machine-readable JSON record on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bandwidth import BandwidthSearch, select_bandwidth
from .errors import REFUSAL_ERRORS, GeorddError, ParseError
from .frechet import Side, batch_lfr_embeddings
from .io import ingest, object_from_json
from .rdd_fuzzy import (
    FuzzyVariant,
    NoncomplianceSide,
    estimate_fuzzy_late,
    estimate_geodesic_fuzzy,
    estimate_geodesic_riemannian_fuzzy,
    estimate_riemannian_fuzzy,
)
from .rdd_sharp import estimate_sharp
from .sample import RddSample
from .simlab import NetworkDgp, ScalarDgp, run_campaign
from .spaces import HilbertSpace

__all__ = ["main", "build_parser"]

_FUZZY_VARIANTS = {
    "late": FuzzyVariant.EMBEDDING,
    "geodesic": FuzzyVariant.GEODESIC_ONE_SIDED,
    "tangent": FuzzyVariant.RIEMANNIAN_TANGENT,
    "geodesic-tangent": FuzzyVariant.GEODESIC_RIEMANNIAN,
}

_SIDES = {
    "always": NoncomplianceSide.ALWAYS_TAKERS,
    "never": NoncomplianceSide.NEVER_TAKERS,
}

_DGPS = ("setting-I", "setting-II", "setting-III", "setting-IV", "network")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geordd",
        description="Regression discontinuity estimation for metric-space outcomes",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, need_input=True):
        if need_input:
            p.add_argument("--input", required=True, help="CSV or JSON-lines sample")
            p.add_argument(
                "--space",
                required=True,
                help="euclid | l2 | simplex | laplacian | spd:<variant> | wass",
            )
            p.add_argument("--cutoff", type=float, required=True)
            p.add_argument("--support", help="lo,hi for wass payloads")
            p.add_argument("--wmax", type=float, help="laplacian weight cap")
            p.add_argument("--domain", help="lo,hi grid domain for l2")
            p.add_argument("--power", type=float, help="spd power exponent")
        p.add_argument("--out", help="output directory")
        p.add_argument("--config", help="JSON config file (flags win)")
        p.add_argument("--seed", type=int)

    p_sharp = sub.add_parser("sharp", help="sharp-design estimate at the cutoff")
    add_io(p_sharp)
    p_sharp.add_argument("--bw", help="'auto' or 'h0,h1'")
    p_sharp.add_argument("--bins", type=int, help="bin count for plot data")

    p_fuzzy = sub.add_parser("fuzzy", help="fuzzy-design estimates (needs t column)")
    add_io(p_fuzzy)
    p_fuzzy.add_argument("--bw", help="'auto' or 'h0,h1'")
    p_fuzzy.add_argument("--fuzzy-variant", choices=sorted(_FUZZY_VARIANTS))
    p_fuzzy.add_argument("--side", choices=sorted(_SIDES))
    p_fuzzy.add_argument(
        "--ref",
        help="JSON file with the tangent-space reference point (default: "
        "sample Frechet mean, flagged as data-dependent)",
    )
    p_fuzzy.add_argument("--bins", type=int)

    p_bw = sub.add_parser("bandwidth", help="run the data-adaptive bandwidth search")
    add_io(p_bw)
    p_bw.add_argument("--grid-size", type=int)

    p_sim = sub.add_parser("simulate", help="Monte Carlo campaigns on synthetic designs")
    add_io(p_sim, need_input=False)
    p_sim.add_argument("--dgp", choices=_DGPS)
    p_sim.add_argument("--reps", type=int)
    p_sim.add_argument("--sizes", help="comma-separated sample sizes")
    p_sim.add_argument("--bw", help="'auto' or a fixed bandwidth")
    p_sim.add_argument("--tau", type=float)
    p_sim.add_argument("--noise", type=float)

    p_val = sub.add_parser("validate", help="parse a sample and check invariants")
    add_io(p_val)

    return parser


#: option values when neither a flag nor the config file sets them (every
#: flag defaults to None, so that a config-file entry is not overridden)
_DEFAULTS = dict(
    out=".", bw="auto", fuzzy_variant="late", dgp="network", seed=0, bins=40, reps=100,
    sizes="100,200,500,1000", grid_size=20, tau=1.0, noise=0.5, power=0.5,
)


def _merge_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Effective options: flags beat config-file entries beat defaults.

    argparse converts and checks flags only; a config-file entry for an
    option of the command gets the same ``type`` and ``choices`` here, so a
    bad value is a :class:`ParseError` rather than a failure further in.
    """
    cfg = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ParseError(f"{args.config}: config must be a JSON object")
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for action in commands.choices[args.command]._actions:
        key = action.dest
        if key not in cfg:
            continue
        if action.type is not None:
            try:
                # as argparse converts the text of a flag
                cfg[key] = action.type(str(cfg[key]))
            except ValueError:
                raise ParseError(f"{args.config}: bad {key} {cfg[key]!r}") from None
        if action.choices is not None and cfg[key] not in action.choices:
            raise ParseError(f"bad {key} {cfg[key]!r}; choose from {sorted(action.choices)}")
    flags = {key: value for key, value in vars(args).items() if value is not None}
    return {**_DEFAULTS, **cfg, **flags}


def _parse_interval(text) -> tuple[float, float] | None:
    if text is None:
        return None
    if isinstance(text, (list, tuple)):
        return float(text[0]), float(text[1])
    lo, _, hi = str(text).partition(",")
    try:
        return float(lo), float(hi)
    except ValueError:
        raise ParseError(f"bad interval {text!r}; expected 'lo,hi'") from None


def _load_sample(opts: dict) -> RddSample:
    return ingest(
        opts["input"],
        opts["space"],
        opts["cutoff"],
        support=_parse_interval(opts.get("support")),
        max_weight=opts.get("wmax"),
        domain=_parse_interval(opts.get("domain")),
        power=opts["power"],
    )


def _resolve_bandwidths(
    sample: RddSample, opts: dict, out: Path
) -> tuple[float, float, BandwidthSearch | None]:
    bw = str(opts["bw"])
    if bw == "auto":
        search = select_bandwidth(sample, grid_size=opts["grid_size"])
        _write_bandwidth_csv(search, out / "bandwidth_search.csv")
        return search.b_star, search.b_star, search
    h0, _, h1 = bw.partition(",")
    try:
        h0 = float(h0)
        h1 = float(h1) if h1 else h0
    except ValueError:
        raise ParseError(f"bad bandwidth spec {bw!r}; expected 'auto' or 'h0,h1'") from None
    return h0, h1, None


def _write_bandwidth_csv(search: BandwidthSearch, path: Path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["b", "loss"])
        for b, loss in search.to_rows():
            writer.writerow([repr(b), repr(loss)])


def _write_json(payload: dict, path: Path):
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _plot_data(sample: RddSample, h0: float, h1: float, bins: int, out: Path):
    """Per-side fitted curves on a grid plus bin-averaged embedded outcomes."""
    space = sample.space
    if not isinstance(space, HilbertSpace):
        return
    emb = sample.embeddings
    c = sample.cutoff
    r_lo, r_hi = float(sample.r[0]), float(sample.r[-1])
    below = np.nextafter(c, -np.inf)

    with open(out / "curves.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["side", "r"] + [f"emb{j}" for j in range(emb.shape[1])])
        for side, h, grid, lo, hi in (
            ("left", h0, np.linspace(r_lo, below, 50), None, below),
            ("right", h1, np.linspace(c, r_hi, 50), c, None),
        ):
            fits, valid = batch_lfr_embeddings(
                sample.r, emb, grid, h, Side.TWO_SIDED, lo=lo, hi=hi
            )
            for r, row in zip(grid[valid], space.project_embedding(fits[valid])):
                writer.writerow([side, repr(float(r))] + [repr(float(v)) for v in row])

    edges = np.linspace(r_lo, r_hi, bins + 1)
    which = np.clip(np.digitize(sample.r, edges) - 1, 0, bins - 1)
    with open(out / "bins.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["bin_center", "count"] + [f"emb{j}" for j in range(emb.shape[1])]
        )
        for b in range(bins):
            mask = which == b
            if not mask.any():
                continue
            center = 0.5 * (edges[b] + edges[b + 1])
            mean = emb[mask].mean(axis=0)
            writer.writerow(
                [repr(float(center)), int(mask.sum())] + [repr(float(v)) for v in mean]
            )


def _cmd_sharp(opts: dict, out: Path) -> int:
    sample = _load_sample(opts)
    sample.validate_sharp()
    h0, h1, search = _resolve_bandwidths(sample, opts, out)
    est = estimate_sharp(sample, h0, h1)
    return _write_estimate("sharp", sample, est, h0, h1, search, opts["bins"], out)


def _write_estimate(command, sample, est, h0, h1, search, bins, out: Path) -> int:
    report = {
        "command": command,
        "space": sample.space.tag,
        "n": sample.n,
        "estimate": est.to_json(),
    }
    if search is not None:
        report["bandwidth_search"] = search.to_json()
    _write_json(report, out / "report.json")
    _plot_data(sample, h0, h1, bins, out)
    return 0


def _cmd_fuzzy(opts: dict, out: Path) -> int:
    sample = _load_sample(opts)
    variant = _FUZZY_VARIANTS[opts["fuzzy_variant"]]
    h0, h1, search = _resolve_bandwidths(sample, opts, out)
    reference = None
    if opts.get("ref"):
        with open(opts["ref"], encoding="utf-8") as fh:
            reference = object_from_json(json.load(fh), sample.space)
    if variant is FuzzyVariant.EMBEDDING:
        est = estimate_fuzzy_late(sample, h0, h1)
    elif variant is FuzzyVariant.RIEMANNIAN_TANGENT:
        est = estimate_riemannian_fuzzy(sample, reference, h0, h1)
    else:
        side = opts.get("side")
        if side is None:
            raise ParseError(
                "geodesic fuzzy variants need --side {always|never}"
            )
        nc = _SIDES[side]
        if variant is FuzzyVariant.GEODESIC_ONE_SIDED:
            est = estimate_geodesic_fuzzy(sample, h0, h1, nc)
        else:
            est = estimate_geodesic_riemannian_fuzzy(sample, reference, nc, h0, h1)
    return _write_estimate("fuzzy", sample, est, h0, h1, search, opts["bins"], out)


def _cmd_bandwidth(opts: dict, out: Path) -> int:
    sample = _load_sample(opts)
    search = select_bandwidth(sample, grid_size=opts["grid_size"])
    _write_bandwidth_csv(search, out / "bandwidth_search.csv")
    _write_json(
        {
            "command": "bandwidth",
            "space": sample.space.tag,
            "n": sample.n,
            "search": search.to_json(),
        },
        out / "report.json",
    )
    return 0


def _cmd_simulate(opts: dict, out: Path) -> int:
    sizes = [int(s) for s in str(opts["sizes"]).split(",") if s.strip()]
    bw = opts["bw"]
    bandwidth = bw if bw == "auto" else float(bw)
    if opts["dgp"] == "network":
        dgp = NetworkDgp(n=max(sizes), seed=opts["seed"])
    else:
        dgp = ScalarDgp(
            setting=opts["dgp"].split("-", 1)[1],
            tau=opts["tau"],
            sigma=opts["noise"],
            n=max(sizes),
            seed=opts["seed"],
        )
    result = run_campaign(
        dgp, sizes=sizes, reps=opts["reps"], seed=opts["seed"], bandwidth=bandwidth
    )
    (out / "campaign.csv").write_text(result.to_csv(), encoding="utf-8")
    _write_json(result.metadata, out / "metadata.json")
    if result.rate_fit is not None:
        _write_json(result.rate_fit.to_json(), out / "slope.json")
    _write_json(
        {
            "command": "simulate",
            "dgp": opts["dgp"],
            "mean_bias": result.bias_by_size(),
            "slope": None if result.rate_fit is None else result.rate_fit.slope,
            "n_failures": result.metadata["n_failures"],
        },
        out / "report.json",
    )
    return 0


def _cmd_validate(opts: dict, out: Path) -> int:
    sample = _load_sample(opts)
    _write_json(
        {
            "command": "validate",
            "ok": True,
            "n": sample.n,
            "n_left": sample.n_left,
            "n_right": sample.n_right,
            "space": sample.space.tag,
            "variant": sample.space.variant,
            "shape": list(sample.space.shape),
            "has_t": sample.t is not None,
            "has_z": sample.z is not None,
        },
        out / "report.json",
    )
    return 0


_COMMANDS = {
    "sharp": _cmd_sharp,
    "fuzzy": _cmd_fuzzy,
    "bandwidth": _cmd_bandwidth,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
}


def _emit_error(err: Exception, stream) -> None:
    record = {
        "error": getattr(err, "code", "error"),
        "type": type(err).__name__,
        "message": str(err),
    }
    print(json.dumps(record, sort_keys=True), file=stream)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help/--version exit 0; remap argparse misuse (its exit code 2)
        # onto the configuration-failure code
        if exc.code in (0, None):
            return 0
        _emit_error(ParseError("invalid command line; see --help"), sys.stderr)
        return 1
    try:
        opts = _merge_config(args, parser)
        out = Path(opts["out"])
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](opts, out)
    except REFUSAL_ERRORS as err:
        _emit_error(err, sys.stderr)
        return 2
    except (GeorddError, OSError, json.JSONDecodeError, ValueError) as err:
        _emit_error(err, sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
