"""Command-line interface for batch estimation and simulation jobs.

Commands: ``sharp``, ``fuzzy``, ``bandwidth``, ``simulate``, ``validate``.
Every command writes a ``report.json`` into the output directory plus
command-specific artifacts (bandwidth-search CSV, plot-data tables,
campaign CSVs).  Exit codes: 0 success, 2 when estimation was refused on
the data (weak compliance, degenerate windows, ...), 1 for I/O, parse, or
configuration failures.  A failure, a bad command line or config file
included, emits one machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bandwidth import BandwidthSearch, select_bandwidth
from .errors import REFUSAL_ERRORS, GeorddError, ParseError
from .frechet import Side, batch_lfr_embeddings
from .io import ingest, object_from_json
from .rdd_fuzzy import (
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

_FUZZY_VARIANTS = ("geodesic", "geodesic-tangent", "late", "tangent")

_SIDES = {
    "always": NoncomplianceSide.ALWAYS_TAKERS,
    "never": NoncomplianceSide.NEVER_TAKERS,
}

_DGPS = ("setting-I", "setting-II", "setting-III", "setting-IV", "network")


class _Parser(argparse.ArgumentParser):
    """A parser that refuses a bad command line with a :class:`ParseError`
    and matches option names only in full (``--bin`` is not ``--bins``)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _form(expected: str):
    """Make an argparse type of a parser that raises ``ValueError``: a value
    it cannot read is refused as not of the form ``expected``, where
    argparse would name the parser function."""

    def typed(parse):
        def read(text: str):
            try:
                return parse(text)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"bad value {text!r}; expected {expected}"
                ) from None

        return read

    return typed


def _checked(parse, ok, expected: str):
    """An argparse type that reads a value with ``parse`` and refuses it,
    as not of the form ``expected``, unless ``ok`` holds for it."""

    def read(text: str):
        if not ok(value := parse(text)):
            raise ValueError(text)
        return value

    return _form(expected)(read)


def _pair(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(",")
    return float(lo), float(hi)


# a NaN fails every comparison, so none of these reads one
_interval = _checked(_pair, lambda v: v[0] < v[1], "'lo,hi' with lo < hi")
_finite_interval = _checked(
    _pair, lambda v: -math.inf < v[0] < v[1] < math.inf, "finite 'lo,hi' with lo < hi"
)
_positive = _checked(float, lambda v: v > 0, "a positive number")
_positive_finite = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")


def _at_least(lo: int):
    return _checked(int, lambda v: v >= lo, f"a whole number >= {lo}")


@_form("distinct whole numbers >= 40 'n1,n2,...'")
def _sizes(text: str) -> list[int]:
    sizes = [int(s) for s in text.split(",") if s.strip()]
    if not sizes or len(set(sizes)) < len(sizes) or min(sizes) < 40:
        raise ValueError(text)
    return sizes


@_form("'auto', 'h' or 'h0,h1'")
def _bandwidth_pair(text: str) -> str | tuple[float, float]:
    """'auto', or the bandwidths (h0, h1) of the two sides from 'h0,h1' or 'h'."""
    if text == "auto":
        return text
    h0, _, h1 = text.partition(",")
    return float(h0), float(h1 or h0)


@_form("'auto' or 'h'")
def _bandwidth(text: str) -> str | float:
    return text if text == "auto" else float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
            p.add_argument("--support", type=_interval, help="lo,hi for wass payloads")
            p.add_argument("--wmax", type=_positive, help="laplacian weight cap")
            p.add_argument("--domain", type=_finite_interval, help="lo,hi grid domain for l2")
            p.add_argument(
                "--power", type=_positive_finite, default=0.5, help="spd power exponent"
            )
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--config", help="JSON config file (flags win)")

    p_sharp = sub.add_parser("sharp", help="sharp-design estimate at the cutoff")
    add_io(p_sharp)
    p_sharp.add_argument("--bw", type=_bandwidth_pair, default="auto", help="'auto' or 'h0,h1'")
    p_sharp.add_argument("--bins", type=_at_least(1), default=40, help="bin count for plot data")

    p_fuzzy = sub.add_parser("fuzzy", help="fuzzy-design estimates (needs t column)")
    add_io(p_fuzzy)
    p_fuzzy.add_argument("--bw", type=_bandwidth_pair, default="auto", help="'auto' or 'h0,h1'")
    p_fuzzy.add_argument("--fuzzy-variant", choices=_FUZZY_VARIANTS, default="late")
    p_fuzzy.add_argument("--side", choices=sorted(_SIDES), help="geodesic variants only")
    p_fuzzy.add_argument(
        "--ref",
        help="tangent variants only: JSON file with the tangent-space reference "
        "point (default: sample Frechet mean, flagged as data-dependent)",
    )
    p_fuzzy.add_argument("--bins", type=_at_least(1), default=40)

    p_bw = sub.add_parser("bandwidth", help="run the data-adaptive bandwidth search")
    add_io(p_bw)
    p_bw.add_argument("--grid-size", type=_at_least(1), default=20)

    p_sim = sub.add_parser("simulate", help="Monte Carlo campaigns on synthetic designs")
    add_io(p_sim, need_input=False)
    p_sim.add_argument("--dgp", choices=_DGPS, default="network")
    p_sim.add_argument("--seed", type=_at_least(0), default=0)
    p_sim.add_argument("--reps", type=_at_least(10), default=100)
    p_sim.add_argument(
        "--sizes", type=_sizes, default="100,200,500,1000", help="comma-separated sample sizes"
    )
    p_sim.add_argument("--bw", type=_bandwidth, default="auto", help="'auto' or a fixed bandwidth")
    # left unset, these keep ScalarDgp's defaults
    p_sim.add_argument("--tau", type=float, help="jump at the cutoff, scalar designs only")
    p_sim.add_argument("--noise", type=float, help="noise sd, scalar designs only")

    p_val = sub.add_parser("validate", help="parse a sample and check invariants")
    add_io(p_val)

    return parser


def _config_flags(argv: list[str]) -> list[str]:
    """The entries of the ``--config`` file named in ``argv``, as flags.

    A key is an option name without its leading dashes (``_`` for ``-``
    allowed), so ``{"grid_size": 5}`` becomes ``--grid-size=5``.  The path
    is found apart from the command's parser, which would refuse a command
    line whose required options are in the file.
    """
    finder = _Parser(add_help=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv)[0].config
    if path is None:
        return []
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict) or "config" in cfg:
        raise ParseError(f"{path}: config must be a JSON object without a config entry")
    return [f"--{key.replace('_', '-')}={value}" for key, value in cfg.items()]


def _load_sample(args: argparse.Namespace) -> RddSample:
    return ingest(args.input, args.space, args.cutoff, support=args.support,
                  max_weight=args.wmax, domain=args.domain, power=args.power)


def _resolve_bandwidths(
    sample: RddSample, bw: str | tuple[float, float], out: Path
) -> tuple[float, float, BandwidthSearch | None]:
    if bw == "auto":
        search = select_bandwidth(sample)
        _write_bandwidth_csv(search, _output(out, "bandwidth_search.csv"))
        return search.b_star, search.b_star, search
    return *bw, None


def _output(out: Path, name: str) -> Path:
    """The path of output file ``name``, creating ``out`` at the first write,
    so that a refused command leaves no directory behind."""
    out.mkdir(parents=True, exist_ok=True)
    return out / name


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
    emb = sample.ys.embedded
    c = sample.cutoff
    r_lo, r_hi = float(sample.r[0]), float(sample.r[-1])
    below = np.nextafter(c, -np.inf)

    with open(_output(out, "curves.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["side", "r"] + [f"emb{j}" for j in range(emb.shape[1])])
        for side, h, grid, lo, hi in (
            ("left", h0, np.linspace(r_lo, below, 50), None, below),
            ("right", h1, np.linspace(c, r_hi, 50), c, None),
        ):
            fits, valid = batch_lfr_embeddings(
                sample.r, emb, grid, h, Side.TWO_SIDED, lo=lo, hi=hi,
                tables=sample.lfr_tables,
            )
            for r, row in zip(grid[valid], space.project_embedding(fits[valid])):
                writer.writerow([side, repr(float(r))] + [repr(float(v)) for v in row])

    edges = np.linspace(r_lo, r_hi, bins + 1)
    which = np.clip(np.digitize(sample.r, edges) - 1, 0, bins - 1)
    with open(_output(out, "bins.csv"), "w", newline="", encoding="utf-8") as fh:
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


def _cmd_sharp(args: argparse.Namespace, out: Path) -> int:
    sample = _load_sample(args)
    sample.validate_sharp()
    h0, h1, search = _resolve_bandwidths(sample, args.bw, out)
    est = estimate_sharp(sample, h0, h1)
    return _write_estimate("sharp", sample, est, h0, h1, search, args.bins, out)


def _write_estimate(command, sample, est, h0, h1, search, bins, out: Path) -> int:
    report = {
        "command": command,
        "space": sample.space.tag,
        "n": sample.n,
        "estimate": est.to_json(),
    }
    if search is not None:
        report["bandwidth_search"] = search.to_json()
    _write_json(report, _output(out, "report.json"))
    _plot_data(sample, h0, h1, bins, out)
    return 0


def _cmd_fuzzy(args: argparse.Namespace, out: Path) -> int:
    variant = args.fuzzy_variant
    # --side picks the stratum of the geodesic variants and --ref the chart
    # of the tangent ones; any other variant would ignore them
    if "geodesic" in variant and args.side is None:
        raise ParseError(f"--fuzzy-variant {variant} needs --side {{always|never}}")
    if "geodesic" not in variant and args.side is not None:
        raise ParseError(f"--side goes with the geodesic fuzzy variants only, not {variant!r}")
    if args.ref is not None and "tangent" not in variant:
        raise ParseError(f"--ref goes with the tangent fuzzy variants only, not {variant!r}")
    sample = _load_sample(args)
    h0, h1, search = _resolve_bandwidths(sample, args.bw, out)
    reference = None
    if args.ref is not None:
        with open(args.ref, encoding="utf-8") as fh:
            reference = object_from_json(json.load(fh), sample.space)
    side = _SIDES.get(args.side)
    if variant == "late":
        est = estimate_fuzzy_late(sample, h0, h1)
    elif variant == "tangent":
        est = estimate_riemannian_fuzzy(sample, reference, h0, h1)
    elif variant == "geodesic":
        est = estimate_geodesic_fuzzy(sample, h0, h1, side)
    else:
        est = estimate_geodesic_riemannian_fuzzy(sample, reference, side, h0, h1)
    return _write_estimate("fuzzy", sample, est, h0, h1, search, args.bins, out)


def _cmd_bandwidth(args: argparse.Namespace, out: Path) -> int:
    sample = _load_sample(args)
    search = select_bandwidth(sample, grid_size=args.grid_size)
    _write_bandwidth_csv(search, _output(out, "bandwidth_search.csv"))
    _write_json(
        {
            "command": "bandwidth",
            "space": sample.space.tag,
            "n": sample.n,
            "search": search.to_json(),
        },
        _output(out, "report.json"),
    )
    return 0


def _cmd_simulate(args: argparse.Namespace, out: Path) -> int:
    sizes = args.sizes
    given = {k: v for k, v in (("tau", args.tau), ("sigma", args.noise)) if v is not None}
    if args.dgp == "network":
        # the network design has no jump or noise scale to set
        if given:
            raise ParseError("--tau and --noise go with the scalar designs only, not 'network'")
        dgp = NetworkDgp(n=max(sizes), seed=args.seed)
    else:
        dgp = ScalarDgp(
            setting=args.dgp.split("-", 1)[1],
            n=max(sizes),
            seed=args.seed,
            **given,
        )
    result = run_campaign(
        dgp, sizes=sizes, reps=args.reps, seed=args.seed, bandwidth=args.bw
    )
    _output(out, "campaign.csv").write_text(result.to_csv(), encoding="utf-8")
    _write_json(result.metadata, _output(out, "metadata.json"))
    if result.rate_fit is not None:
        _write_json(result.rate_fit.to_json(), _output(out, "slope.json"))
    _write_json(
        {
            "command": "simulate",
            "dgp": args.dgp,
            "mean_bias": result.bias_by_size(),
            "slope": None if result.rate_fit is None else result.rate_fit.slope,
            "n_failures": result.metadata["n_failures"],
        },
        _output(out, "report.json"),
    )
    return 0


def _cmd_validate(args: argparse.Namespace, out: Path) -> int:
    sample = _load_sample(args)
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
        _output(out, "report.json"),
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # the top-level parser has no option that takes a value, so the
        # command word comes first; config entries go between it and the
        # command line's own flags, which therefore win
        args = build_parser().parse_args(argv[:1] + _config_flags(argv) + argv[1:])
        return _COMMANDS[args.command](args, Path(args.out))
    except REFUSAL_ERRORS as err:
        _emit_error(err, sys.stderr)
        return 2
    except (GeorddError, OSError, json.JSONDecodeError, ValueError) as err:
        _emit_error(err, sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
