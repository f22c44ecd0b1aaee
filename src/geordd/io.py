"""Serialization and ingestion.

Supported sample formats:

- CSV with header ``r[,t][,z],y0,...,y{D-1}``: one observation per row, the
  payload flattened row-major.  The number of payload columns determines the
  space shape (square matrices for Laplacian/SPD payloads).
- JSON lines: one record per line, ``{"r": ..., "t": ..., "z": ...,
  "y": {"space": ..., "variant": ..., "shape": [...], "data": [...]}}``.

Compositional inputs are accepted as raw shares (rows on the simplex) and
square-root transformed at load; all other spaces ingest payloads directly.
"""

from __future__ import annotations

import csv
import io as _io
import json
from pathlib import Path

import numpy as np

from .errors import InvariantViolation, MixedSpaces, ParseError, ShapeMismatch
from .sample import RddSample
from .spaces import (
    CompositionalSphere,
    Euclidean,
    FunctionalL2,
    MetricObject,
    NetworkLaplacian,
    Space,
    SpdSpace,
    Wasserstein1D,
)

__all__ = [
    "SPACE_NAMES",
    "space_from_spec",
    "object_from_json",
    "ingest_csv",
    "ingest_jsonl",
    "write_sample_csv",
    "ingest",
]

SPACE_NAMES = ("euclid", "l2", "simplex", "laplacian", "spd", "wass")


def space_from_spec(
    spec: str,
    n_payload: int,
    *,
    support: tuple[float, float] | None = None,
    max_weight: float | None = None,
    domain: tuple[float, float] | None = None,
    power: float = 0.5,
) -> Space:
    """Build a space from a CLI-style descriptor and the payload width.

    ``spec`` is one of ``euclid``, ``l2``, ``simplex``, ``wass``,
    ``laplacian``, or ``spd:<variant>``; matrix sizes are inferred from the
    payload width.
    """
    name, _, variant = spec.partition(":")
    name = name.strip().lower()
    if name == "euclid":
        return Euclidean(n_payload)
    if name == "l2":
        return FunctionalL2(n_payload, domain or (0.0, 1.0))
    if name == "simplex":
        return CompositionalSphere(n_payload)
    if name == "wass":
        return Wasserstein1D(n_payload, support)
    if name in ("laplacian", "spd"):
        m = int(round(np.sqrt(n_payload)))
        if m * m != n_payload:
            raise ParseError(
                f"{name} payload needs a square number of columns, got {n_payload}"
            )
        if name == "laplacian":
            return NetworkLaplacian(m, max_weight)
        return SpdSpace(m, variant or "frobenius", power=power)
    raise ParseError(f"unknown space {spec!r}; choose from {SPACE_NAMES}")


def _record_payload(d, space: Space | None) -> np.ndarray:
    """The payload of a point's JSON record, checked against ``space``."""
    try:
        data = np.asarray(d["data"], dtype=float).reshape(tuple(d["shape"]))
    except (KeyError, TypeError, ValueError):
        raise ParseError("expected a point record with a 'shape' and numeric 'data'") from None
    if space is None:
        raise ParseError(
            "JSON ingestion needs a concrete space (tags alone do not carry "
            "grid metadata)"
        )
    if d.get("space") != space.tag:
        raise MixedSpaces(f"record tagged {d.get('space')!r}, expected {space.tag!r}")
    variant = d.get("variant")
    if variant is not None and variant != space.variant:
        raise MixedSpaces(
            f"record variant {variant!r} does not match space variant "
            f"{space.variant!r}"
        )
    if data.shape != space.shape:
        raise ShapeMismatch(f"expected payload of shape {space.shape}, got {data.shape}")
    return data


def object_from_json(d: dict, space: Space | None = None) -> MetricObject:
    """Rebuild a point from its JSON form, validating against ``space`` when
    provided."""
    return space.point(_record_payload(d, space))


def _number(value, row: int, column: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        name = "running" if column == "r" else column
        raise ParseError(f"bad {name} value {value!r}", row=row, column=column) from None


def _build_sample(lines, r, t, z, payload, to_points, cutoff) -> RddSample:
    """Check the parsed columns and build the sample, validating the payload
    stack with ``to_points``; errors name the record's line in ``lines``."""
    for name, col in (("t", t), ("z", z)):
        bad = [] if col is None else np.flatnonzero((col != 0.0) & (col != 1.0))
        if len(bad):
            value, row = float(col[bad[0]]), lines[bad[0]]
            raise ParseError(f"{name} must be 0 or 1, got {value!r}", row=row, column=name)
    try:
        ys = to_points(payload)
    except InvariantViolation as err:
        raise InvariantViolation(f"row {lines[err.index]}: {err}") from None
    return RddSample(r=r, ys=ys, cutoff=cutoff, t=t, z=z)


def _split_header(header: list[str]):
    cols = [c.strip().lower() for c in header]
    if not cols or cols[0] != "r":
        raise ParseError("header must start with the running-variable column 'r'")
    has_t = len(cols) > 1 and cols[1] == "t"
    has_z = len(cols) > (1 + has_t) and cols[1 + has_t] == "z"
    n_meta = 1 + has_t + has_z
    payload = cols[n_meta:]
    if not payload:
        raise ParseError("no payload columns found after r/t/z")
    return has_t, has_z, n_meta


def _csv_records(rows: list[list[str]], n_meta: int):
    """Line numbers of the nonblank records after the header, and the
    records as one (n, width) float array."""
    lengths = np.fromiter(map(len, rows), int, len(rows))[1:]
    lines = (np.flatnonzero(lengths) + 2).tolist()
    body = list(filter(None, rows[1:]))
    try:
        if np.all(lengths[lengths > 0] == len(rows[0])):
            return lines, np.array(body, dtype=float).reshape(len(body), len(rows[0]))
    except ValueError:
        pass
    raise _first_bad_record(rows[0], n_meta, lines, body)


def _first_bad_record(header, n_meta, lines, body) -> ParseError:
    """The parse error of the first bad record, found field by field."""
    meta = [c.strip().lower() for c in header[:n_meta]]
    for line, row in zip(lines, body):
        if len(row) != len(header):
            return ParseError(f"expected {len(header)} fields, got {len(row)}", row=line)
        try:
            for column, text in zip(meta, row):
                _number(text, line, column)
            np.array(row[n_meta:], dtype=float)
        except ParseError as err:
            return err
        except ValueError:
            return ParseError("bad payload value", row=line)
    raise AssertionError("no bad record found")  # pragma: no cover


def ingest_csv(path, space_spec: str | Space, cutoff: float, **space_opts) -> RddSample:
    """Load an RDD sample from CSV; see the module docstring for the format."""
    rows = list(csv.reader(_io.StringIO(Path(path).read_text(encoding="utf-8"))))
    if not rows:
        raise ParseError(f"{path}: empty file")
    has_t, has_z, n_meta = _split_header(rows[0])
    if isinstance(space_spec, Space):
        space = space_spec
    else:
        space = space_from_spec(space_spec, len(rows[0]) - n_meta, **space_opts)
    lines, values = _csv_records(rows, n_meta)
    del rows  # the text fields; validation allocates stack-sized temporaries
    payload = values[:, n_meta:].reshape(len(values), *space.shape)
    t, z = (values[:, 1] if has_t else None), (values[:, 1 + has_t] if has_z else None)
    sphere = isinstance(space, CompositionalSphere)
    to_points = space.points_from_shares if sphere else space.points
    return _build_sample(lines, values[:, 0], t, z, payload, to_points, cutoff)


def ingest_jsonl(path, space: Space, cutoff: float) -> RddSample:
    """Load an RDD sample from JSON lines of MetricObject records."""
    lines, r, t, z, ys = [], [], [], [], []
    has_t = has_z = None
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as err:
            raise ParseError(f"bad JSON: {err}", row=i) from None
        if not isinstance(rec, dict) or "r" not in rec or "y" not in rec:
            raise ParseError("record needs 'r' and 'y' fields", row=i)
        r.append(_number(rec["r"], i, "r"))
        row_t, row_z = rec.get("t"), rec.get("z")
        if has_t is None:
            has_t, has_z = row_t is not None, row_z is not None
        if (row_t is not None) != has_t or (row_z is not None) != has_z:
            raise ParseError("inconsistent t/z fields across records", row=i)
        if has_t:
            t.append(_number(row_t, i, "t"))
        if has_z:
            z.append(_number(row_z, i, "z"))
        try:
            ys.append(_record_payload(rec["y"], space))
        except ParseError as err:
            raise ParseError(str(err), row=i, column="y") from None
        lines.append(i)

    t, z = (np.array(t) if has_t else None), (np.array(z) if has_z else None)
    payload = np.array(ys).reshape(len(ys), *space.shape)
    return _build_sample(lines, np.array(r), t, z, payload, space.points, cutoff)


def ingest(path, space_spec: str | Space, cutoff: float, **space_opts) -> RddSample:
    """Dispatch on file extension: ``.jsonl``/``.ndjson`` or CSV.

    For JSON lines with a spec string, the payload width comes from the
    first record's declared shape.
    """
    suffix = Path(path).suffix.lower()
    if suffix not in (".jsonl", ".ndjson"):
        return ingest_csv(path, space_spec, cutoff, **space_opts)
    if not isinstance(space_spec, Space):
        with open(path, encoding="utf-8") as fh:
            first = next((line for line in fh if line.strip()), None)
        if first is None:
            raise ParseError(f"{path}: empty file")
        try:
            n_payload = int(np.prod(json.loads(first)["y"]["shape"]))
        except (ValueError, KeyError, TypeError):
            raise ParseError(f"{path}: first record declares no payload shape") from None
        space_spec = space_from_spec(space_spec, n_payload, **space_opts)
    return ingest_jsonl(path, space_spec, cutoff)


def write_sample_csv(sample: RddSample, path) -> None:
    """Serialize a sample to the CSV form accepted by :func:`ingest_csv`.

    Compositional samples are written back as shares, matching the ingestion
    convention for the simplex space (so the square-root transform is applied
    exactly once on the way in).
    """
    meta = [name for name in ("t", "z") if getattr(sample, name) is not None]
    columns = [sample.r.tolist()] + [getattr(sample, name).tolist() for name in meta]
    payload = np.stack([y.data.ravel() for y in sample.ys])
    if isinstance(sample.space, CompositionalSphere):
        payload = payload**2  # the shares
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r"] + meta + [f"y{j}" for j in range(payload.shape[1])])
        for r, *tz, y in zip(*columns, payload.tolist()):
            writer.writerow([repr(r)] + [str(v) for v in tz] + [repr(v) for v in y])
