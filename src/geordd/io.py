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

from .errors import InvariantViolation, MixedSpaces, ParseError
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


def _payload_to_object(space: Space, values: np.ndarray, row: int) -> MetricObject:
    try:
        if isinstance(space, CompositionalSphere):
            return CompositionalSphere.from_shares(values)
        return space.point(values.reshape(space.shape))
    except InvariantViolation as err:
        raise InvariantViolation(f"row {row}: {err}") from None


def object_from_json(d: dict, space: Space | None = None) -> MetricObject:
    """Rebuild a point from its JSON form, validating against ``space`` when
    provided."""
    data = np.asarray(d["data"], dtype=float).reshape(tuple(d["shape"]))
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
    return space.point(data)


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


def ingest_csv(path, space_spec: str | Space, cutoff: float, **space_opts) -> RddSample:
    """Load an RDD sample from CSV; see the module docstring for the format."""
    text = Path(path).read_text(encoding="utf-8")
    rows = list(csv.reader(_io.StringIO(text)))
    if not rows:
        raise ParseError(f"{path}: empty file")
    has_t, has_z, n_meta = _split_header(rows[0])
    n_payload = len(rows[0]) - n_meta

    if isinstance(space_spec, Space):
        space = space_spec
    else:
        space = space_from_spec(space_spec, n_payload, **space_opts)

    r, t, z, ys = [], [], [], []
    for i, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != n_meta + n_payload:
            raise ParseError(
                f"expected {n_meta + n_payload} fields, got {len(row)}", row=i
            )
        try:
            r.append(float(row[0]))
        except ValueError:
            raise ParseError(f"bad running value {row[0]!r}", row=i, column="r") from None
        pos = 1
        for flag, store, name in ((has_t, t, "t"), (has_z, z, "z")):
            if flag:
                try:
                    store.append(int(float(row[pos])))
                except ValueError:
                    raise ParseError(
                        f"bad {name} value {row[pos]!r}", row=i, column=name
                    ) from None
                pos += 1
        try:
            values = np.array([float(v) for v in row[n_meta:]])
        except ValueError:
            raise ParseError("bad payload value", row=i) from None
        ys.append(_payload_to_object(space, values, i))

    return RddSample(
        r=np.array(r),
        ys=tuple(ys),
        cutoff=cutoff,
        t=np.array(t) if has_t else None,
        z=np.array(z) if has_z else None,
    )


def ingest_jsonl(path, space: Space, cutoff: float) -> RddSample:
    """Load an RDD sample from JSON lines of MetricObject records."""
    r, t, z, ys = [], [], [], []
    has_t = has_z = None
    for i, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as err:
            raise ParseError(f"bad JSON: {err}", row=i) from None
        if "r" not in rec or "y" not in rec:
            raise ParseError("record needs 'r' and 'y' fields", row=i)
        r.append(float(rec["r"]))
        row_t, row_z = rec.get("t"), rec.get("z")
        if has_t is None:
            has_t, has_z = row_t is not None, row_z is not None
        if (row_t is not None) != has_t or (row_z is not None) != has_z:
            raise ParseError("inconsistent t/z fields across records", row=i)
        if has_t:
            t.append(int(row_t))
        if has_z:
            z.append(int(row_z))
        try:
            ys.append(object_from_json(rec["y"], space))
        except InvariantViolation as err:
            raise InvariantViolation(f"row {i}: {err}") from None

    return RddSample(
        r=np.array(r),
        ys=tuple(ys),
        cutoff=cutoff,
        t=np.array(t) if has_t else None,
        z=np.array(z) if has_z else None,
    )


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
    space = sample.space
    n_payload = int(np.prod(space.shape))
    header = ["r"]
    if sample.t is not None:
        header.append("t")
    if sample.z is not None:
        header.append("z")
    header += [f"y{j}" for j in range(n_payload)]

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(sample.n):
            row = [repr(float(sample.r[i]))]
            if sample.t is not None:
                row.append(str(int(sample.t[i])))
            if sample.z is not None:
                row.append(str(int(sample.z[i])))
            data = sample.ys[i].data
            if isinstance(space, CompositionalSphere):
                data = space.to_shares(sample.ys[i])
            row += [repr(float(v)) for v in data.ravel()]
            writer.writerow(row)
