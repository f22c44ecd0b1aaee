"""Serialization and ingestion.

Supported sample formats:

- CSV with header ``r[,t][,z],y0,...,y{D-1}``: one observation per row, the
  payload flattened row-major.  The number of payload columns determines the
  space shape (square matrices for Laplacian/SPD payloads).  Fields are split
  at commas with ``"`` quoting; blank lines are skipped and ``#`` is not a
  comment.  Each field is one number as NumPy's C reader (``np.loadtxt``)
  reads it: whitespace around it is ignored, and it takes signs, exponents,
  ``nan``, ``inf`` and ``infinity`` in any case, with values beyond the
  float range read as infinite.  Digit-group underscores (``1_0``) and
  non-ASCII digits are refused, although Python's ``float`` accepts them.
  Errors name the record's line (its record number, should a quoted field
  span lines) and, for ``r``, ``t`` and ``z``, its column.
- JSON lines: one record per line, ``{"r": ..., "t": ..., "z": ...,
  "y": {"space": ..., "variant": ..., "shape": [...], "data": [...]}}``.

Both are read as UTF-8, after a byte-order mark if the file starts with one.

A large CSV body is parsed in parallel on Linux.  The rule that sets a
campaign's worker count (:func:`~geordd._workers.worker_count`: usable CPUs
over the BLAS thread count) gives the processes, at most one per 4 MiB of
body; so with BLAS left at its default the body is read serially, and with
``OPENBLAS_NUM_THREADS=1`` on two CPUs a body of 8 MiB or more is read in
two.  The body is cut at line ends into one byte range per process, and
:func:`~geordd._workers.fork_map` parses each in a forked child with the
same reader while this process waits (or all of them here, one after
another, while a second thread runs).  Their rows land in order in one
array, so the sample is bit for bit the serial one.  Any failure (a refused
value or field count, a range of another width, a ``"`` anywhere in the
body, a child that ends early, a failed ``fork``) reads the body again
serially, so a refusal is the same on either path.

:func:`write_sample_csv` forks by the same rule, with the body's size
estimated from its first block of rows: so under ``OPENBLAS_NUM_THREADS=1``
on two CPUs a body of 8 MiB or more is formatted in forked children, in
rounds of one range per process, and written here in order.  This process
holds the text of at most one range per process, each at most 32 MiB at the
longest ``repr`` of every value; with one process it formats and writes one
block of rows at a time.  The bytes are the serial writer's either way.

Compositional inputs are accepted as raw shares (rows on the simplex) and
square-root transformed at load; all other spaces ingest payloads directly.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import operator
import os
import warnings
from pathlib import Path

import numpy as np

from ._workers import fork_map, worker_count
from .errors import InvariantViolation, MixedSpaces, NonFinitePayload, ParseError, ShapeMismatch
from .sample import RddSample
from .spaces import (
    SPD_VARIANTS,
    CompositionalSphere,
    Euclidean,
    FunctionalL2,
    MetricObject,
    NetworkLaplacian,
    Space,
    SpdSpace,
    Wasserstein1D,
)
from .spaces.base import block_rows

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
        if variant and variant.lower().replace("-", "_") not in SPD_VARIANTS:
            raise ParseError(f"unknown SPD variant {variant!r}; choose from {SPD_VARIANTS}")
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
        raise _bad_value(value, row, column) from None


def _bad_value(value, row: int, column: str) -> ParseError:
    name = "running" if column == "r" else column
    return ParseError(f"bad {name} value {value!r}", row=row, column=column)


def _build_sample(line_of, r, t, z, payload, to_stack, cutoff) -> RddSample:
    """Check the parsed columns and build the sample, validating the payload
    stack with ``to_stack``; a refused record is named by ``line_of(i)``,
    the line of record ``i``."""
    for name, col in (("t", t), ("z", z)):
        bad = [] if col is None else np.flatnonzero((col != 0.0) & (col != 1.0))
        if len(bad):
            value, row = float(col[bad[0]]), line_of(bad[0])
            raise ParseError(f"{name} must be 0 or 1, got {value!r}", row=row, column=name)
    try:
        return RddSample(r=r, ys=to_stack(payload), cutoff=cutoff, t=t, z=z)
    except (InvariantViolation, NonFinitePayload) as err:
        if err.index is None:
            raise
        raise type(err)(f"row {line_of(err.index)}: {err}") from None


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


def _read_numbers(lines) -> np.ndarray:
    """The records in ``lines`` (a text file or a list of lines) as one 2-d
    float array: the only parser of CSV values."""
    return np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2)


def _quoted(fields: list[str]) -> str:
    """``fields`` as one record of quoted fields, which :func:`_read_numbers`
    reads as the values they hold."""
    if '"' in "".join(fields):
        fields = [f.replace('"', '""') for f in fields]
    return '"' + '","'.join(fields) + '"'


def _parses(records: list[str]) -> bool:
    """Whether :func:`_read_numbers` accepts every one of ``records``, each
    a line of :func:`_quoted` fields."""
    try:
        _read_numbers(records)
    except ValueError:
        return False
    return True


def _csv_records(path):
    """The nonblank records after the header, each with its line number.
    The file is read again this way only to locate an error."""
    with open(path, encoding="utf-8-sig") as fh:
        for line, row in enumerate(csv.reader(fh), 1):
            if line > 1 and row:
                yield line, row


def _record_line(path, index: int) -> int:
    return next(itertools.islice(_csv_records(path), index, None))[0]


def _first_bad_record(path, header, n_meta) -> ParseError:
    """The parse error of the first record that the reader refuses.

    One pass finds the first record with the wrong number of fields.  The
    records before it are then bisected: each step reads the first half of
    the range that holds the first refused record, if there is one, so
    about log2(n) reads of n records in all.  The refused record's fields
    are then read one by one.
    """
    lines, records, miscount = [], [], None
    for line, row in _csv_records(path):
        if len(row) != len(header):
            miscount = ParseError(f"expected {len(header)} fields, got {len(row)}", row=line)
            break
        lines.append(line)
        records.append(_quoted(row))
    lo, hi = 0, len(records)
    while hi - lo > 1:  # the reader accepts records[:lo]
        mid = (lo + hi) // 2
        if _parses(records[lo:mid]):
            lo = mid
        else:
            hi = mid
    if hi == 0 or _parses(records[lo:hi]):
        if miscount is None:  # pragma: no cover
            raise AssertionError("no bad record found")
        return miscount
    meta = [c.strip().lower() for c in header[:n_meta]]
    for column, text in zip(meta, next(csv.reader([records[lo]]))):
        if not _parses([_quoted([text])]):
            return _bad_value(text, lines[lo], column)
    return ParseError("bad payload value", row=lines[lo])


#: the least body, in bytes, that each process of a parallel parse reads or
#: of a parallel write formats: the size floor of both
_RANGE_BYTES = 4 << 20


class _ByteRange(io.RawIOBase):
    """The bytes ``start:stop`` of the binary file ``raw``.  A ``"`` among
    them is a ``ValueError``: a quoted field may hold a newline, so a cut at
    one may have split a record."""

    def __init__(self, raw, start: int, stop: int):
        super().__init__()
        raw.seek(start)
        self._raw, self._left = raw, stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        view = memoryview(buffer)[:self._left]
        n = self._raw.readinto(view)
        if b'"' in view[:n].tobytes():
            raise ValueError("a quoted field in a parallel range")
        self._left -= n
        return n


def _read_range(path, start: int, stop: int) -> np.ndarray:
    """:func:`_read_numbers` of the records in bytes ``start:stop`` of the
    file at ``path``, whose lines are read as ``open(path, encoding="utf-8")``
    reads them, never held as one string."""
    with open(path, "rb", buffering=0) as raw, warnings.catch_warnings():
        # a range of blank lines reads as one empty column, which is refused
        warnings.simplefilter("ignore")
        return _read_numbers(io.TextIOWrapper(_ByteRange(raw, start, stop), encoding="utf-8"))


def _ranges(path, start: int, stop: int, k: int) -> list[tuple[int, int]]:
    """Bytes ``start:stop`` of the file at ``path`` as at most ``k`` nonempty
    ranges, each cut just past the first ``\\n`` at or after i/k of the way.
    In UTF-8 that byte is never part of a longer character."""
    cuts = [start]
    with open(path, "rb") as fh:
        for i in range(1, k):
            fh.seek(start + (stop - start) * i // k)
            fh.readline()
            cuts.append(min(fh.tell(), stop))
    cuts.append(stop)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def _read_in_ranges(path, start: int, stop: int, width: int) -> np.ndarray | None:
    """The records in bytes ``start:stop`` of the file at ``path``, parsed
    in ranges by :func:`~geordd._workers.fork_map`, one range per process of
    :func:`~geordd._workers.worker_count` (at most one per ``_RANGE_BYTES``
    of body); or None where the serial read must decide: with fewer than
    two processes, a ``start`` that is no byte offset inside the file (a
    text file's ``tell`` after a header ended by a lone ``\\r`` holds a
    decoder's state), or any refusal (a ``ValueError``, a ``"``, a range
    not ``width`` wide, a child that ends early, a failed ``fork``)."""
    k = worker_count((stop - start) // _RANGE_BYTES) if start < stop else 1
    if k < 2:
        return None
    try:
        parts = fork_map(_read_range, [(path, *cut) for cut in _ranges(path, start, stop, k)], k)
    except (ValueError, OSError):
        return None
    return np.concatenate(parts) if all(part.shape[1] == width for part in parts) else None


def ingest_csv(path, space_spec: str | Space, cutoff: float, **space_opts) -> RddSample:
    """Load an RDD sample from CSV; see the module docstring for the format."""
    with open(path, encoding="utf-8-sig") as fh:
        # readline, not iteration, so that fh.tell() stays available
        header = next(csv.reader(iter(fh.readline, "")), None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        has_t, has_z, n_meta = _split_header(header)
        if isinstance(space_spec, Space):
            space = space_spec
        else:
            space = space_from_spec(space_spec, len(header) - n_meta, **space_opts)
        # a byte offset unless the decoder holds state (see _read_in_ranges)
        start = fh.tell()
        values = np.empty((0, len(header)))
        # only when a record follows: np.loadtxt warns about an empty body
        if any(line != "\n" for line in iter(fh.readline, "")):
            fh.seek(start)
            values = _read_in_ranges(path, start, os.fstat(fh.fileno()).st_size, len(header))
            if values is None:
                try:
                    values = _read_numbers(fh)
                except ValueError:
                    values = None
    if values is None or values.shape[1] != len(header):
        raise _first_bad_record(path, header, n_meta)
    payload = values[:, n_meta:].reshape(len(values), *space.shape)
    t, z = (values[:, 1] if has_t else None), (values[:, 1 + has_t] if has_z else None)
    sphere = isinstance(space, CompositionalSphere)
    to_stack = space.points_from_shares if sphere else space.stack
    line_of = functools.partial(_record_line, path)
    return _build_sample(line_of, values[:, 0], t, z, payload, to_stack, cutoff)


def ingest_jsonl(path, space: Space, cutoff: float) -> RddSample:
    """Load an RDD sample from JSON lines of MetricObject records."""
    lines, r, t, z, ys = [], [], [], [], []
    has_t = has_z = None
    for i, line in enumerate(Path(path).read_text(encoding="utf-8-sig").splitlines(), 1):
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
    return _build_sample(lines.__getitem__, np.array(r), t, z, payload, space.stack, cutoff)


def ingest(path, space_spec: str | Space, cutoff: float, **space_opts) -> RddSample:
    """Dispatch on file extension: ``.jsonl``/``.ndjson`` or CSV.

    For JSON lines with a spec string, the payload width comes from the
    first record's declared shape.
    """
    suffix = Path(path).suffix.lower()
    if suffix not in (".jsonl", ".ndjson"):
        return ingest_csv(path, space_spec, cutoff, **space_opts)
    if not isinstance(space_spec, Space):
        with open(path, encoding="utf-8-sig") as fh:
            first = next((line for line in fh if line.strip()), None)
        if first is None:
            raise ParseError(f"{path}: empty file")
        try:
            n_payload = int(np.prod(json.loads(first)["y"]["shape"]))
        except (ValueError, KeyError, TypeError):
            raise ParseError(f"{path}: first record declares no payload shape") from None
        space_spec = space_from_spec(space_spec, n_payload, **space_opts)
    return ingest_jsonl(path, space_spec, cutoff)


def _mirror_plan(shape: tuple[int, ...]):
    """For an (m, m) payload with m >= 2, the flat indices of its upper
    triangle, the flat index of each entry's upper-triangle twin, and a getter
    that places each entry from its position among the upper-triangle ones;
    ``None`` for any other shape (a getter of one index returns no tuple)."""
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 2:
        return None
    m = shape[0]
    i, j = np.triu_indices(m)
    upper = i * m + j
    i, j = np.divmod(np.arange(m * m), m)
    twin = np.minimum(i, j) * m + np.maximum(i, j)
    position = np.empty(m * m, dtype=np.intp)
    position[upper] = np.arange(upper.size)
    return upper, twin, operator.itemgetter(*position[twin].tolist())


#: the most text, in bytes, that one range of a parallel write may hold, at
#: the longest repr of every value: enough that 20,000 ten-node graphs on
#: two processes go in one round of two ranges
_RANGE_TEXT = 32 << 20

#: characters in the longest ``repr`` of a float64, ``-2.2250738585072014e-308``
_REPR_CHARS = 24


def _format_rows(sample: RddSample, start: int, stop: int) -> bytes:
    """The records of rows ``start:stop`` of ``sample`` as CSV text, formatted
    a block of rows at a time (:func:`~geordd.spaces.base.block_rows`).

    Each value is written as its ``repr``.  A block of square payloads that
    equals its transpose bit for bit (every Laplacian and SPD sample, which
    are stored symmetrised) formats only the upper triangle of each row and
    writes each string at both mirrored positions; any other block, one with
    0.0 opposite -0.0 among them, formats every entry.  Either way the text
    is the same.
    """
    meta = [name for name in ("t", "z") if getattr(sample, name) is not None]
    columns = [sample.r] + [getattr(sample, name) for name in meta]
    payload = sample.ys.data.reshape(sample.n, -1)
    shares = isinstance(sample.space, CompositionalSphere)
    mirror = _mirror_plan(sample.space.shape) if payload.dtype == np.float64 else None
    upper, twin, place = mirror or (None, None, None)
    step = block_rows(payload.shape[1])
    out = io.BytesIO()
    for first in range(start, stop, step):
        rows = slice(first, min(first + step, stop))
        y = payload[rows] ** 2 if shares else payload[rows]  # the shares
        block = [col[rows].tolist() for col in columns]
        if mirror and np.array_equal(bits := y.view(np.int64), bits[:, twin]):
            fields = (place(list(map(repr, row))) for row in y[:, upper].tolist())
        else:
            fields = (map(repr, row) for row in y.tolist())
        # no repr of a float needs CSV quoting; lines end as csv.writer ends them
        out.write("".join(
            ",".join([repr(r), *map(str, tz), *ys]) + "\r\n"
            for r, *tz, ys in zip(*block, fields)
        ).encode())
    return out.getvalue()


def write_sample_csv(sample: RddSample, path) -> None:
    """Serialize a sample to the CSV form accepted by :func:`ingest_csv`.

    Compositional samples are written back as shares, matching the ingestion
    convention for the simplex space (so the square-root transform is applied
    exactly once on the way in).  Records are formatted by
    :func:`_format_rows`, a block of rows at a time, and the file's bytes are
    the same however the rows are cut and by however many processes.

    This process writes the header and the first block of rows.  That
    block's bytes per row times the sample's rows estimate the body's size,
    which sets the process count k by the rule that parses a large body
    (:func:`~geordd._workers.worker_count`, at most one process per
    ``_RANGE_BYTES``, 4 MiB, of body: the size floor).  With k = 1 the rest
    is formatted and written a block at a time, so memory beyond the sample
    is that of one block at any n.  With k >= 2 (a body of 8 MiB or more on
    two CPUs with BLAS on one thread, such as 20,000 ten-node graphs) the
    rest is cut at block boundaries into ranges of at most ceil(blocks / k)
    blocks, each at most ``_RANGE_TEXT`` (32 MiB) of text were every value
    written at its longest ``repr``, but at least one block.
    :func:`~geordd._workers.fork_map` formats them in rounds of k ranges,
    each in a forked child (or all here, while a second thread runs), and
    this process writes a round's text in order before the next round
    starts.  So beside its first block it holds the text of at most k
    ranges: at most k x 32 MiB, and never more than the body.
    Only this process writes to the file.
    """
    meta = [name for name in ("t", "z") if getattr(sample, name) is not None]
    width = int(np.prod(sample.space.shape))
    header = ",".join(["r"] + meta + [f"y{j}" for j in range(width)])
    n, step = sample.n, block_rows(width)
    with open(path, "wb") as fh:
        fh.write(f"{header}\r\n".encode())
        written = fh.write(_format_rows(sample, 0, step))
        # the body's size, estimated from its first block, sets the processes
        k = max(1, worker_count(written * n // min(step, n) // _RANGE_BYTES))
        blocks = 1  # in a range: one at a time with one process
        if k > 1:
            # a block's text at the longest repr of each value and separator
            longest = step * ((1 + len(meta) + width) * (_REPR_CHARS + 1) + 1)
            blocks = max(1, min(-(-(n - step) // (step * k)), _RANGE_TEXT // longest))
        cut = blocks * step
        ranges = [(sample, a, min(a + cut, n)) for a in range(step, n, cut)]
        for first in range(0, len(ranges), k):
            fh.flush()  # so that no forked child holds unwritten bytes of the file
            fh.writelines(fork_map(_format_rows, ranges[first:first + k], k))
