"""The sample path in row blocks: a network draw, the CSV writer and ingest.

Each stage is checked byte for byte against the whole-array code it
replaced, kept here as the oracle, and its tracemalloc peak is bounded on
one 20,000-graph sample path.  A sample built from records already sorted
keeps their stack, and a refused payload names its line in the file.
"""

import builtins
import gc
import json
import tracemalloc

import numpy as np
import pytest

from geordd import CompositionalSphere, Euclidean, NetworkDgp, RddSample, SpdSpace
from geordd import io as geordd_io
from geordd.errors import InvariantViolation, NonFinitePayload
from geordd.io import ingest, ingest_csv, ingest_jsonl, write_sample_csv
from geordd.spaces import PointStack
from geordd.spaces import base as spaces_base
from geordd.spaces.network import laplacian_from_weights

MB = 2**20


def _whole_network_draw(dgp: NetworkDgp, rng: np.random.Generator):
    """``NetworkDgp.sample`` as it was before it filled one Laplacian stack in
    place: the running values and the canonical payloads, in draw order."""
    m = dgp.n_nodes
    probs = dgp.edge_probabilities()
    r = rng.uniform(-1.0, 1.0, dgp.n)
    iu = np.triu_indices(m, k=1)
    present = rng.random((dgp.n, iu[0].size)) < probs[iu][None, :]
    noise = rng.random((dgp.n, iu[0].size))
    base = np.cos(np.pi * r / 2.0) + dgp.jump * (r >= 0.0)
    w = np.zeros((dgp.n, m, m))
    w[:, iu[0], iu[1]] = np.where(present, base[:, None] + noise, 0.0)
    lap = laplacian_from_weights(w + np.swapaxes(w, 1, 2))
    return r, dgp.space._validate(np.ascontiguousarray(lap))


def _whole_csv(sample: RddSample, path) -> None:
    """``write_sample_csv`` as it was before it wrote in row blocks."""
    meta = [name for name in ("t", "z") if getattr(sample, name) is not None]
    columns = [sample.r.tolist()] + [getattr(sample, name).tolist() for name in meta]
    payload = sample.ys.data.reshape(sample.n, -1)
    if isinstance(sample.space, CompositionalSphere):
        payload = payload**2
    header = ",".join(["r"] + meta + [f"y{j}" for j in range(payload.shape[1])])
    records = (
        ",".join([repr(r), *map(str, tz), *map(repr, y)])
        for r, *tz, y in zip(*columns, payload.tolist())
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\r\n".join([header, *records, ""]))


def _three_blocks_and_some(row_entries: int) -> int:
    return 3 * spaces_base.block_rows(row_entries) + 7


@pytest.mark.parametrize(
    "dgp",
    [NetworkDgp(n=500, seed=3), NetworkDgp(n=_three_blocks_and_some(100), seed=4),
     NetworkDgp(n=300, seed=5, n_nodes=6, jump=0.0, p_within=0.3, p_between=0.0)],
    ids=["n500", "four-blocks", "isolated-nodes"],
)
def test_network_draw_equals_the_whole_array_draw(dgp):
    sample, _ = dgp.sample()
    r, ys = _whole_network_draw(dgp, np.random.default_rng(dgp.seed))
    want = RddSample(r=r, ys=PointStack(dgp.space, ys), cutoff=0.0)
    assert sample.r.tobytes() == want.r.tobytes()
    assert sample.ys.data.tobytes() == want.ys.data.tobytes()


def _shares_sample(n: int) -> RddSample:
    rng = np.random.default_rng(6)
    shares = rng.dirichlet(np.full(4, 2.0), n)
    shares[::5, 1] = 0.0  # boundary compositions are floored on the way in
    shares /= shares.sum(axis=1, keepdims=True)
    r = rng.uniform(-1, 1, n)
    return RddSample(r, CompositionalSphere(4).points_from_shares(shares), 0.0)


def _scalar_tz_sample(n: int) -> RddSample:
    rng = np.random.default_rng(7)
    r = rng.uniform(-1, 1, n)
    z = (r >= 0).astype(float)
    t = np.where(rng.random(n) < 0.8, z, 1 - z)
    return RddSample(r, Euclidean(2).stack(rng.normal(size=(n, 2)) + t[:, None]), 0.0, t, z)


def _spd_sample(m: int, n: int) -> RddSample:
    rng = np.random.default_rng(10)
    a = rng.normal(size=(n, m, m))
    r = rng.uniform(-1, 1, n)
    return RddSample(r, SpdSpace(m).stack(a @ np.swapaxes(a, 1, 2) + np.eye(m)), 0.0)


def _unmirrored_sample() -> RddSample:
    """Three blocks of six (4, 4) payloads, built directly: the first
    symmetric, the second with 0.0 opposite -0.0, the third with one
    asymmetric pair.  Only the first is its own transpose bit for bit."""
    rng = np.random.default_rng(11)
    a = rng.normal(size=(18, 4, 4))
    ys = a + np.swapaxes(a, 1, 2)
    ys[8, 0, 2], ys[8, 2, 0] = 0.0, -0.0
    ys[15, 3, 1] += 1e-3
    return RddSample(np.linspace(-1.0, 1.0, 18), PointStack(SpdSpace(4), ys), 0.0)


@pytest.mark.parametrize(
    "make, rows_per_block",
    [(lambda: NetworkDgp(n=_three_blocks_and_some(100), seed=8).sample()[0], None),
     (lambda: _shares_sample(40), 6), (lambda: _scalar_tz_sample(40), 6),
     (lambda: _scalar_tz_sample(5), 6), (lambda: _spd_sample(3, 40), 6),
     (lambda: _spd_sample(1, 40), 6),
     (lambda: NetworkDgp(n=300, seed=5, n_nodes=6, jump=0.0, p_within=0.3,
                         p_between=0.0).sample()[0], 40),
     (_unmirrored_sample, 6)],
    ids=["network", "shares", "scalar-t-z", "one-block", "spd3", "spd1", "isolated-nodes",
         "unmirrored"],
)
def test_writer_equals_the_whole_text(tmp_path, monkeypatch, make, rows_per_block):
    sample = make()
    if rows_per_block is not None:
        entries = int(np.prod(sample.space.shape))
        monkeypatch.setattr(spaces_base, "_BLOCK_ENTRIES", rows_per_block * entries)
    write_sample_csv(sample, tmp_path / "blocks.csv")
    _whole_csv(sample, tmp_path / "whole.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_a_laplacian_row_formats_each_mirrored_entry_once(tmp_path, monkeypatch):
    # r, then the 55 entries on and above the diagonal of a 10-node Laplacian
    sample, _ = NetworkDgp(n=50, seed=12).sample()
    calls = []

    def counting_repr(value):
        calls.append(value)
        return builtins.repr(value)

    monkeypatch.setattr(geordd_io, "repr", counting_repr, raising=False)
    write_sample_csv(sample, tmp_path / "graphs.csv")
    assert len(calls) == sample.n * (1 + 55)


@pytest.mark.parametrize(
    "make",
    [lambda: NetworkDgp(n=_three_blocks_and_some(100), seed=13).sample()[0],
     lambda: _spd_sample(3, 40)],
    ids=["laplacian", "spd"],
)
def test_mirrored_payloads_survive_a_round_trip(tmp_path, make):
    sample = make()
    write_sample_csv(sample, tmp_path / "sample.csv")
    again = ingest_csv(tmp_path / "sample.csv", sample.space, sample.cutoff)
    assert again.r.tobytes() == sample.r.tobytes()
    assert again.ys.data.tobytes() == sample.ys.data.tobytes()


def test_ingest_names_the_line_of_a_bad_record_in_the_third_block(tmp_path):
    per_block = spaces_base.block_rows(100)
    sample, _ = NetworkDgp(n=_three_blocks_and_some(100), seed=9).sample()
    path = tmp_path / "graphs.csv"
    write_sample_csv(sample, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    bad = 2 * per_block + 5  # a record of the third block
    fields = lines[1 + bad].split(",")
    fields[2] = repr(float(fields[2]) - 1.0)  # L_01 != L_10
    lines[1 + bad] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(InvariantViolation, match=f"^row {bad + 2}: Laplacian must be symmetric"):
        ingest_csv(path, "laplacian", 0.0, max_weight=3.0)


def test_non_finite_payload_names_its_line(tmp_path):
    path = tmp_path / "scalar.csv"
    path.write_text("r,y0\n-1.0,0.5\n0.0,nan\n", encoding="utf-8")
    with pytest.raises(NonFinitePayload, match="^row 3: payload contains NaN") as info:
        ingest_csv(path, "euclid", 0.0)
    assert info.value.code == "non_finite_payload"

    space = Euclidean(1)
    records = [{"r": r, "y": {**space.point([0.5]).to_json(), "data": [y]}}
               for r, y in ((-1.0, 0.5), (-0.5, 0.25), (0.5, float("inf")))]
    path = tmp_path / "scalar.jsonl"
    lines = [json.dumps(records[0]), "", json.dumps(records[1]), json.dumps(records[2])]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(NonFinitePayload, match="^row 4: payload contains NaN") as info:
        ingest_jsonl(path, space, 0.0)
    assert info.value.code == "non_finite_payload"


def test_sorted_records_keep_their_stack():
    # copying the stack took 15.6 MB here
    sample, _ = NetworkDgp(n=20_000, seed=21).sample()
    gc.collect()
    tracemalloc.start()
    try:
        again = RddSample(sample.r, sample.ys, sample.cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.ys.data is sample.ys.data
    assert peak < 1 * MB
    assert again.r.tobytes() == sample.r.tobytes()


def test_records_in_any_order_give_the_same_sample():
    sample = _scalar_tz_sample(300)
    r, ys, t, z = (np.array(a) for a in (sample.r, sample.ys.data, sample.t, sample.z))
    for order in (np.arange(r.size), np.random.default_rng(8).permutation(r.size)):
        columns = [r[order], t[order], z[order]]
        again = RddSample(columns[0], Euclidean(2).stack(ys[order]), 0.0, *columns[1:])
        for name in ("r", "t", "z"):
            assert getattr(again, name).tobytes() == getattr(sample, name).tobytes()
        assert again.ys.data.tobytes() == sample.ys.data.tobytes()
        # the caller's columns are copied, never frozen
        assert all(col.flags.writeable for col in columns)
        assert not any(np.shares_memory(getattr(again, name), col)
                       for name, col in zip(("r", "t", "z"), columns))


def _peak_mb(peaks: dict, stage: str, fn, *args, **kwargs):
    gc.collect()
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peaks[stage] = tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()
    return out


@pytest.fixture(scope="module")
def path_peaks(tmp_path_factory):
    """tracemalloc peaks in MB of the stages of one sample path of 20,000
    ten-node graphs, of ``space.stack`` on 100,000 of them, and of the writer
    on 2,000 of them.  Before the stages worked in row blocks they peaked at
    86 (draw), 78 (ingest), 239 (stack) and 8.4 MB (write).

    The writer is measured on 2,000 graphs, three blocks and part of a
    fourth: under tracemalloc, each of the 2 million values of 20,000 graphs
    is a traced float and string, and the write took 11 s.  For the same
    reason the file ingested holds those 2,000 records ten times over."""
    peaks = {}
    folder = tmp_path_factory.mktemp("graphs")
    few, _ = NetworkDgp(n=2_000, seed=21).sample()
    _peak_mb(peaks, "write", write_sample_csv, few, folder / "few.csv")
    header, body = (folder / "few.csv").read_text(encoding="utf-8").split("\n", 1)
    path = folder / "graphs.csv"
    path.write_text(header + "\n" + body * 10, encoding="utf-8")
    sample, _ = _peak_mb(peaks, "draw", NetworkDgp(n=20_000, seed=21).sample)
    space, payload = sample.space, np.concatenate([sample.ys.data] * 5)
    del sample
    assert len(_peak_mb(peaks, "stack", space.stack, payload)) == 100_000
    del payload
    back = _peak_mb(peaks, "ingest", ingest, path, "laplacian", 0.0, max_weight=3.0)
    assert back.n == 20_000
    return peaks


@pytest.mark.parametrize(
    "stage, bound_mb", [("draw", 64), ("write", 4), ("ingest", 64), ("stack", 128)]
)
def test_sample_path_memory(path_peaks, stage, bound_mb):
    assert path_peaks[stage] < bound_mb, path_peaks
