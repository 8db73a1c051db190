import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shotline.binio import FormatError, expect_magic, expect_version, read_struct
from shotline.features import MAGIC, VERSION, FeatureStore, read_shtf, write_shtf

from _util import fill_disk_after


def test_store_basics():
    store = FeatureStore(4)
    store.add("a", 0, np.arange(4))
    store.add("a", 1, np.arange(4) + 1)
    store.add("b", 0, np.zeros(4))
    assert len(store) == 3
    assert store.shot_count("a") == 2 and store.shot_count("b") == 1
    assert np.array_equal(store.sequence("a")[1], np.arange(4, dtype=np.float32) + 1)


def test_store_duplicate_rejected():
    store = FeatureStore(2)
    store.add("a", 0, np.zeros(2))
    with pytest.raises(ValueError, match="duplicate"):
        store.add("a", 0, np.ones(2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(1, 70)), max_size=8),
       st.integers(0, 2**32 - 1))
def test_add_rows_equals_one_add_per_row(blocks, seed):
    # blocks of up to 70 rows across three videos, in shuffled ordinal order,
    # so a block may cross the first and later buffer doublings
    rng = np.random.default_rng(seed)
    bulk, single = FeatureStore(3), FeatureStore(3)
    next_ordinal = {}
    for video_id, count in blocks:
        first = next_ordinal.get(video_id, 0)
        next_ordinal[video_id] = first + count
        ordinals = (first + rng.permutation(count)).tolist()
        rows = rng.normal(0, 1, (count, 3))
        bulk.add_rows(video_id, ordinals, rows)
        for ordinal, values in zip(ordinals, rows):
            single.add(video_id, ordinal, values)
    assert bulk.matrix.dtype == np.float32
    assert bulk.matrix.tobytes() == single.matrix.tobytes()
    assert bulk.keys() == single.keys()
    for video_id in dict.fromkeys(v for v, _ in bulk.keys()):
        assert bulk.shot_count(video_id) == single.shot_count(video_id)
        assert np.array_equal(bulk.sequence_rows(video_id), single.sequence_rows(video_id))


def test_add_rows_fails_like_add_and_adds_nothing():
    store = FeatureStore(2)
    store.add_rows("a", [0, 1], np.zeros((2, 2)))
    before = (store.keys(), store.matrix.tobytes())
    # a stored key is named as add names it
    for add in (lambda: store.add_rows("a", [2, 1, 0], np.ones((3, 2))),
                lambda: store.add("a", 1, np.ones(2))):
        with pytest.raises(ValueError, match=r"^duplicate feature record \('a', 1\)$"):
            add()
    # the first duplicate in order, be it a repeat within the call or a stored key
    with pytest.raises(ValueError, match=r"^duplicate feature record \('a', 3\)$"):
        store.add_rows("a", [2, 3, 4, 3, 0], np.ones((5, 2)))
    with pytest.raises(ValueError, match=r"^duplicate feature record \('c', 0\)$"):
        store.add_rows("c", [0, 0], np.ones((2, 2)))
    for add in (lambda: store.add_rows("a", [5], np.ones((1, 3))),
                lambda: store.add("a", 5, np.ones(3))):
        with pytest.raises(ValueError, match=r"^expected shape \(1, 2\), got \(1, 3\)$"):
            add()
    with pytest.raises(ValueError, match=r"^expected shape \(2, 2\), got \(3, 2\)$"):
        store.add_rows("b", [0, 1], np.ones((3, 2)))
    assert (store.keys(), store.matrix.tobytes()) == before
    store.add_rows("b", [], np.ones((0, 2)))
    assert store.shot_count("b") == 0 and len(store) == 2


def test_store_missing_lookup():
    store = FeatureStore(2)
    with pytest.raises(KeyError):
        store.rows([("nope", 0)])


def test_store_dimension_check():
    store = FeatureStore(3)
    with pytest.raises(ValueError):
        store.add("a", 0, np.zeros(4))


def test_empty_store_round_trips(tmp_path):
    path = tmp_path / "f.shtf"
    write_shtf(path, FeatureStore(16))
    loaded = read_shtf(path)
    assert loaded.dim == 16 and len(loaded) == 0


def test_single_record_round_trips_bitwise(tmp_path):
    store = FeatureStore(5)
    store.add("movie x", 3, np.array([0.1, -2.5, 3e-9, 1e12, -0.0], dtype=np.float32))
    path = tmp_path / "f.shtf"
    write_shtf(path, store)
    loaded = read_shtf(path)
    assert loaded.rows([("movie x", 3)]).tobytes() == store.rows([("movie x", 3)]).tobytes()
    write_shtf(tmp_path / "g.shtf", loaded)
    assert path.read_bytes() == (tmp_path / "g.shtf").read_bytes()


def test_10k_record_store_round_trips(tmp_path):
    rng = np.random.default_rng(0)
    store = FeatureStore(8)
    for i in range(10_000):
        store.add(f"v{i % 37}", i // 37, rng.normal(0, 1, 8).astype(np.float32))
    path = tmp_path / "big.shtf"
    write_shtf(path, store)
    loaded = read_shtf(path)
    assert len(loaded) == 10_000
    assert loaded.rows(store.keys()).tobytes() == store.matrix.tobytes()


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 30)),
                min_size=0, max_size=24, unique=True),
       st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_round_trip_random_stores(tmp_path_factory, keys, dim, seed):
    rng = np.random.default_rng(seed)
    store = FeatureStore(dim)
    for vid, ordinal in keys:
        store.add(f"video{vid}", ordinal, rng.normal(0, 100, dim).astype(np.float32))
    path = tmp_path_factory.mktemp("shtf") / "s.shtf"
    write_shtf(path, store)
    loaded = read_shtf(path)
    assert loaded.keys() == store.keys()
    assert loaded.rows(store.keys()).tobytes() == store.matrix.tobytes()


@pytest.mark.parametrize("budget", [0, 12, 30, 500])
def test_a_failed_write_leaves_the_old_cache(tmp_path, monkeypatch, budget):
    path = tmp_path / "features.shtf"
    store = FeatureStore(4)
    store.add("m0", 0, np.ones(4, dtype=np.float32))
    write_shtf(path, store)
    old = path.read_bytes()
    for o in range(1, 40):
        store.add("m0", o, np.full(4, o, dtype=np.float32))
    fill_disk_after(monkeypatch, budget)
    with pytest.raises(OSError, match="No space left"):
        write_shtf(path, store)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["features.shtf"]
    monkeypatch.undo()
    write_shtf(path, store)
    assert len(read_shtf(path)) == 40
    assert [p.name for p in tmp_path.iterdir()] == ["features.shtf"]


def test_truncated_cache_reports_offset(tmp_path):
    store = FeatureStore(4)
    store.add("a", 0, np.ones(4))
    path = tmp_path / "f.shtf"
    write_shtf(path, store)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError, match="byte"):
        read_shtf(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "f.shtf"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(FormatError, match="magic"):
        read_shtf(path)


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 40)),
                min_size=1, max_size=40, unique=True),
       st.integers(1, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_rows_and_sequence_match_per_key_values(keys, dim, seed):
    rng = np.random.default_rng(seed)
    store = FeatureStore(dim)
    values = {}
    for vid, ordinal in keys:  # ragged, gapped and out of ordinal order
        values[(f"v{vid}", ordinal)] = rng.normal(0, 1, dim).astype(np.float32)
        store.add(f"v{vid}", ordinal, values[(f"v{vid}", ordinal)])
    picks = [list(values)[i] for i in rng.integers(0, len(values), 2 * len(values))]
    assert store.rows(picks).tobytes() == np.stack([values[k] for k in picks]).tobytes()
    assert store.matrix.tobytes() == np.stack(list(values.values())).tobytes()
    for vid in dict.fromkeys(v for v, _ in store.keys()):
        ordinals = sorted(o for v, o in values if v == vid)
        assert store.shot_count(vid) == len(ordinals)
        assert store.sequence(vid).tobytes() == np.stack(
            [values[(vid, o)] for o in ordinals]).tobytes()


def test_matrix_is_a_read_only_view():
    store = FeatureStore(2)
    store.add("a", 0, np.ones(2))
    with pytest.raises(ValueError):
        store.matrix[0, 0] = 5.0


def test_missing_shot_is_named():
    store = FeatureStore(2)
    store.add("a", 0, np.ones(2))
    with pytest.raises(KeyError, match="no feature for shot a#7"):
        store.rows([("a", 0), ("a", 7)])
    with pytest.raises(KeyError, match="no features for video 'b'"):
        store.sequence("b")


def test_gapped_store_round_trips_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    store = FeatureStore(5)
    for vid, ordinal in [("movie x", 3), ("movie x", 0), ("b", 9), ("movie x", 7), ("b", 2)]:
        store.add(vid, ordinal, rng.normal(0, 1e6, 5).astype(np.float32))
    path = tmp_path / "f.shtf"
    write_shtf(path, store)
    loaded = read_shtf(path)
    assert loaded.keys() == store.keys()
    assert loaded.matrix.tobytes() == store.matrix.tobytes()
    assert loaded.sequence("movie x").tobytes() == store.sequence("movie x").tobytes()
    write_shtf(tmp_path / "g.shtf", loaded)
    assert path.read_bytes() == (tmp_path / "g.shtf").read_bytes()


def _two_record_file(tmp_path, dim=3):
    store = FeatureStore(dim)
    store.add("ab", 0, np.ones(dim))
    store.add("ab", 1, np.zeros(dim))
    path = tmp_path / "f.shtf"
    write_shtf(path, store)
    return path, path.read_bytes()


@pytest.mark.parametrize("keep, message", [
    (9, "truncated file reading feature dimension at byte 8"),
    (19, "truncated file reading record count at byte 12"),
    (20, "truncated file reading video id length at byte 20"),
    (22, "truncated file reading video id at byte 22"),
    (25, "truncated file reading shot ordinal at byte 24"),
    (29, "truncated file reading features of ab#0 at byte 28"),
    (59, "truncated file reading features of ab#1 at byte 48"),
])
def test_truncation_names_the_field_and_byte(tmp_path, keep, message):
    # layout: magic 0-3, version 4-7, dim 8-11, count 12-19, then each record is
    # id length (2), id (2), ordinal (4) and 3 floats (12): bytes 20-39 and 40-59
    path, data = _two_record_file(tmp_path)
    assert len(data) == 60
    path.write_bytes(data[:keep])
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {message}$"):
        read_shtf(path)


def test_trailing_bytes_rejected(tmp_path):
    path, data = _two_record_file(tmp_path)
    path.write_bytes(data + b"\x00")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: trailing bytes at byte 60$"):
        read_shtf(path)


def test_huge_record_count_fails_as_truncation(tmp_path):
    path, data = _two_record_file(tmp_path)
    path.write_bytes(data[:12] + (2**62).to_bytes(8, "little") + data[20:])
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: truncated file reading "
                                          "video id length at byte 60$"):
        read_shtf(path)


def test_duplicate_record_rejected_on_read(tmp_path):
    path, data = _two_record_file(tmp_path)
    first = data[20:40]
    # a duplicate comes before a later truncation or trailing bytes
    for count, body in ((2, first + first), (3, first + first + first[:5]),
                        (2, first + first + b"\x00")):
        path.write_bytes(data[:12] + count.to_bytes(8, "little") + body)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: "
                                              r"duplicate feature record \('ab', 0\)$"):
            read_shtf(path)


def per_record_read_shtf(path) -> FeatureStore:
    """Oracle: the reader that checks and stores one record at a time."""
    try:
        data = path.read_bytes()
        header = io.BytesIO(data)
        expect_magic(header, MAGIC)
        expect_version(header, VERSION)
        (dim,) = read_struct(header, "<I", "feature dimension")
        (count,) = read_struct(header, "<Q", "record count")
        pos, end = header.tell(), len(data)
        store = FeatureStore(dim)
        for _ in range(count):
            if pos + 2 > end:
                raise FormatError(f"truncated file reading video id length at byte {pos}")
            (id_len,) = struct.unpack_from("<H", data, pos)
            pos += 2
            if pos + id_len > end:
                raise FormatError(f"truncated file reading video id at byte {pos}")
            try:
                video_id = data[pos:pos + id_len].decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"video id at byte {pos} is not UTF-8") from None
            pos += id_len
            if pos + 4 > end:
                raise FormatError(f"truncated file reading shot ordinal at byte {pos}")
            (ordinal,) = struct.unpack_from("<I", data, pos)
            pos += 4
            if pos + 4 * dim > end:
                raise FormatError(f"truncated file reading features of {video_id}#{ordinal} "
                                  f"at byte {pos}")
            values = np.frombuffer(data, "<f4", dim, pos)
            if not np.isfinite(values).all():
                raise FormatError(f"non-finite features in {video_id}#{ordinal} at byte {pos}")
            store.add(video_id, ordinal, values)
            pos += 4 * dim
        if pos < end:
            raise FormatError(f"trailing bytes at byte {pos}")
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return store


def read_outcome(read, path):
    """The store's matrix bytes, keys, row index and per-video rows, or the error."""
    try:
        store = read(path)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    videos = list(dict.fromkeys(v for v, _ in store.keys()))
    return (store.dim, store.matrix.tobytes(), store.keys(),
            store.row_indices(store.keys()).tolist(), videos,
            [store.sequence_rows(v).tolist() for v in videos])


# ids of mixed byte lengths (so runs split), non-ASCII and ending in NUL
VIDEO_IDS = st.lists(st.one_of(st.text(max_size=5), st.text(max_size=3).map(lambda t: t + "\x00")),
                     min_size=1, max_size=5, unique=True)


@st.composite
def shtf_files(draw):
    ids = draw(VIDEO_IDS)
    keys = draw(st.lists(st.tuples(st.integers(0, len(ids) - 1), st.integers(0, 2**32 - 1)),
                         max_size=12, unique=True))
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    store = FeatureStore(dim)
    for vid, ordinal in keys:
        store.add(ids[vid], ordinal, rng.normal(0, 100, dim).astype(np.float32))
    return store


@given(shtf_files())
@settings(max_examples=60, deadline=None)
def test_run_reader_matches_per_record_reader(tmp_path_factory, store):
    path = tmp_path_factory.mktemp("shtf") / "s.shtf"
    write_shtf(path, store)
    outcome = read_outcome(read_shtf, path)
    assert outcome == read_outcome(per_record_read_shtf, path)
    assert outcome[1] == store.matrix.tobytes()


@given(shtf_files())
@settings(max_examples=15, deadline=None)
def test_run_reader_fails_like_per_record_reader_on_every_truncation(tmp_path_factory, store):
    path = tmp_path_factory.mktemp("shtf") / "s.shtf"
    write_shtf(path, store)
    data = path.read_bytes()
    for keep in range(len(data)):
        path.write_bytes(data[:keep])
        outcome = read_outcome(read_shtf, path)
        assert outcome[0] is FormatError and outcome == read_outcome(per_record_read_shtf, path)


@given(shtf_files(), st.data())
@settings(max_examples=60, deadline=None)
def test_run_reader_fails_like_per_record_reader_on_corrupt_fields(tmp_path_factory, store, data):
    path = tmp_path_factory.mktemp("shtf") / "s.shtf"
    write_shtf(path, store)
    blob = bytearray(path.read_bytes())
    if len(store) and data.draw(st.booleans()):
        # an id-length field of some record, or a copy of one record over another
        at, records = 20, []
        for video_id, _ in store.keys():
            records.append(at)
            at += 6 + len(video_id.encode("utf-8")) + 4 * store.dim
        start = data.draw(st.sampled_from(records))
        if data.draw(st.booleans()):
            blob[start:start + 2] = data.draw(st.integers(0, 0xFFFF)).to_bytes(2, "little")
        else:
            stop = [*records, len(blob)][records.index(start) + 1]
            dest = data.draw(st.sampled_from(records))
            blob[dest:dest + stop - start] = blob[start:stop]
    else:
        blob[12:20] = data.draw(st.integers(0, 2**64 - 1)).to_bytes(8, "little")
    # a cut tail: an error after the corrupted record must not hide one in it
    path.write_bytes(bytes(blob[:len(blob) - data.draw(st.integers(0, 12))]))
    assert read_outcome(read_shtf, path) == read_outcome(per_record_read_shtf, path)


def test_a_non_utf8_video_id_is_named(tmp_path):
    path, data = _two_record_file(tmp_path)
    path.write_bytes(data[:42] + b"\xff" + data[43:])
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: "
                                          "video id at byte 42 is not UTF-8$"):
        read_shtf(path)


def per_record_write_shtf(path, store) -> None:
    """Oracle: the writer that packs one record at a time."""
    payloads = store.matrix.astype("<f4", copy=False)
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IIQ", VERSION, store.dim, len(store)))
        for row, (video_id, ordinal) in enumerate(store.keys()):
            encoded = video_id.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)) + encoded + struct.pack("<I", ordinal)
                     + payloads[row].tobytes())


@given(shtf_files())
@settings(max_examples=80, deadline=None)
def test_run_writer_matches_per_record_writer(tmp_path_factory, store):
    root = tmp_path_factory.mktemp("shtf")
    write_shtf(root / "runs.shtf", store)
    per_record_write_shtf(root / "records.shtf", store)
    assert (root / "runs.shtf").read_bytes() == (root / "records.shtf").read_bytes()


def test_run_writer_matches_per_record_writer_on_a_large_store(tmp_path):
    # more records than one structured array holds, in runs of mixed id lengths
    rng = np.random.default_rng(8)
    store = FeatureStore(12)
    for m in range(40):
        video_id = "m" * (m % 3 + 1) + "é" * (m % 2) + str(m)
        for o in rng.permutation(int(rng.integers(1, 600))).tolist():
            store.add(video_id, o, rng.normal(0, 1, 12).astype(np.float32))
    assert len(store) > 8192
    write_shtf(tmp_path / "runs.shtf", store)
    per_record_write_shtf(tmp_path / "records.shtf", store)
    assert (tmp_path / "runs.shtf").read_bytes() == (tmp_path / "records.shtf").read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_writer_refuses_a_non_finite_record(tmp_path, bad):
    store = FeatureStore(3)
    store.add("a", 0, np.ones(3, dtype=np.float32))
    store.add("b", 4, np.array([1.0, bad, bad], dtype=np.float32))
    store.add("b", 5, np.array([bad, 1.0, 1.0], dtype=np.float32))
    path = tmp_path / "s.shtf"
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: non-finite features in b#4$"):
        write_shtf(path, store)
    assert not path.exists()


@given(shtf_files(), st.data())
@settings(max_examples=60, deadline=None)
def test_reader_names_the_first_non_finite_record(tmp_path_factory, store, data):
    if not len(store):
        return
    path = tmp_path_factory.mktemp("shtf") / "s.shtf"
    write_shtf(path, store)
    blob = bytearray(path.read_bytes())
    at, payloads = 20, []
    for video_id, ordinal in store.keys():
        at += 6 + len(video_id.encode("utf-8"))
        payloads.append((at, f"{video_id}#{ordinal}"))
        at += 4 * store.dim
    poisoned = sorted(data.draw(st.lists(st.integers(0, len(store) - 1), min_size=1, unique=True)))
    for record in poisoned:
        column = data.draw(st.integers(0, store.dim - 1))
        value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        start = payloads[record][0] + 4 * column
        blob[start:start + 4] = np.array(value, "<f4").tobytes()
    path.write_bytes(bytes(blob))
    first_at, first_name = payloads[poisoned[0]]
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: non-finite features in "
                                          f"{re.escape(first_name)} at byte {first_at}$"):
        read_shtf(path)
    assert read_outcome(read_shtf, path) == read_outcome(per_record_read_shtf, path)
