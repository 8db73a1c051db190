"""Shot feature store and its bit-exact cache container (SHTF).

Features are extracted once and cached, so sequence models can train over
full movies without touching pixels again. The store is columnar: one
contiguous (N, dim) float32 matrix in record order, a (video, ordinal) ->
row index, and per video its rows in ordinal order, so a lookup is a dict
hit and a batch of shots is one fancy-index of the matrix.
"""
from __future__ import annotations

import io
import re
import struct

import numpy as np

from .binio import FormatError, expect_magic, expect_version, read_struct, replace_on_success

MAGIC = b"SHTF"
VERSION = 1

ShotId = tuple[str, int]

_ID_LEN = struct.Struct("<H")
_ORDINAL = struct.Struct("<I")
_WRITE_ROWS = 8192  # records per structured array at most, to bound the writer's memory
# what ends a label in a text table: the list separator, the field separator, a line end
_LABEL_BREAKS = re.compile(r"[,\t\r\n]")


class FeatureStore:
    """Maps (video_id, shot ordinal) to a fixed-dimension float32 vector."""

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError(f"feature dimension must be positive, got {dim}")
        self.dim = dim
        # rows [0, len(self)) are live; add_rows() doubles the capacity when full
        self._buffer = np.empty((0, dim), dtype=np.float32)
        self._keys: list[ShotId] = []
        self._row_of: dict[ShotId, int] = {}
        self._video_rows: dict[str, list[int]] = {}  # rows of each video, in add order
        self._ordered: dict[str, np.ndarray] = {}    # the same rows in ordinal order

    def add(self, video_id: str, ordinal: int, values: np.ndarray) -> None:
        """Append one shot's vector: add_rows with one row."""
        self.add_rows(video_id, [ordinal], np.asarray(values)[None])

    def add_rows(self, video_id: str, ordinals, rows: np.ndarray) -> None:
        """Append the (len(ordinals), dim) rows of one video, row i as shot
        ordinals[i]. A row block of another shape, or a key that is already
        stored or repeats in the call, raises ValueError naming the first such
        key before anything is added. The buffer grows at most once, doubling
        when full, so appends stay amortised O(1) per row."""
        rows = np.asarray(rows, dtype=np.float32)
        keys = [(video_id, ordinal) for ordinal in ordinals]
        start, count = len(self._keys), len(keys)
        if rows.shape != (count, self.dim):
            raise ValueError(f"expected shape ({count}, {self.dim}), got {rows.shape}")
        if not count:
            return
        row_of = dict(zip(keys, range(start, start + count)))
        if len(row_of) < count or (video_id in self._video_rows
                                   and not row_of.keys().isdisjoint(self._row_of.keys())):
            seen = set()
            duplicate = next(k for k in keys if k in self._row_of or k in seen or seen.add(k))
            raise ValueError(f"duplicate feature record {duplicate}")
        if start + count > len(self._buffer):
            grown = np.empty((max(64, 2 * len(self._buffer), start + count), self.dim),
                             dtype=np.float32)
            grown[:start] = self._buffer[:start]
            self._buffer = grown
        self._buffer[start:start + count] = rows
        self._keys.extend(keys)
        self._row_of.update(row_of)
        self._video_rows.setdefault(video_id, []).extend(range(start, start + count))
        self._ordered.pop(video_id, None)

    @property
    def matrix(self) -> np.ndarray:
        """Read-only (len(self), dim) view of every record, in record order."""
        view = self._buffer[:len(self._keys)]
        view.flags.writeable = False
        return view

    def row_indices(self, keys) -> np.ndarray:
        """Matrix row of every (video_id, ordinal) key, as an int64 array."""
        try:
            return np.array([self._row_of[key] for key in keys], dtype=np.int64)
        except KeyError as exc:
            video_id, ordinal = exc.args[0]
            raise KeyError(f"no feature for shot {video_id}#{ordinal}") from None

    def shot_count(self, video_id: str) -> int:
        return len(self._video_rows.get(video_id, ()))

    def sequence_rows(self, video_id: str) -> np.ndarray:
        """Matrix rows of a video's shots in ordinal order, as an int64 array."""
        rows = self._ordered.get(video_id)
        if rows is None:
            added = self._video_rows.get(video_id)
            if not added:
                raise KeyError(f"no features for video {video_id!r}")
            rows = np.array(sorted(added, key=lambda r: self._keys[r][1]), dtype=np.int64)
            self._ordered[video_id] = rows
        return rows

    def sequence(self, video_id: str) -> np.ndarray:
        """All shot features of a video in ordinal order, shape (n, dim)."""
        return self._buffer[self.sequence_rows(video_id)]

    def keys(self) -> list[ShotId]:
        """(video_id, ordinal) of every row, in record order."""
        return list(self._keys)

    def rows(self, keys) -> np.ndarray:
        return self._buffer[self.row_indices(keys)]

    def __len__(self) -> int:
        return len(self._keys)


def shot_labels(keys) -> list[str]:
    """The ``video#ordinal`` label of each (video_id, ordinal) key: text tables
    name shots by comma-separated labels."""
    return [f"{video_id}#{ordinal}" for video_id, ordinal in keys]


def label_rows(store: FeatureStore):
    """A parser of comma-separated ``video#ordinal`` labels into the matrix
    rows of ``store``, through one label -> row table built here. A label of
    no stored shot raises ValueError naming it."""
    row_of = dict(zip(shot_labels(store.keys()), range(len(store))))

    def rows(field: str) -> list[int]:
        try:
            return [row_of[label] for label in field.split(",")]
        except KeyError as exc:
            raise ValueError(f"no feature for shot {exc.args[0]}") from None

    return rows


def check_label_ids(path, video_ids) -> None:
    """Raise ValueError naming the file and the first video id that a text
    table of shot labels cannot carry: one holding a comma, tab, CR or LF."""
    for video_id in video_ids:
        if _LABEL_BREAKS.search(video_id):
            raise ValueError(f"{path}: video id {video_id!r} holds a comma, tab or line "
                             f"break, which a shot label cannot carry")


def _record_dtype(id_len: int, dim: int) -> np.dtype:
    """One SHTF record whose video id is id_len bytes. The id is raw bytes,
    since an "S" field would drop trailing NULs."""
    return np.dtype([("id_len", "<u2"), ("id", "u1", (id_len,)),
                     ("ordinal", "<u4"), ("features", "<f4", (dim,))])


def write_shtf(path, store: FeatureStore) -> None:
    """Write a store as SHTF, each run of records with the same id length as
    one structured array. A non-finite feature value raises ValueError
    naming the file and the first such record, before anything is written;
    the bytes replace path only once all are written."""
    keys, payloads = store._keys, store.matrix
    bad = ~np.isfinite(payloads).all(axis=1)
    if bad.any():
        video_id, ordinal = keys[int(np.argmax(bad))]
        raise ValueError(f"{path}: non-finite features in {video_id}#{ordinal}")
    encoded = {video_id: video_id.encode("utf-8") for video_id in store._video_rows}
    for video_id, raw in encoded.items():
        if len(raw) > 0xFFFF:
            raise ValueError(f"{path}: video id too long: {video_id!r}")
    ids = [encoded[video_id] for video_id, _ in keys]
    ordinals = [ordinal for _, ordinal in keys]
    if ordinals and not 0 <= min(ordinals) <= max(ordinals) <= 0xFFFFFFFF:
        raise ValueError(f"{path}: shot ordinals must lie in 0..{0xFFFFFFFF}")
    lengths = np.array([len(raw) for raw in ids], dtype=np.int64)
    # a run ends where the id length changes, and at least every _WRITE_ROWS records
    bounds = sorted({*np.flatnonzero(np.diff(lengths, prepend=-1, append=-1)).tolist(),
                     *range(0, len(ids), _WRITE_ROWS)})
    with replace_on_success(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", store.dim))
        fh.write(struct.pack("<Q", len(store)))
        for start, stop in zip(bounds, bounds[1:]):
            id_len, rows = int(lengths[start]), stop - start
            run = np.empty(rows, _record_dtype(id_len, store.dim))
            run["id_len"] = id_len
            run["id"] = np.frombuffer(b"".join(ids[start:stop]), np.uint8).reshape(rows, id_len)
            run["ordinal"] = ordinals[start:stop]
            run["features"] = payloads[start:stop]
            fh.write(run.tobytes())


def _video_id(data: bytes, offset: int, size: int) -> str:
    try:
        return data[offset:offset + size].decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"video id at byte {offset} is not UTF-8") from None


def read_shtf(path) -> FeatureStore:
    """Load an SHTF store; a malformed file or a non-finite feature value
    raises FormatError naming it, with the first error in file order. After
    field-by-field checks of one record header, it and every following whole
    record with the same id length are viewed in place as one structured
    array (a run)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        header = io.BytesIO(data)
        expect_magic(header, MAGIC)
        expect_version(header, VERSION)
        (dim,) = read_struct(header, "<I", "feature dimension")
        (count,) = read_struct(header, "<Q", "record count")
        pos, end = header.tell(), len(data)
        store = FeatureStore(dim)
        # a corrupt count cannot allocate more rows than the remaining bytes could hold
        matrix = np.empty((min(count, (end - pos) // (6 + 4 * dim)), dim), dtype=np.float32)
        keys, video_rows = store._keys, store._video_rows
        try:
            while len(keys) < count:
                if pos + 2 > end:
                    raise FormatError(f"truncated file reading video id length at byte {pos}")
                (id_len,) = _ID_LEN.unpack_from(data, pos)
                if pos + 2 + id_len > end:
                    raise FormatError(f"truncated file reading video id at byte {pos + 2}")
                video_id, at = _video_id(data, pos + 2, id_len), pos + 2 + id_len
                if at + 4 > end:
                    raise FormatError(f"truncated file reading shot ordinal at byte {at}")
                if at + 4 + 4 * dim > end:
                    (ordinal,) = _ORDINAL.unpack_from(data, at)
                    raise FormatError(f"truncated file reading features of {video_id}#{ordinal} "
                                      f"at byte {at + 4}")
                # every whole record up to the first with another id length or
                # a non-finite feature value, which fails as the next run's first
                record = _record_dtype(id_len, dim)
                run = np.frombuffer(data, record,
                                    min(count - len(keys), (end - pos) // record.itemsize), pos)
                finite = np.isfinite(run["features"]).all(axis=1)
                if not finite[0]:
                    raise FormatError(f"non-finite features in {video_id}#{run['ordinal'][0]} "
                                      f"at byte {at + 4}")
                run = run[:np.argmax(np.append((run["id_len"] != id_len) | ~finite, True))]
                row = len(keys)
                matrix[row:row + len(run)] = run["features"]
                # the run's records fall into stretches of one video id each
                starts = [0, *np.flatnonzero((run["id"][1:] != run["id"][:-1]).any(axis=1)) + 1]
                for start, stop in zip(starts, starts[1:] + [len(run)]):
                    if start:
                        video_id = _video_id(data, pos + start * record.itemsize + 2, id_len)
                    keys.extend((video_id, o) for o in run["ordinal"][start:stop].tolist())
                    video_rows.setdefault(video_id, []).extend(range(row + start, row + stop))
                pos += len(run) * record.itemsize
            if pos < end:
                raise FormatError(f"trailing bytes at byte {pos}")
        finally:  # a duplicate record comes before any later error
            store._row_of = dict(zip(keys, range(len(keys))))
            if len(store._row_of) != len(keys):
                seen = set()
                raise ValueError(f"duplicate feature record "
                                 f"{next(k for k in keys if k in seen or seen.add(k))}")
    except ValueError as exc:  # a FormatError, a duplicate record or a zero dimension
        raise FormatError(f"{path}: {exc}") from None
    store._buffer = matrix
    return store
