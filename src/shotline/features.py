"""Shot feature store and its bit-exact cache container (SHTF).

Features are extracted once and cached, so sequence models can train over
full movies without touching pixels again. The store is columnar: one
contiguous (N, dim) float32 matrix in record order, a (video, ordinal) ->
row index, and per video its rows in ordinal order, so a lookup is a dict
hit and a batch of shots is one fancy-index of the matrix.
"""
from __future__ import annotations

import io
import struct
import sys

import numpy as np

from .binio import FormatError, expect_magic, expect_version, read_struct

MAGIC = b"SHTF"
VERSION = 1

ShotId = tuple[str, int]

_ID_LEN = struct.Struct("<H")
_ORDINAL = struct.Struct("<I")


class FeatureStore:
    """Maps (video_id, shot ordinal) to a fixed-dimension float32 vector."""

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError(f"feature dimension must be positive, got {dim}")
        self.dim = dim
        # rows [0, len(self)) are live; add() doubles the capacity when full
        self._buffer = np.empty((0, dim), dtype=np.float32)
        self._keys: list[ShotId] = []
        self._row_of: dict[ShotId, int] = {}
        self._video_rows: dict[str, list[int]] = {}  # rows of each video, in add order
        self._ordered: dict[str, np.ndarray] = {}    # the same rows in ordinal order

    def _index(self, video_id: str, ordinal: int) -> int:
        """Claim the next row for a new key; the caller fills the row."""
        key = (video_id, ordinal)
        if key in self._row_of:
            raise ValueError(f"duplicate feature record {key}")
        row = len(self._keys)
        self._keys.append(key)
        self._row_of[key] = row
        self._video_rows.setdefault(video_id, []).append(row)
        self._ordered.pop(video_id, None)
        return row

    def add(self, video_id: str, ordinal: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {values.shape}")
        if len(self._keys) == len(self._buffer):
            grown = np.empty((max(64, 2 * len(self._buffer)), self.dim), dtype=np.float32)
            grown[:len(self._keys)] = self._buffer[:len(self._keys)]
            self._buffer = grown
        self._buffer[self._index(video_id, ordinal)] = values

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

    def get(self, video_id: str, ordinal: int) -> np.ndarray:
        return self._buffer[self.row_indices([(video_id, ordinal)])[0]]

    def __contains__(self, key: ShotId) -> bool:
        return key in self._row_of

    def shot_count(self, video_id: str) -> int:
        return len(self._video_rows.get(video_id, ()))

    def sequence(self, video_id: str) -> np.ndarray:
        """All shot features of a video in ordinal order, shape (n, dim)."""
        rows = self._ordered.get(video_id)
        if rows is None:
            added = self._video_rows.get(video_id)
            if not added:
                raise KeyError(f"no features for video {video_id!r}")
            rows = np.array(sorted(added, key=lambda r: self._keys[r][1]), dtype=np.int64)
            self._ordered[video_id] = rows
        return self._buffer[rows]

    def video_ids(self) -> list[str]:
        return list(self._video_rows)

    def items(self):
        for row, key in enumerate(self._keys):
            yield key, self._buffer[row]

    def rows(self, keys) -> np.ndarray:
        return self._buffer[self.row_indices(keys)]

    def __len__(self) -> int:
        return len(self._keys)


def write_shtf(path, store: FeatureStore) -> None:
    payloads = store.matrix.astype("<f4", copy=False)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", store.dim))
        fh.write(struct.pack("<Q", len(store)))
        for row, (video_id, ordinal) in enumerate(store._keys):
            encoded = video_id.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValueError(f"video id too long: {video_id!r}")
            fh.write(_ID_LEN.pack(len(encoded)) + encoded + _ORDINAL.pack(ordinal)
                     + payloads[row].tobytes())


def _truncated(what: str, offset: int) -> FormatError:
    return FormatError(f"truncated file reading {what} at byte {offset}")


def read_shtf(path) -> FeatureStore:
    """One read of the whole file; the record headers are walked in place and
    each payload is copied into a preallocated matrix."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = io.BytesIO(data)
    expect_magic(header, MAGIC)
    expect_version(header, VERSION)
    (dim,) = read_struct(header, "<I", "feature dimension")
    (count,) = read_struct(header, "<Q", "record count")
    pos, end = header.tell(), len(data)
    payload_size = dim * 4
    store = FeatureStore(dim)
    # a corrupt count cannot allocate more rows than the remaining bytes could hold
    store._buffer = np.empty((min(count, (end - pos) // (6 + payload_size)), dim),
                             dtype=np.float32)
    target = memoryview(store._buffer.view(np.uint8).reshape(-1))
    source = memoryview(data)
    for _ in range(count):
        if pos + 2 > end:
            raise _truncated("video id length", pos)
        (id_len,) = _ID_LEN.unpack_from(data, pos)
        pos += 2
        if pos + id_len > end:
            raise _truncated("video id", pos)
        video_id = data[pos:pos + id_len].decode("utf-8")
        pos += id_len
        if pos + 4 > end:
            raise _truncated("shot ordinal", pos)
        (ordinal,) = _ORDINAL.unpack_from(data, pos)
        pos += 4
        if pos + payload_size > end:
            raise _truncated(f"features of {video_id}#{ordinal}", pos)
        start = store._index(video_id, ordinal) * payload_size
        target[start:start + payload_size] = source[pos:pos + payload_size]
        pos += payload_size
    if pos < end:
        raise FormatError(f"trailing bytes at byte {pos}")
    if sys.byteorder == "big":
        store._buffer.byteswap(inplace=True)
    return store
