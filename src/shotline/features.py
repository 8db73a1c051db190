"""Shot feature store and its bit-exact cache container (SHTF).

Features are extracted once and cached, so sequence models can train over
full movies without touching pixels again.
"""
from __future__ import annotations

import struct

import numpy as np

from .binio import FormatError, expect_magic, expect_version, read_exact, read_struct

MAGIC = b"SHTF"
VERSION = 1


class FeatureStore:
    """Maps (video_id, shot ordinal) to a fixed-dimension float32 vector."""

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError(f"feature dimension must be positive, got {dim}")
        self.dim = dim
        self._order: list[tuple[str, int]] = []
        self._data: dict[tuple[str, int], np.ndarray] = {}

    def add(self, video_id: str, ordinal: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {values.shape}")
        key = (video_id, ordinal)
        if key in self._data:
            raise ValueError(f"duplicate feature record {key}")
        self._order.append(key)
        self._data[key] = values

    def get(self, video_id: str, ordinal: int) -> np.ndarray:
        key = (video_id, ordinal)
        if key not in self._data:
            raise KeyError(f"no feature for shot {video_id}#{ordinal}")
        return self._data[key]

    def shot_count(self, video_id: str) -> int:
        return sum(1 for vid, _ in self._order if vid == video_id)

    def sequence(self, video_id: str) -> np.ndarray:
        """All shot features of a video in ordinal order, shape (n, dim)."""
        ordinals = sorted(o for vid, o in self._order if vid == video_id)
        if not ordinals:
            raise KeyError(f"no features for video {video_id!r}")
        return np.stack([self._data[(video_id, o)] for o in ordinals])

    def video_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        for vid, _ in self._order:
            seen.setdefault(vid)
        return list(seen)

    def items(self):
        for key in self._order:
            yield key, self._data[key]

    def rows(self, keys) -> np.ndarray:
        return np.stack([self.get(vid, o) for vid, o in keys])

    def __len__(self) -> int:
        return len(self._order)


def write_shtf(path, store: FeatureStore) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", store.dim))
        fh.write(struct.pack("<Q", len(store)))
        for (video_id, ordinal), values in store.items():
            encoded = video_id.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValueError(f"video id too long: {video_id!r}")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", ordinal))
            fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def read_shtf(path) -> FeatureStore:
    with open(path, "rb") as fh:
        expect_magic(fh, MAGIC)
        expect_version(fh, VERSION)
        (dim,) = read_struct(fh, "<I", "feature dimension")
        (count,) = read_struct(fh, "<Q", "record count")
        store = FeatureStore(dim)
        for _ in range(count):
            (id_len,) = read_struct(fh, "<H", "video id length")
            video_id = read_exact(fh, id_len, "video id").decode("utf-8")
            (ordinal,) = read_struct(fh, "<I", "shot ordinal")
            payload = read_exact(fh, dim * 4, f"features of {video_id}#{ordinal}")
            store.add(video_id, ordinal, np.frombuffer(payload, dtype="<f4").astype(np.float32))
        trailing = fh.read(1)
        if trailing:
            raise FormatError(f"trailing bytes at byte {fh.tell() - 1}")
    return store
