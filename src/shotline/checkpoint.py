"""Bit-exact persistence for named model parameters (STLN container)."""
from __future__ import annotations

import struct

import numpy as np

from .autodiff import Tensor
from .binio import FormatError, expect_magic, expect_version, read_exact, read_struct

MAGIC = b"STLN"
VERSION = 1


def save_checkpoint(path, params: dict) -> None:
    """Write named parameters in declaration order; values stored as f32."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(params)))
        for name, value in params.items():
            arr = value.data if isinstance(value, Tensor) else np.asarray(value)
            arr = np.asarray(arr, dtype="<f4", order="C")  # ascontiguousarray would promote 0-d
            encoded = name.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValueError(f"parameter name too long: {name!r}")
            if arr.ndim > 0xFF:
                raise ValueError(f"parameter rank too large: {arr.ndim}")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict:
    """Read a checkpoint back as name -> float32 ndarray, preserving order."""
    params: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        expect_magic(fh, MAGIC)
        expect_version(fh, VERSION)
        (count,) = read_struct(fh, "<I", "parameter count")
        for _ in range(count):
            (name_len,) = read_struct(fh, "<H", "name length")
            name = read_exact(fh, name_len, "parameter name").decode("utf-8")
            (rank,) = read_struct(fh, "<B", "rank")
            shape = tuple(read_struct(fh, "<I", "dimension")[0] for _ in range(rank))
            n = int(np.prod(shape, dtype=np.int64)) if shape else 1
            payload = read_exact(fh, n * 4, f"values of {name!r}")
            arr = np.frombuffer(payload, dtype="<f4").reshape(shape)
            if name in params:
                raise FormatError(f"duplicate parameter name {name!r}")
            params[name] = arr.astype(np.float32)
        trailing = fh.read(1)
        if trailing:
            raise FormatError(f"trailing bytes at byte {fh.tell() - 1}")
    return params
