"""Bit-exact persistence for named model parameters (STLN container)."""
from __future__ import annotations

import math
import os
import struct

import numpy as np

from .binio import (FormatError, expect_magic, expect_version, read_exact, read_struct,
                    replace_on_success)

MAGIC = b"STLN"
VERSION = 2  # version 1 states also held the scoring and pooling codes


def save_checkpoint(path, params: dict) -> None:
    """Write named arrays in declaration order; values stored as f32.

    Every name and value is checked before anything is written, and the
    bytes replace path only once all are written, so a rejected state or a
    failed write leaves whatever was at path untouched.
    """
    records = []
    for name, value in params.items():
        arr = np.asarray(value, dtype="<f4", order="C")  # ascontiguousarray would promote 0-d
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"parameter name too long: {name!r}")
        if arr.ndim > 0xFF:
            raise ValueError(f"parameter rank too large: {arr.ndim}")
        header = struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded,
                             arr.ndim, *arr.shape)
        records.append((header, arr))
    with replace_on_success(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(params)))
        for header, arr in records:
            fh.write(header)
            fh.write(arr.tobytes())


def load_checkpoint(path) -> dict:
    """Read a checkpoint back as name -> float32 ndarray, preserving order.

    A malformed file raises FormatError naming it. Each parameter's
    declared size is checked, in exact integers, against the bytes left in
    the file before its values are read.
    """
    params: dict[str, np.ndarray] = {}
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            expect_magic(fh, MAGIC)
            expect_version(fh, VERSION)
            (count,) = read_struct(fh, "<I", "parameter count")
            for _ in range(count):
                (name_len,) = read_struct(fh, "<H", "name length")
                offset = fh.tell()
                try:
                    name = read_exact(fh, name_len, "parameter name").decode("utf-8")
                except UnicodeDecodeError:
                    raise FormatError(f"parameter name at byte {offset} is not UTF-8") from None
                (rank,) = read_struct(fh, "<B", "rank")
                shape = tuple(read_struct(fh, "<I", "dimension")[0] for _ in range(rank))
                offset, nbytes = fh.tell(), 4 * math.prod(shape)
                if nbytes > size - offset:
                    raise FormatError(f"truncated file reading values of {name!r} at byte "
                                      f"{offset}: shape {shape} needs {nbytes} bytes, "
                                      f"{size - offset} left")
                payload = read_exact(fh, nbytes, f"values of {name!r}")
                if name in params:
                    raise FormatError(f"duplicate parameter name {name!r}")
                values = np.frombuffer(payload, dtype="<f4").reshape(shape)
                params[name] = values.astype(np.float32)
            if fh.read(1):
                raise FormatError(f"trailing bytes at byte {fh.tell() - 1}")
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return params
