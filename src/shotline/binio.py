"""Shared helpers for the fixed binary container formats and the text tables."""
from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from typing import BinaryIO, Callable


class FormatError(ValueError):
    """Raised when a binary container is malformed or truncated."""


@contextmanager
def replace_on_success(path):
    """A binary file handle whose bytes become ``path`` only if the block
    finishes: they go to a temporary file in the same directory, which
    os.replace then moves over ``path``. On an exception the temporary file
    is removed and whatever was at ``path`` stays as it was."""
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        if os.path.exists(temporary):
            os.remove(temporary)
        raise


def read_exact(fh: BinaryIO, count: int, what: str) -> bytes:
    offset = fh.tell()
    data = fh.read(count)
    if len(data) != count:
        raise FormatError(f"truncated file reading {what} at byte {offset}")
    return data


def read_struct(fh: BinaryIO, fmt: str, what: str) -> tuple:
    return struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt), what))


def expect_magic(fh: BinaryIO, magic: bytes) -> None:
    got = read_exact(fh, len(magic), "magic")
    if got != magic:
        raise FormatError(f"bad magic: expected {magic!r}, got {got!r}")


def expect_version(fh: BinaryIO, version: int) -> None:
    (got,) = read_struct(fh, "<I", "format version")
    if got != version:
        raise FormatError(f"unsupported format version {got} (expected {version})")


def read_tsv(path, fields: int, parse: Callable[[list[str]], object]) -> list:
    """parse() of every non-blank tab-separated line, which must have ``fields``
    fields. A wrong field count, or a ValueError or KeyError from parse,
    raises ValueError naming the file and line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != fields:
                raise ValueError(f"{path}: line {line_no}: expected {fields} fields, "
                                 f"got {len(parts)}")
            try:
                rows.append(parse(parts))
            except (ValueError, KeyError) as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from exc
    return rows
