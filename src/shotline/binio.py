"""Shared helpers for the fixed binary container formats and the text files."""
from __future__ import annotations

import json
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


def write_lines(path, lines) -> None:
    """Each of ``lines`` plus "\n" as the UTF-8 text of ``path``, through replace_on_success."""
    with replace_on_success(path) as fh:
        for line in lines:
            fh.write(f"{line}\n".encode("utf-8"))


def read_lines(path, parse: Callable[[str], object]) -> list:
    """parse() of each line of ``path`` (UTF-8, line break stripped), Nones left out; a bad
    byte or parse's ValueError, TypeError or KeyError (a missing key) names the file and line."""
    rows = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                row = parse(line.decode("utf-8").rstrip("\r\n"))
            except KeyError as exc:
                raise ValueError(f"{path}: line {line_no}: missing key {exc}") from exc
            except (ValueError, TypeError) as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from exc
            if row is not None:
                rows.append(row)
    return rows


def read_tsv(path, fields: int, parse: Callable[[list[str]], object]) -> list:
    """read_lines of every non-blank line, split into its ``fields`` tab-separated fields."""
    def parse_line(line: str):
        parts = line.split("\t")
        if line and len(parts) != fields:
            raise ValueError(f"expected {fields} fields, got {len(parts)}")
        return parse(parts) if line else None

    return read_lines(path, parse_line)


def read_json(path, build: Callable[[dict], object]):
    """build() of the JSON document at ``path``; errors name the file as read_lines' do."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return build(json.load(fh))
        except KeyError as exc:
            raise ValueError(f"{path}: missing key {exc}") from None
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
