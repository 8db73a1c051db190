"""Raw RGB frame sequences and their on-disk container (FSEQ)."""
from __future__ import annotations

import os
import struct

import numpy as np

from .binio import expect_magic, expect_version, read_struct, replace_on_success, FormatError

MAGIC = b"FSEQ"
VERSION = 1
CHANNELS = 3


class FrameSequence:
    """A stack of same-sized 8-bit RGB frames, indexable by frame number."""

    def __init__(self, frames: np.ndarray):
        frames = np.asarray(frames)
        if frames.ndim != 4 or frames.shape[3] != CHANNELS:
            raise ValueError(f"expected frames shaped (count, height, width, 3), got {frames.shape}")
        if frames.dtype != np.uint8:
            raise ValueError(f"expected uint8 pixels, got {frames.dtype}")
        self.frames = frames

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        return self.frames.shape[2]

    def frame(self, index: int) -> np.ndarray:
        return self.frames[index]


def write_fseq(path, seq: FrameSequence) -> None:
    """Write a clip. Anything but a FrameSequence, or a clip too large for
    the header's fields, raises before the file is opened, and a write that
    fails later leaves path as it was."""
    if not isinstance(seq, FrameSequence):
        raise TypeError(f"write_fseq needs a FrameSequence, got {type(seq).__name__}")
    header = MAGIC + struct.pack("<IIIBI", VERSION, seq.width, seq.height, CHANNELS,
                                 seq.frame_count)
    with replace_on_success(path) as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(seq.frames).tobytes())


def read_fseq(path) -> FrameSequence:
    """Load an FSEQ clip. A malformed file raises FormatError naming it.

    The declared frame count is checked against the bytes the file holds
    before the frame array is allocated, and the payload is read straight
    into that array.
    """
    try:
        with open(path, "rb") as fh:
            expect_magic(fh, MAGIC)
            expect_version(fh, VERSION)
            (width,) = read_struct(fh, "<I", "width")
            (height,) = read_struct(fh, "<I", "height")
            (channels,) = read_struct(fh, "<B", "channel count")
            if channels != CHANNELS:
                raise FormatError(f"expected {CHANNELS} channels, got {channels}")
            (count,) = read_struct(fh, "<I", "frame count")
            offset = fh.tell()
            size = count * height * width * CHANNELS
            left = os.fstat(fh.fileno()).st_size - offset
            if left < size:
                raise FormatError(f"truncated file reading frame data at byte {offset}: "
                                  f"{count} frames of {width}x{height} need {size} bytes, "
                                  f"{left} left")
            if left > size:
                raise FormatError(f"trailing bytes at byte {offset + size}")
            frames = np.empty((count, height, width, CHANNELS), dtype=np.uint8)
            if fh.readinto(frames) != size:
                raise FormatError(f"truncated file reading frame data at byte {offset}")
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return FrameSequence(frames)
