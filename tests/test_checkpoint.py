import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shotline.binio import FormatError
from shotline.checkpoint import VERSION, load_checkpoint, save_checkpoint

from _util import fill_disk_after


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = {
        "layer.weights": rng.normal(0, 1, (5, 3)).astype(np.float32),
        "layer.bias": rng.normal(0, 1, 3).astype(np.float32),
    }
    path = tmp_path / "model.stln"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert list(loaded) == ["layer.weights", "layer.bias"]
    assert np.array_equal(loaded["layer.weights"], params["layer.weights"])
    assert np.array_equal(loaded["layer.bias"], params["layer.bias"])


def test_two_saves_are_byte_identical(tmp_path):
    params = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
    a, b = tmp_path / "a.stln", tmp_path / "b.stln"
    save_checkpoint(a, params)
    save_checkpoint(b, params)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("budget", [0, 5, 40, 200])
def test_a_failed_write_leaves_the_old_checkpoint(tmp_path, monkeypatch, budget):
    path = tmp_path / "model.stln"
    save_checkpoint(path, {"w": np.zeros(3, dtype=np.float32)})
    old = path.read_bytes()
    fill_disk_after(monkeypatch, budget)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(path, {"w": np.arange(60, dtype=np.float32), "b": np.ones(4)})
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.stln"]
    monkeypatch.undo()
    save_checkpoint(path, {"w": np.arange(60, dtype=np.float32)})
    assert np.array_equal(load_checkpoint(path)["w"], np.arange(60, dtype=np.float32))
    assert [p.name for p in tmp_path.iterdir()] == ["model.stln"]


@given(st.lists(
    st.tuples(st.text(alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
                      min_size=1, max_size=20),
              st.lists(st.integers(1, 5), min_size=0, max_size=3)),
    min_size=0, max_size=6, unique_by=lambda pair: pair[0],
))
@settings(max_examples=40, deadline=None)
def test_round_trip_random_stores(tmp_path_factory, specs):
    rng = np.random.default_rng(abs(hash(tuple(name for name, _ in specs))) % 2**32)
    params = {name: rng.normal(0, 10, size=shape).astype(np.float32) for name, shape in specs}
    path = tmp_path_factory.mktemp("ckpt") / "p.stln"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(params)
    for name in params:
        assert np.array_equal(loaded[name], params[name])
        assert loaded[name].shape == params[name].shape


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.stln"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_truncated_reports_offset(tmp_path):
    path = tmp_path / "model.stln"
    save_checkpoint(path, {"w": np.ones((4, 4), dtype=np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FormatError, match="byte"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "model.stln"
    save_checkpoint(path, {"w": np.ones(2, dtype=np.float32)})
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(path)


def stln_entry(name: bytes, dims, payload: bytes = b"") -> bytes:
    return (struct.pack("<H", len(name)) + name + struct.pack("<B", len(dims))
            + b"".join(struct.pack("<I", d) for d in dims) + payload)


def test_huge_declared_shape_fails_before_reading(tmp_path):
    path = tmp_path / "huge.stln"
    path.write_bytes(b"STLN" + struct.pack("<II", VERSION, 1)
                     + stln_entry(b"w", (0xFFFFFFFF, 0xFFFFFFFF), bytes(16)))
    with pytest.raises(FormatError, match=r"^.*huge\.stln: truncated file reading values of "
                                          r"'w' at byte 24: shape \(4294967295, 4294967295\) "
                                          r"needs 73786976260478468100 bytes, 16 left$"):
        load_checkpoint(path)


def test_truncation_names_the_file_field_and_byte(tmp_path):
    # layout: magic 0-3, version 4-7, count 8-11, name length 12-13, name 14,
    # rank 15, dims 16-23, values 24-47
    path = tmp_path / "model.stln"
    save_checkpoint(path, {"w": np.ones((2, 3), dtype=np.float32)})
    blob = path.read_bytes()
    assert len(blob) == 48
    path.write_bytes(blob[:30])
    with pytest.raises(FormatError, match=r"model\.stln: truncated file reading values of 'w' "
                                          r"at byte 24: shape \(2, 3\) needs 24 bytes, 6 left$"):
        load_checkpoint(path)
    path.write_bytes(blob[:21])
    with pytest.raises(FormatError, match=r"model\.stln: truncated file reading dimension "
                                          r"at byte 20$"):
        load_checkpoint(path)


def test_header_errors_name_the_file(tmp_path):
    path = tmp_path / "model.stln"
    for version in (1, 3):  # version 1 states also held the scoring and pooling codes
        path.write_bytes(b"STLN" + struct.pack("<II", version, 0))
        with pytest.raises(FormatError, match=rf"model\.stln: unsupported format version "
                                              rf"{version} \(expected 2\)$"):
            load_checkpoint(path)
    path.write_bytes(b"STLN" + struct.pack("<II", VERSION, 1) + stln_entry(b"\xff", ()) + bytes(4))
    with pytest.raises(FormatError, match=r"model\.stln: parameter name at byte 14 is not UTF-8"):
        load_checkpoint(path)
    path.write_bytes(b"STLN" + struct.pack("<II", VERSION, 2)
                     + 2 * stln_entry(b"w", (1,), bytes(4)))
    with pytest.raises(FormatError, match=r"model\.stln: duplicate parameter name 'w'"):
        load_checkpoint(path)


@given(st.lists(st.lists(st.integers(0, 3), max_size=3), min_size=1, max_size=4), st.data())
@settings(max_examples=40, deadline=None)
def test_truncated_or_padded_anywhere_fails_naming_the_file(tmp_path_factory, shapes, data):
    rng = np.random.default_rng(len(shapes))
    params = {f"p{i}": rng.normal(0, 1, shape).astype(np.float32)
              for i, shape in enumerate(shapes)}
    path = tmp_path_factory.mktemp("stln") / "model.stln"
    save_checkpoint(path, params)
    blob = path.read_bytes()
    keep = data.draw(st.integers(0, len(blob) - 1), label="keep")
    path.write_bytes(blob[:keep])
    with pytest.raises(FormatError, match=r"model\.stln: truncated file reading .* at byte \d+"):
        load_checkpoint(path)
    path.write_bytes(blob + data.draw(st.binary(min_size=1, max_size=9), label="extra"))
    with pytest.raises(FormatError, match=rf"model\.stln: trailing bytes at byte {len(blob)}$"):
        load_checkpoint(path)
    path.write_bytes(blob)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(params)
    assert all(loaded[k].tobytes() == params[k].tobytes() for k in params)
