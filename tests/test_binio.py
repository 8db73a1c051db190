import ast
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from shotline import corpus
from shotline.binio import write_lines
from shotline.checkpoint import save_checkpoint
from shotline.features import FeatureStore
from shotline.frames import write_fseq
from shotline.metrics import write_metrics
from shotline.qa import QaItem, read_embedding_table, read_qa_items, write_qa_items
from shotline.segment import Shot, read_shot_list, write_shot_list
from shotline.tags import TagPrediction, write_predictions
from shotline.temporal import QuestionSet, read_questions, write_questions, write_results

from _util import fill_disk_after

SRC = Path(__file__).resolve().parents[1] / "src" / "shotline"


def _question_store() -> FeatureStore:
    """Shots m0#0..m0#3, the ones the question lines below name."""
    store = FeatureStore(2)
    for ordinal in range(4):
        store.add("m0", ordinal, np.zeros(2, dtype=np.float32))
    return store


read_stored_questions = partial(read_questions, store=_question_store())
read_stored_items = partial(read_qa_items, store=_question_store())

GOOD_QUESTION = "q0\tm0\tin_movie\tm0#0,m0#1\tm0#2,m0#3\t1"
GOOD_ITEM = "i0\twho?\ta|b\tm0#0,m0#1\t0"
GOOD_SHOT = "v\t0\t0\t8"


# Line 3 is the bad one: line 2 is blank (skipped, but still counted).
@pytest.mark.parametrize("reader, good, bad, message", [
    pytest.param(read_stored_questions, GOOD_QUESTION, "q1\tm0\tin_movie\tm0#0\tm0#2,m0#3\tx",
                 "invalid literal for int() with base 10: 'x'", id="question-index"),
    pytest.param(read_stored_questions, GOOD_QUESTION, "q1\tm0\tin_movie\tm0#x\tm0#2,m0#3\t0",
                 "no feature for shot m0#x", id="question-shot-id"),
    pytest.param(read_stored_questions, GOOD_QUESTION, "q1\tm0\tsideways\tm0#0\tm0#2,m0#3\t0",
                 "unknown setting 'sideways'", id="question-setting"),
    pytest.param(read_stored_questions, GOOD_QUESTION, "q1\tm0\tin_movie\tm0#0",
                 "expected 6 fields, got 4", id="question-fields"),
    pytest.param(read_stored_items, GOOD_ITEM, "i1\twho?\ta|b\tm0#0\tx",
                 "invalid literal for int() with base 10: 'x'", id="qa-index"),
    pytest.param(read_stored_items, GOOD_ITEM, "i1\twho?\ta\tm0#0\t0",
                 "item i1: need at least 2 answers", id="qa-answers"),
    pytest.param(read_stored_items, GOOD_ITEM, "i1\twho?\ta|b|c\tm0#0\t2",
                 "3 answers, where the first item has 2", id="qa-answer-count"),
    pytest.param(read_stored_items, GOOD_ITEM, "i1\twho?\ta|b\tm0#1,m0#9\t0",
                 "no feature for shot m0#9", id="qa-shot-id"),
    pytest.param(read_shot_list, GOOD_SHOT, "v\t1\t8\tz",
                 "invalid literal for int() with base 10: 'z'", id="shot-end"),
    pytest.param(read_shot_list, GOOD_SHOT, "v\t1\t8\t8",
                 "empty shot range [8, 8)", id="shot-empty"),
    pytest.param(read_shot_list, GOOD_SHOT, "v\t1\t8",
                 "expected 4 fields, got 3", id="shot-fields"),
    pytest.param(read_embedding_table, "alpha 0.5 1.0", "beta 0.5 one",
                 "could not convert string to float: 'one'", id="embedding-value"),
])
def test_text_readers_name_the_file_and_line(tmp_path, reader, good, bad, message):
    path = tmp_path / "table.txt"
    path.write_text(f"{good}\n\n{bad}\n")
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value) == f"{path}: line 3: {message}"
    path.write_text(f"{good}\n\n")
    assert len(reader(path)) == 1


def test_a_line_that_is_not_utf8_is_named(tmp_path):
    path = tmp_path / "shots.tsv"
    path.write_bytes(f"{GOOD_SHOT}\r\n".encode() + b"v\xff\t1\t8\t9\n")
    with pytest.raises(ValueError) as info:
        read_shot_list(path)
    assert str(info.value) == (f"{path}: line 2: 'utf-8' codec can't decode byte 0xff in "
                               f"position 1: invalid start byte")


@pytest.mark.parametrize("write, value, error, message", [
    pytest.param(write_fseq, np.zeros((2, 4, 4, 3), dtype=np.uint8), TypeError,
                 "needs a FrameSequence, got ndarray", id="fseq-bare-array"),
    pytest.param(save_checkpoint, {"w": np.zeros(2), "x" * 0x10000: np.zeros(1)}, ValueError,
                 "parameter name too long", id="stln-name-length"),
    pytest.param(save_checkpoint, {"w": np.zeros(2), "x": "one"}, ValueError,
                 "could not convert string to float", id="stln-value"),
])
def test_a_rejected_write_leaves_the_existing_file_alone(tmp_path, write, value, error, message):
    path = tmp_path / "out.bin"
    path.write_bytes(b"earlier contents")
    with pytest.raises(error, match=message):
        write(path, value)
    assert path.read_bytes() == b"earlier contents"


# Each writer of a text file, given its path, with contents longer than the
# 3 bytes the full disk below takes.
TEXT_WRITERS = {
    "vocabulary": lambda path: corpus.TagVocabulary(["g0", "g1"], ["k0"]).save(path),
    "manifest": lambda path: corpus.save_manifest(
        path, [corpus.VideoManifestEntry("m0", "movie", "", ["g0"], []),
               corpus.VideoManifestEntry("t0", "trailer", "", [], ["k0"], "m0")]),
    "ground-truth": lambda path: corpus.write_ground_truth(
        path, [corpus.SyntheticVideo("t0", "trailer", np.zeros((2, 2)), np.array([1, 0]),
                                     set(), set(), "m0", np.array([3, 1]))]),
    "split": lambda path: corpus.CorpusSplit(["m0"], ["m1"], ["m2"], ["t0"]).save(path),
    "metrics": lambda path: write_metrics(path, {"a.map": 0.5, "b.map": 0.25}),
    "qa-items": lambda path: write_qa_items(
        path, [QaItem("i0", "who?", ["a", "b"], [("m0", 0), ("m0", 1)], 1)]),
    "shot-list": lambda path: write_shot_list(path, [Shot("v", 0, 0, 8), Shot("v", 1, 8, 20)]),
    "predictions": lambda path: write_predictions(
        path, [TagPrediction("m0", np.array([0.5, 0.25]), np.array([0.75]))],
        corpus.TagVocabulary(["g0", "g1"], ["k0"])),
    "questions": lambda path: write_questions(
        path, QuestionSet(_question_store(), ["q0"], ["m0"], ["in_movie"], [[0, 1]], [[2, 3]],
                          [1])),
    "results": lambda path: write_results(path, [("q0", 1, 0.5), ("q1", 0, 0.25)]),
    "lines": lambda path: write_lines(path, ["0\t0.500000", "1\t0.250000"]),  # retrieve's
}


@pytest.mark.parametrize("write", TEXT_WRITERS.values(), ids=TEXT_WRITERS.keys())
def test_an_interrupted_text_write_leaves_the_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "out.txt"
    path.write_bytes(b"earlier contents\n")
    fill_disk_after(monkeypatch, 3)
    with pytest.raises(OSError, match="No space left"):
        write(path)
    assert path.read_bytes() == b"earlier contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    monkeypatch.undo()
    write(path)
    assert path.read_bytes() != b"earlier contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_lines_stopped_between_lines_leaves_the_old_file(tmp_path):
    def lines():
        yield "first"
        raise KeyboardInterrupt

    path = tmp_path / "out.txt"
    path.write_bytes(b"earlier contents\n")
    with pytest.raises(KeyboardInterrupt):
        write_lines(path, lines())
    assert path.read_bytes() == b"earlier contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    write_lines(path, ["\u00e9t\u00e9", ""])
    assert path.read_bytes() == "\u00e9t\u00e9\n\n".encode("utf-8")


def _file_writes(source: str) -> list[tuple[str, int]]:
    """(top-level definition, line) of each call in source that opens a file
    to write, append or update, or with a mode that is not a literal, and of
    each write_text or write_bytes call."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            # open(path, mode) or path.open(mode)
            position = 1 if isinstance(node.func, ast.Name) else 0
            mode = (node.args[position] if len(node.args) > position else
                    next((k.value for k in node.keywords if k.arg == "mode"), None))
            reads = mode is None or (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                                     and set(mode.value).isdisjoint("wxa+"))
            if name in ("write_text", "write_bytes") or name == "open" and not reads:
                found.append((getattr(top, "name", "<module>"), node.lineno))
    return found


def test_the_lint_finds_each_way_to_open_a_file_for_writing():
    source = """def f(p, m):
    open(p)
    open(p, "rb")
    p.open(encoding="utf-8")
    open(p, "w")
    open(p, mode="xb")
    p.open("a")
    open(p, "r+")
    open(p, m)
    p.write_text("")
"""
    assert _file_writes(source) == [("f", line) for line in range(5, 11)]


def test_only_binio_opens_a_file_for_writing():
    """Every file is written through binio.replace_on_success; the one
    exception is the run log, which each command appends a row to."""
    found = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             if path.name != "binio.py" for name, _ in _file_writes(path.read_text())]
    assert found == ["cli._record_run"]
