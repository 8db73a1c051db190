from functools import partial

import numpy as np
import pytest

from shotline.checkpoint import save_checkpoint
from shotline.features import FeatureStore
from shotline.frames import write_fseq
from shotline.qa import read_embedding_table, read_qa_items
from shotline.segment import read_shot_list
from shotline.temporal import read_questions


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
