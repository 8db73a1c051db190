"""Tests of the benchmark's own machinery (not of shotline).

    PYTHONPATH=src python -m pytest -q bench/tests
"""
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import specs  # noqa: E402
from workloads import WORKLOADS, make_clip, write_fseq  # noqa: E402


# -- self time -----------------------------------------------------------------------


def test_self_time_nested_and_overlapping_children():
    # 0 root [0, 10]: children 1 [1, 4] and 2 [3, 6] overlap (two threads),
    # 3 [8, 12] runs past the root's end; 4 [2, 3] is nested inside 1.
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = spans.self_times(start, end, parent)
    # root: 10 - |[1, 6] u [8, 10]| = 10 - 7
    assert got == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_pool_worker_spans_nest_under_the_mapping_call():
    rec = spans.Recorder()
    stage = rec.begin_stage("demo")
    mapper = rec.begin("cli.cmd_demo")
    worker_span = []

    def work():
        idx = rec.begin("tags.infer_feature_lstm")
        rec.finish(idx)
        worker_span.append(idx)

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    rec.finish(mapper)
    rec.finish_stage(stage)
    assert rec.parent[worker_span[0]] == mapper
    assert rec.parent[mapper] == stage
    assert spans.summarize(rec)["self_by_stage"]["demo"].keys() == {"cli", "tags"}


def test_install_traces_ops_and_uninstall_restores():
    from shotline import autodiff as ad
    from shotline import nn
    originals = (ad.matmul, ad.Tensor.backward, nn.ad.add)
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        a = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        b = ad.Tensor(np.ones((3, 1)), requires_grad=True)
        ad.sum_all(ad.matmul(a, b)).backward()
    finally:
        uninstall()
    assert (ad.matmul, ad.Tensor.backward, nn.ad.add) == originals
    summary = spans.summarize(rec)
    assert summary["calls"]["autodiff.op.matmul"] == 1
    assert summary["calls"]["autodiff.op.matmul.bwd"] == 1
    assert summary["calls"]["autodiff.op.other"] == 1  # sum_all
    assert rec.counts["autodiff.nodes"] == 2
    assert np.allclose(a.grad, 1.0)


# -- output checks ----------------------------------------------------------------------


@pytest.fixture
def question_file(tmp_path):
    from shotline import temporal
    from shotline.features import FeatureStore
    store = FeatureStore(4)
    counts = {"m0": 40, "m1": 25}
    for vid, n in counts.items():
        for o in range(n):
            store.add(vid, o, np.full(4, o, dtype=np.float32))
    questions = []
    for setting in (temporal.IN_MOVIE, temporal.CROSS_MOVIE):
        questions += temporal.generate_questions(store, ["m0", "m1"], setting, mctx=4,
                                                 n_candidates=8, seed=1)[0]
    path = tmp_path / "q.tsv"
    temporal.write_questions(path, questions)
    return path, counts


def _check_questions(path, counts):
    return checks.check_questions(path, counts, ["m0", "m1"], ["m0", "m1"],
                                  ("in_movie", "cross_movie"), 4, 8, 4)


def test_question_check_accepts_generated_file(question_file):
    path, counts = question_file
    assert len(_check_questions(path, counts)) == 2 * (9 + 6)


def test_question_check_rejects_truncated_file(question_file):
    path, counts = question_file
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(checks.CheckError, match="expected 30"):
        _check_questions(path, counts)


def test_shot_list_check_rejects_non_tiling_list(tmp_path):
    good = tmp_path / "good.shots"
    good.write_text("c0\t0\t0\t12\nc0\t1\t12\t30\n")
    assert checks.check_shot_list(good, "c0", 30) == [12]
    gap = tmp_path / "gap.shots"
    gap.write_text("c0\t0\t0\t12\nc0\t1\t13\t30\n")
    with pytest.raises(checks.CheckError, match="does not continue"):
        checks.check_shot_list(gap, "c0", 30)
    short = tmp_path / "short.shots"
    short.write_text("c0\t0\t0\t12\nc0\t1\t12\t29\n")
    with pytest.raises(checks.CheckError, match="clip has 30"):
        checks.check_shot_list(short, "c0", 30)


def test_generated_clip_round_trips_and_segments(tmp_path):
    from shotline.frames import read_fseq
    from shotline.segment import detect_shots
    frames, cuts = make_clip(np.random.default_rng(3), shots=6)
    write_fseq(tmp_path / "c.fseq", frames)
    seq = read_fseq(tmp_path / "c.fseq")
    assert np.array_equal(seq.frames, frames)
    found = [s.start for s in detect_shots(seq)[1:]]
    assert checks.cut_accuracy([cuts], [found]) == (1.0, 1.0)


def test_chance_map_matches_random_rankings():
    rng = np.random.default_rng(0)
    truths = [{0, 2}, {1}, {0}, {2, 1}, set(), {0}]
    draws = [checks.label_map(rng.random((6, 3)), truths) for _ in range(4000)]
    assert checks.chance_map(truths, 3) == pytest.approx(np.mean(draws), abs=0.01)


# -- metric names -------------------------------------------------------------------------


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in spec[section]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_names_match_benchmark_json(name):
    workload = WORKLOADS[name]()
    iteration = [run.Invocation(f"s{slot}", slot, 1.0 + slot, 50.0, 0) for slot in (1, 2, 3)]
    metrics = run.end_to_end(workload, [0.5, 0.6, 0.7], [iteration, iteration], 0.4)
    declared = _declared("end_to_end")
    assert {k: v["unit"] for k, v in metrics.items()} == {k: u for k, (u, _) in declared.items()}
    assert all(v["value"] > 0 for v in metrics.values())
    assert metrics["setup_s"]["value"] == pytest.approx(0.6)
    assert metrics["wall_s"]["value"] == pytest.approx(9.0)
    assert metrics["quality"]["value"] == 0.4


def test_per_layer_names_match_benchmark_json():
    empty = {"seconds": {}, "calls": {}, "self_by_module": {}}
    metrics = specs.layer_values(empty, {}, {})
    declared = _declared("per_layer")
    assert {k: v["unit"] for k, v in metrics.items()} == {k: u for k, (u, _) in declared.items()}
    assert [n for n, *_ in specs.PER_LAYER] == list(declared)
    assert {n: (u, b) for n, u, b, *_ in specs.PER_LAYER} == declared


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ingest", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
