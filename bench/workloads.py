"""The three workloads: how their inputs are built and which stages are timed.

A workload's inputs come from ``synth`` and ``split`` run with the
workload seed, plus (for ingest) FSEQ clips drawn from the same seed.
Timed stages then run with the CLI defaults and its default seed; only
epoch counts are cut so that an iteration fits a run.

Every workload has three stage slots, reported as stage1_s..stage3_s:

    next-shot     gen-questions (train + test) | train-temporal | eval-temporal
    tag-transfer  train-tags                   | eval-tags      | retrieve (median call)
    ingest        segment (sum over clips)     | extract (sum)  | gen-questions
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

TEMPORAL_EPOCHS = 8   # fewer leaves some seeds' accuracy at chance (1/32)
TAG_LSTM_EPOCHS = 3  # at 2, one seed in ten came within 0.04 of chance MAP

# Solid colours that fall in distinct 8x4x4 HSV bins. Criterion 9's orange
# (240, 130, 20) is left out: it shares every bin with red, so a red/orange
# cut is invisible to a histogram detector by construction.
PALETTE = np.array([(230, 30, 30), (30, 230, 30), (30, 30, 230), (220, 220, 30),
                    (150, 30, 220), (30, 190, 190), (120, 120, 120)], dtype=np.float64)
CLIPS = 5
SHOTS_PER_CLIP = 40
FRAME_SIZE = (48, 64)  # height, width


@dataclass
class Stage:
    slot: int          # 1..3: which stageN_s metric the wall time feeds
    label: str         # unique within an iteration, e.g. "segment.c0"
    argv: list[str]    # CLI arguments after the global --run-log flag
    check: Callable[[dict], float | None]  # manifest row -> quality value or None


@dataclass
class Workload:
    name: str
    synth_overrides: list[str]
    per_call_slots: tuple[int, ...] = ()  # slots reported as a median per call, not a sum
    stage_names: tuple[str, str, str] = ("", "", "")
    quality_name: str = ""
    world_cache: dict = field(default_factory=dict)

    def setup_commands(self, setup_dir: Path, seed: int) -> list[list[str]]:
        world = setup_dir / "world"
        return [
            ["--seed", str(seed), *self.synth_overrides, "synth", "--out-dir", str(world)],
            ["--seed", str(seed), "split", "--manifest", str(world / "manifest.jsonl"),
             "--vocab", str(world / "vocab.json"), "--output", str(world / "split.json")],
        ]

    def make_inputs(self, setup_dir: Path, seed: int) -> list[Path]:
        """Benchmark-generated inputs beside the synthetic world (none by default)."""
        return []

    def iteration(self, setup_dir: Path, out: Path) -> list[Stage]:
        raise NotImplementedError

    def _world(self, setup_dir: Path) -> dict:
        """Shot counts, split and manifest of the world, parsed once per run."""
        key = str(setup_dir)
        if key not in self.world_cache:
            world = setup_dir / "world"
            _, keys = checks.read_shtf_index(world / "features.shtf")
            with open(world / "manifest.jsonl", encoding="utf-8") as fh:
                manifest = {row["id"]: row for row in map(json.loads, fh)}
            self.world_cache[key] = {
                "counts": checks.shot_counts(keys),
                "split": json.loads((world / "split.json").read_text()),
                "manifest": manifest,
                "vocab": json.loads((world / "vocab.json").read_text()),
            }
        return self.world_cache[key]


def _gen_questions_stage(slot, label, world: Path, subset: str, output: Path, info: dict,
                         answers: dict) -> Stage:
    def check(row):
        cfg = row["config"]
        split = info["split"]
        answers[subset] = checks.check_questions(
            output, info["counts"], split[f"{subset}_movies"],
            split["train_movies"] + split["val_movies"] + split["test_movies"],
            ("in_movie", "cross_movie"), cfg["mctx"], cfg["candidates"],
            cfg["stride"] or cfg["mctx"])
        return None

    return Stage(slot, label, ["gen-questions", "--features", str(world / "features.shtf"),
                               "--split", str(world / "split.json"), "--subset", subset,
                               "--setting", "both", "--output", str(output)], check)


class NextShot(Workload):
    def __init__(self):
        super().__init__("next-shot", [], stage_names=(
            "gen_questions_s", "train_temporal_s", "eval_temporal_s"), quality_name="next_shot_acc")

    def iteration(self, setup_dir, out):
        world = setup_dir / "world"
        info = self._world(setup_dir)
        answers: dict = {}

        def check_train(row):
            checks.check_checkpoint(out / "temporal.stln")

        def check_eval(row):
            return checks.check_temporal_results(out / "results.tsv", out / "metrics.tsv",
                                                 answers["test"], row["config"]["candidates"])

        return [
            _gen_questions_stage(1, "gen_questions.train", world, "train", out / "train_q.tsv",
                                 info, answers),
            _gen_questions_stage(1, "gen_questions.test", world, "test", out / "test_q.tsv",
                                 info, answers),
            Stage(2, "train_temporal", ["--set", f"temporal_epochs={TEMPORAL_EPOCHS}",
                                        "train-temporal", "--features", str(world / "features.shtf"),
                                        "--questions", str(out / "train_q.tsv"),
                                        "--output", str(out / "temporal.stln")], check_train),
            Stage(3, "eval_temporal", ["eval-temporal", "--features", str(world / "features.shtf"),
                                       "--questions", str(out / "test_q.tsv"),
                                       "--model", str(out / "temporal.stln"),
                                       "--results", str(out / "results.tsv"),
                                       "--metrics", str(out / "metrics.tsv")], check_eval),
        ]


class TagTransfer(Workload):
    def __init__(self):
        super().__init__("tag-transfer",
                         ["--set", "movies=60", "--set", "trailers=400",
                          "--set", "movie_topic_count=3"],
                         per_call_slots=(3,),
                         stage_names=("train_tags_s", "eval_tags_s", "retrieve_s"),
                         quality_name="tag_map")

    def iteration(self, setup_dir, out):
        world = setup_dir / "world"
        info = self._world(setup_dir)
        movies = [info["manifest"][m] for m in info["split"]["test_movies"]]
        common = ["--vocab", str(world / "vocab.json"), "--features", str(world / "features.shtf")]
        tagged = ["--manifest", str(world / "manifest.jsonl"), *common,
                  "--split", str(world / "split.json")]

        def check_train(row):
            checks.check_checkpoint(out / "tags.stln")

        def check_eval(row):
            return checks.check_tag_eval(out / "tag_eval", movies, info["vocab"]["genres"],
                                         info["vocab"]["keywords"])

        stages = [
            Stage(1, "train_tags", ["--set", f"tag_lstm_epochs={TAG_LSTM_EPOCHS}", "train-tags",
                                    *tagged, "--output", str(out / "tags.stln")], check_train),
            Stage(2, "eval_tags", ["eval-tags", *tagged, "--model", str(out / "tags.stln"),
                                   "--subset", "test", "--out-dir", str(out / "tag_eval")],
                  check_eval),
        ]
        for movie in movies:
            vid = movie["id"]
            series, ranked = out / f"series_{vid}.tsv", out / f"ranked_{vid}.tsv"

            def check_retrieve(row, vid=vid, series=series, ranked=ranked):
                checks.check_retrieve(series, ranked, info["counts"][vid],
                                      row["config"]["top_shots"])

            stages.append(Stage(3, f"retrieve.{vid}", [
                "retrieve", *common, "--model", str(out / "tags.stln"), "--video-id", vid,
                "--tag", movie["genres"][0], "--output", str(series),
                "--ranked-output", str(ranked)], check_retrieve))
        return stages


def make_clip(rng: np.random.Generator, shots: int = SHOTS_PER_CLIP,
              size: tuple[int, int] = FRAME_SIZE) -> tuple[np.ndarray, list[int]]:
    """Solid-colour shots of 10-40 frames plus pixel noise; returns frames and cuts.

    The shot lengths are a fixed spread over 10-40 in seed order, so every
    seed gives clips of the same frame count (the same work).
    """
    lengths = rng.permutation(np.linspace(10, 40, shots).round().astype(int))
    colours = [int(rng.integers(len(PALETTE)))]
    for _ in range(shots - 1):
        step = int(rng.integers(1, len(PALETTE)))  # never repeat the previous colour
        colours.append((colours[-1] + step) % len(PALETTE))
    blocks = []
    for colour, length in zip(colours, lengths):
        block = np.broadcast_to(PALETTE[colour], (int(length), *size, 3))
        noisy = block + rng.normal(0.0, 8.0, block.shape)
        blocks.append(np.clip(noisy, 0, 255).astype(np.uint8))
    return np.concatenate(blocks), np.cumsum(lengths)[:-1].tolist()


def write_fseq(path: Path, frames: np.ndarray) -> None:
    """FSEQ container: magic, version, width, height, channels, count, raw RGB.

    Written here rather than with shotline.frames.write_fseq so that the
    inputs do not depend on the code being measured.
    """
    count, height, width, channels = frames.shape
    header = (b"FSEQ" + np.array([1, width, height], "<u4").tobytes() + bytes([channels])
              + np.array([count], "<u4").tobytes())
    path.write_bytes(header + np.ascontiguousarray(frames).tobytes())


class Ingest(Workload):
    def __init__(self):
        super().__init__("ingest", ["--set", "movies=200", "--set", "trailers=0"],
                         stage_names=("segment_s", "extract_s", "gen_questions_s"),
                         quality_name="cut_f1")

    def make_inputs(self, setup_dir, seed):
        rng = np.random.default_rng([seed, 9])
        clips = setup_dir / "clips"
        clips.mkdir(parents=True, exist_ok=True)
        planted = {}
        paths = []
        for k in range(CLIPS):
            frames, cuts = make_clip(rng)
            path = clips / f"c{k}.fseq"
            write_fseq(path, frames)
            planted[f"c{k}"] = {"frames": int(frames.shape[0]), "cuts": cuts}
            paths.append(path)
        (clips / "planted.json").write_text(json.dumps(planted, sort_keys=True))
        return paths + [clips / "planted.json"]

    def iteration(self, setup_dir, out):
        clips = setup_dir / "clips"
        planted = json.loads((clips / "planted.json").read_text())
        found: dict[str, list[int]] = {}
        stages = []
        for k, (vid, truth) in enumerate(sorted(planted.items())):
            shots = out / f"{vid}.shots"

            def check_segment(row, vid=vid, shots=shots, truth=truth, last=k == len(planted) - 1):
                found[vid] = checks.check_shot_list(shots, vid, truth["frames"])
                if not last:
                    return None
                precision, recall = checks.cut_accuracy(
                    [planted[v]["cuts"] for v in sorted(found)], [found[v] for v in sorted(found)])
                if precision < 0.95 or recall < 0.95:
                    raise checks.CheckError(f"cut precision {precision:.3f} / recall "
                                            f"{recall:.3f} below 0.95")
                return 2 * precision * recall / (precision + recall)

            def check_extract(row, shots=shots, cache=out / f"{vid}.shtf"):
                checks.check_extract(cache, shots)

            stages.append(Stage(1, f"segment.{vid}", [
                "segment", "--input", str(clips / f"{vid}.fseq"), "--video-id", vid,
                "--output", str(shots)], check_segment))
            stages.append(Stage(2, f"extract.{vid}", [
                "extract", "--input", str(clips / f"{vid}.fseq"), "--shots", str(shots),
                "--output", str(out / f"{vid}.shtf")], check_extract))
        stages.append(_gen_questions_stage(3, "gen_questions.train", setup_dir / "world", "train",
                                           out / "train_q.tsv", self._world(setup_dir), {}))
        return stages


WORKLOADS = {"next-shot": NextShot, "tag-transfer": TagTransfer, "ingest": Ingest}
