"""Golden digests of the tiny pipeline.

At each of seeds 1-3 on configs/tiny.cfg this runs test_cli.run_pipeline's
eleven commands, then the runs that leave out or add each optional file flag
(``split`` with no ``--vocab``, ``train-tags`` and ``eval-tags`` with no
``--split``, ``gen-questions --subset val``, ``train-temporal
--val-questions``, ``train-qa --val-items`` and ``eval-qa`` with no
``--embeddings``) and ``segment``/``extract`` on a generated clip. It keeps
the SHA-256 of every file written and of every run-manifest row, with paths
made relative to the run's directory and the timing entries dropped.

    python tests/golden.py --write   # rewrite tests/golden_tiny.json

tests/test_golden.py runs the same commands and compares the digests.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

if __name__ == "__main__":  # run as a script: the package and test_cli are not on the path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from test_cli import TINY, run_cli, run_pipeline, two_shot_clip

GOLDEN = Path(__file__).with_name("golden_tiny.json")
SEEDS = (1, 2, 3)
TIMING_KEYS = ("wall_time_ms", "epoch_s", "examples_per_s", "lstm_epoch_s",
               "lstm_examples_per_s")


def environment() -> dict:
    """What the digests depend on beyond the code: float results can move
    with the numpy version and the platform."""
    return {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}"}


def _run_flag_variants(root: Path, seed: int) -> None:
    world = root / "world"
    base = ["--run-log", root / "log.jsonl", "--config", TINY, "--seed", seed]
    store = ["--features", world / "features.shtf"]
    tagged = ["--manifest", world / "manifest.jsonl", "--vocab", world / "vocab.json", *store]
    two_shot_clip(root / "clip.fseq")
    for argv in (
            ["split", "--manifest", world / "manifest.jsonl", "--output", world / "split_nv.json"],
            ["train-tags", *tagged, "--output", world / "tags_all.stln"],
            ["eval-tags", *tagged, "--model", world / "tags_all.stln",
             "--out-dir", world / "tag_eval_all"],
            ["gen-questions", *store, "--split", world / "split.json", "--subset", "val",
             "--output", world / "val_q.tsv"],
            ["train-temporal", *store, "--questions", world / "train_q.tsv",
             "--val-questions", world / "val_q.tsv", "--output", world / "temporal_val.stln"],
            ["train-qa", *store, "--items", world / "qa_items.tsv",
             "--val-items", world / "qa_items.tsv", "--output", world / "qa_hashing.stln"],
            ["eval-qa", *store, "--items", world / "qa_items.tsv",
             "--model", world / "qa_hashing.stln", "--metrics", world / "qa_hashing.tsv"],
            ["segment", "--input", root / "clip.fseq", "--video-id", "clip",
             "--output", root / "shots.tsv"],
            ["extract", "--input", root / "clip.fseq", "--shots", root / "shots.tsv",
             "--output", root / "clip.shtf"]):
        if run_cli(*base, *argv) != 0:
            raise RuntimeError(f"{argv[0]} failed at seed {seed}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _row_digest(row: dict, root: Path) -> str:
    row = {key: value for key, value in row.items() if key not in TIMING_KEYS}
    for key in ("input_digests", "output_digests"):
        row[key] = {os.path.relpath(path, root): digest for path, digest in row[key].items()}
    return _sha256(json.dumps(row, sort_keys=True).encode("utf-8"))


def digests(root: Path, seed: int) -> dict:
    """Run every command at ``seed`` under ``root`` and return the digests
    of the written files ({relative path: sha256}) and of the manifest rows
    (["command sha256", ...] in run order)."""
    run_pipeline(root, seed=seed)
    _run_flag_variants(root, seed)
    log = root / "log.jsonl"
    rows = [json.loads(line) for line in log.read_text().splitlines()]
    return {
        "files": {path.relative_to(root).as_posix(): _sha256(path.read_bytes())
                  for path in sorted(root.rglob("*")) if path.is_file() and path != log},
        "rows": [f"{row['command']} {_row_digest(row, root)}" for row in rows],
    }


def differences(seed: int, want: dict, got: dict) -> list[str]:
    """One line per file or manifest row whose digest differs from ``want``."""
    lines = []
    for name in sorted(want["files"].keys() | got["files"].keys()):
        if want["files"].get(name) != got["files"].get(name):
            lines.append(f"seed {seed}: file {name}: golden {want['files'].get(name)}, "
                         f"now {got['files'].get(name)}")
    for index, (old, new) in enumerate(zip_longest(want["rows"], got["rows"])):
        if old != new:
            lines.append(f"seed {seed}: manifest row {index}: golden {old}, now {new}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.name}")
    if not parser.parse_args(argv).write:
        parser.error("nothing to do without --write")
    with tempfile.TemporaryDirectory() as tmp:
        seeds = {str(seed): digests(Path(tmp) / f"seed{seed}", seed) for seed in SEEDS}
    GOLDEN.write_text(json.dumps({**environment(), "seeds": seeds}, indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
