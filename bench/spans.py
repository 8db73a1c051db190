"""Span recorder and wrappers for the traced benchmark run.

The traced run calls ``shotline.cli.main`` in-process. ``install`` wraps
the public functions of every shotline module, a fixed list of class
methods, and each autodiff op, wherever those names are looked up. Every
call becomes a span (name, start, end, parent, stage); spans stay in
memory until the run ends. Nothing under ``src/`` is edited: the
wrappers are swapped in at run time and restored by ``uninstall``.
"""
from __future__ import annotations

import array
import functools
import inspect
import math
import os
import sys
import threading
import time
from collections import defaultdict

TRACED_MODULES = ("cli", "features", "temporal", "nn", "autodiff", "tags", "checkpoint",
                  "corpus", "frames", "segment", "encoder")

# Autodiff ops reported by name; every other op is folded into "other".
NAMED_OPS = ("matmul", "add", "hadamard", "sigmoid", "tanh", "concat_cols", "slice_cols",
             "slice_rows", "repeat_rows", "softmax_rows", "nll_loss", "bce_with_logits",
             "stack_rows", "mean_rows")
OTHER_OPS = ("scale", "sum_all", "reshape")

# (module, class, method) -> span name. Methods are wrapped on the class.
METHODS = {
    ("features", "FeatureStore", "add"): "features.add",
    ("features", "FeatureStore", "rows"): "features.rows",
    ("features", "FeatureStore", "sequence"): "features.sequence",
    ("features", "FeatureStore", "shot_count"): "features.shot_count",
    ("nn", "LstmCell", "step"): "nn.LstmCell.step",
    ("nn", "LstmCell", "fold"): "nn.LstmCell.fold",
    ("nn", "RowMlp", "scores"): "nn.RowMlp.scores",
    ("autodiff", "Tensor", "backward"): "autodiff.backward",
    ("autodiff", "SgdOptimizer", "step"): "autodiff.sgd_step",
    ("temporal", "NextShotModel", "probabilities_batch"): "temporal.probabilities_batch",
    ("tags", "TagLstm", "step_outputs"): "tags.TagLstm.step_outputs",
    ("encoder", "HistogramEdgeExtractor", "describe"): "encoder.describe",
}

RENAMED = {"checkpoint.save_checkpoint": "checkpoint.save",
           "checkpoint.load_checkpoint": "checkpoint.load"}

# cli.main is the stage span itself; the shot-id helpers run once per id
# (hundreds of thousands of calls), where a span would cost more than the work.
UNTRACED = {"cli.main", "temporal.format_shot_id", "temporal.parse_shot_id"}

# Only counted: FeatureStore.add runs once per record of every SHTF read.
COUNT_ONLY = {"features.add"}

EPOCH_PURPOSE = "nextshot.epoch"


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Work counts taken from a call's arguments and result: span name -> fn.
COUNTERS = {
    "features.read_shtf": lambda a, r: {"features.read_shtf.records": len(r)},
    "features.rows": lambda a, r: {"features.rows.rows": len(r)},
    "temporal.generate_questions": lambda a, r: {"temporal.generate_questions.questions": len(r[0]),
                                                 "temporal.generate_questions.skipped": r[1]},
    "checkpoint.save": lambda a, r: {"checkpoint.bytes": _file_size(a[0])},
    "checkpoint.load": lambda a, r: {"checkpoint.bytes": _file_size(a[0])},
    "frames.read_fseq": lambda a, r: {"frames.read_fseq.bytes": _file_size(a[0])},
    "segment.detect_shots": lambda a, r: {"segment.detect_shots.frames": a[0].frame_count,
                                          "segment.detect_shots.shots": len(r)},
}


class Recorder:
    """In-memory spans plus named counters, safe to feed from several threads.

    Span i has start[i], end[i], parent[i] (-1 for none), a name and a
    stage index. A span opened on a thread with no open span of its own
    (a pool worker) takes as parent the innermost open span of the thread
    that opened the stage, so pooled work stays under the call that
    mapped it.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.stages: list[str] = []
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.name_id = array.array("q")
        self.stage_id = array.array("q")
        self.failed = array.array("b")
        self.counts: dict[str, int] = defaultdict(int)
        self.epoch_marks: list[float] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stage_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        # a slice is one atomic read of a list another thread may pop
        parent = ((stack or self._stage_stack)[-1:] or [-1])[0]
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            idx = len(self.start)
            self.parent.append(parent)
            self.name_id.append(nid)
            self.stage_id.append(len(self.stages) - 1)
            self.failed.append(0)
            self.end.append(math.nan)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def finish(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = time.perf_counter()
        if failed:
            self.failed[idx] = 1
        stack = self._stack()
        if stack and stack[-1] == idx:
            stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def begin_stage(self, stage: str) -> int:
        """Open the root span of one CLI invocation."""
        self.stages.append(stage)
        self._stage_stack = self._stack()
        return self.begin("cli.main")

    def finish_stage(self, idx: int, failed: bool = False) -> None:
        self.finish(idx, failed)
        self._stage_stack = []

    def stage_of(self, idx: int) -> str:
        sid = self.stage_id[idx]
        return self.stages[sid] if sid >= 0 else "-"

    def __len__(self) -> int:
        return len(self.start)


def self_times(start, end, parent) -> list[float]:
    """Span duration minus the part of it that child spans cover.

    Children may overlap one another (spans from several threads), so the
    covered part is the length of the union of the child intervals,
    clipped to the parent's interval.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        lo, hi = start[i], end[i]
        covered = 0.0
        cursor = lo
        for a, b in sorted((max(start[c], lo), min(end[c], hi)) for c in children.get(i, ())):
            a = max(a, cursor)
            if b > a:
                covered += b - a
                cursor = b
        out.append((hi - lo) - covered)
    return out


# -- wrappers ---------------------------------------------------------------------


def _span_wrapper(rec: Recorder, name: str, fn, method: bool = False):
    counter = COUNTERS.get(name)
    skip = 1 if method else 0

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.finish(idx, failed=True)
            raise
        rec.finish(idx)
        if counter is not None:
            for key, n in counter(args[skip:], result).items():
                rec.count(key, n)
        return result

    return wrapper


def _count_wrapper(rec: Recorder, name: str, fn):
    key = f"{name}.calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(key)
        return fn(*args, **kwargs)

    return wrapper


def _op_wrapper(rec: Recorder, op: str, fn):
    name = f"autodiff.op.{op}"
    bwd_name = f"{name}.bwd"

    def timed_backward(backward):
        def run(g):
            idx = rec.begin(bwd_name)
            try:
                backward(g)
            except BaseException:
                rec.finish(idx, failed=True)
                raise
            rec.finish(idx)
        return run

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.finish(idx, failed=True)
            raise
        rec.finish(idx)
        if out._backward is not None:
            rec.count("autodiff.nodes")
            out._backward = timed_backward(out._backward)
        return out

    return wrapper


def _epoch_marker(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(root_seed, purpose, *rest):
        if purpose == EPOCH_PURPOSE:
            rec.epoch_marks.append(time.perf_counter())
        return fn(root_seed, purpose, *rest)

    return wrapper


def install(rec: Recorder):
    """Swap wrappers into every shotline module; returns an undo callable."""
    import shotline  # noqa: F401  (loads the package before scanning it)
    for mod in TRACED_MODULES:
        __import__(f"shotline.{mod}")
    replaced = {}
    for mod in TRACED_MODULES:
        module = sys.modules[f"shotline.{mod}"]
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue
            if mod == "autodiff" and attr in NAMED_OPS:
                replaced[value] = _op_wrapper(rec, attr, value)
            elif mod == "autodiff" and attr in OTHER_OPS:
                replaced[value] = _op_wrapper(rec, "other", value)
            elif f"{mod}.{attr}" not in UNTRACED:
                name = f"{mod}.{attr}"
                replaced[value] = _span_wrapper(rec, RENAMED.get(name, name), value)
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "shotline" or name.startswith("shotline.")):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                undo.append((module, attr, value))
                setattr(module, attr, replaced[value])
    for (mod, cls_name, method), span in METHODS.items():
        cls = getattr(sys.modules[f"shotline.{mod}"], cls_name)
        original = cls.__dict__[method]
        undo.append((cls, method, original))
        wrap = (_count_wrapper(rec, span, original) if span in COUNT_ONLY
                else _span_wrapper(rec, span, original, method=True))
        setattr(cls, method, wrap)
    temporal = sys.modules["shotline.temporal"]
    undo.append((temporal, "derive_rng", temporal.derive_rng))
    temporal.derive_rng = _epoch_marker(rec, temporal.derive_rng)

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


# -- reports --------------------------------------------------------------------------


def summarize(rec: Recorder) -> dict:
    """Per-name inclusive time and call count, per-module and per-stage self time."""
    selfs = self_times(rec.start, rec.end, rec.parent)
    by_name = defaultdict(lambda: [0, 0.0])
    self_by_module = defaultdict(float)
    self_by_stage = defaultdict(lambda: defaultdict(float))
    for i in range(len(rec)):
        name = rec.names[rec.name_id[i]]
        entry = by_name[name]
        entry[0] += 1
        entry[1] += rec.end[i] - rec.start[i]
        module = name.split(".", 1)[0]
        self_by_module[module] += selfs[i]
        self_by_stage[rec.stage_of(i)][module] += selfs[i]
    return {
        "calls": {k: v[0] for k, v in by_name.items()},
        "seconds": {k: v[1] for k, v in by_name.items()},
        "self_by_module": dict(self_by_module),
        "self_by_stage": {s: dict(m) for s, m in self_by_stage.items()},
        "errors": int(sum(rec.failed)),
    }


def epoch_seconds(rec: Recorder) -> list[float]:
    """Time between successive next-shot epoch starts; the last epoch ends with
    the enclosing train_next_shot span."""
    if not rec.epoch_marks:
        return []
    ends = [rec.end[i] for i in range(len(rec))
            if rec.names[rec.name_id[i]] == "temporal.train_next_shot"]
    bounds = sorted(rec.epoch_marks + ends)
    marks = set(rec.epoch_marks)
    return [b - a for a, b in zip(bounds, bounds[1:]) if a in marks]


def write_spans(rec: Recorder, path) -> None:
    """One tab-separated line per span: id, parent, stage, name, start, end, failed."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tstage\tname\tstart\tend\tfailed\n")
        t0 = rec.start[0] if len(rec) else 0.0
        for i in range(len(rec)):
            fh.write(f"{i}\t{rec.parent[i]}\t{rec.stage_of(i)}\t"
                     f"{rec.names[rec.name_id[i]]}\t{rec.start[i] - t0:.7f}\t"
                     f"{rec.end[i] - t0:.7f}\t{rec.failed[i]}\n")
