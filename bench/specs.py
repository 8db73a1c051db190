"""Names, units and directions of every metric the benchmark emits.

BENCHMARK.json lists the same metrics (plus bounds); a test keeps the two
in step. Per-layer values come from a traced run's span summary.
"""
from __future__ import annotations

from spans import NAMED_OPS

# Every workload emits every one of these; none of them is ever 0.
END_TO_END = [
    ("setup_s", "s", "lower"),        # building the workload's inputs (median of reps)
    ("wall_s", "s", "lower"),         # one iteration of the timed stages (median)
    ("stage1_s", "s", "lower"),       # the workload's first stage slot (median)
    ("stage2_s", "s", "lower"),
    ("stage3_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),   # max resident set over the timed CLI processes
    ("success_rate", "ratio", "higher"),  # 1 - failed/attempted stage invocations
    ("quality", "ratio", "higher"),   # next_shot_acc | tag_map | cut_f1
]


def _s(span):
    return (f"{span}.s", "s", "lower", "seconds", span)


def _calls(span):
    return (f"{span}.calls", "count", "lower", "calls", span)


def _count(key, unit="count", better="lower"):
    return (key, unit, better, "counts", key)


def _self(module):
    return (f"{module}.self_s", "s", "lower", "self", module)


def _extra(name, unit, better="lower"):
    return (name, unit, better, "extra", name)


# (name, unit, better, source, key); source says where the value is read.
PER_LAYER = [
    _extra("cli.startup_s", "s"), _self("cli"),
    _calls("features.read_shtf"), _s("features.read_shtf"), _count("features.read_shtf.records"),
    _s("features.write_shtf"), _count("features.add.calls"),
    _calls("features.rows"), _count("features.rows.rows"), _s("features.rows"),
    _calls("features.sequence"), _s("features.sequence"),
    _calls("features.shot_count"), _s("features.shot_count"), _self("features"),
    _s("temporal.generate_questions"),
    _count("temporal.generate_questions.questions", better="higher"),
    _count("temporal.generate_questions.skipped"),
    _s("temporal.read_questions"), _s("temporal.write_questions"), _s("temporal.train_next_shot"),
    _extra("temporal.epoch_s", "s"),
    _calls("temporal.probabilities_batch"), _s("temporal.probabilities_batch"),
    _calls("temporal.evaluate_accuracy"), _s("temporal.evaluate_accuracy"),
    _s("temporal.baseline_average_cosine"), _self("temporal"),
    _calls("nn.LstmCell.step"), _s("nn.LstmCell.step"),
    _calls("nn.RowMlp.scores"), _s("nn.RowMlp.scores"), _self("nn"),
    _count("autodiff.nodes"), _calls("autodiff.backward"), _s("autodiff.backward"),
    _s("autodiff.sgd_step"), _calls("autodiff.sigmoid_values"), _s("autodiff.sigmoid_values"),
    *[spec for op in (*NAMED_OPS, "other") for spec in (
        _calls(f"autodiff.op.{op}"),
        (f"autodiff.op.{op}.fwd_s", "s", "lower", "seconds", f"autodiff.op.{op}"),
        (f"autodiff.op.{op}.bwd_s", "s", "lower", "seconds", f"autodiff.op.{op}.bwd"))],
    _self("autodiff"),
    _s("tags.train_tags"), _s("tags.train_tag_lstm"),
    _calls("tags.TagLstm.step_outputs"), _s("tags.TagLstm.step_outputs"),
    _s("tags.infer_score_average"),
    _calls("tags.infer_feature_lstm"), _s("tags.infer_feature_lstm"),
    _s("tags.shot_tag_response"), _self("tags"),
    _s("checkpoint.save"), _s("checkpoint.load"), _count("checkpoint.bytes", "bytes"),
    _self("checkpoint"),
    _s("corpus.generate_world"), _s("corpus.load_manifest"), _s("corpus.make_splits"),
    _self("corpus"),
    _s("frames.read_fseq"), _count("frames.read_fseq.bytes", "bytes"), _self("frames"),
    _s("segment.detect_shots"), _count("segment.detect_shots.frames"),
    _count("segment.detect_shots.shots", better="higher"), _s("segment.sequence_histograms"),
    _self("segment"),
    _s("encoder.extract_features"), _calls("encoder.describe"), _s("encoder.describe"),
    _self("encoder"),
    _extra("trace.overhead", "ratio"), _extra("trace.errors", "count"),
]


def layer_values(summary: dict, counts: dict, extra: dict) -> dict:
    """Per-layer metric values from a span summary, counters and derived extras."""
    sources = {"seconds": summary["seconds"], "calls": summary["calls"],
               "self": summary["self_by_module"], "counts": counts, "extra": extra}
    return {name: {"value": sources[source].get(key, 0), "unit": unit}
            for name, unit, _, source, key in PER_LAYER}
