#!/usr/bin/env python3
"""Stage-timed benchmark of the shotline CLI.

    python3 bench/run.py --workload next-shot --seed 1 --seconds 40 --trace 0

Run it from the repository root. It builds the workload's inputs from
--seed (several times, to time set-up), then runs the workload's CLI
stages one process at a time, in a closed loop, until --seconds have
passed. Every stage's outputs are checked. With --trace 1 it runs one
untraced iteration and one traced, in-process iteration instead, and
reports per-layer metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import os

# One BLAS thread in every process of a run, this one included (the traced
# run calls the CLI in-process), so it must be set before numpy loads. On a
# 2-vCPU host, eight alternating pairs of train-temporal runs spread
# 0.145 (interquartile / median) with one thread against 0.224 with two.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from specs import END_TO_END, layer_values  # noqa: E402
from workloads import WORKLOADS, Stage, Workload  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
RUN_BUDGET_S = 170.0  # every child is killed once the run has used this much
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class SetupError(Exception):
    """The workload's inputs could not be built (or differ between reps)."""


@dataclass
class Invocation:
    label: str
    slot: int
    wall: float           # process wall time, seconds
    rss_mb: float         # peak resident set of the process
    code: int
    program_s: float = 0.0  # the manifest's wall_time_ms, in seconds
    error: str = ""
    quality: float | None = None


class Runner:
    """Runs CLI processes one at a time, each under the run's kill deadline."""

    def __init__(self, run_dir: Path, deadline: float):
        self.deadline = deadline
        self.log = run_dir / "stages.log"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))

    def cli(self, argv: list[str], run_log: Path) -> tuple[float, float, int]:
        """Wall seconds, peak RSS in MB and exit code of one CLI process."""
        cmd = [sys.executable, "-m", "shotline.cli", "--run-log", str(run_log), *argv]
        with open(self.log, "ab") as log:
            log.write(f"$ {' '.join(cmd)}\n".encode())
            log.flush()
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=log, stderr=log)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - started
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def last_error(self) -> str:
        lines = self.log.read_text(errors="replace").splitlines()
        return next((line for line in reversed(lines) if line.startswith("error\t")), "")


def median(values) -> float:
    return float(statistics.median(values))


def command_of(argv: list[str]) -> str:
    """The subcommand of a CLI argument list (global flags all take a value)."""
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("--"):
            return token
        next(tokens, None)
    raise ValueError(f"no subcommand in {argv}")


def _relative_digests(row: dict, base: Path) -> dict:
    return {os.path.relpath(path, base): digest for path, digest in row["output_digests"].items()}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_inputs(workload: Workload, runner: Runner, setup_dir: Path, seed: int) -> dict:
    """Run synth/split (and make clips); returns digests of everything built."""
    setup_dir.mkdir(parents=True)
    run_log = setup_dir / "run_manifest.jsonl"
    digests = {}
    for argv in workload.setup_commands(setup_dir, seed):
        _, _, code = runner.cli(argv, run_log)
        if code != 0:
            raise SetupError(f"set-up command failed ({code}): {runner.last_error()}")
        digests.update(_relative_digests(checks.last_manifest_row(run_log), setup_dir))
    for path in workload.make_inputs(setup_dir, seed):
        digests[os.path.relpath(path, setup_dir)] = _sha256(path)
    return digests


def timed_setup(workload: Workload, runner: Runner, run_dir: Path, seed: int):
    """Build the inputs SETUP_REPS times; all reps must be byte-identical."""
    times, reference, setup_dir = [], None, None
    for rep in range(SETUP_REPS):
        if setup_dir is not None:
            shutil.rmtree(setup_dir)
        setup_dir = run_dir / f"setup{rep}"
        started = time.perf_counter()
        digests = build_inputs(workload, runner, setup_dir, seed)
        times.append(time.perf_counter() - started)
        if reference is not None and digests != reference:
            raise SetupError("set-up is not deterministic: digests differ between reps")
        reference = digests
    return setup_dir, times, reference


def run_stage(stage: Stage, call, out: Path, reference: dict, digests: dict) -> Invocation:
    """Run one stage through ``call`` and check what it wrote."""
    run_log = out / "run_manifest.jsonl"
    wall, rss, code = call(stage.argv, run_log)
    inv = Invocation(stage.label, stage.slot, wall, rss, code)
    if code != 0:
        inv.error = f"exit code {code}"
        return inv
    try:
        row = checks.last_manifest_row(run_log)
        if row["command"] != command_of(stage.argv):
            raise checks.CheckError("manifest row belongs to another command")
        inv.program_s = row["wall_time_ms"] / 1000.0
        inv.quality = stage.check(row)
        produced = {f"{stage.label}:{k}": v for k, v in _relative_digests(row, out).items()}
        for key, digest in produced.items():
            if reference.setdefault(key, digest) != digest:
                raise checks.CheckError(f"{key} differs from the first iteration's")
        digests.update(produced)
    except (checks.CheckError, OSError, ValueError, KeyError) as exc:
        inv.error = f"{type(exc).__name__}: {exc}"
    return inv


def run_iteration(workload, setup_dir, out, call, reference, digests) -> list[Invocation]:
    invocations = []
    for stage in workload.iteration(setup_dir, out):
        inv = run_stage(stage, call, out, reference, digests)
        invocations.append(inv)
        if inv.error:
            break  # later stages read this one's outputs
    return invocations


def end_to_end(workload: Workload, setup_times, iterations, quality) -> dict:
    done = [it for it in iterations if not any(i.error for i in it)]
    invocations = [i for it in iterations for i in it]
    values = {"setup_s": median(setup_times),
              "wall_s": median([sum(i.wall for i in it) for it in done]) if done else 0.0,
              "peak_rss_mb": max(i.rss_mb for i in invocations),
              "success_rate": 1.0 - sum(bool(i.error) for i in invocations) / len(invocations),
              "quality": quality or 0.0}
    for slot in (1, 2, 3):
        if slot in workload.per_call_slots:
            samples = [i.wall for it in done for i in it if i.slot == slot]
        else:
            samples = [sum(i.wall for i in it if i.slot == slot) for it in done]
        values[f"stage{slot}_s"] = median(samples) if samples else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def aliases(workload: Workload, metrics: dict, attempted: int, failed: int) -> dict:
    """Per-workload names for the generic stage and quality metrics."""
    named = {workload.stage_names[slot - 1]: metrics[f"stage{slot}_s"]
             for slot in (1, 2, 3)}
    named[workload.quality_name] = metrics["quality"]
    named["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    return named


def machine_facts(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
            "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
            "commit": git_commit(), "seed": seed, "loadavg_before": os.getloadavg()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(workload: Workload, runner: Runner, run_dir: Path, seed: int, seconds: float):
    setup_dir, setup_times, setup_digests = timed_setup(workload, runner, run_dir, seed)
    out = run_dir / "run"
    out.mkdir()
    reference, digests, iterations = {}, {}, []
    started = time.perf_counter()
    while True:  # closed loop; an iteration starts only if it should end within --seconds
        iterations.append(run_iteration(workload, setup_dir, out, runner.cli, reference, digests))
        elapsed = time.perf_counter() - started
        if any(i.error for i in iterations[-1]) or elapsed * (1 + 1 / len(iterations)) > seconds:
            break
    quality = next((i.quality for it in iterations for i in it if i.quality is not None), None)
    metrics = end_to_end(workload, setup_times, iterations, quality)
    return iterations, metrics, {"setup": setup_digests, "stages": digests}, {"setup_s": setup_times}


def in_process(recorder: spans.Recorder, stderr_path: Path, label: str):
    """A ``call`` that runs one CLI invocation inside this process, traced."""
    import shotline.cli

    def call(argv, run_log):
        with open(stderr_path, "a", encoding="utf-8") as err, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
            idx = recorder.begin_stage(label)
            started = time.perf_counter()
            code = 1
            try:
                code = shotline.cli.main(["--run-log", str(run_log), *argv])
            finally:
                recorder.finish_stage(idx, failed=code != 0)
            return time.perf_counter() - started, 0.0, code

    return call


def traced(workload: Workload, runner: Runner, run_dir: Path, seed: int, seconds: float):
    """One untraced iteration (for start-up and overhead), then one traced one,
    whatever --seconds says: the counts must describe exactly one iteration."""
    sys.path.insert(0, str(SRC))
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    stderr_path = run_dir / "traced.log"
    try:
        setup_dir = run_dir / "setup"
        setup_dir.mkdir(parents=True)
        for argv in workload.setup_commands(setup_dir, seed):
            call = in_process(recorder, stderr_path, f"setup.{command_of(argv)}")
            _, _, code = call(argv, setup_dir / "run_manifest.jsonl")
            if code != 0:
                raise SetupError(f"set-up command {argv} failed")
        workload.make_inputs(setup_dir, seed)
        out = run_dir / "run"
        out.mkdir()
        reference, digests = {}, {}
        plain = run_iteration(workload, setup_dir, out, runner.cli, reference, digests)
        traced_its = []
        if not any(i.error for i in plain):
            traced_its = [run_stage(stage, in_process(recorder, stderr_path, stage.label),
                                    out, reference, digests)
                          for stage in workload.iteration(setup_dir, out)]
    finally:
        uninstall()
    summary = spans.summarize(recorder)
    startup = [i.wall - i.program_s for i in plain if not i.error]
    program = sum(i.wall for i in plain) - sum(startup)
    epochs = spans.epoch_seconds(recorder)
    extra = {"cli.startup_s": median(startup) if startup else 0.0,
             "temporal.epoch_s": median(epochs) if epochs else 0.0,
             "trace.overhead": sum(i.wall for i in traced_its) / program if traced_its else 0.0,
             "trace.errors": summary["errors"]}
    metrics = layer_values(summary, recorder.counts, extra)
    WORK.joinpath("traces").mkdir(parents=True, exist_ok=True)
    spans.write_spans(recorder, WORK / "traces" / f"{workload.name}-seed{seed}.tsv")
    report = {"self_by_module": summary["self_by_module"], "self_by_stage": summary["self_by_stage"]}
    return [plain, traced_its], metrics, {"stages": digests}, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shotline" / "cli.py").is_file():
        print(f"bench: no shotline sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir, time.monotonic() + RUN_BUDGET_S)
    facts = machine_facts(args.seed)
    step = traced if args.trace else measure
    try:
        iterations, metrics, digests, report = step(workload, runner, run_dir, args.seed,
                                                    args.seconds)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    facts["loadavg_after"] = os.getloadavg()

    invocations = [i for it in iterations for i in it]
    attempted = len(invocations)
    failed = sum(bool(i.error) for i in invocations)
    correct = failed == 0 and all(iterations)
    record = {"workload": args.workload, "trace": args.trace, "facts": facts,
              "iterations": [[asdict(i) for i in it] for it in iterations],
              "metrics": metrics, "digests": digests, **report}
    if not args.trace:
        record["aliases"] = aliases(workload, metrics, attempted, failed)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    print(f"facts\t{json.dumps(facts, sort_keys=True)}")
    for inv in invocations:
        print(f"stage\t{inv.label}\t{inv.wall:.4f}s\t{inv.rss_mb:.1f}MB\t{inv.error or 'ok'}")
    for stage, modules in sorted(report.get("self_by_stage", {}).items()):
        for module, seconds in sorted(modules.items(), key=lambda kv: -kv[1]):
            print(f"self\t{stage}\t{module}\t{seconds:.4f}s")
    for name, m in {**metrics, **record.get("aliases", {})}.items():
        print(f"metric\t{name}\t{m['value']:.6g}\t{m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
