#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/steadiness.py --workload ingest --seeds 1-10 --seconds 30
    python3 bench/steadiness.py --workload ingest --seeds 1-2 --seconds 30 --trace

For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json. With --trace every seed runs twice and the
count metrics (calls, nodes, records, ...) must repeat exactly.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"seed {seed}: run failed\n{proc.stdout}\n{proc.stderr}")
    return result


def spread_table(values: dict[str, list[float]], bounds: dict[str, float]) -> list[dict]:
    rows = []
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        rows.append({"metric": name, "median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bounds.get(name), "n": len(vals)})
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seeds(args.seeds):
        result = run(args.workload, seed, args.seconds, int(args.trace))
        if args.trace:
            again = run(args.workload, seed, args.seconds, 1)
            for name, m in result["metrics"].items():
                exact = m["unit"] in ("count", "bytes") and name != "trace.errors"
                if exact and m["value"] != again["metrics"][name]["value"]:
                    raise SystemExit(f"seed {seed}: {name} did not repeat "
                                     f"({m['value']} vs {again['metrics'][name]['value']})")
            print(f"seed {seed}: every count repeated exactly", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        if not args.trace:
            print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
                  flush=True)
    rows = spread_table(values, bounds)
    for row in rows:
        if args.trace and row["metric"] not in bounds:
            continue
        flag = "" if row["bound"] is None or row["spread"] < row["bound"] / 3 else "  <-- wide"
        print(f"{row['metric']:<16} median {row['median']:.4g}  q1 {row['q1']:.4g}  "
              f"q3 {row['q3']:.4g}  spread {row['spread']:.3f}  bound {row['bound']}{flag}")
    out = ROOT / ".bench_work" / "steadiness"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seeds{args.seeds}{'-trace' if args.trace else ''}.json"
    (out / name).write_text(json.dumps({"values": values, "summary": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
