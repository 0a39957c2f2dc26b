#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 benchmarks/sweep.py --seeds 1-10 --seconds 20 --out benchmarks/results/BENCH_x.json

For every workload it makes one untraced run per seed and, with
``--traced``, one traced run on the first seed.  Each end-to-end metric
is summarized by its median, its quartiles (``statistics.quantiles(n=4)``)
and its spread, the interquartile distance as a share of the median,
which is compared with the bound ``BENCHMARK.json`` gives it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, float]:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    machine = next(json.loads(line[len("# machine "):]) for line in lines
                   if line.startswith("# machine "))
    return json.loads(lines[-1]), machine, wall


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--workloads", default=None, help="comma-separated; default: all")
    p.add_argument("--traced", action="store_true", help="add one traced run per workload")
    p.add_argument("--out", help="write the summary here as JSON")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    result = {"seconds": seconds, "seeds": seed_list(args.seeds), "workloads": {}}
    for workload in names:
        runs, walls = [], []
        for seed in result["seeds"]:
            out, result["machine"], wall = run(workload, seed, seconds, 0)
            runs.append(out)
            walls.append(wall)
            print(f"{workload} seed {seed}: {wall:.1f} s wall, correct={out['correct']}",
                  file=sys.stderr)
        summary = {}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s.update(unit=runs[0]["metrics"][name]["unit"], bound=bound)
            summary[name] = s
            print(f"  {name:<12} median {s['median']:.6g} {s['unit']:<5} spread {s['spread']:.4f}"
                  f" (bound {bound}, a third: {bound / 3:.4f})", file=sys.stderr)
        entry = {"summary": summary, "wall_s": summarize(walls),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs)}
        if args.traced:
            traced, _, wall = run(workload, result["seeds"][0], seconds, 1)
            entry["traced"] = {"seed": result["seeds"][0], "wall_s": wall, **traced}
        result["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
