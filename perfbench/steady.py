#!/usr/bin/env python3
"""Steadiness check: run one workload with several seeds and report, for each
end-to-end metric, the median, the quartiles and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json.  A spread below a third of the
bound is steady.  It makes ten runs of BENCHMARK.json's run_seconds each,
with seeds from --first-seed on.

    python3 perfbench/steady.py --workload chern-forms --first-seed 101
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUNS = 10


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="also write the runs and the summary to this JSON file")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    runs = []
    for seed in range(args.first_seed, args.first_seed + RUNS):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
        if set(result["metrics"]) != set(bounds):
            print(f"seed {seed}: metrics {sorted(result['metrics'])} differ from "
                  f"BENCHMARK.json {sorted(bounds)}", file=sys.stderr)
            return 1
        runs.append({"seed": seed, **result, "env": env})
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for name, xs in values.items():
        q1, median, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / median
        bound = bounds[name]
        verdict = "steady" if spread < bound / 3 else ("within bound" if spread <= bound
                                                      else "NOT within bound")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound}
        print(f"{name}: median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} spread {spread:.4f} "
              f"bound {bound} -> {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs,
                                              "summary": summary}, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
