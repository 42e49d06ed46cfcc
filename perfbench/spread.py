"""Repeat the benchmark over several seeds and report each end-to-end
metric's median and quartile spread, the way a regression check reads them.

    python3 perfbench/spread.py --seeds 0-9 --out .perfbench/spread.json

Runs ``run.py --trace 0`` once per (seed, workload), one after another and
seed by seed, so that slow drifts of the host fall on every workload
alike.  Run length and bounds come from BENCHMARK.json.  The spread of a
metric is (Q3 - Q1) / median over the seeds, with quartiles from
``statistics.quantiles(values, n=4)``; it is flagged when over the bound
or over a third of it, and a spread over the bound fails the run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {name: [] for name in bounds} for w in args.workloads}
    counts = {w: {"attempted": 0, "failed": 0} for w in args.workloads}
    for seed in args.seeds:
        for workload in args.workloads:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            counts[workload]["attempted"] += result["attempted"]
            counts[workload]["failed"] += result["failed"]
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={values[workload][n][-1]:.5g}" for n in bounds), flush=True)

    summary = {}
    ok = True
    for workload in args.workloads:
        rows = {}
        for name, vals in values[workload].items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            bound = bounds[name]
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": vals}
            flag = ""
            if spread > bound:
                flag, ok = "  OVER BOUND", False
            elif spread > bound / 3:
                flag = "  over bound/3"
            print(f"  {workload:13s} {name:14s} median={median:<12.6g} spread={spread:.3f}"
                  f" bound={bound}{flag}")
        last = ROOT / ".perfbench" / f"result-{workload}-seed{args.seeds[-1]}-trace0.json"
        summary[workload] = {**counts[workload], "seeds": args.seeds,
                             "run_seconds": spec["run_seconds"], "metrics": rows,
                             "metadata": json.loads(last.read_text())["metadata"]}
        ok = ok and counts[workload]["failed"] == 0
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
