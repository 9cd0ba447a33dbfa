"""Repeat the benchmark and summarise how much each end-to-end metric spreads.

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 --out FILE
    python3 perfbench/steadiness.py --seeds 0 0 0 0 0 --out FILE
    python3 perfbench/steadiness.py --seeds 11 12 ... --out FILE2 --against FILE

Runs `perfbench/run.py --trace 0` once per workload and seed, one run at a
time, and records for each metric its values, median, quartiles
(statistics.quantiles, n=4) and spread: the interquartile range as a share
of the median. The set of runs counts as steady when every spread is below a
third of its metric's bound in BENCHMARK.json, setup_s excepted: set-up
time is held to its bound by comparing medians, not spreads, because one
set-up is a fraction of a second and its spread is the machine's. With
--against, every metric's median, setup_s included, must also be no worse
than the median in an earlier summary by more than the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def worsening(metric: dict, median: float, earlier: float) -> float:
    """How much worse `median` is than `earlier`, as a share of `earlier`."""
    change = (median - earlier) / earlier
    return change if metric["better"] == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else None

    summary = {"seeds": args.seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            if not report["correct"]:
                print(proc.stdout, file=sys.stderr)
                return 1
            runs.append((report, time.monotonic() - start))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name} {m['value']:.4f}" for name, m in report["metrics"].items()), flush=True)
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            metrics[name] = summarise([r["metrics"][name]["value"] for r, _ in runs])
            notes = []
            if name != "setup_s" and metrics[name]["spread"] >= metric["bound"] / 3:
                notes.append("NOT STEADY")
            if earlier is not None:
                worse = worsening(metric, metrics[name]["median"],
                                  earlier[workload]["metrics"][name]["median"])
                metrics[name]["worse_than_against"] = worse
                notes.append(f"median {worse:+.3f} against earlier")
                if worse > metric["bound"]:
                    notes.append("OUTSIDE BOUND")
            steady &= not any(n in ("NOT STEADY", "OUTSIDE BOUND") for n in notes)
            print(f"{workload:<16} {name:<16} median {metrics[name]['median']:>10.4f} "
                  f"spread {metrics[name]['spread']:.4f} bound {metric['bound']}  "
                  + "  ".join(notes), flush=True)
        summary["workloads"][workload] = {
            "metrics": metrics, "run_wall_s": [round(t, 1) for _, t in runs]}
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
