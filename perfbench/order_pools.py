"""Write pools.json: the verify-range and sylow-criterion inputs, in cost buckets.

    PYTHONPATH=src python3 perfbench/order_pools.py

Every candidate is timed once per round, over ROUNDS rounds, and its cost is
its median time. Timing round by round spreads each candidate's runs over
the whole measurement, so a slow spell of the machine does not reorder the
candidates it hits. Candidates are then walked in cost order and grouped in
buckets: a bucket ends where the next candidate costs more than RATIO times
the bucket's cheapest.

A plan draws one candidate from every bucket. So every seed's plan has the
same number of items at every cost level, and its order statistics (the
median and tail latency) and its summed time hardly depend on the seed,
while its inputs differ. The committed pools.json was measured this way on a
2-core machine at the commit that added the benchmark; it is a fixed part of
the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from pathlib import Path

from groupsum import catalog, cli

SYLOW_ORDERS = (24, 40, 48, 54, 56, 60, 72, 80, 96, 108, 120, 128, 144, 160, 162,
                192, 200, 216, 243, 256, 288, 324, 384, 405, 486, 512)
ROUNDS = 5
RATIO = 1.1


def seconds(argv: list) -> float:
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.run(argv)
    if status != 0:
        raise SystemExit(f"{argv} exited {status}")
    return time.perf_counter() - start


def cost_buckets(candidates: dict) -> list:
    """Keys of `candidates` (key -> argv) in buckets of about equal cost."""
    times: dict = {key: [] for key in candidates}
    for _ in range(ROUNDS):
        for key, argv in candidates.items():
            times[key].append(seconds(argv))
    cost = {key: statistics.median(times[key]) for key in candidates}
    buckets: list = []
    for key in sorted(candidates, key=cost.get):
        if buckets and cost[key] <= RATIO * cost[buckets[-1][0]]:
            buckets[-1].append(key)
        else:
            buckets.append([key])
    return buckets


def main() -> None:
    orders = {n: ["verify-main", "--n", str(n), "--format", "csv", "--jobs", "1"]
              for n in range(1, 301)}
    specs = {g.name: ["criterion", "--group", g.name, "--format", "json"]
             for n in SYLOW_ORDERS for g in catalog(n)}
    pools = {"verify-range": cost_buckets(orders), "sylow-criterion": cost_buckets(specs)}
    path = Path(__file__).with_name("pools.json")
    path.write_text(json.dumps(pools, indent=1) + "\n")


if __name__ == "__main__":
    main()
