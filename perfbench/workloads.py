"""Item plans: the CLI invocations of one run, drawn from the workload seed.

A plan is the list of items making one pass, plus the JSON group files the
child writes during set-up. Every draw is confined to inputs of about the
same cost (a bucket of a pool measured by order_pools.py, a narrow
magnitude window, or one isomorphism class), so that plans of different
seeds have the same number of items at every cost level, and so the same
median and tail latency and summed time, while their inputs differ.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import sympy

import tables

POOLS = json.loads(Path(__file__).with_name("pools.json").read_text())

# The median latency falls on the items of the middle buckets, and draws
# there moved it by a tenth (verify-range) to a sixth (sylow-criterion) from
# seed to seed: bucket costs overlap and neighbouring buckets differ by
# 10-15%. So the MIDDLE_BAND buckets on either side of the median always
# give their first entry.
MIDDLE_BAND = 3
# verify-range: n = 299 and n = 300 need the most memory of the range (a
# peak RSS of 70 and 71 MiB, each run alone in a fresh process), so they set
# the peak memory of a run. Their buckets always give them, so that the peak
# does not depend on the seed (with only 300 fixed, it moved by a tenth, as
# 299 was drawn or not).
VERIFY_PEAK = (299, 300)
# sylow-criterion: besides one spec from each cost bucket, one cheap spec for
# each constructor that the buckets might miss: the catalog specs never reach
# the symmetric, alternating and direct-product constructors. All of them
# cost a third of the median item or less, so they do not move it.
SYLOW_EXTRA = (
    ("sym:4",),
    ("alt:4", "alt:5"),
    ("prod:dihedral:4,cyclic:3", "prod:sym:3,cyclic:5", "prod:alt:4,cyclic:2",
     "prod:dicyclic:2,cyclic:4", "prod:cyclic:9,sym:3"),
    ("cyclic:36", "cyclic:40", "cyclic:45"),
    ("dihedral:12", "dihedral:18", "dihedral:20"),
    ("dicyclic:6", "dicyclic:9", "dicyclic:10"),
)


def _one_per_bucket(buckets: list, middle: int, rng: random.Random) -> list:
    """One entry drawn from each bucket; the buckets around `middle` give
    their first entry."""
    band = range(middle - MIDDLE_BAND, middle + MIDDLE_BAND)
    return [bucket[0] if i in band else rng.choice(bucket) for i, bucket in enumerate(buckets)]


def _item(label: str, argv: list, **check) -> dict:
    return {"label": label, "argv": argv, "check": check}


def verify_range(rng: random.Random, files: list) -> list:
    buckets = POOLS["verify-range"]
    drawn = _one_per_bucket(buckets, len(buckets) // 2, rng)
    orders = [next((peak for peak in VERIFY_PEAK if peak in bucket), n)
              for bucket, n in zip(buckets, drawn)]
    return [_item(f"verify-main --n {n}",
                  ["verify-main", "--n", str(n), "--format", "csv", "--jobs", "1"],
                  kind="verify-main", n=n) for n in orders]


def sylow_criterion(rng: random.Random, files: list) -> list:
    # the extra specs all cost less than the median item, so the median
    # falls on bucket `middle`
    buckets = POOLS["sylow-criterion"]
    middle = (len(buckets) + len(SYLOW_EXTRA)) // 2 - len(SYLOW_EXTRA)
    specs = _one_per_bucket(buckets, middle, rng)
    specs += [rng.choice(choices) for choices in SYLOW_EXTRA]
    return [_item(f"criterion --group {spec}",
                  ["criterion", "--group", spec, "--format", "json"],
                  kind="criterion", spec=spec) for spec in specs]


def _prime_near(rng: random.Random, magnitude: float) -> int:
    # the next prime after a point in [m, 1.02 m]: trial division costs the
    # same to within about one percent across the window
    return int(sympy.nextprime(int(magnitude * (1 + 0.02 * rng.random()))))


def _integer(kind: str, exponent: int, rng: random.Random) -> int:
    magnitude = 10.0 ** exponent
    if kind == "prime":
        return _prime_near(rng, magnitude)
    if kind == "semiprime":
        p = _prime_near(rng, magnitude ** 0.5)
        return p * _prime_near(rng, p * 1.01)
    if kind == "prime_power":
        k = rng.choice((3, 4, 5))
        return _prime_near(rng, magnitude ** (1 / k)) ** k
    n = 1
    while n < magnitude:  # smooth: a product of primes up to 31
        n *= rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    return n


def arith_queries(rng: random.Random, files: list) -> list:
    items = []
    for exponent in (3, 5, 7, 9, 11, 13):
        for kind in ("prime", "semiprime", "prime_power", "smooth"):
            n = _integer(kind, exponent, rng)
            for command in ("q", "phi"):
                items.append(_item(f"{command} --n {n}", [command, "--n", str(n)],
                                   kind=command, n=n))
    # one prime near 10^14: trial division takes most of a second here, and
    # the factorization layer owes this case the most. It is the costliest
    # item, and a pass is short enough that a 20 s run makes eleven passes,
    # so its eleven samples give the ten above the latency tail.
    n = _integer("prime", 14, rng)
    items.append(_item(f"q --n {n}", ["q", "--n", str(n)], kind="q", n=n))
    for _ in range(3):
        limit = rng.randrange(240, 261)
        items.append(_item(f"sweep --limit {limit}", ["sweep", "--limit", str(limit)],
                           kind="sweep", limit=limit))
    return items


def _graph_groups(rng: random.Random) -> list:
    """(spec, family, params) of the groups one graph-export pass exports.

    The cost of a power graph follows the totients of the group's element
    orders, not only its order: two non-isomorphic groups of one order can
    differ in cost by a factor of two, and drawing among such groups moved
    the median latency by a fifth from seed to seed. So the seed draws each
    group among presentations of one isomorphism class, except the abelian
    group, drawn among three of order 400 that cost far less than the median
    item; and it draws the element labels of every table (the permutation in
    `graph_export`).

    The order statistics rest on fixed groups: the JSON exports of the three
    cyclic groups are the costliest items and give the samples at and above
    the latency tail, and the median falls between the dihedral group's DOT
    export and the semidirect product's JSON export, which cost within a
    tenth of each other. The dicyclic and abelian groups are kept small, so
    that a pass takes under 6 s and a 20 s run makes four passes. The
    semidirect product has the largest table and sets the peak memory."""
    chosen = [(f"cyclic:{n}", "cyclic", [n]) for n in (307, 311, 313)]
    chosen.append(("dihedral:257", "dihedral", [257]))
    chosen.append(("dicyclic:79", "dicyclic", [79]))
    parts = rng.choice(([20, 20], [2, 10, 20], [4, 10, 10]))
    chosen.append(("abelian:" + "x".join(map(str, parts)), "abelian", parts))
    # r of multiplicative order 9 mod 109: every such r gives the same group
    r = rng.choice([r for r in tables.units(109, 9) if pow(r, 3, 109) != 1])
    chosen.append((f"sdp:109:9:{r}", "sdp", [109, 9, r]))
    # C10 x D25 and C5 x D50 are isomorphic, since D50 = C2 x D25
    c, m = rng.choice(((10, 25), (5, 50)))
    chosen.append((f"prod:cyclic:{c},dihedral:{m}", "prod",
                   [["cyclic", [c]], ["dihedral", [m]]]))
    return chosen


def graph_export(rng: random.Random, files: list) -> list:
    items = []
    for index, (spec, family, params) in enumerate(_graph_groups(rng)):
        perm_seed = rng.randrange(2 ** 31)
        name = f"{spec}~{perm_seed}"
        file = f"group-{index}.json"
        files.append({"file": file, "name": name, "family": family, "params": params,
                      "perm_seed": perm_seed})
        for fmt in ("dot", "json"):
            items.append(_item(f"graph {name} --format {fmt}",
                               ["graph", "--group", f"file:{{workdir}}/{file}", "--format", fmt],
                               kind=f"graph-{fmt}", file=len(files) - 1))
    return items


# Seconds one pass of each workload takes on a 2-core machine, at the commit
# that added the benchmark. A run makes a fixed number of passes, derived
# from these and --seconds, so the number of samples behind each metric does
# not depend on how fast the machine happens to be during the run.
PASS_SECONDS = {
    "verify-range": 10.5,
    "sylow-criterion": 3.8,
    "graph-export": 5.7,
    "arith-queries": 1.6,
}
# At least two passes, so that every item runs twice and its two outputs
# can be compared, and the costliest buckets give ten samples above the tail.
MIN_PASSES = 2

WORKLOADS = {
    "verify-range": verify_range,
    "sylow-criterion": sylow_criterion,
    "graph-export": graph_export,
    "arith-queries": arith_queries,
}


def make_plan(workload: str, seed: int, seconds: float, workdir: str) -> dict:
    """The plan of one run; the same workload and seed give the same plan."""
    rng = random.Random(f"{workload}/{seed}")
    files: list = []
    items = WORKLOADS[workload](rng, files)
    rng.shuffle(items)
    for item in items:
        item["argv"] = [arg.replace("{workdir}", workdir) for arg in item["argv"]]
    passes = max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))
    return {"workload": workload, "seed": seed, "passes": passes,
            "item_timeout_s": 60.0, "files": files, "items": items}
