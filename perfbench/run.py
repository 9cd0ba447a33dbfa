"""The benchmark's one command: run a workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a groupsum checkout; it imports groupsum from that
checkout's src/ and nowhere else. See perfbench/README.md for the workloads
and the metrics.

With --trace 0 the workload runs untraced in a fresh child process and the
end-to-end metrics are printed. Set-up is also timed in SETUP_PROBES further
children that stop before the first item, and setup_s is the median. The
item times are reported at a fixed machine speed: the child times a fixed
piece of reference work before and after every item, and every item time is
scaled by REFERENCE_S over the mean of the two reference times around it.
The measured times are printed beside them.

With --trace 1 one child makes a single pass in which every item runs
twice, untraced and traced, and the per-layer metrics of the traced
executions are printed with the tracing overhead: the traced executions'
summed time minus the untraced ones', both at reference speed as above, with
its standard error. No end-to-end metric is printed.
Each item's traced stdout must be byte-identical to its untraced stdout,
and every per-layer metric in COVERAGE must be nonzero.

Every item's output is checked here, after the child has ended, so checking
adds nothing to the child's time or memory. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
SETUP_PROBES = 4
# Every child of a run must have ended this long after the run started: a
# margin for set-up, plus three times the expected time of the run's passes.
DEADLINE_MARGIN_S = 60
DEADLINE_PASS_FACTOR = 3
DIGESTS = HERE / "digests.json"
# The median time of child.reference_work on the 2-core machine the
# benchmark was defined on: the machine speed at which item times are
# reported (README.md, "Machine speed").
REFERENCE_S = 0.0044

_GROUP = ["groups.FiniteGroup.calls", "groups.FiniteGroup.self_s", "groups.FiniteGroup.cells",
          "groups.element_orders.calls", "groups.element_orders.groups",
          "groups.element_orders.self_s", "groups.cyclic_subgroup.calls",
          "groups.cyclic_subgroup.self_s", "verify.witnesses", "cli.run.self_s"]
_GRAPH = ["powergraph.build.calls", "powergraph.build.self_s", "powergraph.directed_edges",
          "powergraph.undirected_edges"]
_SYLOW = [f"groups.{f}.{m}" for f in ("sylow_subgroup", "count_sylow", "normalizer",
                                      "is_normal", "generated_subgroup", "Subgroup")
          for m in ("calls", "self_s")]

# The per-layer metrics each workload must exercise: nonzero in its traced
# pass. README.md maps each metric to the end-to-end metric it should move.
COVERAGE = {
    "verify-range": _GROUP + _GRAPH + [
        "groups.cyclic.self_s", "groups.abelian.self_s", "groups.dihedral.self_s",
        "groups.dicyclic.self_s", "groups.semidirect_cyclic.self_s",
        "groups.catalog.calls", "groups.catalog.self_s", "groups.catalog.groups",
        "groups.catalog.kept_ratio", "powergraph.undirected_edge_count.self_s",
        "verify.verify_main.self_s", "verify.reports_to_csv.self_s", "verify.report.bytes"],
    "sylow-criterion": _GROUP + _SYLOW + [
        f"groups.{c}.self_s" for c in ("cyclic", "abelian", "dihedral", "dicyclic", "symmetric",
                                       "alternating", "semidirect_cyclic", "direct_product")
    ] + ["verify.check_witnesses.self_s", "verify.verify_contrapositive.self_s",
         "cli.parse_group_spec.self_s"],
    "graph-export": _GRAPH + [
        "groups.FiniteGroup.calls", "groups.FiniteGroup.self_s", "groups.FiniteGroup.cells",
        "groups.FiniteGroup.from_json.self_s", "groups.cyclic_subgroup.calls",
        "groups.cyclic_subgroup.self_s", "powergraph.export_dot.self_s",
        "powergraph.export_json.self_s", "powergraph.export.bytes", "cli.run.self_s",
        "cli.parse_group_spec.self_s"],
    "arith-queries": [
        f"numtheory.{f}.{m}" for f in ("factorize", "is_prime", "totient", "q_of",
                                       "phi_cyclic_sum", "phi_cyclic_product")
        for m in ("calls", "self_s")
    ] + ["numtheory.smallest_prime_factors.self_s", "verify.verify_numtheory_sweep.self_s",
         "cli.run.self_s"],
}


class ChildFailed(RuntimeError):
    pass


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_child(root: Path, workdir: Path, tag: str, *flags: str,
              deadline: float) -> tuple[dict, float]:
    """Run child.py on the plan in workdir; return its result and start time.

    The child is killed if it is still running at `deadline` (monotonic)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    result_path = workdir / f"result-{tag}.json"
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(workdir / "plan.json"),
             str(result_path), *flags],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{tag} child still running at the run's deadline") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{tag} child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result_path.read_text()), started


def run_deadline(started: float, workload: str, passes: int) -> float:
    return started + DEADLINE_MARGIN_S + (
        DEADLINE_PASS_FACTOR * passes * workloads.PASS_SECONDS[workload])


def check_run(plan: dict, samples: list, workdir: Path) -> list:
    """One entry per sample: None if it passed, else (label, reason).

    out-<i>.txt holds the stdout of item i's last execution; every other
    execution of that item, traced or not, must have the same digest."""
    items = plan["items"]
    recorded = {}
    if DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(plan["workload"], {})
    graph_expected = [checks.graph_expectation(spec) for spec in plan["files"]]
    last = {}
    for index, _status, _elapsed, digest, _error, _traced in samples:
        last[index] = digest
    content = {}
    for index in last:
        text = (workdir / f"out-{index}.txt").read_text(encoding="utf-8")
        content[index] = checks.check_item(items[index], text, graph_expected)
    outcomes = []
    for index, _status, _elapsed, digest, error, _traced in samples:
        label = items[index]["label"]
        reason = error
        if reason is None and digest != last[index]:
            reason = "stdout differs between executions of this item"
        if reason is None:
            reason = content[index]
        if reason is None and recorded.get(label, digest) != digest:
            reason = "stdout differs from the output recorded for this item"
        outcomes.append(None if reason is None else (label, reason))
    return outcomes


def tail(latencies: list) -> tuple[float, float]:
    """The latency with ten samples above it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def at_reference_speed(result: dict) -> list:
    """Each sample's time scaled to the reference speed: by REFERENCE_S over
    the mean of the reference times just before and after it (the child
    times the reference work once before the first item and after each)."""
    refs = result["reference_s"]
    return [sample[2] * 2 * REFERENCE_S / (refs[k] + refs[k + 1])
            for k, sample in enumerate(result["samples"])]


def item_metrics(latencies: list) -> dict:
    tail_s, tail_pct = tail(latencies)
    return {"items_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": 1000 * statistics.median(latencies),
            "latency_tail_ms": 1000 * tail_s, "tail_pct": tail_pct}


def timed_run(root: Path, workdir: Path, plan: dict, spec: dict,
              deadline: float) -> tuple[dict, list]:
    """The untraced run: set-up probes, the timed child, end-to-end metrics."""
    setups = []
    for probe in range(SETUP_PROBES):
        result, started = run_child(root, workdir, f"setup{probe}", "--setup-only",
                                    deadline=deadline)
        setups.append(result["first_item_at"] - started)
    result, started = run_child(root, workdir, "timed", deadline=deadline)
    setups.append(result["first_item_at"] - started)
    outcomes = check_run(plan, result["samples"], workdir)
    measured = [s[2] for s in result["samples"]]
    refs = result["reference_s"]
    values = item_metrics(at_reference_speed(result))
    raw = item_metrics(measured)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mib"] = result["peak_rss_kib"] / 1024
    failed = sum(o is not None for o in outcomes)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "latency_tail_ms": f"p{values['tail_pct']:.1f} of {len(measured)} samples",
    }
    for name in ("items_per_s", "latency_p50_ms", "latency_tail_ms"):
        notes[name] = f"measured {raw[name]:.4f}" + (
            f", {notes[name]}" if name in notes else "")
    lines = [f"workload {plan['workload']}  seed {plan['seed']}  {plan['passes']} passes of "
             f"{len(plan['items'])} items  ({len(measured)} samples)",
             f"machine speed: reference work median {1000 * statistics.median(refs):.3f} ms, "
             f"quartiles {' '.join(f'{1000 * q:.3f}' for q in statistics.quantiles(refs, n=4))} "
             f"ms, of {len(refs)}; item times scaled to {1000 * REFERENCE_S:.3f} ms"]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        line = f"{name:<18} {values[name]:>12.4f} {metric['unit']:<6} {notes.get(name, '')}"
        lines.append(line.rstrip())
    lines.append(f"{'failed_frac':<18} {failed / len(measured):>12.4f} {'ratio':<6} "
                 f"{failed} of {len(measured)} items")
    report = {"correct": failed == 0, "attempted": len(measured), "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in spec["end_to_end"]}}
    return report, lines + _failure_lines(outcomes)


def layer_value(name: str, trace: dict, overhead_s: float) -> float:
    if name == "trace.overhead_s":
        return overhead_s
    if name == "groups.catalog.kept_ratio":
        built = trace["counters"].get("groups.catalog.constructed", 0)
        return trace["counters"].get("groups.catalog.groups", 0) / built if built else 0.0
    base, _, field = name.rpartition(".")
    if field in ("calls", "self_s"):
        return trace[field].get(base, 0)
    return trace["counters"].get(name, 0)


def traced_run(root: Path, workdir: Path, plan: dict, spec: dict,
               deadline: float) -> tuple[dict, list]:
    """One pass, each item untraced and traced in one child: per-layer metrics."""
    spans = HERE / ".out" / f"spans-{plan['workload']}-seed{plan['seed']}.jsonl"
    spans.parent.mkdir(exist_ok=True)
    result, _ = run_child(root, workdir, "traced", "--trace", str(spans), deadline=deadline)
    samples = result["samples"]
    outcomes = check_run(plan, samples, workdir)
    digests = [{s[0]: s[3] for s in samples if s[5] == traced} for traced in (False, True)]
    identical = sum(digests[0][index] == digests[1][index] for index in digests[0])

    items = len(plan["items"])
    times = [{}, {}]  # untraced and traced time of each item, at reference speed
    for sample, seconds in zip(samples, at_reference_speed(result)):
        times[sample[5]][sample[0]] = seconds
    differences = [times[1][index] - times[0][index] for index in times[0]]
    untraced_wall, traced_wall = sum(times[0].values()), sum(times[1].values())
    overhead_s = traced_wall - untraced_wall
    # the standard error of overhead_s, from the spread of the per-item differences
    overhead_se = statistics.stdev(differences) * len(differences) ** 0.5
    trace = result["trace"]
    values = {m["name"]: layer_value(m["name"], trace, overhead_s) for m in spec["per_layer"]}
    uncovered = [name for name in COVERAGE[plan["workload"]] if not values[name]]

    lines = [f"workload {plan['workload']}  seed {plan['seed']}  one pass of {items} items, "
             f"each untraced and traced; {trace['spans']} spans recorded",
             f"tracing overhead, at reference speed: traced {traced_wall:.3f} s, untraced "
             f"{untraced_wall:.3f} s, overhead {overhead_s:.3f} s "
             f"({100 * overhead_s / untraced_wall:+.1f}%), standard error {overhead_se:.3f} s",
             f"traced stdout identical to untraced stdout: {identical} of {items} items"]
    for metric in spec["per_layer"]:
        name = metric["name"]
        lines.append(f"{name:<42} {values[name]:>16.6f} {metric['unit']}")
    lines.append("span coverage: " + ("ok" if not uncovered else "ZERO: " + ", ".join(uncovered)))
    failed = sum(o is not None for o in outcomes)
    report = {"correct": failed == 0 and not uncovered, "attempted": len(outcomes),
              "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in spec["per_layer"]}}
    return report, lines + _failure_lines(outcomes)


def _failure_lines(outcomes: list) -> list:
    failures = sorted({o for o in outcomes if o is not None})
    return [f"FAILED {label}: {reason}" for label, reason in failures[:20]]


def main(argv=None) -> int:
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    args = parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "groupsum" / "__init__.py").is_file():
        print(f"no groupsum source under {root / 'src'}; run from a checkout's root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        plan = workloads.make_plan(args.workload, args.seed, args.seconds,
                                   workdir.relative_to(root).as_posix())
        (workdir / "plan.json").write_text(json.dumps(plan))
        # a traced run makes one pass of two executions per item
        deadline = run_deadline(started, args.workload, 2 if args.trace else plan["passes"])
        run = traced_run if args.trace else timed_run
        report, lines = run(root, workdir, plan, spec, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
