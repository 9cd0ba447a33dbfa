"""One workload run in a fresh process: set up, then run items in-process.

    python3 perfbench/child.py PLAN RESULT [--setup-only | --trace SPANS]

Run from the checkout root with PYTHONPATH=src. The parent times the process
from its start; this process notes the monotonic clock just before the first
item, so the parent can compute the set-up time. Items run in whole passes
over the plan, as many as the plan says. A traced run makes one pass in
which every item runs twice, untraced and traced, and each sample says
which it was. Each item's stdout goes to a file in the work directory, and
only its digest is kept here; checking is the parent's job, after this process has
ended.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tables


class ItemTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so no handler in the program
    can turn it into an ordinary error exit."""


def _on_alarm(signum, frame):
    raise ItemTimeout()


def reference_work() -> None:
    """A fixed mix of interpreter and numpy work that never calls groupsum.

    A run times it before its first item and after every execution of an
    item; its time just before and after an execution tracks the machine's
    speed while the item ran (see run.py)."""
    counts: dict = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i * 3
    values = np.arange(40000) % 97
    for _ in range(5):
        values = (values * 7 + 3) % 101


def write_inputs(plan: dict, workdir: Path) -> None:
    for spec in plan["files"]:
        table, identity = tables.relabelled(spec["family"], spec["params"], spec["perm_seed"])
        tables.write_group_json(workdir / spec["file"], spec["name"], table, identity)


def digest(path: Path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()


def run_item(cli, argv: list, out_path: Path, timeout_s: float) -> tuple:
    """Run one CLI invocation; return (exit status, seconds, error)."""
    stdout, stderr = sys.stdout, sys.stderr
    err = io.StringIO()
    error = None
    with open(out_path, "w", encoding="utf-8") as out:
        sys.stdout, sys.stderr = out, err
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        start = time.perf_counter()
        try:
            status = cli.run(argv)
        except ItemTimeout:
            status, error = None, f"timed out after {timeout_s} s"
        except Exception:
            status, error = None, traceback.format_exc(limit=4)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            sys.stdout, sys.stderr = stdout, stderr
    if error is None and status != 0:
        error = f"exit status {status}: {err.getvalue()[-500:]}"
    return status, elapsed, error


def main(argv: list) -> int:
    plan_path, result_path = Path(argv[0]), Path(argv[1])
    setup_only = "--setup-only" in argv
    spans_path = Path(argv[argv.index("--trace") + 1]) if "--trace" in argv else None

    import groupsum.cli

    source = Path.cwd() / "src" / "groupsum"
    if Path(groupsum.__file__).resolve().parent != source.resolve():
        print(f"groupsum imported from {groupsum.__file__}, not {source}", file=sys.stderr)
        return 2
    plan = json.loads(plan_path.read_text())
    workdir = plan_path.parent
    write_inputs(plan, workdir)

    tracer = bindings = None
    if spans_path is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        bindings = tracing.install(tracer)
    first_item_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    if setup_only:
        result_path.write_text(json.dumps({"first_item_at": first_item_at}))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    items = plan["items"]
    samples = []
    reference_s = []

    def execute(index: int, traced: bool) -> None:
        out_path = workdir / f"out-{index}.txt"
        status, elapsed, error = run_item(groupsum.cli, items[index]["argv"], out_path,
                                          plan["item_timeout_s"])
        samples.append([index, status, elapsed, digest(out_path), error, traced])
        gc.collect()

    def reference() -> None:
        start = time.perf_counter()
        reference_work()
        reference_s.append(time.perf_counter() - start)

    reference()
    if bindings is None:
        for _ in range(plan["passes"]):
            for index in range(len(items)):
                execute(index, False)
                reference()
    else:
        # One pass, each item untraced and traced back to back, the order
        # alternating from item to item, so that the machine's speed drift
        # and any first-call warm-up fall on both sides alike.
        for index in range(len(items)):
            for traced in (False, True) if index % 2 == 0 else (True, False):
                tracing.switch(bindings, traced)
                execute(index, traced)
                tracing.switch(bindings, False)
                reference()

    result = {
        "first_item_at": first_item_at,
        "samples": samples,
        "reference_s": reference_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.write_spans(spans_path)
        result["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "counters": dict(tracer.counters),
            "spans": len(tracer.spans),
        }
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
