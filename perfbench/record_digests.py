"""Write digests.json: the stdout digest of every default-seed item.

    python3 perfbench/record_digests.py

Runs each workload's default-seed plan untraced (two passes), requires every
item to pass its output checks, and records the SHA-256 of each item's
stdout by label. run.py then fails any item, on any seed, whose label is
recorded and whose stdout differs, which holds later commits to
byte-identical output.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    root = run.HERE.parent
    recorded = {}
    for name in workloads.WORKLOADS:
        workdir = run.HERE / ".work" / f"record-{name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            plan = workloads.make_plan(name, run.DEFAULT_SEED, 0,
                                       workdir.relative_to(root).as_posix())
            (workdir / "plan.json").write_text(json.dumps(plan))
            deadline = run.run_deadline(time.clock_gettime(time.CLOCK_MONOTONIC), name,
                                        plan["passes"])
            result, _ = run.run_child(root, workdir, "record", deadline=deadline)
            failures = [o for o in run.check_run(plan, result["samples"], workdir)
                        if o is not None]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if failures:
            print(f"{name}: {failures[:5]}", file=sys.stderr)
            return 1
        recorded[name] = {plan["items"][s[0]]["label"]: s[3] for s in result["samples"]}
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
