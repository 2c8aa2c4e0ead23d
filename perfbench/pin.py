#!/usr/bin/env python3
"""Rewrite ``perfbench/pinned.json`` from one default-seed pass per workload.

The matrix is pinned at each run size: timed, traced and ``--smoke``.

Run from the repository root after a change that deliberately alters
results (``python3 perfbench/pin.py``); review the diff before committing.
The benchmark compares every default-seed ``attack`` pass to the pinned
report digest and every default-seed ``matrix`` pass to the pinned cells.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=run.WORK_ROOT))
    try:
        run.configure_environment(work)
        from repro.runner import ResultStore, build_matrix, render_report, run_campaign
        from workloads import DEFAULT_SEED, AttackWorkload, MatrixWorkload

        pins = {}
        variants = [AttackWorkload(DEFAULT_SEED)] + [
            MatrixWorkload(DEFAULT_SEED, smoke=smoke, trace=trace)
            for smoke, trace in ((False, False), (False, True), (True, False))
        ]
        for workload in variants:
            label = getattr(workload, "pin_key", workload.name)
            state = workload.setup(work / label)
            store = ResultStore(work / f"{label}.jsonl")
            results = run_campaign(
                workload.tasks, cache_dir=state["cache_dir"], serial=True, store=store
            )
            failed = [r.task_id for r in results if not r.ok]
            if failed:
                print(f"error: tasks failed: {failed}", file=sys.stderr)
                return 1
            records = store.load()
            if isinstance(workload, AttackWorkload):
                pins["attack_report_sha256"] = hashlib.sha256(
                    render_report(records).encode()
                ).hexdigest()
            else:
                pins[workload.pin_key] = json.loads(json.dumps(build_matrix(records)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "pinned.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
