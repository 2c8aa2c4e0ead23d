"""The coordinator as ``run_campaign``'s task backend, without HTTP.

Drainer threads call :meth:`FleetCoordinator.claim_leases` and
:meth:`~FleetCoordinator.complete` directly while ``run_campaign`` waits on
the lease-backed futures, so thread interleavings between the two sides are
exercised far more densely than over loopback HTTP.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading

from service_helpers import summary_spec

from repro.fleet import FleetCoordinator, LeaseError
from repro.fleet.wire import result_to_wire
from repro.runner import ResultStore, TaskResult, run_campaign
from repro.service import JobQueue

#: 3 schemes x 2 key-size groups x 3 targets, all distinct fingerprints.
WIDE_SPEC = dataclasses.replace(
    summary_spec("fleet-stress", targets=("c2670", "c3540", "c5315")),
    schemes=("antisat", "ttlock", "sarlock"),
    key_size_groups=((8,), (16,)),
)


def _drain(coordinator, name, stop, seed, errors):
    """Claim, then randomly release or complete (twice, to force duplicates).

    A ``LeaseError`` is what a drainer gets once the finished job is torn
    down under it; it abandons that lease, as ``repro work`` does.
    """
    rng = random.Random(seed)
    try:
        while not stop.is_set():
            for lease in coordinator.claim_leases(name, limit=rng.randint(1, 3)):
                result = TaskResult(
                    task_id=f"task-{lease['task_index']}",
                    fingerprint=lease["fingerprint"],
                    status="ok",
                    record={"index": lease["task_index"]},
                )
                try:
                    if rng.random() < 0.3:
                        coordinator.release(lease["lease_id"], name)
                        continue
                    for _ in range(2):
                        coordinator.complete(
                            lease["lease_id"], name, result_to_wire(result)
                        )
                except LeaseError:
                    continue
    except Exception as exc:  # noqa: BLE001 - surfaced by the test
        errors.append(exc)


def test_concurrent_drainers_resolve_each_task_once_in_order(tmp_path):
    queue = JobQueue(tmp_path / "state")
    job, _ = queue.submit(WIDE_SPEC)
    tasks = WIDE_SPEC.expand()
    coordinator = FleetCoordinator(queue)
    store = ResultStore(tmp_path / "store.jsonl")
    stop, errors = threading.Event(), []
    drainers = [
        threading.Thread(
            target=_drain, args=(coordinator, f"w{i}", stop, i, errors), daemon=True
        )
        for i in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in drainers:
            thread.start()
        results = run_campaign(
            tasks, store=store, executor=coordinator.executor_for(job)
        )
    finally:
        stop.set()
        for thread in drainers:
            thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in drainers)
    assert errors == []
    assert [r.fingerprint for r in results] == [t.fingerprint() for t in tasks]
    assert [r.record["index"] for r in results] == list(range(len(tasks)))
    # In task order in the store, exactly once each, whatever the races.
    assert [rec["index"] for rec in store.load()] == list(range(len(tasks)))
    assert coordinator.metrics.value(
        "repro_fleet_tasks_total", status="ok"
    ) == len(tasks)
    assert coordinator.fleet_gauges()["tasks_pending"] == 0
