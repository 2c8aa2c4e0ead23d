"""Distributed fleet benchmark: drainer scaling + kill -9 fault injection.

Starts a ``CampaignService(fleet=True)`` in-process, spawns real
``python -m repro work`` drainer subprocesses against it, and measures a
campaign of dataset-summary and GNNUnlock tasks end to end (every phase
trains models and pushes them to the service, and a drainer that needs a
model first tries to fetch it):

* **scaling** — wall time and tasks/s at 1, 2 and 4 drainers (fresh state
  and cache per size, so no cross-run artifact reuse flatters the numbers);
* **fault injection** — 2 drainers, one SIGKILLed as soon as it holds a
  lease; the run must still complete every task exactly once (lease
  reclaim re-queues the orphaned task) with a report byte-identical to
  the serial reference.

Every phase asserts byte-identity of the job's rendered report against an
offline ``run_campaign(serial=True)`` reference — the fleet must be an
execution strategy, never an answer-changing one.

Emits ``BENCH_fleet.json`` at the repository root.  tasks/s should rise
monotonically with drainer count on a multi-core host; the exit code only
enforces that under ``REPRO_BENCH_STRICT=1`` (single-core runners time-slice
the drainers, so CI records the numbers without gating on them — the
exactly-once and byte-identity assertions always gate).

Run directly::

    PYTHONPATH=src python benchmarks/bench_fleet.py
    REPRO_BENCH_STRICT=1 PYTHONPATH=src python benchmarks/bench_fleet.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.core import AttackConfig  # noqa: E402
from repro.runner import (  # noqa: E402
    CampaignSpec,
    ResultStore,
    profile_config,
    render_report,
    run_campaign,
)
from repro.service import (  # noqa: E402
    TERMINAL_STATUSES,
    CampaignService,
    ServiceClient,
)

RESULT_PATH = ROOT / "BENCH_fleet.json"
DRAINER_COUNTS = (1, 2, 4)
LEASE_TTL_S = 2.0
WAIT_TIMEOUT_S = 600.0


def fleet_spec() -> CampaignSpec:
    """Dataset-summary and GNNUnlock tasks, enough to share around.

    GNNUnlock runs with the quick profile's GNN and with and without
    post-processing; both variants read one trained model, so a drainer
    that did not train it can fetch it from the service.
    """
    config = AttackConfig(
        locks_per_setting=1,
        iscas_key_sizes=(8,),
        seed=11,
        gnn=profile_config("quick").gnn,
    )
    return CampaignSpec(
        name="bench-fleet",
        schemes=("antisat",),
        benchmarks=("c2670", "c3540", "c5315"),
        targets=("c2670", "c3540", "c5315"),
        key_size_groups=((8,), (16,)),
        attacks=("dataset-summary", "gnnunlock"),
        postprocessing=(True, False),
        config=config,
    )


def spawn_drainer(url: str, name: str, cache_dir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "work",
            "--url", url,
            "--name", name,
            "--poll", "0.1",
            "--max-idle", "60",
            "--cache-dir", str(cache_dir),
        ],
        env=env,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def stop_drainers(procs) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def fleet_counters(client: ServiceClient) -> tuple:
    """Lease events, and artifact transfers keyed ``direction:outcome``."""
    leases, transfers = {}, {}
    for line in client.metrics().splitlines():
        name, _, rest = line.partition("{")
        labels = dict(re.findall(r'(\w+)="([^"]*)"', rest))
        if name == "repro_fleet_leases_total":
            leases[labels["event"]] = int(float(line.rsplit(" ", 1)[1]))
        elif name == "repro_fleet_artifact_transfers_total":
            key = f"{labels['direction']}:{labels['outcome']}"
            transfers[key] = int(float(line.rsplit(" ", 1)[1]))
    return leases, transfers


def run_fleet_phase(
    workdir: Path,
    spec: CampaignSpec,
    n_drainers: int,
    reference_report: str,
    *,
    kill_one: bool = False,
) -> dict:
    state = workdir / "state"
    service = CampaignService(
        state,
        port=0,
        fleet=True,
        lease_ttl_s=LEASE_TTL_S,
        cache_dir=workdir / "cache",
    )
    service.start()
    client = ServiceClient(service.url)
    procs = []
    try:
        names = [f"drainer-{i}" for i in range(n_drainers)]
        procs = [
            spawn_drainer(service.url, name, workdir / f"{name}-cache")
            for name in names
        ]
        victim, victim_name = (procs[0], names[0]) if kill_one else (None, None)

        started = time.perf_counter()
        job = client.submit(spec)["job"]

        if kill_one:
            # SIGKILL the victim the moment it holds a lease: no heartbeat,
            # no release — the coordinator must reclaim by TTL expiry.  If
            # the other drainer finishes the job first, the victim dies
            # idle (reclaimed=0) instead of the phase waiting it out.
            deadline = time.monotonic() + WAIT_TIMEOUT_S
            since = 0
            while time.monotonic() < deadline:
                chunk = client.stream(job["job_id"], since=since, timeout=0.5)
                since = chunk["next"]
                if chunk["job"]["status"] in TERMINAL_STATUSES or any(
                    event.get("event") == "lease_granted"
                    and event.get("worker") == victim_name
                    for event in chunk["events"]
                ):
                    break
            victim.send_signal(signal.SIGKILL)
            victim.wait()

        final = client.wait(job["job_id"], timeout=WAIT_TIMEOUT_S)
        wall_s = time.perf_counter() - started

        assert final["status"] == "done", f"job ended {final['status']}"
        records = ResultStore(service.queue.get(job["job_id"]).store_path).load()
        task_ids = [record["task_id"] for record in records]
        exactly_once = len(task_ids) == len(set(task_ids)) == final["progress"][
            "tasks_total"
        ]
        report = client.report(job["job_id"])
        counters, transfers = fleet_counters(client)
        service_models = len(list((workdir / "cache" / "model").glob("*/*.pkl")))
        n_tasks = final["progress"]["tasks_total"]
        return {
            "drainers": n_drainers,
            "wall_s": wall_s,
            "tasks": n_tasks,
            "tasks_per_s": n_tasks / wall_s,
            "exactly_once": bool(exactly_once),
            "report_matches_reference": report == reference_report,
            "lease_counters": counters,
            "artifact_transfers": transfers,
            "service_models": service_models,
            **({"killed": victim_name} if kill_one else {}),
        }
    finally:
        stop_drainers(procs)
        service.stop()


def main() -> int:
    spec = fleet_spec()
    tasks = spec.expand()
    print(f"campaign expands to {len(tasks)} task(s)")

    with tempfile.TemporaryDirectory(prefix="repro-bench-fleet-") as tmp:
        tmpdir = Path(tmp)

        # Serial reference: same spec, ordinary in-process executor.
        reference_store = ResultStore(tmpdir / "reference.jsonl")
        started = time.perf_counter()
        run_campaign(
            tasks,
            serial=True,
            cache_dir=tmpdir / "reference-cache",
            store=reference_store,
        )
        reference_wall = time.perf_counter() - started
        reference = render_report(list(reference_store.latest().values()))
        print(f"serial reference: {reference_wall:.2f} s")

        drainer_results = {}
        for count in DRAINER_COUNTS:
            result = run_fleet_phase(
                tmpdir / f"fleet-{count}", spec, count, reference
            )
            drainer_results[str(count)] = result
            print(
                f"{count} drainer(s): {result['wall_s']:.2f} s "
                f"({result['tasks_per_s']:.2f} tasks/s, "
                f"identical={result['report_matches_reference']})"
            )

        fault = run_fleet_phase(
            tmpdir / "fleet-fault", spec, 2, reference, kill_one=True
        )
        print(
            f"fault injection (kill -9 {fault['killed']}): "
            f"{fault['wall_s']:.2f} s, exactly_once={fault['exactly_once']}, "
            f"reclaimed={fault['lease_counters'].get('reclaimed', 0)}"
        )

    rates = [drainer_results[str(c)]["tasks_per_s"] for c in DRAINER_COUNTS]
    monotonic = all(b >= a for a, b in zip(rates, rates[1:]))
    correct = all(
        row["exactly_once"] and row["report_matches_reference"]
        for row in [*drainer_results.values(), fault]
    )
    report = {
        "bench": "fleet",
        "tasks": len(tasks),
        "lease_ttl_s": LEASE_TTL_S,
        "serial_reference_wall_s": reference_wall,
        "drainers": drainer_results,
        "fault_injection": fault,
        "acceptance": {
            "throughput_monotonic_1_2_4": monotonic,
            "exactly_once_and_byte_identical": correct,
            "pass": bool(monotonic and correct),
        },
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {RESULT_PATH}")

    if not correct:
        return 1  # correctness always gates
    if os.environ.get("REPRO_BENCH_STRICT", "").strip() in ("1", "true", "yes"):
        return 0 if report["acceptance"]["pass"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
