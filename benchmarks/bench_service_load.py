"""Load / soak harness for the campaign service (``repro.service``).

Fires N concurrent clients at a **live** :class:`CampaignService` (real
loopback HTTP, auth enabled, one token per client) and checks the service's
invariants under contention:

* **no lost or duplicated jobs** — every submission lands exactly once;
  the admin listing holds exactly the submitted fingerprints;
* **disjoint owner views** — each client's listing holds exactly its own
  jobs;
* **reports byte-identical to direct runs** — fetched reports diff clean
  against offline ``run_campaign`` renders of the same specs.

The workload is the synthetic-fast ``dataset-summary`` attack (no GNN
training; ~10ms/task warm-cache), so the measured numbers are dominated by
the service itself: submit latency percentiles (p50/p95) and end-to-end
jobs/second.  Results land in ``BENCH_service_load.json`` next to the
repository root to seed the service-throughput trajectory, together with an
end-of-run ``/metricsz`` snapshot (aggregate series only) cross-checking the
client-side numbers against the service's own telemetry.

The invariants and a generous p95 submit-latency bound (2s — loopback JSON
handling, three orders of magnitude of headroom) are asserted on every run;
``REPRO_BENCH_STRICT=1`` additionally gates the throughput floor, which is
too hardware-dependent for shared CI runners.

Run directly::

    PYTHONPATH=src python benchmarks/bench_service_load.py                # defaults
    PYTHONPATH=src python benchmarks/bench_service_load.py --clients 16 --jobs-per-client 4
    PYTHONPATH=src python benchmarks/bench_service_load.py --soak-seconds 30
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import AttackConfig  # noqa: E402
from repro.obs import parse_prometheus  # noqa: E402
from repro.runner import CampaignSpec, ResultStore, render_report, run_campaign  # noqa: E402
from repro.service import CampaignService, ServiceClient  # noqa: E402

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service_load.json"

#: Throughput floor gated only under REPRO_BENCH_STRICT=1.
STRICT_MIN_JOBS_PER_S = 2.0

#: Always-asserted bound on p95 submit latency (loopback JSON handling).
MAX_P95_SUBMIT_S = 2.0

TINY_CONFIG = AttackConfig(locks_per_setting=1, iscas_key_sizes=(8,), seed=5)


def fast_spec(name: str) -> CampaignSpec:
    """A one-task ``dataset-summary`` campaign.

    Every spec shares one :class:`DatasetSpec` fingerprint (same benchmarks,
    key sizes, seed), so the generated dataset is cached once and the load
    phase measures the service, not dataset generation.
    """
    return CampaignSpec(
        name=name,
        schemes=("antisat",),
        benchmarks=("c2670", "c3540", "c5315"),
        targets=("c2670",),
        key_size_groups=((8,),),
        attacks=("dataset-summary",),
        config=TINY_CONFIG,
    )


def write_tokens_file(path: Path, n_clients: int) -> Dict[str, str]:
    """Tokens file for a load run; returns ``{principal: secret}``.

    One submit token per load client and an admin token.
    """
    entries: Dict[str, Dict[str, object]] = {
        "tok-admin": {"name": "admin", "role": "admin"},
    }
    for i in range(n_clients):
        entries[f"tok-client-{i}"] = {"name": f"client-{i}", "role": "submit"}
    path.write_text(json.dumps({"tokens": entries}, indent=2), encoding="utf-8")
    return {info["name"]: secret for secret, info in entries.items()}  # type: ignore[index]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1])."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Load phase: concurrent-client throughput + lost/duplicate/report invariants.
# ----------------------------------------------------------------------
def run_load_phase(
    service: CampaignService,
    secrets: Dict[str, str],
    *,
    clients: int,
    jobs_per_client: int,
    offline_checks: int = 2,
    offline_dir: Optional[Path] = None,
) -> Dict[str, object]:
    """N concurrent clients submit distinct campaigns and wait them out."""
    specs = {
        (c, j): fast_spec(f"load-c{c}-j{j}")
        for c in range(clients)
        for j in range(jobs_per_client)
    }
    latencies: List[float] = []
    submitted: Dict[str, List[str]] = {}  # client name -> job ids, in order
    errors: List[str] = []
    lock = threading.Lock()
    barrier = threading.Barrier(clients)

    def one_client(c: int) -> None:
        client = ServiceClient(service.url, token=secrets[f"client-{c}"])
        ids: List[str] = []
        barrier.wait()
        for j in range(jobs_per_client):
            begin = time.monotonic()
            try:
                response = client.submit(specs[(c, j)])
            except Exception as exc:  # noqa: BLE001 - collected, not raised mid-thread
                with lock:
                    errors.append(f"client-{c} job {j}: {exc}")
                return
            elapsed = time.monotonic() - begin
            with lock:
                latencies.append(elapsed)
            if not response["created"]:
                with lock:
                    errors.append(f"client-{c} job {j}: deduped unexpectedly")
            ids.append(str(response["job"]["job_id"]))
        with lock:
            submitted[f"client-{c}"] = ids

    begin = time.monotonic()
    threads = [
        threading.Thread(target=one_client, args=(c,), name=f"load-client-{c}")
        for c in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, f"client errors: {errors[:5]}"

    all_ids = [job_id for ids in submitted.values() for job_id in ids]
    total = clients * jobs_per_client
    no_duplicates = len(set(all_ids)) == len(all_ids) == total

    # Wait every job to done over the stream endpoint.
    admin = ServiceClient(service.url, token=secrets["admin"])
    finals = {job_id: admin.wait(job_id, timeout=300.0) for job_id in all_ids}
    wall_s = time.monotonic() - begin
    all_done = all(final["status"] == "done" for final in finals.values())
    progress_ok = all(
        final["progress"]["tasks_done"] == final["progress"]["tasks_total"]
        and final["progress"]["tasks_failed"] == 0
        for final in finals.values()
    )

    # No lost jobs: the admin listing holds exactly the submitted ids (the
    # load principals own nothing else), and each client sees exactly its own.
    listed = {
        snap["job_id"]
        for snap in admin.jobs()
        if any(owner.startswith("client-") for owner in snap["owners"])
    }
    no_lost = listed == set(all_ids)
    own_view_ok = all(
        {snap["job_id"] for snap in ServiceClient(service.url, token=secrets[name]).jobs()}
        == set(ids)
        for name, ids in submitted.items()
    )

    # Fetched reports diff clean against direct offline runs (same cache).
    reports_match = True
    check_keys = sorted(specs)[: max(0, offline_checks)]
    offline_root = Path(offline_dir or tempfile.mkdtemp(prefix="repro-load-offline-"))
    for key in check_keys:
        spec = specs[key]
        store = ResultStore(offline_root / f"{spec.name}.jsonl")
        run_campaign(
            spec.expand(),
            serial=True,
            cache_dir=service.worker.cache_dir,
            store=store,
        )
        offline = render_report(list(store.latest().values()))
        job_id = submitted[f"client-{key[0]}"][key[1]]
        if admin.report(job_id) != offline:
            reports_match = False

    return {
        "clients": clients,
        "jobs_per_client": jobs_per_client,
        "total_jobs": total,
        "wall_s": wall_s,
        "jobs_per_s": total / wall_s if wall_s > 0 else float("inf"),
        "submit_latency_s": {
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "max": max(latencies) if latencies else float("nan"),
        },
        "invariants": {
            "no_duplicate_jobs": no_duplicates,
            "no_lost_jobs": no_lost,
            "all_done": all_done,
            "progress_consistent": progress_ok,
            "owner_views_disjoint": own_view_ok,
            "reports_match_offline": reports_match,
        },
    }


# ----------------------------------------------------------------------
# Optional soak: sustained submit/wait cycles, stability over time.
# ----------------------------------------------------------------------
def run_soak_phase(
    service: CampaignService,
    secrets: Dict[str, str],
    *,
    duration_s: float,
    clients: int = 4,
) -> Dict[str, object]:
    stop_at = time.monotonic() + duration_s
    cycles = [0] * clients
    errors: List[str] = []

    def one_client(c: int) -> None:
        client = ServiceClient(service.url, token=secrets[f"client-{c}"])
        i = 0
        while time.monotonic() < stop_at:
            spec = fast_spec(f"soak-c{c}-i{i}")
            try:
                job_id = client.submit(spec)["job"]["job_id"]
                final = client.wait(job_id, timeout=120.0)
                if final["status"] != "done":
                    errors.append(f"soak client-{c} cycle {i}: {final['status']}")
                    return
            except Exception as exc:  # noqa: BLE001 - collected, not raised mid-thread
                errors.append(f"soak client-{c} cycle {i}: {exc}")
                return
            cycles[c] += 1
            i += 1

    threads = [threading.Thread(target=one_client, args=(c,)) for c in range(clients)]
    begin = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - begin
    healthy = ServiceClient(service.url, token=secrets["admin"]).health()
    return {
        "duration_s": wall,
        "clients": clients,
        "cycles": sum(cycles),
        "cycles_per_s": sum(cycles) / wall if wall > 0 else float("inf"),
        "errors": errors,
        "service_healthy_after": healthy.get("status") == "ok",
    }


# ----------------------------------------------------------------------
def run_bench(
    *,
    clients: int = 8,
    jobs_per_client: int = 3,
    job_slots: int = 2,
    soak_seconds: float = 0.0,
    offline_checks: int = 2,
    root: Optional[Path] = None,
) -> Dict[str, object]:
    """Full harness: live service, load phase, optional soak."""
    root = Path(root or tempfile.mkdtemp(prefix="repro-service-load-"))
    tokens_path = root / "tokens.json"
    secrets = write_tokens_file(tokens_path, max(clients, 4))
    service = CampaignService(
        root / "state",
        port=0,
        job_slots=job_slots,
        task_workers=1,
        cache_dir=root / "cache",
        tokens_file=tokens_path,
    )
    service.start()
    try:
        results: Dict[str, object] = {
            "bench": "service_load",
            "job_slots": job_slots,
        }
        results["load"] = run_load_phase(
            service,
            secrets,
            clients=clients,
            jobs_per_client=jobs_per_client,
            offline_checks=offline_checks,
            offline_dir=root / "offline",
        )
        if soak_seconds > 0:
            results["soak"] = run_soak_phase(
                service, secrets, duration_s=soak_seconds, clients=min(clients, 4)
            )
        results["metrics"] = scrape_metrics(service, secrets)
        return results
    finally:
        service.stop()


def scrape_metrics(
    service: CampaignService, secrets: Dict[str, str]
) -> Dict[str, float]:
    """End-of-run ``/metricsz`` snapshot: the series a dashboard would chart.

    Scraped through the admin token (the endpoint is admin-only under auth)
    and filtered to the aggregate series so the JSON stays diffable — the
    per-principal counters vary with ``--clients``.
    """
    parsed = parse_prometheus(
        ServiceClient(service.url, token=secrets["admin"]).metrics()
    )
    keep = (
        "repro_service_jobs{",
        "repro_service_jobs_finished_total{",
        "repro_service_claims_total",
        "repro_service_tasks_total{",
        "repro_service_job_queue_wait_seconds_count",
        "repro_service_job_run_seconds_count",
        "repro_service_event_feed_depth",
        "repro_service_worker_slots",
    )
    return {
        series: value
        for series, value in sorted(parsed.items())
        if series.startswith(keep)
    }


def check_results(results: Dict[str, object], *, strict: bool) -> List[str]:
    """Invariant failures (always) + throughput-floor failures (strict)."""
    failures: List[str] = []
    load = results["load"]
    for name, ok in load["invariants"].items():  # type: ignore[index]
        if not ok:
            failures.append(f"load invariant violated: {name}")
    p95 = load["submit_latency_s"]["p95"]  # type: ignore[index]
    if not p95 < MAX_P95_SUBMIT_S:
        failures.append(f"p95 submit latency {p95:.3f}s >= {MAX_P95_SUBMIT_S}s")
    soak = results.get("soak")
    if soak and (soak["errors"] or not soak["service_healthy_after"]):
        failures.append(f"soak failures: {soak['errors'][:3]}")
    if strict:
        jobs_per_s = load["jobs_per_s"]  # type: ignore[index]
        if jobs_per_s < STRICT_MIN_JOBS_PER_S:
            failures.append(
                f"throughput {jobs_per_s:.2f} jobs/s < {STRICT_MIN_JOBS_PER_S}"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--jobs-per-client", type=int, default=3)
    parser.add_argument("--job-slots", type=int, default=2)
    parser.add_argument("--offline-checks", type=int, default=2)
    parser.add_argument("--soak-seconds", type=float, default=0.0)
    parser.add_argument("--out", type=Path, default=RESULT_PATH)
    args = parser.parse_args(argv)

    results = run_bench(
        clients=args.clients,
        jobs_per_client=args.jobs_per_client,
        job_slots=args.job_slots,
        soak_seconds=args.soak_seconds,
        offline_checks=args.offline_checks,
    )
    load = results["load"]
    latency = load["submit_latency_s"]  # type: ignore[index]
    print(
        f"service load: {load['total_jobs']} job(s) from {load['clients']} "  # type: ignore[index]
        f"client(s) in {load['wall_s']:.2f}s "  # type: ignore[index]
        f"({load['jobs_per_s']:.1f} jobs/s)"  # type: ignore[index]
    )
    print(
        f"submit latency: p50 {latency['p50'] * 1000:.1f}ms  "
        f"p95 {latency['p95'] * 1000:.1f}ms  max {latency['max'] * 1000:.1f}ms"
    )
    if "soak" in results:
        soak = results["soak"]
        print(
            f"soak: {soak['cycles']} cycle(s) over {soak['duration_s']:.1f}s, "
            f"{len(soak['errors'])} error(s)"
        )
    args.out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"results -> {args.out}")

    failures = check_results(
        results, strict=os.environ.get("REPRO_BENCH_STRICT") == "1"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
