"""Coordinator: drains the job queue through remote lease-holding workers.

Drop-in replacement for :class:`~repro.service.worker.JobWorker` when the
service runs with ``--fleet``: instead of executing tasks in-process, it
expands each claimed job, registers the unfinished task indices with a
:class:`~repro.fleet.leases.LeaseTable`, and lets ``repro work`` drainer
processes pull leases over HTTP.  Completions stream back through
:meth:`complete`, which folds each result into the job's store and event
feed exactly the way ``run_campaign`` would have:

* **resume** — task fingerprints with an ``ok`` record in the job's store
  are seeded as ``skipped`` results before anything is leased;
* **in-order store flush** — results arrive in completion order but are
  appended to the JSONL store in task order (buffered until contiguous),
  so ``render_report`` output stays byte-identical to a serial run;
* **exactly-once** — the lease table's first-wins acceptance plus a
  janitor thread that reclaims expired leases guarantee every task's
  result is recorded exactly once even when workers are SIGKILLed.

The coordinator holds no worker processes itself: ``job_slots`` concurrent
jobs only bounds how many jobs it exposes to the fleet at once.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..obs import MetricsRegistry, emit
from ..runner.cache import ArtifactCache, default_cache_dir
from ..runner.executor import TaskResult, append_result
from ..runner.store import ResultStore
from ..service.jobs import Job, JobQueue
from .leases import DEFAULT_LEASE_TTL_S, LeaseError, LeaseTable, TaskLease
from .wire import result_from_wire

__all__ = ["FleetCoordinator", "FleetConflict"]


class FleetConflict(Exception):
    """A completion whose payload contradicts the lease (HTTP 409)."""


@dataclass
class _FleetJob:
    """One claimed job's in-flight bookkeeping."""

    job: Job
    tasks: list  # expanded AttackTask list, index-aligned with the lease table
    fingerprints: List[str]
    results: Dict[int, TaskResult] = field(default_factory=dict)
    next_flush: int = 0  # first task index not yet appended to the store
    store: Optional[ResultStore] = None
    finished: bool = False


class FleetCoordinator:
    """Claims jobs and brokers their tasks to HTTP drainers via leases."""

    #: ``render_metrics`` reads ``worker.job_slots`` for the slots gauge;
    #: the coordinator executes nothing in-process, so it reports 0.
    job_slots = 0

    def __init__(
        self,
        queue: JobQueue,
        *,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        max_active_jobs: int = 1,
        cache_dir=None,
        use_cache: bool = True,
        cache_max_bytes: Optional[int] = None,
        cache_max_age_s: Optional[float] = None,
        echo: Optional[Callable[[str], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
        on_job_finished: Optional[Callable[[Job], None]] = None,
    ):
        self.queue = queue
        #: Fired after the completion flush lands a job in a terminal
        #: status (the service hangs its warehouse ingest here).  Exceptions
        #: are swallowed: post-processing must never change a job's outcome.
        self.on_job_finished = on_job_finished
        self.metrics = metrics if metrics is not None else queue.metrics
        self.lease_ttl_s = max(0.1, float(lease_ttl_s))
        self.max_active_jobs = max(1, int(max_active_jobs))
        self.cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
        self.use_cache = use_cache
        self.cache_max_bytes = cache_max_bytes
        self.cache_max_age_s = cache_max_age_s
        self.echo = echo if echo is not None else (lambda message: None)
        # on_expire fires for *every* reclaim, including the lazy sweeps a
        # worker's claim/renew/complete triggers — without it the metric
        # and stream event would only cover janitor-observed expiries.
        self.leases = LeaseTable(
            default_ttl_s=self.lease_ttl_s,
            clock=clock,
            on_expire=self._on_leases_expired,
        )
        self._lock = threading.Lock()
        self._jobs: Dict[str, _FleetJob] = {}
        #: Workers ever seen, so utilisation gauges zero out when one leaves.
        self._seen_workers: set = set()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # Lifecycle (mirrors JobWorker.start/stop so CampaignService can swap)
    def start(self) -> None:
        self._threads = [t for t in self._threads if t.is_alive()]
        if self._threads:
            return
        self._stop.clear()
        for name, target in (
            ("repro-fleet-dispatch", self._dispatch_loop),
            ("repro-fleet-janitor", self._janitor_loop),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = [t for t in self._threads if t.is_alive()]

    def _log(self, message: str, *, job: Optional[Job] = None, **fields) -> None:
        emit(
            self.echo,
            message,
            component="fleet",
            job_id=job.job_id if job is not None else None,
            **fields,
        )

    # ------------------------------------------------------------------
    # Dispatch: claim jobs and expose their tasks to the fleet
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                slots_free = len(self._jobs) < self.max_active_jobs
            if not slots_free:
                self._stop.wait(0.2)
                continue
            job = self.queue.claim(timeout=0.2)
            if job is not None:
                try:
                    self._open_job(job)
                except Exception as exc:  # noqa: BLE001 - job isolation
                    self.queue.finish(
                        job, "failed", error=f"{type(exc).__name__}: {exc}"
                    )

    def _open_job(self, job: Job) -> None:
        self._log(
            f"job {job.job_id} ({job.spec.name}): offering to fleet",
            job=job,
            name=job.spec.name,
        )
        try:
            tasks = job.spec.expand()
        except Exception as exc:  # noqa: BLE001 - job isolation is the contract
            self.queue.finish(job, "failed", error=f"{type(exc).__name__}: {exc}")
            return
        if not tasks:
            self.queue.finish(job, "failed", error="campaign expanded to zero tasks")
            return
        self.queue.set_total(job, len(tasks))
        fingerprints = [task.fingerprint() for task in tasks]
        store = ResultStore(job.store_path)
        fleet_job = _FleetJob(
            job=job, tasks=tasks, fingerprints=fingerprints, store=store
        )
        # Resume: anything with an ok record in the job's own store was
        # finished by a previous life of this service — report it skipped,
        # exactly as run_campaign(resume=True) would.
        done_fingerprints = {
            fingerprint
            for fingerprint, record in store.latest().items()
            if record.get("status") == "ok"
        }
        pending: List[Tuple[int, str]] = []
        skipped: List[Tuple[int, TaskResult]] = []
        for index, (task, fingerprint) in enumerate(zip(tasks, fingerprints)):
            if fingerprint in done_fingerprints:
                skipped.append(
                    (
                        index,
                        TaskResult(
                            task_id=task.task_id,
                            fingerprint=fingerprint,
                            status="skipped",
                        ),
                    )
                )
            else:
                pending.append((index, fingerprint))
        with self._lock:
            self._jobs[job.job_id] = fleet_job
        # Register claimable work before seeding skips: _record may
        # finalize (all-skipped job), and finalize unregisters.
        self.leases.register(job.job_id, pending)
        for index, result in skipped:
            self._record(fleet_job, index, result)
        if pending:
            self._log(
                f"job {job.job_id}: {len(pending)} task(s) claimable, "
                f"{len(skipped)} already complete",
                job=job,
            )

    # ------------------------------------------------------------------
    # Janitor: expiry reclaim, cancellation sweep
    def _janitor_loop(self) -> None:
        interval = max(0.05, min(1.0, self.lease_ttl_s / 4.0))
        while not self._stop.is_set():
            try:
                self._sweep()
            except Exception as exc:  # noqa: BLE001 - keep the janitor alive
                self._log(f"janitor sweep failed: {type(exc).__name__}: {exc}")
            self._stop.wait(interval)

    def _on_leases_expired(self, expired: List[TaskLease]) -> None:
        """LeaseTable ``on_expire`` hook: account for every reclaim."""
        for lease in expired:
            self.metrics.inc("repro_fleet_leases_total", event="reclaimed")
            with self._lock:
                fleet_job = self._jobs.get(lease.job_id)
            if fleet_job is not None:
                self.queue.emit_event(
                    fleet_job.job,
                    "lease_reclaimed",
                    index=lease.task_index,
                    worker=lease.worker,
                    renewals=lease.renewals,
                )
            self._log(
                f"lease on task {lease.task_index} of job {lease.job_id} "
                f"expired (worker {lease.worker}); task re-queued",
            )

    def _sweep(self) -> None:
        self.leases.reclaim_expired()  # accounting happens in on_expire
        with self._lock:
            cancelling = [
                fj for fj in self._jobs.values() if fj.job.cancel_event.is_set()
            ]
        for fleet_job in cancelling:
            for index in self.leases.cancel_pending(fleet_job.job.job_id):
                task = fleet_job.tasks[index]
                self._record(
                    fleet_job,
                    index,
                    TaskResult(
                        task_id=task.task_id,
                        fingerprint=fleet_job.fingerprints[index],
                        status="cancelled",
                        error="campaign cancelled before the task started",
                    ),
                )

    # ------------------------------------------------------------------
    # HTTP-facing operations (called by the API layer)
    def claim_leases(
        self, worker: str, *, limit: int = 1, ttl_s: Optional[float] = None
    ) -> List[Dict[str, object]]:
        """Lease up to ``limit`` tasks to ``worker``; returns wire payloads."""
        if not worker:
            raise ValueError("worker name must be non-empty")
        ttl = self.lease_ttl_s if ttl_s is None else max(0.1, float(ttl_s))
        granted = self.leases.claim(worker, limit=limit, ttl_s=ttl)
        self._seen_workers.add(worker)
        payloads: List[Dict[str, object]] = []
        for lease in granted:
            self.metrics.inc("repro_fleet_leases_total", event="granted")
            with self._lock:
                fleet_job = self._jobs.get(lease.job_id)
            if fleet_job is None:  # job torn down between claim and here
                continue
            self.queue.emit_event(
                fleet_job.job, "lease_granted", index=lease.task_index, worker=worker
            )
            payload = lease.to_json_dict()
            payload.update(
                ttl_s=ttl,
                job_submitted_at=fleet_job.job.submitted_at,
            )
            payloads.append(payload)
        return payloads

    def heartbeat(
        self, lease_id: str, worker: str, *, ttl_s: Optional[float] = None
    ) -> Dict[str, object]:
        lease = self.leases.renew(lease_id, worker, ttl_s=ttl_s)
        self.metrics.inc("repro_fleet_leases_total", event="renewed")
        return lease.to_json_dict()

    def release(self, lease_id: str, worker: str) -> Dict[str, object]:
        lease = self.leases.release(lease_id, worker)
        self.metrics.inc("repro_fleet_leases_total", event="released")
        return lease.to_json_dict()

    def complete(
        self, lease_id: str, worker: str, payload: Dict[str, object]
    ) -> Dict[str, object]:
        """Accept a drainer's finished task.  Raises on contradictions.

        ``ValueError`` for malformed payloads (400), :class:`FleetConflict`
        when the result's fingerprint does not match the leased task (409 —
        the lease is released so the task re-runs), :class:`LeaseError`
        for unknown/foreign leases.
        """
        result = result_from_wire(payload)
        lease = self.leases.get(lease_id)
        if lease is None:
            raise LeaseError("unknown_lease", f"unknown lease {lease_id!r}")
        with self._lock:
            fleet_job = self._jobs.get(lease.job_id)
        if fleet_job is None:
            raise LeaseError(
                "unknown_lease", f"lease {lease_id!r} has no active job"
            )
        expected = fleet_job.fingerprints[lease.task_index]
        if result.fingerprint != expected:
            try:
                self.leases.release(lease_id, worker)
            except LeaseError:
                pass  # already expired/terminal; the janitor re-queues it
            raise FleetConflict(
                f"result fingerprint {result.fingerprint[:16]}... does not match "
                f"task {lease.task_index} (expected {expected[:16]}...)"
            )
        lease, accepted, duplicate = self.leases.complete(lease_id, worker)
        if accepted:
            self.metrics.inc("repro_fleet_leases_total", event="completed")
            self._record(fleet_job, lease.task_index, result)
        else:
            self.metrics.inc("repro_fleet_leases_total", event="duplicate")
        return {
            "accepted": accepted,
            "duplicate": duplicate,
            "lease": lease.to_json_dict(),
        }

    def job_tasks_payload(self, job_id: str) -> Optional[Dict[str, object]]:
        """The spec payload drainers expand to recover task objects."""
        job = self.queue.get(job_id)
        if job is None:
            return None
        return {
            "job_id": job.job_id,
            "spec": job.spec.to_json_dict(),
        }

    # ------------------------------------------------------------------
    # Result recording (in-order flush + finalize)
    def _record(self, fleet_job: _FleetJob, index: int, result: TaskResult) -> None:
        with self._lock:
            if fleet_job.finished or index in fleet_job.results:
                return
            fleet_job.results[index] = result
            # Flush the contiguous prefix to the store in task order so the
            # JSONL — and therefore the rendered report — matches what a
            # serial single-worker run would have written.  Skipped tasks
            # already have their record from the previous run.
            while fleet_job.next_flush in fleet_job.results:
                flushing = fleet_job.results[fleet_job.next_flush]
                if flushing.status != "skipped":
                    append_result(
                        fleet_job.store,
                        fleet_job.tasks[fleet_job.next_flush],
                        flushing,
                    )
                fleet_job.next_flush += 1
            done = len(fleet_job.results)
            total = len(fleet_job.tasks)
        self.queue.record_progress(fleet_job.job, result, index=index, total=total)
        self.metrics.inc("repro_fleet_tasks_total", status=result.status)
        if done >= total:
            self._finalize(fleet_job)

    def _finalize(self, fleet_job: _FleetJob) -> None:
        with self._lock:
            if fleet_job.finished:
                return
            fleet_job.finished = True
            results = [fleet_job.results[i] for i in sorted(fleet_job.results)]
            del self._jobs[fleet_job.job.job_id]
        self.leases.unregister(fleet_job.job.job_id)
        job = fleet_job.job
        cancelled = [r for r in results if r.status == "cancelled"]
        failed = [r for r in results if not r.ok and r.status != "cancelled"]
        if cancelled:
            self.queue.finish(
                job,
                "cancelled",
                error=f"cancelled with {len(cancelled)} task(s) unfinished",
            )
        elif failed:
            self.queue.finish(
                job,
                "failed",
                error=f"{len(failed)} of {len(results)} task(s) failed: "
                + "; ".join(f"{r.task_id}: {r.error}" for r in failed[:3]),
            )
        else:
            self.queue.finish(job, "done")
        self._log(
            f"job {job.job_id} ({job.spec.name}): {job.status}",
            job=job,
            status=job.status,
        )
        if self.on_job_finished is not None:
            try:
                self.on_job_finished(job)
            except Exception as exc:  # noqa: BLE001 - never sink the flush
                self._log(
                    f"job {job.job_id}: post-finish hook failed: {exc}",
                    job=job,
                    error=str(exc),
                )
        self._gc_between_jobs()

    def _gc_between_jobs(self) -> None:
        if self.cache_max_bytes is None and self.cache_max_age_s is None:
            return
        if not self.use_cache:
            return
        cache = ArtifactCache(self.cache_dir)
        evicted = cache.gc(
            max_bytes=self.cache_max_bytes, max_age_s=self.cache_max_age_s
        )
        if evicted:
            freed = sum(entry.size_bytes for entry in evicted)
            self._log(
                f"cache gc: evicted {len(evicted)} artifact(s), {freed} bytes",
                evicted=len(evicted),
                freed_bytes=freed,
            )

    # ------------------------------------------------------------------
    # Observability
    def fleet_gauges(self) -> Dict[str, object]:
        """Gauge snapshot for ``/metricsz``: queue depth and utilisation."""
        active = self.leases.worker_active()
        return {
            "tasks_pending": self.leases.pending_count(),
            "leases_active": self.leases.active_count(),
            "workers_seen": len(self._seen_workers),
            "worker_active": {
                name: active.get(name, 0) for name in sorted(self._seen_workers)
            },
        }
