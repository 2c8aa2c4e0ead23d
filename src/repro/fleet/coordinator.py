"""Coordinator: brokers service jobs' tasks to remote drainers as leases.

In ``--fleet`` mode the service still runs every job through
:class:`~repro.service.worker.JobWorker` and ``run_campaign``; only the
task backend changes.  :meth:`FleetCoordinator.executor_for` hands the
runner a per-job :class:`~concurrent.futures.Executor` whose ``submit``
registers the task with a :class:`~repro.fleet.leases.LeaseTable` instead
of starting a process, and ``repro work`` drainer processes pull leases over
HTTP.  A drainer's accepted :meth:`~FleetCoordinator.complete` resolves the
task's future, so resume, in-order store appends, budgets, cancellation and
the job verdict are ``run_campaign``'s own code:

* **exactly-once** — the lease table's first-wins acceptance plus a janitor
  thread that reclaims expired leases resolve every future exactly once
  even when drainers are SIGKILLed;
* **prompt abandonment** — when the runner gives up on a job (cancel,
  budget, crash) it shuts the executor down, which unregisters the job, so
  late completions are rejected like any unknown lease;
* **clean stop** — :meth:`FleetCoordinator.stop` fails every live job's
  unfinished futures with :class:`~repro.service.worker.JobInterrupted`, so
  the job is handed back unfinished for the next start to resume.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict, deque
from concurrent.futures import Executor, Future
from typing import Callable, Deque, Dict, List, Optional

from ..obs import MetricsRegistry, emit
from ..runner.executor import execute_task
from ..service.jobs import Job, JobQueue
from ..service.worker import JobInterrupted
from .leases import DEFAULT_LEASE_TTL_S, LeaseError, LeaseTable, TaskLease
from .wire import result_from_wire

__all__ = ["FleetCoordinator", "FleetConflict"]


class FleetConflict(Exception):
    """A completion whose payload contradicts the lease (HTTP 409)."""


class _LeaseExecutor(Executor):
    """One job's task backend: each submitted task becomes a claimable lease.

    The returned futures stay PENDING until a drainer is first granted the
    task, run until a completion is accepted, and are never executed here.
    """

    def __init__(self, coordinator: "FleetCoordinator", job: Job):
        self._coordinator = coordinator
        self.job = job
        #: fingerprint -> its indices in ``job.spec.expand()``, the order
        #: drainers re-expand the spec in.
        self._indices: Dict[str, Deque[int]] = defaultdict(deque)
        for index, task in enumerate(job.spec.expand()):
            self._indices[task.fingerprint()].append(index)
        #: task index -> the future its completion resolves.
        self.futures: Dict[int, Future] = {}

    def submit(self, fn, /, *args, **kwargs) -> Future:
        if fn is not execute_task:
            raise ValueError("a lease executor only runs execute_task")
        fingerprint = args[0].fingerprint()
        coordinator = self._coordinator
        future: Future = Future()
        with coordinator._lock:
            index = self._indices[fingerprint].popleft()
            self.futures[index] = future
            if coordinator._stop.is_set():  # stopped while the job started
                future.set_exception(JobInterrupted("fleet coordinator stopped"))
                return future
            coordinator._jobs[self.job.job_id] = self
            coordinator.leases.register(self.job.job_id, [(index, fingerprint)])
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        coordinator = self._coordinator
        with coordinator._lock:
            if coordinator._jobs.get(self.job.job_id) is self:
                del coordinator._jobs[self.job.job_id]
                coordinator.leases.unregister(self.job.job_id)
        if cancel_futures:
            for future in self.futures.values():
                future.cancel()

    def interrupt(self) -> None:
        """Fail every unfinished future (the coordinator is stopping)."""
        with self._coordinator._lock:
            for future in self.futures.values():
                if not future.done():
                    future.set_exception(JobInterrupted("fleet coordinator stopped"))


class FleetCoordinator:
    """Brokers each live job's tasks to HTTP drainers via leases."""

    def __init__(
        self,
        queue: JobQueue,
        *,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        echo: Optional[Callable[[str], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.queue = queue
        self.metrics = metrics if metrics is not None else queue.metrics
        self.lease_ttl_s = max(0.1, float(lease_ttl_s))
        self.echo = echo if echo is not None else (lambda message: None)
        # on_expire fires for *every* reclaim, including the lazy sweeps a
        # worker's claim/renew/complete triggers — without it the metric
        # and stream event would only cover janitor-observed expiries.
        self.leases = LeaseTable(
            default_ttl_s=self.lease_ttl_s,
            clock=clock,
            on_expire=self._on_leases_expired,
        )
        #: Guards ``_jobs`` and every lease executor's futures.  Taken
        #: before the lease table's own lock, never while holding it.
        self._lock = threading.Lock()
        #: job_id -> the executor of each job with registered tasks.
        self._jobs: Dict[str, _LeaseExecutor] = {}
        #: Workers ever seen, so utilisation gauges zero out when one leaves.
        self._seen_workers: set = set()
        self._stop = threading.Event()
        self._janitor: Optional[threading.Thread] = None

    def executor_for(self, job: Job) -> Executor:
        """The task backend ``run_campaign`` uses for ``job`` in fleet mode."""
        return _LeaseExecutor(self, job)

    # ------------------------------------------------------------------
    # Lifecycle
    def start(self) -> None:
        if self._janitor is not None and self._janitor.is_alive():
            return
        self._stop.clear()
        self._janitor = threading.Thread(
            target=self._janitor_loop, name="repro-fleet-janitor", daemon=True
        )
        self._janitor.start()

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the janitor and interrupt every live job (see module doc)."""
        self._stop.set()
        with self._lock:
            live = list(self._jobs.values())
        for executor in live:
            executor.interrupt()
        if self._janitor is not None:
            self._janitor.join(timeout)

    def _log(self, message: str, **fields) -> None:
        emit(self.echo, message, component="fleet", **fields)

    # ------------------------------------------------------------------
    # Janitor: expiry reclaim
    def _janitor_loop(self) -> None:
        interval = max(0.05, min(1.0, self.lease_ttl_s / 4.0))
        while not self._stop.is_set():
            try:
                self.leases.reclaim_expired()  # accounting happens in on_expire
            except Exception as exc:  # noqa: BLE001 - keep the janitor alive
                self._log(f"janitor sweep failed: {type(exc).__name__}: {exc}")
            self._stop.wait(interval)

    def _on_leases_expired(self, expired: List[TaskLease]) -> None:
        """LeaseTable ``on_expire`` hook: account for every reclaim."""
        for lease in expired:
            self.metrics.inc("repro_fleet_leases_total", event="reclaimed")
            with self._lock:
                executor = self._jobs.get(lease.job_id)
            if executor is not None:
                self.queue.emit_event(
                    executor.job,
                    "lease_reclaimed",
                    index=lease.task_index,
                    worker=lease.worker,
                    renewals=lease.renewals,
                )
            self._log(
                f"lease on task {lease.task_index} of job {lease.job_id} "
                f"expired (worker {lease.worker}); task re-queued",
                job_id=lease.job_id,
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
            with self._lock:
                executor = self._jobs.get(lease.job_id)
                future = (
                    executor.futures.get(lease.task_index)
                    if executor is not None
                    else None
                )
                # First grant starts the future; a re-grant after a reclaim
                # finds it running.  A future the runner already cancelled
                # (budget, cancel request) must never reach a drainer.
                started = (
                    future is not None
                    and not future.done()
                    and (future.running() or future.set_running_or_notify_cancel())
                )
            if not started:
                try:  # retire the task so it is never leased again
                    self.leases.complete(lease.lease_id, worker)
                except LeaseError:
                    pass  # the job was torn down in between
                continue
            self.metrics.inc("repro_fleet_leases_total", event="granted")
            self.queue.emit_event(
                executor.job, "lease_granted", index=lease.task_index, worker=worker
            )
            payload = lease.to_json_dict()
            payload.update(
                ttl_s=ttl,
                job_submitted_at=executor.job.submitted_at,
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
            executor = self._jobs.get(lease.job_id)
        if executor is None:
            raise LeaseError(
                "unknown_lease", f"lease {lease_id!r} has no active job"
            )
        if result.fingerprint != lease.fingerprint:
            try:
                self.leases.release(lease_id, worker)
            except LeaseError:
                pass  # already expired/terminal; the janitor re-queues it
            raise FleetConflict(
                f"result fingerprint {result.fingerprint[:16]}... does not match "
                f"task {lease.task_index} (expected {lease.fingerprint[:16]}...)"
            )
        lease, accepted, duplicate = self.leases.complete(lease_id, worker)
        if accepted:
            self.metrics.inc("repro_fleet_leases_total", event="completed")
            self.metrics.inc("repro_fleet_tasks_total", status=result.status)
            with self._lock:  # never races interrupt() on a done future
                future = executor.futures[lease.task_index]
                if not future.done():
                    future.set_result(result)
        else:
            self.metrics.inc("repro_fleet_leases_total", event="duplicate")
        return {
            "accepted": accepted,
            "duplicate": duplicate,
            "lease": lease.to_json_dict(),
        }

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
