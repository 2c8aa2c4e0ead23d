"""Job lifecycle and the persistent queue behind the campaign service.

A *job* is one submitted :class:`~repro.runner.campaign.CampaignSpec` plus
its execution state.  Jobs are identified by the campaign fingerprint, so a
duplicate submission dedupes onto the existing job instead of re-running the
same grid.  Every state transition is persisted to
``<state_dir>/jobs/<job_id>.json`` (atomic write), and each job owns a JSONL
:class:`~repro.runner.store.ResultStore` at
``<state_dir>/stores/<job_id>.jsonl`` — together these make the service
restartable: :meth:`JobQueue.recover` re-enqueues jobs that were queued or
running when the process died, and the worker re-runs them with
``run_campaign(..., resume=True)`` so finished tasks are skipped, not
repeated.

Scheduling is **FIFO**: :meth:`JobQueue.claim` pops the oldest submission,
ordered by a persisted per-queue sequence number, so the order survives
restarts even when two jobs were submitted within the same clock tick.

Every transition and per-task completion is also appended to the job's
in-memory **event feed**, which the ``/v1/jobs/<id>/stream`` long-poll
endpoint serves: callers block in :meth:`JobQueue.wait_events` until the
feed grows past their cursor (or the job goes terminal).  Events do not
survive a restart — a recovered job starts a fresh feed; its persisted
counters and store records carry the durable truth.

Status machine::

    queued -> running -> done        every task ok (or skipped on resume)
                      -> failed      >= 1 task failed/timed out, or the spec
                                     could not even expand
                      -> cancelled   cancel requested and honoured mid-run
    queued -> cancelled              cancel before a worker claimed the job

``failed`` and ``cancelled`` are re-submittable: submitting the same spec
again re-enqueues the existing job (at the back of the queue), and resume
picks up from its store.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple

from ..obs import MetricsRegistry
from ..runner.cache import atomic_write
from ..runner.campaign import CampaignSpec
from .status import ACTIVE_STATUSES, TERMINAL_STATUSES

__all__ = [
    "ACTIVE_STATUSES",
    "Job",
    "JobQueue",
    "TERMINAL_STATUSES",
]

#: Hex digits of the campaign fingerprint used as the job id.
JOB_ID_LENGTH = 16

#: Events retained per live job for the stream endpoint; older events are
#: dropped (clients detect the gap via absolute event numbers and re-sync
#: from the snapshot, which always carries the authoritative counters).
MAX_EVENTS_RETAINED = 4096

#: Events kept once a job is terminal — enough to replay the tail of any
#: ordinary campaign for late `repro watch` attachments, while bounding
#: what a long-lived service holds per finished job.
MAX_EVENTS_TERMINAL = 512


@dataclass
class Job:
    """One submitted campaign and its execution state."""

    job_id: str
    spec: CampaignSpec
    store_path: Path
    status: str = "queued"
    #: Queue-wide submission sequence number: the FIFO claim order.
    #: Persisted, so recovery keeps the original order.
    seq: int = 0
    #: Principals that submitted this spec (first one first); used for
    #: submit-role visibility.
    owners: List[str] = field(default_factory=list)
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    tasks_total: int = 0
    tasks_done: int = 0
    tasks_ok: int = 0
    tasks_skipped: int = 0
    tasks_failed: int = 0
    #: Accumulated task runtime / queue wait (seconds) reported by the
    #: campaign's :class:`~repro.runner.executor.TaskResult`s.
    tasks_wall_s: float = 0.0
    tasks_queue_wait_s: float = 0.0
    error: Optional[str] = None
    #: Status transitions in order, e.g. ``["queued", "running", "done"]``.
    history: List[str] = field(default_factory=lambda: ["queued"])
    cancel_event: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )
    #: Live event feed for the stream endpoint (not persisted).  Each event
    #: carries its absolute number ``n``; the deque retains the most recent
    #: ``MAX_EVENTS_RETAINED`` of ``events_emitted`` total.
    events: Deque[Dict[str, object]] = field(
        default_factory=lambda: deque(maxlen=MAX_EVENTS_RETAINED),
        repr=False,
        compare=False,
    )
    events_emitted: int = field(default=0, repr=False, compare=False)
    #: Per-job notification channel for stream waiters.  Shares the queue's
    #: lock (set by the queue when it registers the job), so an event on one
    #: job wakes only that job's watchers.
    event_cond: Optional[threading.Condition] = field(
        default=None, repr=False, compare=False
    )

    def owned_by(self, name: Optional[str]) -> bool:
        return name is not None and name in self.owners

    def timings(self) -> Dict[str, object]:
        """Wall-clock summary of the job so far (served in status payloads).

        ``queue_wait_s`` is submission→claim (live for a job still queued),
        ``run_s`` claim→finish (live for a running job); the ``tasks_*``
        accumulators sum what the campaign's task results reported.
        """
        now = time.time()
        queue_wait: Optional[float] = None
        if self.started_at is not None:
            queue_wait = max(0.0, self.started_at - self.submitted_at)
        elif self.status == "queued":
            queue_wait = max(0.0, now - self.submitted_at)
        run_s: Optional[float] = None
        if self.started_at is not None:
            end = self.finished_at if self.finished_at is not None else now
            run_s = max(0.0, end - self.started_at)
        return {
            "queue_wait_s": None if queue_wait is None else round(queue_wait, 6),
            "run_s": None if run_s is None else round(run_s, 6),
            "tasks_wall_s": round(self.tasks_wall_s, 6),
            "tasks_queue_wait_s": round(self.tasks_queue_wait_s, 6),
        }

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe view of the job served by the status endpoints."""
        return {
            "job_id": self.job_id,
            "name": self.spec.name,
            "status": self.status,
            "owners": list(self.owners),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cancel_requested": self.cancel_event.is_set(),
            "error": self.error,
            "history": list(self.history),
            "progress": {
                "tasks_total": self.tasks_total,
                "tasks_done": self.tasks_done,
                "tasks_ok": self.tasks_ok,
                "tasks_skipped": self.tasks_skipped,
                "tasks_failed": self.tasks_failed,
            },
            "timings": self.timings(),
        }


class JobQueue:
    """Thread-safe FIFO queue of jobs with on-disk persistence.

    The HTTP handlers (submit/status/cancel/stream) and the worker threads
    (claim/progress/finish) share one queue; every method takes the internal
    lock, so callers never need their own synchronisation.
    """

    def __init__(
        self, state_dir: os.PathLike, *, metrics: Optional[MetricsRegistry] = None
    ):
        self.state_dir = Path(state_dir)
        #: Service-level counters/histograms (rendered by ``/metricsz``); a
        #: fresh registry when the queue runs standalone, the service's
        #: shared one in production.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.jobs_dir = self.state_dir / "jobs"
        self.stores_dir = self.state_dir / "stores"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.stores_dir.mkdir(parents=True, exist_ok=True)
        # One lock guards all queue state; two notification channels share
        # it: _claim_cond for workers blocked in claim(), and a per-job
        # Condition (job.event_cond) for stream waiters — so a task event on
        # one job wakes only that job's watchers, never every waiter of
        # every job plus the idle claimers.
        self._lock = threading.Lock()
        self._claim_cond = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        #: Queued job ids in claim order (a dict for O(1) cancel): enqueue
        #: appends, ``claim`` pops the first entry.
        self._pending: Dict[str, None] = {}
        self._next_seq = 0

    # ------------------------------------------------------------------
    def submit(
        self, spec: CampaignSpec, *, owner: Optional[str] = None
    ) -> Tuple[Job, bool]:
        """Enqueue a campaign; returns ``(job, created)``.

        The job id is the campaign fingerprint, so submitting an identical
        spec while a job is queued, running or done returns the existing job
        (``created=False``) instead of scheduling duplicate work.  A failed
        or cancelled job is *re-enqueued* by the duplicate submission — its
        store is kept, so the re-run resumes past every task that already
        finished; it re-joins the back of the queue (fresh ``seq``).

        ``owner`` (the authenticated principal, if any) is recorded on the
        job.
        """
        tasks = spec.validate()
        job_id = spec.fingerprint()[:JOB_ID_LENGTH]
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                self._add_owner_locked(existing, owner)
                if existing.status in ("queued", "running", "done"):
                    self._count_submit_locked(owner, "deduped")
                    return existing, False
                # failed / cancelled: re-enqueue for a resumed re-run.
                existing.status = "queued"
                existing.history.append("queued")
                existing.seq = self._take_seq_locked()
                existing.error = None
                existing.started_at = None
                existing.finished_at = None
                existing.tasks_total = len(tasks)
                existing.tasks_done = 0
                existing.tasks_ok = 0
                existing.tasks_skipped = 0
                existing.tasks_failed = 0
                existing.cancel_event = threading.Event()
                self._enqueue_locked(existing)
                self._emit_locked(existing, "status", status="queued")
                self._persist(existing)
                self._count_submit_locked(owner, "requeued")
                return existing, False
            job = Job(
                job_id=job_id,
                spec=spec,
                store_path=self.stores_dir / f"{job_id}.jsonl",
                seq=self._take_seq_locked(),
                owners=[owner] if owner is not None else [],
                tasks_total=len(tasks),
            )
            job.event_cond = threading.Condition(self._lock)
            self._jobs[job_id] = job
            self._enqueue_locked(job)
            self._emit_locked(job, "status", status="queued")
            self._persist(job)
            self._count_submit_locked(owner, "created")
            return job, True

    def _count_submit_locked(self, owner: Optional[str], outcome: str) -> None:
        self.metrics.inc(
            "repro_service_submits_total",
            outcome=outcome,
            principal=owner if owner is not None else "anonymous",
        )

    def _take_seq_locked(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def _enqueue_locked(self, job: Job) -> None:
        self._pending[job.job_id] = None
        self._claim_cond.notify_all()

    def _add_owner_locked(self, job: Job, owner: Optional[str]) -> None:
        if owner is not None and owner not in job.owners:
            job.owners.append(owner)
            self._persist(job)

    def claim(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Pop the oldest queued job and mark it running (None on timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            # Loop until the deadline: spurious condition wake-ups must not
            # masquerade as a timeout.
            while not self._pending:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._claim_cond.wait(remaining)
            job_id = next(iter(self._pending))
            del self._pending[job_id]
            job = self._jobs[job_id]
            job.status = "running"
            job.history.append("running")
            job.started_at = time.time()
            self.metrics.inc("repro_service_claims_total")
            self.metrics.observe(
                "repro_service_job_queue_wait_seconds",
                max(0.0, job.started_at - job.submitted_at),
            )
            self._emit_locked(job, "status", status="running")
            self._persist(job)
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, owner: Optional[str] = None) -> List[Job]:
        """Every known job, oldest submission first.

        ``owner`` restricts the listing to that principal's jobs (what a
        submit-role token sees).
        """
        with self._lock:
            selected = [
                job
                for job in self._jobs.values()
                if owner is None or job.owned_by(owner)
            ]
            return sorted(selected, key=lambda j: (j.submitted_at, j.seq, j.job_id))

    def counts(self) -> Dict[str, int]:
        """``{status: job count}`` over every known job."""
        with self._lock:
            counts: Dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
            return counts

    def feed_depth(self) -> int:
        """Total events currently retained across all job feeds."""
        with self._lock:
            return sum(len(job.events) for job in self._jobs.values())

    # ------------------------------------------------------------------
    # Event feed (the stream endpoint's source).

    def _emit_locked(self, job: Job, kind: str, **fields: object) -> None:
        event: Dict[str, object] = {"n": job.events_emitted, "event": kind}
        event.update(fields)
        job.events.append(event)
        job.events_emitted += 1
        if job.event_cond is not None:
            job.event_cond.notify_all()

    def wait_events(
        self, job_id: str, since: int = 0, timeout: float = 25.0
    ) -> Optional[Tuple[List[Dict[str, object]], int, Dict[str, object]]]:
        """Long-poll the job's event feed.

        Blocks until the feed holds events numbered ``>= since``, the job is
        terminal, or ``timeout`` elapses; returns ``(events, next, snapshot)``
        where ``next`` is the cursor for the follow-up call.  Events older
        than the retention window are silently absent — the snapshot always
        carries authoritative counters, so a lagging client loses verbosity,
        never truth.  Returns None for an unknown job.
        """
        since = max(0, int(since))
        deadline = time.monotonic() + max(0.0, float(timeout))
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            while (
                job.events_emitted <= since
                and job.status not in TERMINAL_STATUSES
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                job.event_cond.wait(remaining)
            events = [e for e in job.events if int(e["n"]) >= since]  # type: ignore[arg-type]
            return events, job.events_emitted, job.snapshot()

    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; returns the job (None if unknown).

        A queued job is cancelled immediately (it never reaches a worker); a
        running job gets its cancel event set and transitions once the worker
        honours it.  Terminal jobs are left untouched.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.status == "queued":
                self._pending.pop(job_id, None)
                job.cancel_event.set()
                self._finish_locked(job, "cancelled", error="cancelled while queued")
            elif job.status == "running":
                job.cancel_event.set()
                self._emit_locked(job, "cancel_requested")
                self._persist(job)
            return job

    def record_progress(
        self,
        job: Job,
        result,
        index: Optional[int] = None,
        total: Optional[int] = None,
    ) -> None:
        """Fold one :class:`~repro.runner.executor.TaskResult` into the job."""
        with self._lock:
            if result.status == "skipped":
                job.tasks_done += 1
                job.tasks_skipped += 1
                job.tasks_ok += 1
            elif result.status == "ok":
                job.tasks_done += 1
                job.tasks_ok += 1
            elif result.status != "cancelled":
                # failed / timeout still *completed* (they have a verdict);
                # cancelled tasks never ran and stay out of the done count.
                job.tasks_done += 1
                job.tasks_failed += 1
            job.tasks_wall_s += float(getattr(result, "wall_time_s", 0.0) or 0.0)
            job.tasks_queue_wait_s += float(
                getattr(result, "queue_wait_s", 0.0) or 0.0
            )
            self.metrics.inc(
                "repro_service_tasks_total", status=str(result.status)
            )
            event: Dict[str, object] = {
                "task_id": getattr(result, "task_id", None),
                "status": result.status,
                "tasks_done": job.tasks_done,
                "tasks_total": total if total is not None else job.tasks_total,
            }
            if index is not None:
                event["index"] = index
            self._emit_locked(job, "task", **event)
            self._persist(job)

    def set_total(self, job: Job, total: int) -> None:
        with self._lock:
            job.tasks_total = int(total)
            self._emit_locked(job, "total", tasks_total=job.tasks_total)
            self._persist(job)

    def emit_event(self, job: Job, kind: str, **fields: object) -> None:
        """Publish an out-of-band event on a job's feed (fleet lease events).

        Same delivery semantics as the built-in kinds: appended to the
        bounded feed, wakes long-poll watchers, no persistence beyond the
        feed itself.
        """
        with self._lock:
            self._emit_locked(job, kind, **fields)

    def finish(self, job: Job, status: str, error: Optional[str] = None) -> None:
        with self._lock:
            self._finish_locked(job, status, error=error)

    def _finish_locked(self, job: Job, status: str, error: Optional[str]) -> None:
        job.status = status
        job.history.append(status)
        job.finished_at = time.time()
        job.error = error
        self.metrics.inc("repro_service_jobs_finished_total", status=status)
        if job.started_at is not None:
            self.metrics.observe(
                "repro_service_job_run_seconds",
                max(0.0, job.finished_at - job.started_at),
            )
        self._emit_locked(job, "status", status=status, error=error)
        # The feed stops growing here; shrink what a finished job pins in
        # memory while keeping the tail replayable for late watchers (the
        # snapshot carries the authoritative counters regardless).
        while len(job.events) > MAX_EVENTS_TERMINAL:
            job.events.popleft()
        self._persist(job)

    # ------------------------------------------------------------------
    def recover(self) -> List[str]:
        """Load persisted jobs; re-enqueue the ones that never finished.

        Called once at service start-up.  Returns the ids that were
        re-enqueued (they resume from their stores, skipping finished tasks).
        Re-enqueued jobs keep their **original submission order**: the
        persisted per-queue ``seq`` is the sort key (files whose payloads
        predate it fall back to ``submitted_at``), so recovery is immune to
        directory-listing order and to submissions that shared one clock
        tick.  Snapshots written while the queue scheduled by priority carry a
        ``"priority"`` key, which is ignored: they too recover in ``seq``
        order.  Unreadable job files are skipped rather than sinking the
        service.
        """
        requeued: List[str] = []
        entries = []
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                spec = CampaignSpec.from_json_dict(payload["spec"])
                job_id = str(payload["job_id"])
                status = str(payload["status"])
            except Exception:  # noqa: BLE001 - a corrupt file must not sink startup
                continue
            entries.append((job_id, status, payload, spec))
        # Original queue order: the persisted seq is exact (immune to clock
        # ties, and a failed job re-enqueued later keeps its *later* slot
        # despite its early submitted_at).  Payloads predating seq sort
        # after the seq'd ones, by submission time; directory order never
        # decides.
        entries.sort(
            key=lambda item: (
                float(item[2].get("seq", float("inf"))),
                float(item[2].get("submitted_at", 0.0)),
                item[0],
            )
        )
        with self._lock:
            for job_id, status, payload, spec in entries:
                interrupted = status in ACTIVE_STATUSES
                # A cancel requested but not yet honoured when the service
                # died must survive the restart: honour it now instead of
                # resurrecting the job.
                cancelled_in_flight = interrupted and bool(
                    payload.get("cancel_requested")
                )
                job = Job(
                    job_id=job_id,
                    spec=spec,
                    store_path=self.stores_dir / f"{job_id}.jsonl",
                    status="queued" if interrupted else status,
                    seq=self._take_seq_locked(),
                    owners=[str(o) for o in payload.get("owners", [])],
                    submitted_at=float(payload.get("submitted_at", time.time())),
                    started_at=payload.get("started_at"),
                    finished_at=payload.get("finished_at"),
                    tasks_total=int(payload.get("tasks_total", 0)),
                    tasks_done=int(payload.get("tasks_done", 0)),
                    tasks_ok=int(payload.get("tasks_ok", 0)),
                    tasks_skipped=int(payload.get("tasks_skipped", 0)),
                    tasks_failed=int(payload.get("tasks_failed", 0)),
                    tasks_wall_s=float(payload.get("tasks_wall_s", 0.0)),
                    tasks_queue_wait_s=float(
                        payload.get("tasks_queue_wait_s", 0.0)
                    ),
                    error=payload.get("error"),
                    history=[str(s) for s in payload.get("history", ["queued"])],
                )
                job.event_cond = threading.Condition(self._lock)
                if cancelled_in_flight:
                    job.cancel_event.set()
                    self._finish_locked(
                        job, "cancelled", error="cancelled before service restart"
                    )
                elif interrupted:
                    # Counters restart from zero: the resumed run re-reports
                    # every task (finished ones come back as "skipped").
                    job.started_at = None
                    job.finished_at = None
                    job.tasks_done = 0
                    job.tasks_ok = 0
                    job.tasks_skipped = 0
                    job.tasks_failed = 0
                    job.tasks_wall_s = 0.0
                    job.tasks_queue_wait_s = 0.0
                    job.history.append("queued")
                    self._pending[job_id] = None
                    self._emit_locked(job, "status", status="queued", recovered=True)
                    requeued.append(job_id)
                self._jobs[job_id] = job
                self._persist(job)
            if requeued:
                self._claim_cond.notify_all()
        return requeued

    def _persist(self, job: Job) -> None:
        # The snapshot is persisted nearly as-is: cancel_requested must
        # survive a restart so an unhonoured cancel is not resurrected, and
        # seq must survive so recovery keeps the original submission order.
        payload = dict(job.snapshot())
        payload.update(payload.pop("progress"))  # flatten counters
        # timings are derived (partly from the live clock); persist the raw
        # accumulators instead so recovery rebuilds them exactly.
        payload.pop("timings", None)
        payload["tasks_wall_s"] = job.tasks_wall_s
        payload["tasks_queue_wait_s"] = job.tasks_queue_wait_s
        payload["seq"] = job.seq
        payload["spec"] = job.spec.to_json_dict()
        atomic_write(
            self.jobs_dir / f"{job.job_id}.json",
            lambda handle: handle.write(
                json.dumps(payload, sort_keys=True).encode("utf-8")
            ),
        )
