"""Worker threads that drain the job queue through ``run_campaign``.

Each worker slot claims one job at a time and executes it with
``run_campaign(..., resume=True)`` against the job's own result store, so a
service restart (or a failed-job resubmission) re-runs only the tasks that
never finished.  The task-process count per job defaults to
``cpu_count // job_slots``, so two concurrent jobs on an 8-core box get 4
processes each instead of oversubscribing the machine.

In fleet mode ``executor_for`` (the coordinator's
:meth:`~repro.fleet.FleetCoordinator.executor_for`) supplies each job's task
backend instead: the same runner waits on lease-backed futures that remote
``repro work`` drainers resolve, and ``job_slots`` bounds how many jobs the
fleet sees at once.  When the service stops, the fleet fails the futures of
its live jobs with :class:`JobInterrupted`; the slot hands its job back
unfinished (still ``running``, so the next start recovers and resumes it)
and exits, since nothing can complete a fleet task once the API is down.

The artifact cache stays bounded the way every campaign's does:
``run_campaign`` garbage-collects it after each job when
``REPRO_CACHE_MAX_BYTES`` / ``REPRO_CACHE_MAX_AGE`` are set.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Executor
from typing import Callable, List, Optional

from ..obs import MetricsRegistry, emit, emit_span, tag_context
from ..runner.cache import default_cache_dir
from ..runner.executor import run_campaign
from ..runner.store import ResultStore
from .jobs import Job, JobQueue

__all__ = ["JobInterrupted", "JobWorker"]


class JobInterrupted(BaseException):
    """Raised by a task backend's futures when the backend stops.

    A ``BaseException`` so that ``run_campaign`` records nothing for the
    unfinished tasks (it folds ordinary exceptions into ``failed`` results)
    and the job is left for recovery.
    """


class JobWorker:
    """``job_slots`` daemon threads running queued jobs to completion."""

    def __init__(
        self,
        queue: JobQueue,
        *,
        job_slots: int = 1,
        task_workers: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
        use_cache: bool = True,
        echo: Optional[Callable[[str], None]] = None,
        metrics: Optional[MetricsRegistry] = None,
        on_job_finished: Optional[Callable[[Job], None]] = None,
        executor_for: Optional[Callable[[Job], Executor]] = None,
    ):
        self.queue = queue
        #: Builds a job's task backend; None runs tasks in-process.
        self.executor_for = executor_for
        #: Fired after a job reaches a terminal status with records on disk
        #: (the service hangs its warehouse ingest here).  Exceptions are
        #: swallowed: post-processing must never change a job's outcome.
        self.on_job_finished = on_job_finished
        #: Shared with the queue/service in production; ``/metricsz`` renders
        #: the busy-slot gauge from here.
        self.metrics = metrics if metrics is not None else queue.metrics
        self.job_slots = max(1, int(job_slots))
        cpus = os.cpu_count() or 2
        if task_workers is not None:
            self.task_workers = max(1, int(task_workers))
        else:
            self.task_workers = max(1, cpus // self.job_slots)
        self.cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
        self.use_cache = use_cache
        self.echo = echo if echo is not None else (lambda message: None)
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []

    # ------------------------------------------------------------------
    def start(self) -> None:
        # A previous stop() may have timed out with a worker still draining
        # its job; never spawn fresh threads alongside it (the stop event is
        # still set, so the straggler exits after its job) — doubling up
        # would oversubscribe every budget the slots were divided by.
        self._threads = [t for t in self._threads if t.is_alive()]
        if self._threads:
            return
        self._stop.clear()
        for slot in range(self.job_slots):
            thread = threading.Thread(
                target=self._run_loop, name=f"repro-job-worker-{slot}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop claiming new jobs and wait for in-flight ones to finish.

        A thread that outlives ``timeout`` (a long task mid-run) is kept in
        the roster so a later :meth:`start` cannot stack new workers on top
        of it; it exits on its own once the current job completes.
        """
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = [t for t in self._threads if t.is_alive()]

    def _run_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.claim(timeout=0.2)
            if job is not None:
                self.metrics.add_gauge("repro_service_workers_busy", 1.0)
                try:
                    self.run_job(job)
                except JobInterrupted:
                    self._log(
                        f"job {job.job_id}: interrupted; left for recovery",
                        job=job,
                    )
                    return
                finally:
                    self.metrics.add_gauge("repro_service_workers_busy", -1.0)
                # After the busy window: the job already has its terminal
                # status, so ingest latency never shows up as a busy slot.
                self._notify_finished(job)

    def _log(self, message: str, *, job: Optional[Job] = None, **fields) -> None:
        emit(
            self.echo,
            message,
            component="worker",
            job_id=job.job_id if job is not None else None,
            **fields,
        )

    # ------------------------------------------------------------------
    def run_job(self, job: Job) -> None:
        """Execute one claimed job to a terminal status.

        Raises only :class:`JobInterrupted`, leaving the job unfinished.
        """
        self._log(
            f"job {job.job_id} ({job.spec.name}): starting",
            job=job,
            name=job.spec.name,
        )
        if job.started_at is not None:
            # The job-scope queue wait (submission -> claim); the campaign
            # merges it into the job store's telemetry rollup.
            emit_span(
                "queue_wait",
                ts=job.submitted_at,
                dur=job.started_at - job.submitted_at,
                scope="job",
                job=job.job_id,
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
        store = ResultStore(job.store_path)
        try:
            with tag_context(job=job.job_id):
                results = run_campaign(
                    tasks,
                    workers=self.task_workers,
                    serial=self.task_workers <= 1,
                    cache_dir=self.cache_dir,
                    use_cache=self.use_cache,
                    store=store,
                    resume=True,
                    # Campaign progress lines inherit the job id and honour
                    # REPRO_LOG=json like every other service log line.
                    echo=lambda message: emit(
                        self.echo, message, component="campaign", job_id=job.job_id
                    ),
                    cancel=job.cancel_event.is_set,
                    # index/total flow into the job's event feed so stream
                    # clients can render "k/n" progress without re-deriving it.
                    on_result=lambda index, total, result: self.queue.record_progress(
                        job, result, index=index, total=total
                    ),
                    executor=(
                        None if self.executor_for is None else self.executor_for(job)
                    ),
                )
        except Exception as exc:  # noqa: BLE001 - job isolation is the contract
            self.queue.finish(job, "failed", error=f"{type(exc).__name__}: {exc}")
            return
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

    def _notify_finished(self, job: Job) -> None:
        if self.on_job_finished is None:
            return
        try:
            self.on_job_finished(job)
        except Exception as exc:  # noqa: BLE001 - never change a job's outcome
            self._log(
                f"job {job.job_id}: post-finish hook failed: {exc}",
                job=job,
                error=str(exc),
            )
