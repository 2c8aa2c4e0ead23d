"""``repro work``: a standalone drainer process for the fleet.

The worker is a thin loop over the service HTTP API: lease a batch of
tasks, execute each with the ordinary :func:`execute_task` machinery (so
caching, telemetry and determinism behave exactly as in-process runs),
heartbeat while executing, and POST the result back.  Transient HTTP
failures retry with capped exponential backoff (both in the
:class:`ServiceClient` and around the lease loop); SIGTERM/SIGINT request
a graceful drain — the in-flight task finishes and unstarted leases are
released so another drainer picks them up immediately.

Artifacts flow through a :class:`FleetArtifactCache`: local disk first,
the coordinator's object store on a miss, freshly built artifacts pushed
back for the rest of the fleet.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from typing import Callable, Dict, List, Optional
from urllib.error import URLError

from ..obs import emit
from ..runner.cache import default_cache_dir
from ..runner.campaign import CampaignSpec
from ..runner.executor import execute_task
from ..service.client import ServiceClient, ServiceError
from ..service.status import ERR_LEASE_EXPIRED
from .artifacts import FleetArtifactCache
from .leases import DEFAULT_LEASE_TTL_S
from .wire import result_to_wire

__all__ = ["FleetWorker", "default_worker_name"]

#: Client-level retries for every fleet HTTP call (lease/heartbeat/
#: complete/artifacts): enough to ride out a restart, capped backoff.
CLIENT_RETRIES = 4

#: Ceiling for the lease-loop backoff after repeated transport failures.
MAX_LOOP_BACKOFF_S = 30.0


def default_worker_name() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class _Heartbeat(threading.Thread):
    """Renews one lease at ttl/3 until stopped or the lease is lost."""

    def __init__(self, client: ServiceClient, lease_id: str, worker: str, ttl_s: float):
        super().__init__(name=f"repro-heartbeat-{lease_id[:8]}", daemon=True)
        self.client = client
        self.lease_id = lease_id
        self.worker = worker
        self.interval = max(0.05, float(ttl_s) / 3.0)
        self.lost = False
        # NB: not "_stop" — Thread.join() calls its own private _stop().
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                self.client.heartbeat(self.lease_id, self.worker)
            except ServiceError as exc:
                if exc.code == ERR_LEASE_EXPIRED or exc.status in (404, 410):
                    # Reassigned or reclaimed: keep executing — completion
                    # is first-wins, so the work may still land — but stop
                    # renewing a lease the coordinator no longer honours.
                    self.lost = True
                    return
            except (URLError, OSError):
                pass  # transient; try again next tick

    def stop(self) -> None:
        self._halt.set()


class FleetWorker:
    """One drainer process: lease → execute → complete, until stopped."""

    def __init__(
        self,
        url: str,
        *,
        token: Optional[str] = None,
        name: Optional[str] = None,
        cache_dir=None,
        use_cache: bool = True,
        batch: int = 1,
        poll_s: float = 0.5,
        lease_ttl_s: Optional[float] = None,
        max_idle_s: Optional[float] = None,
        echo: Optional[Callable[[str], None]] = None,
        client: Optional[ServiceClient] = None,
    ):
        self.client = (
            client
            if client is not None
            else ServiceClient(url, token=token, retries=CLIENT_RETRIES)
        )
        self.name = name or default_worker_name()
        if cache_dir is None and use_cache:
            cache_dir = default_cache_dir()
        self.cache_dir = cache_dir
        self.use_cache = use_cache
        self.batch = max(1, int(batch))
        self.poll_s = max(0.05, float(poll_s))
        self.lease_ttl_s = lease_ttl_s
        self.max_idle_s = max_idle_s
        self.echo = echo if echo is not None else (lambda message: None)
        self._stop = threading.Event()
        #: job_id -> expanded task list (bounded; specs are tiny but task
        #: lists can hold parsed netlists once executed — keep a few jobs).
        self._tasks: Dict[str, list] = {}
        self.tasks_executed = 0

    def _log(self, message: str, **fields) -> None:
        emit(self.echo, message, component="fleet-worker", worker=self.name, **fields)

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request a graceful drain (signal-handler and test safe)."""
        self._stop.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → finish the current task, release the rest."""

        def _handler(signum, frame):  # noqa: ARG001 - signal signature
            self._log(f"received signal {signum}; draining")
            self.stop()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, _handler)
            except ValueError:  # not the main thread (embedded/test use)
                return

    # ------------------------------------------------------------------
    def _cache_for_task(self) -> FleetArtifactCache:
        if not self.use_cache:
            return FleetArtifactCache(None, remote=None)
        return FleetArtifactCache(self.cache_dir, remote=self.client)

    def _tasks_for(self, job_id: str) -> Optional[list]:
        tasks = self._tasks.get(job_id)
        if tasks is not None:
            return tasks
        try:
            payload = self.client.job_spec(job_id)
        except ServiceError as exc:
            self._log(f"spec fetch for job {job_id} failed: {exc}", job_id=job_id)
            return None
        spec = CampaignSpec.from_json_dict(payload["spec"])
        tasks = spec.expand()
        if len(self._tasks) >= 8:  # bound memory across many tiny jobs
            self._tasks.clear()
        self._tasks[job_id] = tasks
        return tasks

    def _release_quietly(self, lease: Dict[str, object]) -> None:
        try:
            self.client.release_lease(str(lease["lease_id"]), self.name)
        except (ServiceError, URLError, OSError):
            pass  # expiry will re-queue it

    # ------------------------------------------------------------------
    def _run_lease(self, lease: Dict[str, object]) -> bool:
        """Execute one leased task and report it.  Returns True if executed."""
        job_id = str(lease["job_id"])
        index = int(lease["task_index"])
        lease_id = str(lease["lease_id"])
        tasks = self._tasks_for(job_id)
        if tasks is None or not 0 <= index < len(tasks):
            self._release_quietly(lease)
            return False
        task = tasks[index]
        ttl = float(lease.get("ttl_s") or DEFAULT_LEASE_TTL_S)
        heartbeat = _Heartbeat(self.client, lease_id, self.name, ttl)
        heartbeat.start()
        try:
            result = execute_task(
                task,
                cache_dir=self.cache_dir,
                submitted_at=lease.get("job_submitted_at"),
                cache=self._cache_for_task(),
            )
        finally:
            heartbeat.stop()
            heartbeat.join(timeout=5.0)
        self.tasks_executed += 1
        self._log(
            f"task {task.task_id} ({job_id}[{index}]): {result.status} "
            f"in {result.wall_time_s:.2f}s",
            job_id=job_id,
            status=result.status,
        )
        try:
            outcome = self.client.complete_task(
                lease_id, self.name, result_to_wire(result)
            )
            if outcome.get("duplicate"):
                self._log(
                    f"task {task.task_id}: already completed by another worker",
                    job_id=job_id,
                )
        except ServiceError as exc:
            # 410 = the job was finalised under us; 409 = fingerprint
            # mismatch (version skew between worker and coordinator).
            # Either way the coordinator owns recovery — log and move on.
            self._log(f"complete for {task.task_id} rejected: {exc}", job_id=job_id)
        except (URLError, OSError) as exc:
            self._log(
                f"complete for {task.task_id} failed after retries: {exc}; "
                "lease will expire and the task will re-run",
                job_id=job_id,
            )
        return True

    def run(self) -> int:
        """Drain until stopped (or idle past ``max_idle_s``); returns the
        number of tasks this worker executed."""
        self._log(
            f"worker {self.name} draining {self.client.url} "
            f"(batch={self.batch})"
        )
        backoff = self.poll_s
        idle_since: Optional[float] = None
        while not self._stop.is_set():
            try:
                leases: List[Dict[str, object]] = self.client.lease_tasks(
                    self.name, limit=self.batch, ttl_s=self.lease_ttl_s
                )
            except (ServiceError, URLError, OSError) as exc:
                self._log(f"lease request failed: {exc}; backing off {backoff:.1f}s")
                self._stop.wait(backoff)
                backoff = min(backoff * 2.0, MAX_LOOP_BACKOFF_S)
                continue
            backoff = self.poll_s
            if not leases:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                if self.max_idle_s is not None and now - idle_since >= self.max_idle_s:
                    self._log(f"idle for {self.max_idle_s:.1f}s; exiting")
                    break
                self._stop.wait(self.poll_s)
                continue
            idle_since = None
            for lease in leases:
                if self._stop.is_set():
                    self._release_quietly(lease)
                    continue
                self._run_lease(lease)
        self._log(f"worker {self.name} drained; {self.tasks_executed} task(s) executed")
        return self.tasks_executed
