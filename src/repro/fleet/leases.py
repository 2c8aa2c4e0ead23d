"""Per-task leases: the bookkeeping that lets N drainers share one queue.

A :class:`LeaseTable` tracks, for every registered job, which task indices
are still pending, which are out on an active lease, and which are done.
Workers *claim* leases (FIFO across jobs in registration order), *renew*
them by heartbeating before the deadline, and either *complete* or
*release* them.  A lease whose deadline passes without a heartbeat is
reclaimed: its task index goes back to the front of the pending queue so
the next claimer re-executes it.

Invariants (enforced by construction, verified by the property suite in
``tests/fleet/test_lease_properties.py``):

* every registered task index is in exactly one of {pending, active, done};
* a task's result is *accepted exactly once* — completions after the first
  report ``duplicate`` and are discarded;
* completion is **first-wins even from an expired lease**: task execution
  is deterministic, so a zombie worker's result for a not-yet-done task is
  as good as anyone's, and accepting it never loses or duplicates work.

The table is deliberately independent of the job queue: it holds its own
lock, imports nothing from :mod:`repro.service`, and takes an injectable
``clock`` so expiry interleavings are testable without sleeping.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["DEFAULT_LEASE_TTL_S", "LeaseError", "LeaseTable", "TaskLease"]

#: Default seconds between required heartbeats before a lease is reclaimed.
DEFAULT_LEASE_TTL_S = 30.0


class LeaseError(Exception):
    """A lease operation that cannot be honoured.

    ``code`` is machine-readable so the HTTP layer can map it onto a
    status without string-matching the message:

    * ``unknown_lease`` — lease id never existed (or its job was torn down)
    * ``lease_expired`` — lease is no longer active (expired / released /
      completed); the worker must abandon the task
    * ``not_owner`` — lease id exists but belongs to a different worker
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class TaskLease:
    """One worker's time-bounded right to execute one task."""

    lease_id: str
    job_id: str
    task_index: int
    fingerprint: str
    worker: str
    issued_at: float
    deadline: float
    renewals: int = 0
    #: ``active`` | ``expired`` | ``released`` | ``completed``
    state: str = "active"

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "lease_id": self.lease_id,
            "job_id": self.job_id,
            "task_index": self.task_index,
            "fingerprint": self.fingerprint,
            "worker": self.worker,
            "renewals": self.renewals,
            "state": self.state,
        }


@dataclass
class _JobTasks:
    """Per-job partition of task indices: pending ∪ active ∪ done."""

    fingerprints: Dict[int, str]
    pending: Deque[int] = field(default_factory=deque)
    #: task index -> lease id of the active lease on it
    active: Dict[int, str] = field(default_factory=dict)
    done: Set[int] = field(default_factory=set)


class LeaseTable:
    """Thread-safe lease bookkeeping over an injectable monotonic clock."""

    def __init__(
        self,
        *,
        default_ttl_s: float = DEFAULT_LEASE_TTL_S,
        clock: Callable[[], float] = time.monotonic,
        on_expire: Optional[Callable[[List[TaskLease]], None]] = None,
    ):
        self.default_ttl_s = max(0.1, float(default_ttl_s))
        self.clock = clock
        #: Called (outside the lock) with every batch of expired leases,
        #: whichever operation swept them — expiry is lazy, so an observer
        #: that only polled :meth:`reclaim_expired` would miss the leases
        #: a concurrent ``claim``/``renew``/``complete`` expired first.
        self.on_expire = on_expire
        self._lock = threading.Lock()
        #: job_id -> its task partition, in registration order (dicts are
        #: insertion-ordered; claim() walks them FIFO).
        self._jobs: Dict[str, _JobTasks] = {}
        #: Every lease ever issued for a still-registered job, terminal
        #: states included — tombstones answer late completes/duplicates.
        self._leases: Dict[str, TaskLease] = {}

    # ------------------------------------------------------------------
    # Job lifecycle
    def register(self, job_id: str, tasks: Sequence[Tuple[int, str]]) -> None:
        """Register ``(task_index, fingerprint)`` pairs as claimable work.

        Registering an already-registered job adds the new indices to the
        back of its pending queue (a job's tasks may arrive one by one); an
        index that is already registered is refused.
        """
        added = {int(i): fp for i, fp in tasks}
        with self._lock:
            entry = self._jobs.setdefault(job_id, _JobTasks(fingerprints={}))
            clash = sorted(entry.fingerprints.keys() & added.keys())
            if clash:
                raise ValueError(f"job {job_id} already has task(s) {clash}")
            entry.fingerprints.update(added)
            entry.pending.extend(sorted(added))

    def unregister(self, job_id: str) -> None:
        """Drop a finished job's partition and all its lease tombstones."""
        with self._lock:
            self._jobs.pop(job_id, None)
            self._leases = {
                lease_id: lease
                for lease_id, lease in self._leases.items()
                if lease.job_id != job_id
            }

    def cancel_pending(self, job_id: str) -> List[int]:
        """Drain a job's pending indices (for cancellation sweeps).

        Active leases are left to finish or expire; expiry re-queues their
        index, so the next sweep picks those up too.
        """
        with self._lock:
            entry = self._jobs.get(job_id)
            if entry is None:
                return []
            drained = list(entry.pending)
            entry.pending.clear()
            # Cancelled-out indices count as done: the partition invariant
            # (pending ∪ active ∪ done = all) must survive cancellation.
            entry.done.update(drained)
            return drained

    # ------------------------------------------------------------------
    # Worker-facing operations
    def claim(
        self,
        worker: str,
        *,
        limit: int = 1,
        ttl_s: Optional[float] = None,
    ) -> List[TaskLease]:
        """Lease up to ``limit`` pending tasks to ``worker`` (FIFO)."""
        now = self.clock()
        ttl = self._ttl(ttl_s)
        granted: List[TaskLease] = []
        expired: List[TaskLease] = []
        with self._lock:
            expired = self._expire_due_locked(now)
            for job_id, entry in self._jobs.items():
                while entry.pending and len(granted) < int(limit):
                    index = entry.pending.popleft()
                    lease = TaskLease(
                        lease_id=uuid.uuid4().hex,
                        job_id=job_id,
                        task_index=index,
                        fingerprint=entry.fingerprints[index],
                        worker=worker,
                        issued_at=now,
                        deadline=now + ttl,
                    )
                    entry.active[index] = lease.lease_id
                    self._leases[lease.lease_id] = lease
                    granted.append(lease)
                if len(granted) >= int(limit):
                    break
        self._notify_expired(expired)
        return granted

    def renew(
        self, lease_id: str, worker: str, *, ttl_s: Optional[float] = None
    ) -> TaskLease:
        """Heartbeat: push the deadline out by ``ttl_s`` from now."""
        now = self.clock()
        expired: List[TaskLease] = []
        try:
            with self._lock:
                expired = self._expire_due_locked(now)
                lease = self._active_lease_locked(lease_id, worker)
                lease.deadline = now + self._ttl(ttl_s)
                lease.renewals += 1
                return lease
        finally:
            self._notify_expired(expired)

    def release(self, lease_id: str, worker: str) -> TaskLease:
        """Give an unfinished task back; it re-queues at the front."""
        now = self.clock()
        expired: List[TaskLease] = []
        try:
            with self._lock:
                expired = self._expire_due_locked(now)
                lease = self._active_lease_locked(lease_id, worker)
                lease.state = "released"
                self._requeue_locked(lease)
                return lease
        finally:
            self._notify_expired(expired)

    def complete(
        self, lease_id: str, worker: str
    ) -> Tuple[TaskLease, bool, bool]:
        """Accept a finished task.  Returns ``(lease, accepted, duplicate)``.

        First-wins: if the task is not yet done the completion is accepted
        even when this lease has expired (deterministic work is never
        thrown away).  If another worker already completed the task,
        ``accepted`` is False and ``duplicate`` is True.
        """
        now = self.clock()
        expired: List[TaskLease] = []
        try:
            with self._lock:
                expired = self._expire_due_locked(now)
                return self._complete_locked(lease_id, worker)
        finally:
            self._notify_expired(expired)

    def _complete_locked(
        self, lease_id: str, worker: str
    ) -> Tuple[TaskLease, bool, bool]:
        lease = self._leases.get(lease_id)
        if lease is None:
            raise LeaseError("unknown_lease", f"unknown lease {lease_id!r}")
        if lease.worker != worker:
            raise LeaseError(
                "not_owner",
                f"lease {lease_id!r} belongs to {lease.worker!r}, not {worker!r}",
            )
        entry = self._jobs.get(lease.job_id)
        if entry is None:  # job finalised/torn down under the worker
            raise LeaseError(
                "unknown_lease", f"lease {lease_id!r} has no registered job"
            )
        index = lease.task_index
        if index in entry.done:
            lease.state = "completed"
            return lease, False, True
        # Accept: pull the index out of whichever bucket holds it.
        # After an expiry or a release it may be pending again, or
        # re-leased to another worker — pop the active slot regardless of
        # holder and close the superseded lease with it, so it can neither
        # be renewed, released nor expired into a re-queue; it can only
        # come back as a duplicate.
        if index in entry.active:
            holder = self._leases.get(entry.active.pop(index))
            if holder is not None:
                holder.state = "completed"
        else:
            try:
                entry.pending.remove(index)
            except ValueError:
                pass
        entry.done.add(index)
        lease.state = "completed"
        return lease, True, False

    # ------------------------------------------------------------------
    # Maintenance / introspection
    def get(self, lease_id: str) -> Optional[TaskLease]:
        with self._lock:
            return self._leases.get(lease_id)

    def reclaim_expired(self) -> List[TaskLease]:
        """Expire overdue leases, re-queue their tasks, return them."""
        with self._lock:
            expired = self._expire_due_locked(self.clock())
        self._notify_expired(expired)
        return expired

    def pending_count(self) -> int:
        with self._lock:
            return sum(len(entry.pending) for entry in self._jobs.values())

    def active_count(self) -> int:
        with self._lock:
            return sum(len(entry.active) for entry in self._jobs.values())

    def outstanding(self, job_id: str) -> int:
        """Tasks of ``job_id`` not yet done (pending + active)."""
        with self._lock:
            entry = self._jobs.get(job_id)
            if entry is None:
                return 0
            return len(entry.pending) + len(entry.active)

    def worker_active(self) -> Dict[str, int]:
        """Active lease count per worker (the utilisation gauge source)."""
        counts: Dict[str, int] = {}
        with self._lock:
            for entry in self._jobs.values():
                for lease_id in entry.active.values():
                    lease = self._leases[lease_id]
                    counts[lease.worker] = counts.get(lease.worker, 0) + 1
        return counts

    def _notify_expired(self, expired: List[TaskLease]) -> None:
        """Fire ``on_expire`` outside the lock (callbacks may re-enter)."""
        if expired and self.on_expire is not None:
            self.on_expire(list(expired))

    # ------------------------------------------------------------------
    # Internals (all assume self._lock is held)
    def _ttl(self, ttl_s: Optional[float]) -> float:
        if ttl_s is None:
            return self.default_ttl_s
        return max(0.1, float(ttl_s))

    def _active_lease_locked(self, lease_id: str, worker: str) -> TaskLease:
        lease = self._leases.get(lease_id)
        if lease is None:
            raise LeaseError("unknown_lease", f"unknown lease {lease_id!r}")
        if lease.worker != worker:
            raise LeaseError(
                "not_owner",
                f"lease {lease_id!r} belongs to {lease.worker!r}, not {worker!r}",
            )
        if lease.state != "active":
            raise LeaseError(
                "lease_expired", f"lease {lease_id!r} is {lease.state}"
            )
        return lease

    def _expire_due_locked(self, now: float) -> List[TaskLease]:
        expired: List[TaskLease] = []
        for lease in list(self._leases.values()):
            if lease.state != "active" or lease.deadline > now:
                continue
            lease.state = "expired"
            self._requeue_locked(lease)
            expired.append(lease)
        return expired

    def _requeue_locked(self, lease: TaskLease) -> None:
        entry = self._jobs.get(lease.job_id)
        if entry is None:
            return
        if entry.active.get(lease.task_index) == lease.lease_id:
            del entry.active[lease.task_index]
            if lease.task_index in entry.done:
                return  # a first-wins completion landed; never re-queue it
            # Front of the queue: a reclaimed task is the oldest work in
            # the system, and low indices unblock the in-order store flush.
            entry.pending.appendleft(lease.task_index)
