"""Hypothesis property test: arbitrary claim/renew/release/complete/expiry
interleavings keep :class:`LeaseTable` bookkeeping consistent.

The model mirrors the documented semantics — every task index in exactly
one of {pending, active, done}, lazy expiry swept on each mutating call,
first-wins completion (accepted even from an expired lease when the task
is still open), reclaimed tasks re-queued at the *front*, tasks registered
one batch at a time joining the *back* of the queue (a batch that repeats a
registered index is refused whole) — and the properties assert the real
table never disagrees with it.

Mirrors the structure of ``tests/service/test_queue_properties.py``.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.fleet.leases import LeaseError, LeaseTable  # noqa: E402

N_TASKS = 5
#: Indices N_TASKS..MAX_TASKS-1 arrive later through ``register`` ops.
MAX_TASKS = 8
TTL = 10.0
WORKERS = ["w0", "w1", "w2"]

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("claim"), st.sampled_from(WORKERS), st.integers(1, 3)
        ),
        st.tuples(st.just("renew"), st.integers(0, 15), st.booleans()),
        st.tuples(st.just("release"), st.integers(0, 15), st.just(True)),
        st.tuples(st.just("complete"), st.integers(0, 15), st.booleans()),
        st.tuples(
            st.just("advance"),
            st.floats(0.0, 15.0, allow_nan=False),
            st.just(True),
        ),
        st.tuples(st.just("reclaim"), st.just(0), st.just(True)),
        st.tuples(st.just("register"), st.integers(1, 2), st.booleans()),
    ),
    max_size=40,
)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _ModelLease:
    def __init__(self, lease_id, index, worker, deadline):
        self.lease_id = lease_id
        self.index = index
        self.worker = worker
        self.deadline = deadline
        self.state = "active"


class _Model:
    """Reference bookkeeping with the same lazy-expiry discipline."""

    def __init__(self):
        self.registered = list(range(N_TASKS))
        self.pending = list(range(N_TASKS))
        self.active = {}  # task index -> _ModelLease
        self.done = set()
        self.leases = []  # every lease ever issued, in issue order
        self.accepted = set()  # indices whose completion was accepted

    def sweep(self, now):
        """Mirror ``_expire_due_locked``: overdue leases re-queue at front."""
        for lease in self.leases:
            if lease.state == "active" and lease.deadline <= now:
                lease.state = "expired"
                if self.active.get(lease.index) is lease:
                    del self.active[lease.index]
                    if lease.index not in self.done:
                        self.pending.insert(0, lease.index)

    def register(self, indices):
        """Mirror ``register``: new indices join the back of the queue."""
        self.registered.extend(indices)
        self.pending.extend(indices)

    def claim(self, now, worker, limit):
        self.sweep(now)
        granted = []
        while self.pending and len(granted) < limit:
            index = self.pending.pop(0)
            lease = _ModelLease(None, index, worker, now + TTL)
            self.active[index] = lease
            self.leases.append(lease)
            granted.append(lease)
        return granted

    def gate(self, now, lease, worker):
        """The error (code) renew/release would raise, or None."""
        self.sweep(now)
        if lease.worker != worker:
            return "not_owner"
        if lease.state != "active":
            return "lease_expired"
        return None

    def complete(self, now, lease, worker):
        """Returns (error_code, accepted, duplicate)."""
        self.sweep(now)
        if lease.worker != worker:
            return "not_owner", False, False
        if lease.index in self.done:
            lease.state = "completed"
            return None, False, True
        if lease.index in self.active:
            # The superseded holder (possibly a re-lease of this index)
            # closes with the task.
            self.active.pop(lease.index).state = "completed"
        elif lease.index in self.pending:
            self.pending.remove(lease.index)
        self.done.add(lease.index)
        self.accepted.add(lease.index)
        lease.state = "completed"
        return None, True, False


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_ops)
# A completion through a released lease while the task is re-leased must
# close the new holder: it may not be released or reclaimed afterwards.
@example(
    ops=[
        ("claim", "w0", 1),
        ("release", 0, True),
        ("claim", "w0", 1),
        ("complete", 0, True),
        ("release", 1, True),
    ]
)
@example(
    ops=[
        ("claim", "w0", 1),
        ("release", 0, True),
        ("claim", "w0", 1),
        ("complete", 0, True),
        ("advance", 10.0, True),
        ("reclaim", 0, True),
    ]
)
# A late batch queues behind a reclaimed task; a batch repeating an
# index changes nothing.
@example(
    ops=[
        ("claim", "w0", 2),
        ("advance", 10.0, True),
        ("register", 2, False),
        ("register", 1, True),
        ("claim", "w1", 8),
    ]
)
def test_lease_partition_and_exactly_once_hold(ops):
    clock = _Clock()
    table = LeaseTable(default_ttl_s=TTL, clock=clock)
    table.register("job", [(i, f"fp{i}") for i in range(N_TASKS)])
    model = _Model()

    for op, a, b in ops:
        if op == "claim":
            granted = table.claim(a, limit=b)
            expected = model.claim(clock.now, a, b)
            assert [lease.task_index for lease in granted] == [
                lease.index for lease in expected
            ]
            assert all(lease.worker == a for lease in granted)
            for real, ref in zip(granted, expected):
                ref.lease_id = real.lease_id
        elif op in ("renew", "release"):
            if not model.leases:
                continue
            ref = model.leases[a % len(model.leases)]
            worker = ref.worker if b else "intruder"
            error = model.gate(clock.now, ref, worker)
            if error is None and op == "renew":
                lease = table.renew(ref.lease_id, worker)
                ref.deadline = clock.now + TTL
                assert lease.deadline == pytest.approx(ref.deadline)
            elif error is None:
                table.release(ref.lease_id, worker)
                ref.state = "released"
                del model.active[ref.index]
                model.pending.insert(0, ref.index)
            else:
                with pytest.raises(LeaseError) as excinfo:
                    getattr(table, op)(ref.lease_id, worker)
                assert excinfo.value.code == error
        elif op == "complete":
            if not model.leases:
                continue
            ref = model.leases[a % len(model.leases)]
            worker = ref.worker if b else "intruder"
            error, accepted, duplicate = model.complete(clock.now, ref, worker)
            if error is None:
                _, real_accepted, real_duplicate = table.complete(
                    ref.lease_id, worker
                )
                assert (real_accepted, real_duplicate) == (accepted, duplicate)
            else:
                with pytest.raises(LeaseError) as excinfo:
                    table.complete(ref.lease_id, worker)
                assert excinfo.value.code == error
        elif op == "advance":
            clock.now += a
        elif op == "reclaim":
            expired = table.reclaim_expired()
            before = set(model.active)
            model.sweep(clock.now)
            reclaimed = before - set(model.active)
            assert {lease.task_index for lease in expired} == reclaimed
        elif op == "register":
            start = len(model.registered)
            fresh = list(range(start, min(start + a, MAX_TASKS)))
            if b:
                # Repeat an already-registered index: the batch is refused.
                with pytest.raises(ValueError):
                    table.register("job", [(i, f"fp{i}") for i in fresh + [0]])
            else:
                table.register("job", [(i, f"fp{i}") for i in fresh])
                model.register(fresh)

        # Global invariants after every operation.  The table sweeps
        # lazily, so compare against the model's equally-lazy view.
        assert table.pending_count() == len(model.pending)
        assert table.active_count() == len(model.active)
        total = len(model.registered)
        indices = (
            set(model.pending) | set(model.active) | model.done
        )
        assert indices == set(model.registered)
        assert len(model.pending) + len(model.active) + len(model.done) == total
        assert table.outstanding("job") == total - len(model.done)
        assert model.accepted == model.done - (model.done - model.accepted)

    # Drain: expire stragglers, claim and complete everything left —
    # every task ends done, each accepted exactly once.
    clock.now += TTL + 1
    while True:
        granted = table.claim("drain", limit=N_TASKS)
        if not granted:
            break
        for lease in granted:
            _, accepted, duplicate = table.complete(lease.lease_id, "drain")
            assert accepted and not duplicate
    assert table.outstanding("job") == 0
    assert table.pending_count() == 0
    assert table.active_count() == 0
