"""Hypothesis property test: arbitrary submit/claim/finish/cancel
interleavings keep :class:`JobQueue` bookkeeping consistent.

The model mirrors the documented semantics — dedupe by fingerprint, FIFO
scheduling, requeue of failed/cancelled jobs at the back — and the
properties assert that the real queue never disagrees with it: status counts
add up, claim order is exactly ``seq`` order, dedupe always returns the same
job id, and terminal transitions stick.
"""

import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from service_helpers import summary_spec  # noqa: E402

from repro.service import JobQueue, TERMINAL_STATUSES  # noqa: E402

N_SPECS = 4


def _spec(i: int):
    return summary_spec(f"prop-{i}")


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, N_SPECS - 1)),
        st.tuples(st.just("claim"), st.just(0)),
        st.tuples(st.just("finish"), st.sampled_from(["done", "failed"])),
        st.tuples(st.just("cancel"), st.integers(0, N_SPECS - 1)),
    ),
    max_size=30,
)


class _Model:
    """Reference bookkeeping for the queue's externally visible state."""

    def __init__(self):
        self.status = {}  # spec index -> expected job status
        self.pending = []  # [(seq, index)] — expected claim order
        self.running = []  # indices claimed but not finished, in claim order
        self.seq = 0

    def submit(self, i):
        current = self.status.get(i)
        if current in ("queued", "running", "done"):
            return False  # dedupe: nothing scheduled
        self.status[i] = "queued"
        self.pending.append((self.seq, i))
        self.seq += 1
        return True

    def expected_claim(self):
        return min(self.pending)[1] if self.pending else None

    def claim(self, i):
        self.pending.remove(min(self.pending))
        self.status[i] = "running"
        self.running.append(i)

    def finish(self, status):
        i = self.running.pop(0)
        self.status[i] = status
        return i

    def cancel(self, i):
        if self.status.get(i) == "queued":
            self.pending = [entry for entry in self.pending if entry[1] != i]
            self.status[i] = "cancelled"


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_ops)
def test_queue_counts_and_order_stay_consistent(ops):
    with tempfile.TemporaryDirectory(prefix="repro-queue-prop-") as tmp:
        queue = JobQueue(Path(tmp) / "state")
        model = _Model()
        job_ids = {}  # spec index -> job id (fingerprint dedupe is stable)
        claimed = []  # live Job objects for finish()

        for op, arg in ops:
            if op == "submit":
                job, created = queue.submit(_spec(arg))
                expected_created = arg not in job_ids
                assert created == expected_created
                if arg in job_ids:
                    assert job.job_id == job_ids[arg]  # dedupe-by-fingerprint
                job_ids[arg] = job.job_id
                model.submit(arg)
            elif op == "claim":
                expected = model.expected_claim()
                job = queue.claim(timeout=0)
                if expected is None:
                    assert job is None
                else:
                    assert job.job_id == job_ids[expected]
                    assert job.status == "running"
                    model.claim(expected)
                    claimed.append(job)
            elif op == "finish":
                if not claimed:
                    continue
                queue.finish(claimed.pop(0), arg)
                model.finish(arg)
            elif op == "cancel":
                job_id = job_ids.get(arg, "never-submitted")
                before = queue.get(job_id)
                terminal_before = (
                    before is not None and before.status in TERMINAL_STATUSES
                )
                result = queue.cancel(job_id)
                assert (result is None) == (before is None)
                if terminal_before:
                    assert result.status == before.status  # terminal sticks
                model.cancel(arg)

            # Global invariants after every operation.
            assert len(queue.jobs()) == len(job_ids)
            counts = queue.counts()
            assert sum(counts.values()) == len(job_ids)
            for index, expected_status in model.status.items():
                live = queue.get(job_ids[index]).status
                if expected_status == "running" and live == "cancelled":
                    # cancel on running only flags the event; the transition
                    # belongs to the worker — which this test stands in for.
                    continue
                assert live == expected_status, (index, expected_status, live)

        # Drain: the remaining backlog claims in exact seq order.
        while model.pending:
            expected = model.expected_claim()
            job = queue.claim(timeout=0)
            assert job.job_id == job_ids[expected]
            model.claim(expected)
        assert queue.claim(timeout=0) is None


@settings(max_examples=10, deadline=None)
@given(ops=_ops)
def test_persistence_round_trips_any_interleaving(ops):
    """Whatever the interleaving, a recovered queue agrees with the dead
    one: same job ids, terminal statuses intact, active jobs re-queued in
    the original submission order."""
    with tempfile.TemporaryDirectory(prefix="repro-queue-prop-") as tmp:
        queue = JobQueue(Path(tmp) / "state")
        claimed = []
        for op, arg in ops:
            if op == "submit":
                queue.submit(_spec(arg))
            elif op == "claim":
                job = queue.claim(timeout=0)
                if job is not None:
                    claimed.append(job)
            elif op == "finish" and claimed:
                queue.finish(claimed.pop(0), arg)
            elif op == "cancel":
                for job in queue.jobs():
                    if job.spec.name == f"prop-{arg}":
                        queue.cancel(job.job_id)
        before = {job.job_id: job for job in queue.jobs()}
        # Expected post-recovery claim order: active jobs by seq.
        active = sorted(
            (
                (job.seq, job.job_id)
                for job in before.values()
                if job.status in ("queued", "running")
                and not job.cancel_event.is_set()
            ),
        )
        del queue

        fresh = JobQueue(Path(tmp) / "state")
        fresh.recover()
        assert {job.job_id for job in fresh.jobs()} == set(before)
        for job_id, old in before.items():
            if old.status in TERMINAL_STATUSES:
                assert fresh.get(job_id).status == old.status
        drained = []
        while True:
            job = fresh.claim(timeout=0)
            if job is None:
                break
            drained.append(job.job_id)
        assert drained == [job_id for _, job_id in active]
