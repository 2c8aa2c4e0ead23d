"""Unit tests for the lease table: claim/renew/expiry/reclaim semantics."""

from __future__ import annotations

import pytest

from repro.fleet.leases import LeaseError, LeaseTable


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def table(clock):
    table = LeaseTable(default_ttl_s=10.0, clock=clock)
    table.register("job-a", [(0, "fp0"), (1, "fp1"), (2, "fp2")])
    return table


class TestClaim:
    def test_fifo_in_task_order(self, table):
        leases = table.claim("w1", limit=2)
        assert [lease.task_index for lease in leases] == [0, 1]
        assert table.pending_count() == 1
        assert table.active_count() == 2

    def test_limit_respected_and_exhaustion(self, table):
        assert len(table.claim("w1", limit=10)) == 3
        assert table.claim("w1", limit=1) == []

    def test_claims_carry_fingerprints(self, table):
        lease = table.claim("w1")[0]
        assert lease.fingerprint == "fp0"
        assert lease.worker == "w1"
        assert lease.state == "active"

    def test_fifo_across_jobs_in_registration_order(self, table):
        table.register("job-b", [(0, "bfp0")])
        leases = table.claim("w1", limit=4)
        assert [(lease.job_id, lease.task_index) for lease in leases] == [
            ("job-a", 0),
            ("job-a", 1),
            ("job-a", 2),
            ("job-b", 0),
        ]


class TestRenewRelease:
    def test_renew_extends_deadline(self, table, clock):
        lease = table.claim("w1")[0]
        clock.advance(8.0)
        renewed = table.renew(lease.lease_id, "w1")
        assert renewed.deadline == pytest.approx(18.0)
        assert renewed.renewals == 1
        clock.advance(9.0)  # t=17 < 18: still alive thanks to the renewal
        assert table.reclaim_expired() == []

    def test_renew_rejects_foreign_worker(self, table):
        lease = table.claim("w1")[0]
        with pytest.raises(LeaseError) as excinfo:
            table.renew(lease.lease_id, "w2")
        assert excinfo.value.code == "not_owner"

    def test_renew_unknown_lease(self, table):
        with pytest.raises(LeaseError) as excinfo:
            table.renew("nope", "w1")
        assert excinfo.value.code == "unknown_lease"

    def test_release_requeues_at_front(self, table):
        first, second = table.claim("w1", limit=2)
        table.release(first.lease_id, "w1")
        # Task 0 comes back before task 2 (front of the queue).
        assert table.claim("w2")[0].task_index == 0

    def test_release_then_renew_fails(self, table):
        lease = table.claim("w1")[0]
        table.release(lease.lease_id, "w1")
        with pytest.raises(LeaseError) as excinfo:
            table.renew(lease.lease_id, "w1")
        assert excinfo.value.code == "lease_expired"


class TestExpiry:
    def test_expired_lease_requeues_task(self, table, clock):
        lease = table.claim("w1")[0]
        clock.advance(10.1)
        expired = table.reclaim_expired()
        assert [e.lease_id for e in expired] == [lease.lease_id]
        assert table.pending_count() == 3  # task 0 is claimable again

    def test_expiry_is_lazy_on_claim(self, table, clock):
        table.claim("w1", limit=3)
        clock.advance(11.0)
        # A fresh claim triggers the expiry sweep and re-leases the work
        # (front-requeue reverses the order; coverage is what matters).
        leases = table.claim("w2", limit=3)
        assert sorted(lease.task_index for lease in leases) == [0, 1, 2]
        assert all(lease.worker == "w2" for lease in leases)

    def test_heartbeat_after_expiry_fails(self, table, clock):
        lease = table.claim("w1")[0]
        clock.advance(10.1)
        with pytest.raises(LeaseError) as excinfo:
            table.renew(lease.lease_id, "w1")
        assert excinfo.value.code == "lease_expired"


class TestComplete:
    def test_first_wins(self, table):
        lease = table.claim("w1")[0]
        _, accepted, duplicate = table.complete(lease.lease_id, "w1")
        assert accepted and not duplicate
        assert table.outstanding("job-a") == 2

    def test_duplicate_rejected(self, table, clock):
        # Crash-mid-task: w1's lease expires, w2 re-executes and completes,
        # then zombie w1 reports late.  Exactly one completion is accepted.
        lease1 = table.claim("w1")[0]
        clock.advance(10.1)
        lease2 = table.claim("w2")[0]
        assert lease2.task_index == lease1.task_index
        _, accepted, _ = table.complete(lease2.lease_id, "w2")
        assert accepted
        _, accepted, duplicate = table.complete(lease1.lease_id, "w1")
        assert not accepted and duplicate

    def test_zombie_completion_accepted_when_task_open(self, table, clock):
        # The reverse interleaving: w1 expires, the task is re-queued but
        # not yet re-executed; w1's late result is still good (first-wins).
        lease = table.claim("w1")[0]
        clock.advance(10.1)
        table.reclaim_expired()
        _, accepted, duplicate = table.complete(lease.lease_id, "w1")
        assert accepted and not duplicate
        # The re-queued slot is gone: nobody re-executes a done task.
        assert table.claim("w2")[0].task_index == 1

    def test_completion_closes_superseding_lease(self, table):
        # w1 releases, w2 re-leases the task, then w1's result lands
        # first: w2's lease is closed with the task, not left dangling.
        lease1 = table.claim("w1")[0]
        table.release(lease1.lease_id, "w1")
        lease2 = table.claim("w2")[0]
        assert lease2.task_index == lease1.task_index
        _, accepted, _ = table.complete(lease1.lease_id, "w1")
        assert accepted
        assert table.get(lease2.lease_id).state == "completed"
        assert table.active_count() == 0
        assert table.worker_active() == {}
        for op in (table.renew, table.release):
            with pytest.raises(LeaseError) as excinfo:
                op(lease2.lease_id, "w2")
            assert excinfo.value.code == "lease_expired"
        _, accepted, duplicate = table.complete(lease2.lease_id, "w2")
        assert not accepted and duplicate

    def test_superseded_lease_never_expires_into_requeue(self, clock):
        expired_batches = []
        table = LeaseTable(
            default_ttl_s=10.0, clock=clock, on_expire=expired_batches.append
        )
        table.register("job-a", [(0, "fp0")])
        lease1 = table.claim("w1")[0]
        clock.advance(10.1)
        lease2 = table.claim("w2")[0]
        _, accepted, _ = table.complete(lease1.lease_id, "w1")
        assert accepted
        clock.advance(10.1)
        assert table.reclaim_expired() == []
        assert [[x.lease_id for x in batch] for batch in expired_batches] == [
            [lease1.lease_id]
        ]
        assert table.get(lease2.lease_id).state == "completed"
        assert table.pending_count() == 0
        assert table.outstanding("job-a") == 0

    def test_complete_checks_owner(self, table):
        lease = table.claim("w1")[0]
        with pytest.raises(LeaseError) as excinfo:
            table.complete(lease.lease_id, "w2")
        assert excinfo.value.code == "not_owner"


class TestJobLifecycle:
    def test_register_adds_tasks_to_the_back_of_a_live_job(self, table):
        table.claim("w1")
        table.register("job-a", [(4, "fp4"), (3, "fp3")])
        leases = table.claim("w1", limit=10)
        assert [lease.task_index for lease in leases] == [1, 2, 3, 4]
        assert leases[-1].fingerprint == "fp4"

    def test_register_refuses_a_known_index_whole(self, table):
        with pytest.raises(ValueError):
            table.register("job-a", [(3, "fp3"), (1, "again")])
        assert table.pending_count() == 3
        assert table.outstanding("job-a") == 3

    def test_unregister_drops_tombstones(self, table):
        lease = table.claim("w1")[0]
        table.complete(lease.lease_id, "w1")
        table.unregister("job-a")
        with pytest.raises(LeaseError):
            table.complete(lease.lease_id, "w1")
        assert table.pending_count() == 0

    def test_worker_active_counts(self, table):
        table.claim("w1", limit=2)
        table.claim("w2", limit=1)
        assert table.worker_active() == {"w1": 2, "w2": 1}
