"""FIFO scheduling: claim order, requeue, restarts and legacy priority input.

The queue claims jobs in the order of their persisted ``seq``.  Job
snapshots and spec JSON written while the service scheduled by priority
carry a ``"priority"`` key; they still load, the key is ignored, and the
order stays ``seq``.
"""

import json

from service_helpers import summary_spec

from repro.runner import CampaignSpec
from repro.service import JobQueue, ServiceClient


def _legacy_payload(name, priority):
    payload = summary_spec(name).to_json_dict()
    payload["priority"] = priority
    return payload


def _add_legacy_priority(queue, job, priority):
    """Rewrite a persisted job snapshot as a priority-era release wrote it."""
    path = queue.jobs_dir / f"{job.job_id}.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["priority"] = priority
    payload["spec"]["priority"] = priority
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


class TestFifoClaimOrder:
    def test_claims_in_submission_order(self, tmp_path):
        queue = JobQueue(tmp_path / "state")
        jobs = [queue.submit(summary_spec(f"job-{i}"))[0] for i in range(5)]
        order = [queue.claim(timeout=0).job_id for _ in range(5)]
        assert order == [job.job_id for job in jobs]
        assert queue.claim(timeout=0) is None

    def test_failed_job_requeues_at_the_back(self, tmp_path):
        queue = JobQueue(tmp_path / "state")
        first, _ = queue.submit(summary_spec("first"))
        queue.finish(queue.claim(timeout=0), "failed", error="boom")
        second, _ = queue.submit(summary_spec("second"))
        requeued, created = queue.submit(summary_spec("first"))
        assert not created and requeued is first
        assert first.seq > second.seq  # a fresh seq for the re-run
        assert queue.claim(timeout=0) is second
        assert queue.claim(timeout=0) is first

    def test_cancelled_job_leaves_the_order_and_rejoins_at_the_back(
        self, tmp_path
    ):
        queue = JobQueue(tmp_path / "state")
        a, _ = queue.submit(summary_spec("a"))
        b, _ = queue.submit(summary_spec("b"))
        c, _ = queue.submit(summary_spec("c"))
        queue.cancel(b.job_id)
        assert b.status == "cancelled"
        queue.submit(summary_spec("b"))  # re-enqueue the cancelled job
        order = [queue.claim(timeout=0) for _ in range(3)]
        assert order == [a, c, b]

    def test_dedupe_keeps_the_queue_slot(self, tmp_path):
        queue = JobQueue(tmp_path / "state")
        a, _ = queue.submit(summary_spec("a"))
        b, _ = queue.submit(summary_spec("b"))
        again, created = queue.submit(summary_spec("a"))
        assert again is a and not created
        assert [queue.claim(timeout=0), queue.claim(timeout=0)] == [a, b]

    def test_legacy_spec_with_priority_dedupes_onto_the_same_job(self, tmp_path):
        """Priority was never part of the fingerprint, so old clients'
        specs hash to the job a current client's spec creates."""
        queue = JobQueue(tmp_path / "state")
        job, created = queue.submit(summary_spec("same"))
        legacy = CampaignSpec.from_json_dict(_legacy_payload("same", 7))
        assert legacy.fingerprint() == summary_spec("same").fingerprint()
        again, created_again = queue.submit(legacy)
        assert created and not created_again
        assert again is job

    def test_snapshots_carry_no_priority(self, tmp_path):
        queue = JobQueue(tmp_path / "state")
        job, _ = queue.submit(CampaignSpec.from_json_dict(_legacy_payload("p", 4)))
        assert "priority" not in job.snapshot()
        persisted = json.loads(
            (queue.jobs_dir / f"{job.job_id}.json").read_text(encoding="utf-8")
        )
        assert "priority" not in persisted
        assert "priority" not in persisted["spec"]


class TestFifoAcrossRestart:
    def test_legacy_snapshots_recover_in_seq_order(self, tmp_path):
        """Snapshots carrying mixed priorities recover by ``seq`` alone: a
        later job with a higher legacy priority does not jump the queue."""
        queue = JobQueue(tmp_path / "state")
        jobs = [queue.submit(summary_spec(f"legacy-{i}"))[0] for i in range(4)]
        for job, priority in zip(jobs, (0, 9, -3, 5)):
            _add_legacy_priority(queue, job, priority)
        del queue

        fresh = JobQueue(tmp_path / "state")
        assert set(fresh.recover()) == {job.job_id for job in jobs}
        order = [fresh.claim(timeout=0).job_id for _ in range(4)]
        assert order == [job.job_id for job in jobs]

    def test_recovered_legacy_job_persists_without_priority(self, tmp_path):
        queue = JobQueue(tmp_path / "state")
        job, _ = queue.submit(summary_spec("legacy"))
        _add_legacy_priority(queue, job, 3)
        del queue

        fresh = JobQueue(tmp_path / "state")
        fresh.recover()
        assert fresh.get(job.job_id).spec.fingerprint() == job.spec.fingerprint()
        persisted = json.loads(
            (fresh.jobs_dir / f"{job.job_id}.json").read_text(encoding="utf-8")
        )
        assert "priority" not in persisted
        assert "priority" not in persisted["spec"]

    def test_service_restart_runs_in_fifo_order(self, tmp_path, service_factory):
        """End-to-end: a backlog persisted by a priority-era service is
        drained in submission order by the restarted one."""
        state = tmp_path / "state"
        queue = JobQueue(state)
        first, _ = queue.submit(summary_spec("e2e-first"))
        second, _ = queue.submit(summary_spec("e2e-second"))
        _add_legacy_priority(queue, first, 0)
        _add_legacy_priority(queue, second, 5)
        del queue

        service = service_factory("state")
        client = ServiceClient(service.url)
        final_first = client.wait(first.job_id, timeout=120)
        final_second = client.wait(second.job_id, timeout=120)
        assert final_first["status"] == final_second["status"] == "done"
        assert final_first["started_at"] <= final_second["started_at"]


class TestServiceFifo:
    def test_backlog_runs_in_submission_order(self, service_factory):
        """With the claim pump paused, a backlog runs in submission order
        once the workers resume."""
        service = service_factory()
        service.worker.stop()
        client = ServiceClient(service.url)
        ids = [
            client.submit(summary_spec(f"fifo-{i}"))["job"]["job_id"]
            for i in range(3)
        ]
        service.worker.start()
        finals = [client.wait(job_id, timeout=300) for job_id in ids]
        assert all(final["status"] == "done" for final in finals)
        started = [final["started_at"] for final in finals]
        assert started == sorted(started)

    def test_legacy_priority_key_is_accepted_and_dedupes(self, service_factory):
        client = ServiceClient(service_factory().url)
        first = client.submit(_legacy_payload("legacy-http", 10))
        assert first["created"] is True
        assert "priority" not in first["job"]
        again = client.submit(summary_spec("legacy-http"))
        assert again["created"] is False
        assert again["job"]["job_id"] == first["job"]["job_id"]
        client.wait(first["job"]["job_id"], timeout=120)
