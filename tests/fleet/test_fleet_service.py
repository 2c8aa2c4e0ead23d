"""End-to-end fleet tests over real loopback HTTP: drainers, crash
reclaim, artifact integrity, and worker-role enforcement."""

from __future__ import annotations

import hashlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from service_helpers import summary_spec

from repro.fleet import FleetWorker
from repro.runner import ResultStore, render_report, run_campaign
from repro.service import AuthError, ServiceClient, ServiceError


def _start_worker(service, name, tmp_path, **kwargs):
    """A FleetWorker draining ``service`` on a daemon thread."""
    kwargs.setdefault("cache_dir", tmp_path / f"{name}-cache")
    kwargs.setdefault("poll_s", 0.05)
    worker = FleetWorker(service.url, name=name, **kwargs)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


def _lease_with_retry(client, worker, deadline_s=30.0, **kwargs):
    """Poll until the coordinator opens the job and grants a lease."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        leases = client.lease_tasks(worker, **kwargs)
        if leases:
            return leases
        time.sleep(0.05)
    raise AssertionError("no lease granted before the deadline")


class TestFleetEndToEnd:
    def test_single_drainer_report_matches_direct_run(
        self, tmp_path, fleet_service_factory
    ):
        spec = summary_spec("fleet-identity")
        straight_store = ResultStore(tmp_path / "straight.jsonl")
        run_campaign(
            spec.expand(),
            serial=True,
            cache_dir=tmp_path / "straight-cache",
            store=straight_store,
        )
        straight = render_report(list(straight_store.latest().values()))

        service = fleet_service_factory()
        client = ServiceClient(service.url)
        job = client.submit(spec)["job"]
        worker, thread = _start_worker(service, "w1", tmp_path)
        try:
            final = client.wait(job["job_id"], timeout=180)
        finally:
            worker.stop()
            thread.join(timeout=30)
        assert final["status"] == "done"
        assert final["progress"]["tasks_done"] == 2
        assert final["progress"]["tasks_failed"] == 0
        assert client.report(job["job_id"]) == straight
        assert worker.tasks_executed == 2

        metrics = client.metrics()
        assert 'repro_fleet_leases_total{event="granted"} 2' in metrics
        assert 'repro_fleet_leases_total{event="completed"} 2' in metrics
        assert "repro_fleet_tasks_pending 0" in metrics

    def test_wire_payloads_carry_no_worker_budget(self, fleet_service_factory):
        # Drainers run every task on the serial pipeline: neither the lease
        # nor the job spec hands them a worker share.
        service = fleet_service_factory()
        client = ServiceClient(service.url)
        job = client.submit(summary_spec("fleet-wire"))["job"]
        lease = _lease_with_retry(client, "w1")[0]
        assert set(lease) == {
            "lease_id", "job_id", "task_index", "fingerprint", "worker",
            "renewals", "state", "ttl_s", "job_submitted_at",
        }
        payload = client.job_spec(job["job_id"])
        assert set(payload) == {"job_id", "spec"}
        assert payload["spec"]["name"] == "fleet-wire"
        client.release_lease(lease["lease_id"], "w1")

    def test_two_drainers_split_the_job(self, tmp_path, fleet_service_factory):
        service = fleet_service_factory()
        client = ServiceClient(service.url)
        job = client.submit(summary_spec("fleet-pair"))["job"]
        workers = [_start_worker(service, f"w{i}", tmp_path) for i in (1, 2)]
        try:
            final = client.wait(job["job_id"], timeout=180)
        finally:
            for worker, thread in workers:
                worker.stop()
            for worker, thread in workers:
                thread.join(timeout=30)
        assert final["status"] == "done"
        executed = sum(worker.tasks_executed for worker, _ in workers)
        assert executed == 2
        # The store holds each task exactly once, whoever ran it.
        records = ResultStore(service.queue.get(job["job_id"]).store_path).load()
        assert len(records) == 2
        assert len({record["task_id"] for record in records}) == 2

    def test_crashed_worker_lease_reclaims_and_reruns_exactly_once(
        self, tmp_path, fleet_service_factory
    ):
        """A drainer that leases a task and dies (no heartbeat, no
        complete) must not lose the task or run it twice: the lease
        expires, the janitor re-queues it, a healthy drainer re-executes
        it, and the store ends with exactly one record per task."""
        service = fleet_service_factory(lease_ttl_s=1.0)
        client = ServiceClient(service.url)
        job = client.submit(summary_spec("fleet-crash"))["job"]

        # "Crash": claim a lease and abandon it, as a SIGKILLed process would.
        zombie = _lease_with_retry(client, "zombie", limit=1)
        assert len(zombie) == 1

        worker, thread = _start_worker(service, "healthy", tmp_path)
        try:
            final = client.wait(job["job_id"], timeout=180)
        finally:
            worker.stop()
            thread.join(timeout=30)
        assert final["status"] == "done"
        assert final["progress"]["tasks_done"] == 2
        assert worker.tasks_executed == 2  # the abandoned task re-ran here

        records = ResultStore(service.queue.get(job["job_id"]).store_path).load()
        assert len(records) == 2  # exactly once in the store
        assert len({record["task_id"] for record in records}) == 2
        assert 'repro_fleet_leases_total{event="reclaimed"} 1' in client.metrics()

    def test_lease_events_appear_in_job_stream(
        self, tmp_path, fleet_service_factory
    ):
        service = fleet_service_factory()
        client = ServiceClient(service.url)
        job = client.submit(summary_spec("fleet-events"))["job"]
        worker, thread = _start_worker(service, "w1", tmp_path)
        try:
            client.wait(job["job_id"], timeout=180)
        finally:
            worker.stop()
            thread.join(timeout=30)
        events = client.stream(job["job_id"], timeout=0.0)["events"]
        kinds = {event["event"] for event in events}
        assert "lease_granted" in kinds
        granted = [e for e in events if e["event"] == "lease_granted"]
        assert all(e["worker"] == "w1" for e in granted)


class TestArtifactStore:
    def test_round_trip_preserves_bytes(self, fleet_service_factory):
        service = fleet_service_factory()
        client = ServiceClient(service.url)
        key = hashlib.sha256(b"spec").hexdigest()
        data = b"x" * 4096 + b"tail"
        response = client.put_artifact("parsed_bench", key, data)
        assert response["stored"] is True
        assert response["bytes"] == len(data)
        assert client.get_artifact("parsed_bench", key) == data

    def test_miss_returns_none(self, fleet_service_factory):
        service = fleet_service_factory()
        client = ServiceClient(service.url)
        assert client.get_artifact("parsed_bench", "ab" * 32) is None

    def test_corrupt_body_rejected_422(self, fleet_service_factory):
        service = fleet_service_factory()
        key = hashlib.sha256(b"corrupt").hexdigest()
        request = urllib.request.Request(
            f"{service.url}/v1/artifacts/parsed_bench/{key}",
            data=b"actual bytes",
            method="PUT",
            headers={
                "Content-Type": "application/octet-stream",
                # Digest of *different* bytes: simulated in-flight corruption.
                "X-Repro-Digest": hashlib.sha256(b"claimed bytes").hexdigest(),
            },
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 422
        body = json.loads(excinfo.value.read().decode("utf-8"))
        assert body["error"]["code"] == "integrity_mismatch"
        # The corrupt blob was not stored.
        assert ServiceClient(service.url).get_artifact("parsed_bench", key) is None

    def test_missing_digest_rejected_400(self, fleet_service_factory):
        service = fleet_service_factory()
        key = hashlib.sha256(b"nodigest").hexdigest()
        request = urllib.request.Request(
            f"{service.url}/v1/artifacts/parsed_bench/{key}",
            data=b"bytes",
            method="PUT",
            headers={"Content-Type": "application/octet-stream"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_invalid_coordinates_are_400(self, fleet_service_factory):
        service = fleet_service_factory()
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client.put_artifact("bad.kind", "ab" * 32, b"data")
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.get_artifact("parsed_bench", "NOT-HEX")
        assert excinfo.value.status == 400


class TestFleetAuth:
    TOKENS = {
        "submitter-secret": {"name": "alice", "role": "submit"},
        "drainer-secret": {"name": "drainer", "role": "worker"},
    }

    @pytest.fixture
    def auth_fleet(self, tmp_path, fleet_service_factory):
        tokens_path = tmp_path / "tokens.json"
        tokens_path.write_text(json.dumps({"tokens": self.TOKENS}), encoding="utf-8")
        return fleet_service_factory(tokens_file=tokens_path)

    def test_worker_token_cannot_submit(self, auth_fleet):
        client = ServiceClient(auth_fleet.url, token="drainer-secret")
        with pytest.raises(AuthError) as excinfo:
            client.submit(summary_spec("fleet-auth"))
        assert excinfo.value.status == 403

    def test_submit_token_cannot_lease(self, auth_fleet):
        client = ServiceClient(auth_fleet.url, token="submitter-secret")
        with pytest.raises(AuthError) as excinfo:
            client.lease_tasks("alice")
        assert excinfo.value.status == 403

    def test_worker_token_drains_submitted_job(self, tmp_path, auth_fleet):
        submit = ServiceClient(auth_fleet.url, token="submitter-secret")
        job = submit.submit(summary_spec("fleet-auth-run"))["job"]
        worker, thread = _start_worker(
            auth_fleet, "drainer", tmp_path, token="drainer-secret"
        )
        try:
            final = submit.wait(job["job_id"], timeout=180)
        finally:
            worker.stop()
            thread.join(timeout=30)
        assert final["status"] == "done"
        assert worker.tasks_executed == 2

    def test_worker_token_reads_spec_of_foreign_job(self, auth_fleet):
        submit = ServiceClient(auth_fleet.url, token="submitter-secret")
        job = submit.submit(summary_spec("fleet-auth-spec"))["job"]
        drainer = ServiceClient(auth_fleet.url, token="drainer-secret")
        payload = drainer.job_spec(job["job_id"])
        assert payload["spec"]["name"] == "fleet-auth-spec"


class TestFleetDisabled:
    def test_lease_route_404_without_fleet_mode(
        self, tmp_path, fleet_service_factory
    ):
        service = fleet_service_factory(fleet=False)
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError) as excinfo:
            client.lease_tasks("w1")
        assert excinfo.value.status == 404
        assert "fleet mode" in excinfo.value.message
        # The artifact store rides the cache, not the coordinator: it stays
        # available so mixed fleets can still share artifacts.
        assert client.get_artifact("parsed_bench", "ab" * 32) is None
