"""The ``/metricsz`` telemetry plane over real loopback HTTP."""

import json

import pytest

from repro.obs import parse_prometheus
from repro.service.client import AuthError, ServiceClient
from service_helpers import summary_spec


def _scrape(service, token=None):
    return parse_prometheus(ServiceClient(service.url, token=token).metrics())


class TestMetricsEndpoint:
    def test_idle_service_exposes_materialised_series(self, service_factory):
        service = service_factory()
        ServiceClient(service.url).health()
        parsed = _scrape(service)
        for state in ("queued", "running", "done", "failed", "cancelled"):
            assert parsed[f'repro_service_jobs{{state="{state}"}}'] == 0.0
        assert parsed["repro_service_workers_busy"] == 0.0
        assert parsed["repro_service_worker_slots"] == 1.0
        assert parsed["repro_service_event_feed_depth"] == 0.0
        # HTTP traffic (the health probe above) is counted per method/status.
        assert (
            parsed['repro_service_http_requests_total{method="GET",status="200"}']
            >= 1.0
        )

    def test_exposition_format_is_prometheus_text(self, service_factory):
        service = service_factory()
        client = ServiceClient(service.url)
        client.health()
        text = client.metrics()
        assert "# TYPE repro_service_jobs gauge" in text
        assert "# TYPE repro_service_http_requests_total counter" in text
        assert parse_prometheus(text)

    def test_submit_to_finish_lifecycle_is_visible(self, service_factory):
        service = service_factory()
        client = ServiceClient(service.url)
        job = client.submit(summary_spec())["job"]
        status = client.wait(job["job_id"], timeout=120.0)
        assert status["status"] == "done"

        parsed = _scrape(service)
        assert (
            parsed[
                'repro_service_submits_total'
                '{outcome="created",principal="anonymous"}'
            ]
            == 1.0
        )
        assert parsed["repro_service_claims_total"] == 1.0
        assert parsed['repro_service_jobs{state="done"}'] == 1.0
        assert parsed['repro_service_jobs_finished_total{status="done"}'] == 1.0
        assert parsed['repro_service_tasks_total{status="ok"}'] == 2.0
        assert parsed["repro_service_job_queue_wait_seconds_count"] == 1.0
        assert parsed["repro_service_job_run_seconds_count"] == 1.0
        assert parsed["repro_service_workers_busy"] == 0.0

    def test_corrupt_store_lines_reach_the_scrape(self, service_factory):
        service = service_factory()
        client = ServiceClient(service.url)
        job_id = client.submit(summary_spec("corrupt"))["job"]["job_id"]
        client.wait(job_id, timeout=120.0)
        client.report(job_id)
        assert "repro_store_corrupt_lines_total" not in _scrape(service)

        store_path = service.queue.stores_dir / f"{job_id}.jsonl"
        with store_path.open("a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        client.report(job_id)
        assert _scrape(service)["repro_store_corrupt_lines_total"] == 1.0
        client.records(job_id)
        assert _scrape(service)["repro_store_corrupt_lines_total"] == 2.0

    def test_deduped_resubmission_is_counted_separately(self, service_factory):
        service = service_factory()
        client = ServiceClient(service.url)
        spec = summary_spec("dedupe")
        first = client.submit(spec)
        second = client.submit(spec)
        assert first["created"] and not second["created"]
        parsed = _scrape(service)
        assert (
            parsed[
                'repro_service_submits_total'
                '{outcome="created",principal="anonymous"}'
            ]
            == 1.0
        )
        assert (
            parsed[
                'repro_service_submits_total'
                '{outcome="deduped",principal="anonymous"}'
            ]
            == 1.0
        )
        client.wait(first["job"]["job_id"], timeout=120.0)


class TestJobTimings:
    def test_status_payload_carries_timings(self, service_factory):
        service = service_factory()
        client = ServiceClient(service.url)
        job = client.submit(summary_spec())["job"]
        assert "timings" in job and job["timings"]["run_s"] is None
        status = client.wait(job["job_id"], timeout=120.0)
        timings = status["timings"]
        assert timings["queue_wait_s"] >= 0.0
        assert timings["run_s"] > 0.0
        assert timings["tasks_wall_s"] > 0.0
        assert timings["tasks_queue_wait_s"] >= 0.0

    def test_timings_survive_a_restart(self, service_factory, tmp_path):
        service = service_factory("restartable")
        client = ServiceClient(service.url)
        job = client.submit(summary_spec())["job"]
        client.wait(job["job_id"], timeout=120.0)
        service.stop()
        revived = service_factory("restartable")
        status = ServiceClient(revived.url).status(job["job_id"])
        assert status["timings"]["run_s"] > 0.0


class TestMetricsAuth:
    @pytest.fixture
    def auth_service(self, service_factory, tmp_path):
        tokens = {
            "alice-secret": {"name": "alice", "role": "submit"},
            "ops-secret": {"name": "ops", "role": "admin"},
        }
        tokens_path = tmp_path / "tokens.json"
        tokens_path.write_text(json.dumps({"tokens": tokens}), encoding="utf-8")
        return service_factory(tokens_file=tokens_path)

    def test_admin_token_scrapes(self, auth_service):
        parsed = _scrape(auth_service, token="ops-secret")
        assert "repro_service_worker_slots" in parsed

    def test_submit_token_is_forbidden(self, auth_service):
        with pytest.raises(AuthError) as excinfo:
            _scrape(auth_service, token="alice-secret")
        assert excinfo.value.status == 403

    def test_missing_token_is_unauthorized(self, auth_service):
        with pytest.raises(AuthError) as excinfo:
            _scrape(auth_service)
        assert excinfo.value.status == 401
