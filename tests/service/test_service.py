"""End-to-end campaign-service behaviour over real loopback HTTP."""

import json
import time

import pytest

from service_helpers import gnn_spec, summary_spec

from repro.runner import ArtifactCache, ResultStore, render_report, run_campaign
from repro.runner.cli import main
from repro.service import ServiceClient, ServiceError


def _offline_report(spec, tmp_path, subdir="offline"):
    """Run the same spec offline and render the service-style report."""
    store = ResultStore(tmp_path / subdir / f"{spec.name}.jsonl")
    run_campaign(
        spec.expand(), serial=True, cache_dir=tmp_path / subdir / "cache", store=store
    )
    return render_report(list(store.latest().values()))


class TestHealthAndErrors:
    def test_health_reports_job_counts(self, service_factory):
        client = ServiceClient(service_factory().url)
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["jobs"] == {}

    def test_unknown_job_is_404(self, service_factory):
        client = ServiceClient(service_factory().url)
        with pytest.raises(ServiceError) as excinfo:
            client.status("no-such-job")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, service_factory):
        client = ServiceClient(service_factory().url)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v1/bogus")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, service_factory):
        client = ServiceClient(service_factory().url)
        with pytest.raises(ServiceError) as excinfo:
            client._request("DELETE", "/v1/jobs")
        assert excinfo.value.status == 405

    def test_invalid_spec_is_400_with_message(self, service_factory):
        client = ServiceClient(service_factory().url)
        spec = summary_spec().to_json_dict()
        spec["targets"] = ["never-a-benchmark"]
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        assert "unknown target" in excinfo.value.message

    def test_invalid_scheme_params_are_400_with_structured_error(
        self, service_factory
    ):
        """A typo'd scheme or out-of-range h dies at submit time, not inside
        a worker half a campaign later."""
        client = ServiceClient(service_factory().url)
        unknown = summary_spec().to_json_dict()
        unknown["schemes"] = ["mystery"]
        with pytest.raises(ServiceError) as excinfo:
            client.submit(unknown)
        assert excinfo.value.status == 400
        assert "unknown locking scheme" in excinfo.value.message

        bad_h = summary_spec().to_json_dict()
        bad_h["schemes"] = ["sfll:9"]  # h > key size 8
        with pytest.raises(ServiceError) as excinfo:
            client.submit(bad_h)
        assert excinfo.value.status == 400
        assert "invalid parameters for scheme 'sfll:9'" in excinfo.value.message

    def test_unknown_report_style_is_400(self, service_factory):
        client = ServiceClient(service_factory().url)
        job = client.submit(summary_spec())["job"]
        client.wait(job["job_id"], timeout=120)
        with pytest.raises(ServiceError) as excinfo:
            client.fetch(job["job_id"], "report?style=sideways")
        assert excinfo.value.status == 400
        # The matrix style serves on the same route; summary-only records
        # render the empty matrix rather than erroring.
        report = client.report(job["job_id"], style="matrix")
        assert report.startswith("Capability matrix")

    def test_unknown_spec_field_is_400(self, service_factory):
        client = ServiceClient(service_factory().url)
        spec = summary_spec().to_json_dict()
        spec["frobnicate"] = True
        with pytest.raises(ServiceError, match="frobnicate"):
            client.submit(spec)

    def test_malformed_spec_shapes_are_400_not_500(self, service_factory):
        """JSON-valid but wrongly shaped payloads are client errors."""
        client = ServiceClient(service_factory().url)
        for payload in (
            {"name": "x", "key_size_groups": 5},
            {"name": "x", "overrides": {"gnn.epochs": 5}},
            {"name": "x", "timeout_s": {}},
            {"name": "x", "schemes": "antisat"},
        ):
            with pytest.raises(ServiceError) as excinfo:
                client.submit(payload)
            assert excinfo.value.status == 400, payload

    def test_keepalive_connection_survives_unread_bodies(self, service_factory):
        """Routes that ignore the request body (cancel, errors) must still
        drain it, or the next request on a keep-alive connection is parsed
        from the stale bytes."""
        import http.client

        service = service_factory()
        client = ServiceClient(service.url)
        job = client.submit(summary_spec())["job"]
        client.wait(job["job_id"], timeout=120)

        conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
        try:
            # A body on cancel (common client behaviour) is ignored by the
            # route but must be consumed.
            conn.request(
                "POST", f"/v1/jobs/{job['job_id']}/cancel", body=b"{}",
                headers={"Content-Type": "application/json"},
            )
            first = conn.getresponse()
            first.read()
            assert first.status == 200
            # Same persistent connection: must parse as a fresh request.
            conn.request("GET", f"/v1/jobs/{job['job_id']}")
            second = conn.getresponse()
            payload = json.loads(second.read())
            assert second.status == 200
            assert payload["job"]["job_id"] == job["job_id"]
        finally:
            conn.close()

    def test_malformed_json_body_is_400(self, service_factory):
        import urllib.error
        import urllib.request

        url = service_factory().url + "/v1/jobs"
        request = urllib.request.Request(
            url, data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestEndToEnd:
    def test_two_concurrent_campaigns_complete(self, service_factory, tmp_path):
        """The acceptance scenario: two jobs at once, both queued->running->
        done, each report byte-identical to an offline run of its spec."""
        service = service_factory(job_slots=2)
        client = ServiceClient(service.url)
        spec_a = summary_spec("concurrent-a", targets=("c2670", "c3540"))
        spec_b = summary_spec("concurrent-b", targets=("c5315", "c2670"))
        job_a = client.submit(spec_a)["job"]
        job_b = client.submit(spec_b)["job"]
        assert job_a["job_id"] != job_b["job_id"]

        final_a = client.wait(job_a["job_id"], timeout=120)
        final_b = client.wait(job_b["job_id"], timeout=120)
        assert final_a["status"] == "done"
        assert final_b["status"] == "done"
        assert final_a["history"] == ["queued", "running", "done"]
        assert final_b["history"] == ["queued", "running", "done"]
        assert final_a["progress"]["tasks_done"] == 2
        assert final_a["progress"]["tasks_failed"] == 0

        assert client.report(job_a["job_id"]) == _offline_report(
            spec_a, tmp_path, "offline-a"
        )
        assert client.report(job_b["job_id"]) == _offline_report(
            spec_b, tmp_path, "offline-b"
        )

    def test_submission_dedupes_onto_existing_job(self, service_factory):
        client = ServiceClient(service_factory().url)
        first = client.submit(summary_spec())
        second = client.submit(summary_spec())
        assert first["created"] is True
        assert second["created"] is False
        assert first["job"]["job_id"] == second["job"]["job_id"]
        assert len(client.jobs()) == 1

    def test_records_endpoint_returns_store_records(self, service_factory):
        client = ServiceClient(service_factory().url)
        job = client.submit(summary_spec())["job"]
        client.wait(job["job_id"], timeout=120)
        records = client.records(job["job_id"])
        assert len(records) == 2
        assert {r["status"] for r in records} == {"ok"}
        assert {r["attack"] for r in records} == {"dataset-summary"}

    def test_failed_campaign_reports_failed_status(self, service_factory):
        client = ServiceClient(service_factory().url)
        spec = summary_spec("will-fail")
        # Force a generation-time failure the validator cannot see: a key
        # size too large for every benchmark's primary inputs.
        spec.key_size_groups = ((4096,),)
        spec.targets = None
        job = client.submit(spec)["job"]
        final = client.wait(job["job_id"], timeout=120)
        assert final["status"] == "failed"
        assert final["error"]

    def test_job_garbage_collects_under_env_budget(
        self, service_factory, tmp_path, monkeypatch
    ):
        """The service bounds the cache through each job's run_campaign."""
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
        client = ServiceClient(service_factory().url)
        job = client.submit(summary_spec("gc-budget"))["job"]
        assert client.wait(job["job_id"], timeout=120)["status"] == "done"
        # The job built and cached the tasks' shared dataset; the gc after
        # the campaign evicted it.
        records = client.records(job["job_id"])
        assert [r["cache"] for r in records] == [
            {"dataset": "miss"}, {"dataset": "hit"}
        ]
        assert ArtifactCache(tmp_path / "cache").entries() == []

    def test_cancel_running_job(self, service_factory):
        client = ServiceClient(service_factory().url)
        job = client.submit(gnn_spec("cancel-me", epochs=80))["job"]
        deadline = time.monotonic() + 60
        while client.status(job["job_id"])["status"] == "queued":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.05)
        client.cancel(job["job_id"])
        final = client.wait(job["job_id"], timeout=120)
        assert final["status"] == "cancelled"
        assert final["cancel_requested"] is True
        assert final["progress"]["tasks_done"] < final["progress"]["tasks_total"]

    def test_cancel_queued_job_via_delete(self, service_factory):
        # job_slots=1 and a long job in front keep the second job queued.
        service = service_factory()
        client = ServiceClient(service.url)
        blocker = client.submit(gnn_spec("blocker", epochs=80))["job"]
        queued = client.submit(summary_spec("stuck-behind"))["job"]
        payload = client._request("DELETE", f"/v1/jobs/{queued['job_id']}")
        assert payload["job"]["status"] == "cancelled"
        client.cancel(blocker["job_id"])
        client.wait(blocker["job_id"], timeout=120)
        # The cancelled-queued job never ran a single task.
        assert client.status(queued["job_id"])["progress"]["tasks_done"] == 0


class TestCliVerbs:
    def test_submit_wait_and_fetch_roundtrip(
        self, service_factory, tmp_path, capsys
    ):
        service = service_factory()
        args = [
            "--url", service.url,
            "--benchmarks", "c2670", "c3540", "c5315",
            "--targets", "c2670",
            "--key-sizes", "8",
            "--attack", "dataset-summary",
        ]
        code = main(["submit", *args, "--wait", "--wait-timeout", "120"])
        out = capsys.readouterr().out
        assert code == 0
        assert "submitted" in out
        assert "1/1 task(s)" in out

        job_id = service.queue.jobs()[0].job_id
        assert main(["status", job_id, "--url", service.url]) == 0
        assert "done" in capsys.readouterr().out

        assert main(["fetch", job_id, "--url", service.url]) == 0
        fetched = capsys.readouterr().out
        assert "1 task(s): 1 ok" in fetched

        assert main(["fetch", job_id, "--url", service.url, "--records"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["status"] == "ok"

        assert main(["fetch", job_id, "--url", service.url, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["job_id"] == job_id
        assert "1 task(s): 1 ok" in payload["report"]

        code = main(
            ["fetch", job_id, "--url", service.url, "--records", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 1

    def test_submit_dedupe_message_and_json(self, service_factory, capsys):
        service = service_factory()
        args = [
            "submit", "--url", service.url,
            "--benchmarks", "c2670", "c3540", "c5315",
            "--targets", "c2670", "--key-sizes", "8",
            "--attack", "dataset-summary",
        ]
        assert main(args) == 0
        assert "submitted" in capsys.readouterr().out
        assert main(args + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["created"] is False

    def test_submit_json_wait_prints_the_final_snapshot(
        self, service_factory, capsys
    ):
        service = service_factory()
        args = [
            "submit", "--url", service.url, "--json",
            "--wait", "--wait-timeout", "120",
            "--benchmarks", "c2670", "c3540", "c5315",
            "--targets", "c3540", "--key-sizes", "8",
            "--attack", "dataset-summary",
        ]
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert json.loads(lines[0])["job"]["status"] == "queued"
        final = json.loads(lines[-1])["job"]
        assert final["status"] == "done"
        assert final["progress"]["tasks_done"] == 1

    def test_status_lists_jobs(self, service_factory, capsys):
        service = service_factory()
        client = ServiceClient(service.url)
        assert main(["status", "--url", service.url]) == 0
        assert "no jobs" in capsys.readouterr().out
        job = client.submit(summary_spec())["job"]
        client.wait(job["job_id"], timeout=120)
        assert main(["status", "--url", service.url]) == 0
        assert job["job_id"] in capsys.readouterr().out

    def test_status_unknown_job_exits_cleanly(self, service_factory, capsys):
        assert main(["status", "zzz", "--url", service_factory().url]) == 2
        assert "404" in capsys.readouterr().err

    def test_unreachable_service_is_a_clean_error(self, capsys):
        assert main(["status", "--url", "http://127.0.0.1:9"]) == 2
        err = capsys.readouterr().err
        assert "cannot reach the campaign service" in err

    def test_cancel_verb(self, service_factory, capsys):
        service = service_factory()
        client = ServiceClient(service.url)
        client.submit(gnn_spec("cli-cancel", epochs=80))
        job_id = service.queue.jobs()[0].job_id
        assert main(["cancel", job_id, "--url", service.url]) == 0
        client.wait(job_id, timeout=120)
        assert client.status(job_id)["status"] == "cancelled"

    @pytest.mark.parametrize("flag", ["--cache-max-bytes", "--cache-max-age"])
    def test_serve_has_no_cache_budget_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", flag, "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_invalid_submit_spec_fails_client_side(self, capsys):
        # Validation runs before any network traffic: no service needed.
        code = main(
            ["submit", "--url", "http://127.0.0.1:9",
             "--benchmarks", "never-a-benchmark", "--key-sizes", "8"]
        )
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err
