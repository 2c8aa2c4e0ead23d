"""The ``/v1/jobs/<id>/stream`` long-poll feed, ``wait``, and ``repro watch``."""

import json
import time

import pytest

from service_helpers import gnn_spec, summary_spec

from repro.runner.cli import main
from repro.service import NotFoundError, ServiceClient


class TestStreamEndpoint:
    def test_completed_job_replays_full_feed(self, service_factory):
        client = ServiceClient(service_factory().url)
        job = client.submit(summary_spec())["job"]
        client.wait(job["job_id"], timeout=120)

        payload = client.stream(job["job_id"], since=0, timeout=0)
        events = payload["events"]
        assert payload["job"]["status"] == "done"
        assert payload["next"] == len(events)
        # Absolute event numbers are dense and ordered from zero.
        assert [e["n"] for e in events] == list(range(len(events)))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "status"  # queued
        assert "task" in kinds
        assert kinds[-1] == "status"  # done
        statuses = [e["status"] for e in events if e["event"] == "status"]
        assert statuses == ["queued", "running", "done"]
        task_events = [e for e in events if e["event"] == "task"]
        assert len(task_events) == 2
        assert task_events[-1]["tasks_done"] == 2
        assert task_events[-1]["tasks_total"] == 2
        assert all("task_id" in e for e in task_events)

    def test_cursor_resumes_where_it_left_off(self, service_factory):
        client = ServiceClient(service_factory().url)
        job = client.submit(summary_spec())["job"]
        client.wait(job["job_id"], timeout=120)
        first = client.stream(job["job_id"], since=0, timeout=0)
        middle = first["events"][2]["n"]
        rest = client.stream(job["job_id"], since=middle, timeout=0)
        assert [e["n"] for e in rest["events"]] == [
            e["n"] for e in first["events"][2:]
        ]
        # Fully caught up on a terminal job: empty, immediate.
        done = client.stream(job["job_id"], since=first["next"], timeout=0)
        assert done["events"] == []
        assert done["next"] == first["next"]

    def test_long_poll_blocks_until_timeout_when_idle(self, service_factory):
        """A caught-up stream on a live job holds the request ~timeout.

        The claim pump is paused so the job deterministically stays queued
        (and its feed stays silent) for the duration of the long-poll.
        """
        service = service_factory()
        service.worker.stop()
        client = ServiceClient(service.url)
        queued = client.submit(summary_spec("stream-idle"))["job"]
        cursor = client.stream(queued["job_id"], since=0, timeout=0)["next"]
        begin = time.monotonic()
        payload = client.stream(queued["job_id"], since=cursor, timeout=0.5)
        elapsed = time.monotonic() - begin
        assert payload["events"] == []
        assert payload["next"] == cursor
        assert elapsed >= 0.4
        client.cancel(queued["job_id"])

    def test_stream_wakes_on_new_events(self, service_factory):
        """The long-poll returns as soon as the job progresses — far before
        its timeout — rather than sleeping the full window."""
        service = service_factory()
        client = ServiceClient(service.url)
        job = client.submit(summary_spec("stream-live"))["job"]
        # Server-side wait far beyond the job's runtime: if the stream only
        # returned at timeout this would take 20s; progress must wake it.
        begin = time.monotonic()
        payload = client.stream(job["job_id"], since=0, timeout=20)
        assert time.monotonic() - begin < 15
        assert payload["events"]

    def test_unknown_job_is_404(self, service_factory):
        client = ServiceClient(service_factory().url)
        with pytest.raises(NotFoundError):
            client.stream("no-such-job")

    def test_wait_on_unknown_job_is_404(self, service_factory):
        client = ServiceClient(service_factory().url)
        with pytest.raises(NotFoundError):
            client.wait("no-such-job", timeout=5)

    def test_bad_parameters_are_400(self, service_factory):
        client = ServiceClient(service_factory().url)
        job = client.submit(summary_spec())["job"]
        client.wait(job["job_id"], timeout=120)
        with pytest.raises(Exception) as excinfo:
            client._request(
                "GET", f"/v1/jobs/{job['job_id']}/stream?since=abc"
            )
        assert getattr(excinfo.value, "status", None) == 400
        assert getattr(excinfo.value, "code", None) == "invalid_request"

    def test_wait_rides_the_stream(self, service_factory):
        """wait() sees intermediate snapshots without busy-polling."""
        client = ServiceClient(service_factory().url)
        job = client.submit(summary_spec())["job"]
        seen = []
        final = client.wait(
            job["job_id"], timeout=120, on_update=lambda s: seen.append(s["status"])
        )
        assert final["status"] == "done"
        assert seen[-1] == "done"

    def test_client_disconnect_mid_stream_leaves_service_healthy(
        self, service_factory
    ):
        """A stream consumer that hangs up mid-long-poll must not wedge the
        handler thread or poison the listener."""
        import socket

        service = service_factory()
        service.worker.stop()  # keep the job live (queued) under the stream
        client = ServiceClient(service.url)
        job = client.submit(summary_spec("disconnect"))["job"]
        # Open a raw long-poll far past the feed's current end, then vanish.
        sock = socket.create_connection((service.host, service.port), timeout=10)
        request = (
            f"GET /v1/jobs/{job['job_id']}/stream?since=9999&timeout=30 HTTP/1.1\r\n"
            f"Host: {service.host}\r\nConnection: close\r\n\r\n"
        )
        sock.sendall(request.encode("ascii"))
        time.sleep(0.2)  # let the handler enter its wait
        sock.close()
        # The service keeps answering and the job is untouched.
        assert client.health()["status"] == "ok"
        assert client.status(job["job_id"])["status"] == "queued"
        # The job still executes normally once the workers resume.
        service.worker.start()
        final = client.wait(job["job_id"], timeout=120)
        assert final["status"] == "done"


class TestWatchVerb:
    def test_watch_replays_and_exits_zero_on_done(self, service_factory, capsys):
        service = service_factory()
        client = ServiceClient(service.url)
        job = client.submit(summary_spec())["job"]
        client.wait(job["job_id"], timeout=120)
        assert main(["watch", job["job_id"], "--url", service.url]) == 0
        out = capsys.readouterr().out
        assert "status: queued" in out
        assert "status: done" in out
        assert "[2/2]" in out
        assert "final: done" in out

    def test_watch_json_emits_event_lines(self, service_factory, capsys):
        service = service_factory()
        client = ServiceClient(service.url)
        job = client.submit(summary_spec())["job"]
        client.wait(job["job_id"], timeout=120)
        assert main(["watch", job["job_id"], "--url", service.url, "--json"]) == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert all("event" in line for line in lines)
        assert lines[-1] == {
            "n": lines[-1]["n"],
            "event": "status",
            "status": "done",
            "error": None,
        }

    def test_watch_follows_a_live_job_to_completion(self, service_factory, capsys):
        service = service_factory()
        client = ServiceClient(service.url)
        job = client.submit(gnn_spec("watch-live", epochs=4))["job"]
        assert main(["watch", job["job_id"], "--url", service.url]) == 0
        assert "status: done" in capsys.readouterr().out

    def test_watch_cancelled_job_exits_three(self, service_factory, capsys):
        service = service_factory()
        client = ServiceClient(service.url)
        job = client.submit(gnn_spec("watch-cancel", epochs=80))["job"]
        client.cancel(job["job_id"])
        client.wait(job["job_id"], timeout=120)
        assert main(["watch", job["job_id"], "--url", service.url]) == 3
        assert "final: cancelled" in capsys.readouterr().out

    def test_watch_unknown_job_fails_cleanly(self, service_factory, capsys):
        assert main(["watch", "zzz", "--url", service_factory().url]) == 2
        assert "404" in capsys.readouterr().err
