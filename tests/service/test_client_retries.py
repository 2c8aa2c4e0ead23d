"""ServiceClient retry policy: opt-in, Retry-After aware, capped backoff."""

from __future__ import annotations

import io
import json
import urllib.error

import pytest

from repro.service import ServiceClient, ServiceError
from repro.service.client import RETRY_MAX_SLEEP_S


def _http_error(status, *, code="err", retry_after=None):
    headers = {}
    if retry_after is not None:
        headers["Retry-After"] = str(retry_after)
    body = json.dumps({"error": {"code": code, "message": f"status {status}"}})
    return urllib.error.HTTPError(
        "http://test/v1/jobs", status, "reason", headers, io.BytesIO(body.encode())
    )


class _Response:
    def __init__(self, payload):
        self._payload = json.dumps(payload).encode("utf-8")
        self.headers = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def read(self):
        return self._payload


@pytest.fixture
def transport(monkeypatch):
    """Replace urlopen with a scripted outcome sequence; record sleeps."""
    state = {"outcomes": [], "calls": 0, "sleeps": []}

    def fake_urlopen(req, timeout=None):
        state["calls"] += 1
        outcome = state["outcomes"].pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return _Response(outcome)

    monkeypatch.setattr(
        "repro.service.client.urllib_request.urlopen", fake_urlopen
    )
    monkeypatch.setattr(
        "repro.service.client.time.sleep", state["sleeps"].append
    )
    return state


class TestClientRetries:
    def test_default_is_fail_fast(self, transport):
        transport["outcomes"] = [_http_error(503, retry_after=1)]
        client = ServiceClient("http://test")
        with pytest.raises(ServiceError) as excinfo:
            client.jobs()
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after_s == 1.0
        assert transport["calls"] == 1
        assert transport["sleeps"] == []

    def test_503_honours_retry_after(self, transport):
        """A fronting proxy or a draining service may still answer 503 with
        a Retry-After; fleet drainers sleep for exactly that long."""
        transport["outcomes"] = [
            _http_error(503, code="unavailable", retry_after=3),
            {"jobs": []},
        ]
        client = ServiceClient("http://test", retries=2)
        assert client.jobs() == []
        assert transport["calls"] == 2
        assert transport["sleeps"] == [3.0]

    def test_503_backs_off_exponentially(self, transport):
        transport["outcomes"] = [
            _http_error(503),
            _http_error(503),
            {"jobs": []},
        ]
        client = ServiceClient("http://test", retries=3, retry_backoff_s=0.25)
        assert client.jobs() == []
        assert transport["sleeps"] == [0.25, 0.5]

    def test_retry_after_is_capped(self, transport):
        transport["outcomes"] = [
            _http_error(503, retry_after=9000),
            {"jobs": []},
        ]
        client = ServiceClient("http://test", retries=1)
        assert client.jobs() == []
        assert transport["sleeps"] == [RETRY_MAX_SLEEP_S]

    def test_retries_exhausted_raises_last_error(self, transport):
        transport["outcomes"] = [
            _http_error(503),
            _http_error(503),
            _http_error(503),
        ]
        client = ServiceClient("http://test", retries=2, retry_backoff_s=0.1)
        with pytest.raises(Exception) as excinfo:
            client.jobs()
        assert excinfo.value.status == 503
        assert transport["calls"] == 3

    def test_transport_errors_retry(self, transport):
        transport["outcomes"] = [
            urllib.error.URLError("connection refused"),
            {"jobs": []},
        ]
        client = ServiceClient("http://test", retries=1, retry_backoff_s=0.2)
        assert client.jobs() == []
        assert transport["sleeps"] == [0.2]

    @pytest.mark.parametrize("status", [400, 429])
    def test_non_retryable_statuses_fail_immediately(self, transport, status):
        transport["outcomes"] = [_http_error(status, retry_after=1)]
        client = ServiceClient("http://test", retries=5)
        with pytest.raises(ServiceError) as excinfo:
            client.jobs()
        assert type(excinfo.value) is ServiceError
        assert excinfo.value.status == status
        assert transport["calls"] == 1
