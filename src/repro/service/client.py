"""Thin stdlib client for the campaign service HTTP API.

Used by the ``repro submit / status / watch / fetch / cancel`` CLI verbs and
by the service test-suite, so the CLI never hand-rolls HTTP and the tests
exercise exactly what users run.  Only ``urllib`` — no new dependencies.

Errors are typed: every non-2xx response raises :class:`ServiceError` or a
subclass (:class:`AuthError` for 401/403, :class:`NotFoundError` for 404),
with the machine-readable ``code`` from the structured error body.

Progress is streamed, not polled: :meth:`ServiceClient.wait` and
:meth:`ServiceClient.watch` ride the ``/v1/jobs/<id>/stream`` long-poll
endpoint, so a waiting client holds one slow request at a time instead of
busy-polling the status route.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, Iterator, List, Mapping, Optional
from urllib import error as urllib_error
from urllib import request as urllib_request
from urllib.parse import urlencode

from .status import TERMINAL_STATUSES

__all__ = [
    "AuthError",
    "DEFAULT_SERVICE_URL",
    "NotFoundError",
    "SERVICE_TOKEN_ENV",
    "SERVICE_URL_ENV",
    "ServiceClient",
    "ServiceError",
]

#: Environment variable overriding the default service URL for the CLI.
SERVICE_URL_ENV = "REPRO_SERVICE_URL"

#: Environment variable supplying the bearer token for the CLI.
SERVICE_TOKEN_ENV = "REPRO_SERVICE_TOKEN"

DEFAULT_SERVICE_URL = "http://127.0.0.1:8765"

#: Server-side wait per stream request; the client loops to wait longer.
STREAM_CHUNK_S = 10.0

#: Ceiling on any single retry sleep, whatever Retry-After or the
#: exponential backoff computed (a waiting drainer must keep heartbeating).
RETRY_MAX_SLEEP_S = 10.0


class ServiceError(RuntimeError):
    """An HTTP-level error response from the service (4xx/5xx)."""

    def __init__(
        self,
        status: int,
        message: str,
        *,
        code: Optional[str] = None,
        retry_after_s: Optional[float] = None,
    ):
        super().__init__(f"service returned {status}: {message}")
        self.status = status
        self.message = message
        self.code = code
        self.retry_after_s = retry_after_s


class AuthError(ServiceError):
    """401 (missing/unknown/revoked token) or 403 (role/ownership)."""


class NotFoundError(ServiceError):
    """404: unknown job or route."""


def _error_from_http(exc: urllib_error.HTTPError) -> ServiceError:
    """Map an HTTPError onto the typed hierarchy, parsing the JSON body."""
    code: Optional[str] = None
    try:
        body = json.loads(exc.read().decode("utf-8"))
        error = body.get("error", body)
        if isinstance(error, Mapping):  # structured {"code": ..., "message": ...}
            code = error.get("code")
            message = str(error.get("message", error))
        else:
            message = str(error)
    except Exception:  # noqa: BLE001 - non-JSON error body
        message = str(exc.reason)
    retry_after: Optional[float] = None
    header = exc.headers.get("Retry-After") if exc.headers is not None else None
    if header is not None:
        try:
            retry_after = float(header)
        except ValueError:
            pass
    cls = ServiceError
    if exc.code in (401, 403):
        cls = AuthError
    elif exc.code == 404:
        cls = NotFoundError
    return cls(exc.code, message, code=code, retry_after_s=retry_after)


class ServiceClient:
    """JSON-over-HTTP client bound to one service URL.

    ``token`` (optional) is sent as ``Authorization: Bearer <token>`` on
    every request; required when the service runs with a tokens file.

    ``retries`` (default 0 — behaviour unchanged) opts in to transparent
    retry of transient failures: 503 responses (honouring a
    ``Retry-After`` header, else capped exponential backoff from
    ``retry_backoff_s``) and transport-level ``URLError``.  The fleet
    worker loop runs with retries on; interactive CLI verbs keep the
    fail-fast default so an unavailable service surfaces immediately.
    """

    def __init__(
        self,
        url: str = DEFAULT_SERVICE_URL,
        *,
        token: Optional[str] = None,
        timeout: float = 30.0,
        retries: int = 0,
        retry_backoff_s: float = 0.25,
    ):
        self.url = url.rstrip("/")
        self.token = token
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.retry_backoff_s = max(0.0, float(retry_backoff_s))

    # ------------------------------------------------------------------
    def _headers(self, *, content_type: Optional[str] = "application/json") -> Dict[str, str]:
        headers: Dict[str, str] = {}
        if content_type is not None:
            headers["Content-Type"] = content_type
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        return headers

    def _open(self, req: urllib_request.Request, timeout: float):
        """``urlopen`` with the client's retry policy; raises typed errors."""
        attempt = 0
        while True:
            try:
                return urllib_request.urlopen(req, timeout=timeout)
            except urllib_error.HTTPError as exc:
                error = _error_from_http(exc)
                if attempt < self.retries and exc.code == 503:
                    delay = error.retry_after_s
                    if delay is None:
                        delay = self.retry_backoff_s * (2.0 ** attempt)
                    time.sleep(min(max(0.0, delay), RETRY_MAX_SLEEP_S))
                    attempt += 1
                    continue
                raise error from None
            except urllib_error.URLError:
                if attempt < self.retries:
                    delay = self.retry_backoff_s * (2.0 ** attempt)
                    time.sleep(min(delay, RETRY_MAX_SLEEP_S))
                    attempt += 1
                    continue
                raise

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, object]] = None,
        *,
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        data = None if payload is None else json.dumps(payload).encode("utf-8")
        req = urllib_request.Request(
            self.url + path, data=data, method=method, headers=self._headers()
        )
        with self._open(
            req, self.timeout if timeout is None else timeout
        ) as response:
            return json.loads(response.read().decode("utf-8"))

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """Raw Prometheus text from ``/metricsz`` (admin-only under auth)."""
        req = urllib_request.Request(
            self.url + "/metricsz",
            method="GET",
            headers=self._headers(content_type=None),
        )
        with self._open(req, self.timeout) as response:
            return response.read().decode("utf-8")

    def jobs(self) -> List[Dict[str, object]]:
        return list(self._request("GET", "/v1/jobs")["jobs"])

    def submit(self, spec) -> Dict[str, object]:
        """Submit a campaign; ``spec`` is a CampaignSpec or its JSON dict.

        Returns ``{"job": <snapshot>, "created": bool}`` — ``created`` is
        False when the submission deduped onto an existing job.
        """
        if hasattr(spec, "to_json_dict"):
            spec = spec.to_json_dict()
        return self._request("POST", "/v1/jobs", {"spec": dict(spec)})

    def status(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/jobs/{job_id}")["job"]

    def fetch(self, job_id: str, kind: str = "report") -> Dict[str, object]:
        """Raw payload of a job's ``report`` or ``records`` endpoint."""
        return self._request("GET", f"/v1/jobs/{job_id}/{kind}")

    def report(self, job_id: str, *, style: Optional[str] = None) -> str:
        """Rendered report; ``style="matrix"`` for the capability matrix."""
        kind = "report" if style is None else f"report?style={style}"
        return str(self.fetch(job_id, kind)["report"])

    def records(self, job_id: str) -> List[Dict[str, object]]:
        return list(self.fetch(job_id, "records")["records"])

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")["job"]

    # ------------------------------------------------------------------
    # Warehouse: cross-campaign queries
    def warehouse_query(
        self,
        *,
        scheme: Optional[str] = None,
        attack: Optional[str] = None,
        suite: Optional[str] = None,
        status: Optional[str] = None,
        target: Optional[str] = None,
        since: Optional[str] = None,
        limit: Optional[int] = None,
        aggregate: bool = False,
        group_by: Optional[str] = None,
    ) -> Dict[str, object]:
        """Cross-campaign record query (``GET /v1/warehouse/query``).

        Returns ``{"records", "count", "truncated"}`` — or ``{"groups",
        "group_by"}`` with ``aggregate=True`` (``group_by`` is a
        comma-separated field list).  Non-admin tokens see only records
        from jobs they own.
        """
        params = {
            "scheme": scheme,
            "attack": attack,
            "suite": suite,
            "status": status,
            "target": target,
            "since": since,
            "limit": limit,
            "aggregate": "1" if aggregate else None,
            "group_by": group_by,
        }
        query = urlencode(
            {key: value for key, value in params.items() if value is not None}
        )
        path = "/v1/warehouse/query" + (f"?{query}" if query else "")
        return self._request("GET", path)

    def warehouse_stats(self) -> Dict[str, object]:
        """Warehouse record counts per job store (admin token required under auth)."""
        return dict(self._request("GET", "/v1/warehouse/stats")["stats"])

    # ------------------------------------------------------------------
    def stream(
        self, job_id: str, *, since: int = 0, timeout: float = STREAM_CHUNK_S
    ) -> Dict[str, object]:
        """One long-poll turn: block server-side up to ``timeout`` seconds.

        Returns ``{"job": snapshot, "events": [...], "next": cursor}``; pass
        ``next`` back as ``since`` to continue the feed.
        """
        return self._request(
            "GET",
            f"/v1/jobs/{job_id}/stream?since={int(since)}&timeout={float(timeout)}",
            # The socket must outlive the server-side wait.
            timeout=float(timeout) + self.timeout,
        )

    def watch(
        self, job_id: str, *, timeout: Optional[float] = None, since: int = 0
    ) -> Iterator[Dict[str, object]]:
        """Yield progress events until the job is terminal.

        Each yielded dict is one event from the job's feed (``event`` is
        ``status``/``task``/``total``/``cancel_requested``, or a fleet lease
        event), with the current job snapshot attached under ``"job"``.  Raises
        :class:`TimeoutError` if the job is still live after ``timeout``
        seconds (None = wait forever).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            chunk = STREAM_CHUNK_S
            if deadline is not None:
                chunk = min(chunk, max(0.0, deadline - time.monotonic()))
            payload = self.stream(job_id, since=since, timeout=chunk)
            snapshot = payload["job"]
            for event in payload["events"]:
                yield {**event, "job": snapshot}
            since = int(payload["next"])
            if snapshot["status"] in TERMINAL_STATUSES:
                return
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['status']} after {timeout}s"
                )

    def wait(
        self,
        job_id: str,
        *,
        timeout: Optional[float] = 300.0,
        on_update=None,
    ) -> Dict[str, object]:
        """Block until the job reaches a terminal status; returns the snapshot.

        Rides the stream endpoint (one slow HTTP request at a time server
        side) instead of busy-polling the status route.  ``on_update`` (if
        given) receives every received snapshot, for callers that want to
        surface progress while waiting.  Raises :class:`NotFoundError` for
        an unknown job and :class:`TimeoutError` when ``timeout`` seconds
        elapse first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        since = 0
        while True:
            chunk = STREAM_CHUNK_S
            if deadline is not None:
                chunk = min(chunk, max(0.0, deadline - time.monotonic()))
            payload = self.stream(job_id, since=since, timeout=chunk)
            snapshot = payload["job"]
            since = int(payload["next"])
            if on_update is not None:
                on_update(snapshot)
            if snapshot["status"] in TERMINAL_STATUSES:
                return snapshot
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['status']} after {timeout}s"
                )

    # ------------------------------------------------------------------
    # Fleet endpoints (used by `repro work` drainers; require a worker or
    # admin token when the service runs with auth).
    def lease_tasks(
        self, worker: str, *, limit: int = 1, ttl_s: Optional[float] = None
    ) -> List[Dict[str, object]]:
        payload: Dict[str, object] = {"worker": worker, "limit": int(limit)}
        if ttl_s is not None:
            payload["ttl_s"] = float(ttl_s)
        return list(self._request("POST", "/v1/tasks/lease", payload)["leases"])

    def heartbeat(self, lease_id: str, worker: str) -> Dict[str, object]:
        return self._request(
            "POST", f"/v1/tasks/{lease_id}/heartbeat", {"worker": worker}
        )["lease"]

    def release_lease(self, lease_id: str, worker: str) -> Dict[str, object]:
        return self._request(
            "POST", f"/v1/tasks/{lease_id}/release", {"worker": worker}
        )["lease"]

    def complete_task(
        self, lease_id: str, worker: str, result: Mapping[str, object]
    ) -> Dict[str, object]:
        return self._request(
            "POST",
            f"/v1/tasks/{lease_id}/complete",
            {"worker": worker, "result": dict(result)},
        )

    def job_spec(self, job_id: str) -> Dict[str, object]:
        return self._request("GET", f"/v1/jobs/{job_id}/spec")

    # ------------------------------------------------------------------
    # Artifact object store (raw bytes, digest-checked both ways).
    def get_artifact(self, kind: str, key: str) -> Optional[bytes]:
        """Fetch an artifact's bytes; None on a miss or a failed digest
        check (the caller regenerates — determinism makes that safe)."""
        req = urllib_request.Request(
            self.url + f"/v1/artifacts/{kind}/{key}",
            method="GET",
            headers=self._headers(content_type=None),
        )
        try:
            with self._open(req, self.timeout) as response:
                data = response.read()
                digest = response.headers.get("X-Repro-Digest")
        except NotFoundError:
            return None
        if digest is not None and hashlib.sha256(data).hexdigest() != digest:
            return None
        return data

    def put_artifact(self, kind: str, key: str, data: bytes) -> Dict[str, object]:
        """Upload an artifact's bytes; the digest header lets the server
        reject bodies corrupted in transit (422)."""
        headers = self._headers(content_type="application/octet-stream")
        headers["X-Repro-Digest"] = hashlib.sha256(data).hexdigest()
        req = urllib_request.Request(
            self.url + f"/v1/artifacts/{kind}/{key}",
            data=data,
            method="PUT",
            headers=headers,
        )
        with self._open(req, self.timeout) as response:
            return json.loads(response.read().decode("utf-8"))
