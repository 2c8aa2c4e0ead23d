"""HTTP JSON API of the campaign service (stdlib ``http.server`` only).

Endpoints (JSON unless noted)::

    GET    /healthz                  liveness (always open; job counts are
                                     included only when auth is off)
    GET    /metricsz                 Prometheus text format telemetry
                                     (admin token required when auth is on)
    GET    /v1/jobs                  known jobs, oldest first (admins see all,
                                     submit-role tokens see their own)
    POST   /v1/jobs                  submit {"spec": {...CampaignSpec...}}
    GET    /v1/jobs/<id>             job status + task-completion progress
    GET    /v1/jobs/<id>/report      deterministic rendered paper-table report
    GET    /v1/jobs/<id>/records     raw ResultStore records (all history)
    GET    /v1/jobs/<id>/stream      long-poll progress feed
                                     (``?since=<cursor>&timeout=<seconds>``)
    POST   /v1/jobs/<id>/cancel      request cancellation
    DELETE /v1/jobs/<id>             alias for cancel

Warehouse endpoints (cross-campaign queries over the job stores, read in
place, oldest submission first; nothing is copied, so a running job's
finished tasks show up in the next query)::

    GET    /v1/warehouse/query       ?scheme=&attack=&suite=&status=&target=
                                     &since=&limit=  filtered records; add
                                     ``aggregate=1[&group_by=a,b]`` for
                                     streamed group averages instead.
                                     Non-admin tokens replay only the jobs
                                     they own (same masking rule as
                                     /v1/jobs); worker tokens are refused.
    GET    /v1/warehouse/stats       record/line/corrupt counts per job
                                     store (admin)

Fleet endpoints (worker or admin token; ``/v1/tasks`` requires the service
to run with ``--fleet``)::

    GET    /v1/jobs/<id>/spec        campaign spec for task re-expansion
    POST   /v1/tasks/lease           {"worker", "limit", "ttl_s"} -> leases
    POST   /v1/tasks/<lease>/heartbeat  renew before the deadline
    POST   /v1/tasks/<lease>/complete   {"worker", "result": {...}}
    POST   /v1/tasks/<lease>/release    give the task back unfinished
    GET    /v1/artifacts/<kind>/<key>   raw artifact bytes (X-Repro-Digest)
    PUT    /v1/artifacts/<kind>/<key>   upload (digest-checked, 422 on
                                        mismatch; streamed, own size cap)

Error contract: every non-2xx response body is
``{"error": {"code": <machine-readable>, "message": <human-readable>}}``
(codes in :mod:`repro.service.status`).  400 for malformed JSON or an
invalid spec, 401 for a missing/unknown/revoked token, 403 for a role
violation (e.g. a worker token submitting a job), 404 for unknown jobs
and routes — and for jobs the caller cannot see, indistinguishably, since
job ids are computable fingerprints and a bare 403 would leak which specs
other tenants run, 405 for wrong methods, 413 for a body over the size
cap.  Submissions dedupe by campaign fingerprint: the response's
``created`` field says whether a new job was enqueued or an existing one
returned.  Jobs run in submission order (FIFO).

Authentication is optional: without a tokens file the service is open (every
request acts as an anonymous admin, as in earlier releases).  With a tokens
file, every ``/v1`` request needs ``Authorization: Bearer <token>``;
``/healthz`` stays open for liveness probes.

The server is a ``ThreadingHTTPServer`` so status polls and long-poll
streams are served while jobs run; campaign execution itself happens on the
:class:`~repro.service.worker.JobWorker` threads, never on request threads.
The artifact cache is bounded by each job's ``run_campaign`` under
``REPRO_CACHE_MAX_BYTES`` / ``REPRO_CACHE_MAX_AGE``.
Fleet mode keeps that one job path and changes only the task backend: the
:class:`~repro.fleet.FleetCoordinator` turns each task ``run_campaign``
submits into a lease that drainers claim through ``/v1/tasks``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from ..fleet.leases import LeaseError
from ..obs import MetricsRegistry, emit
from ..runner.cache import (
    _MISSING,
    ArtifactCache,
    _DecodedMemo,
    _identity,
    default_cache_dir,
    parse_size,
)
from ..runner.campaign import CampaignSpec
from ..runner.store import ResultStore, render_report
from ..warehouse import Warehouse, aggregate_stream, build_filter, parse_since
from . import status as codes
from .auth import TokenInfo, TokenRegistry
from .jobs import Job, JobQueue
from .worker import JobWorker

__all__ = ["CampaignService"]

#: Cap on the server-side long-poll wait; clients re-issue to wait longer.
STREAM_MAX_WAIT_S = 30.0

#: Cap on artifact uploads (bodies are streamed to disk, never buffered, so
#: this can be far above MAX_BODY_BYTES).  Override with the env var.
ARTIFACT_MAX_BYTES_ENV = "REPRO_ARTIFACT_MAX_BYTES"
DEFAULT_ARTIFACT_MAX_BYTES = 1024 * 1024 * 1024

#: Streaming chunk for artifact transfers.
_ARTIFACT_CHUNK = 1024 * 1024

#: Bound on the job-store file bytes whose parsed records queries keep.
STORE_MEMO_MAX_BYTES = 8 * 1024 * 1024

#: Cap on request bodies, enforced *before* buffering: campaign specs are a
#: few KB, so anything near this is hostile.  Without the cap a tokenless
#: client could OOM the service with one giant Content-Length.
MAX_BODY_BYTES = 8 * 1024 * 1024


class _ApiError(Exception):
    """An error with an HTTP status, rendered as the structured JSON body."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`CampaignService`."""

    server_version = "repro-service"
    protocol_version = "HTTP/1.1"

    # The ThreadingHTTPServer subclass below carries the service reference.
    @property
    def service(self) -> "CampaignService":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        emit(self.service.echo, f"http: {format % args}", component="http")

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")

    def do_PUT(self) -> None:  # noqa: N802
        self._handle("PUT")

    def _handle(self, method: str) -> None:
        content_type = "application/json"
        self._extra_headers: Dict[str, str] = {}
        try:
            # Always drain the request body, even on routes that ignore it:
            # leaving unread bytes in rfile desynchronises HTTP/1.1
            # keep-alive connections (the next request would be parsed from
            # the middle of this one's body).  Artifact uploads are the one
            # exception: their bodies can dwarf MAX_BODY_BYTES, so the
            # route streams rfile straight to disk instead of buffering.
            if method == "PUT" and self.path.startswith("/v1/artifacts/"):
                self._body = b""
            else:
                self._body = self._read_body()
            # Routes return (status, payload) or, for non-JSON responses
            # such as /metricsz, (status, text, content_type).
            routed = self._route(method)
            if len(routed) == 3:
                status, payload, content_type = routed  # type: ignore[misc]
            else:
                status, payload = routed  # type: ignore[misc]
        except _ApiError as exc:
            status = exc.status
            payload = {"error": {"code": exc.code, "message": str(exc)}}
        except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the server
            status = 500
            payload = {
                "error": {
                    "code": codes.ERR_INTERNAL,
                    "message": f"{type(exc).__name__}: {exc}",
                }
            }
        if isinstance(payload, (bytes, bytearray)):
            body = bytes(payload)
        elif isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = json.dumps(payload).encode("utf-8")
        self.service.metrics.inc(
            "repro_service_http_requests_total", method=method, status=status
        )
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in self._extra_headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up mid-response — routine for long-poll stream
            # consumers that lose interest; never let it unwind the handler.
            self.close_connection = True

    # ------------------------------------------------------------------
    def _identity(self) -> TokenInfo:
        """The caller's grant; raises 401 when auth is on and absent/bad."""
        registry = self.service.auth
        if registry is None:
            return self.service.anonymous
        header = self.headers.get("Authorization") or ""
        if not header.startswith("Bearer "):
            raise _ApiError(
                401,
                codes.ERR_UNAUTHORIZED,
                "missing bearer token (Authorization: Bearer <token>)",
            )
        info = registry.lookup(header[len("Bearer "):].strip())
        if info is None:
            raise _ApiError(401, codes.ERR_UNAUTHORIZED, "unknown or revoked token")
        return info

    def _snapshot_for(
        self, job: Job, identity: TokenInfo
    ) -> Dict[str, object]:
        """Job snapshot with co-owner names redacted for non-admins.

        The 404 masking in :meth:`_visible_job` exists so tenants cannot
        learn what specs others run; an unredacted ``owners`` list would
        reopen that hole (submit a spec, read the co-owners off the deduped
        response).
        """
        snapshot = job.snapshot()
        if not identity.is_admin:
            snapshot["owners"] = [
                owner for owner in snapshot["owners"] if owner == identity.name
            ]
        return snapshot

    def _visible_job(self, job_id: str, identity: TokenInfo) -> Job:
        job = self.service.queue.get(job_id)
        # Another tenant's job answers exactly like a nonexistent one: job
        # ids are computable offline (truncated campaign fingerprints), so a
        # distinguishable 403 would let any token probe whether someone else
        # already submitted a given spec.
        if job is None or (not identity.is_admin and not job.owned_by(identity.name)):
            raise _ApiError(404, codes.ERR_NOT_FOUND, f"unknown job {job_id!r}")
        return job

    def _query(self) -> Dict[str, str]:
        if "?" not in self.path:
            return {}
        return {
            key: values[-1]
            for key, values in parse_qs(self.path.split("?", 1)[1]).items()
        }

    # ------------------------------------------------------------------
    def _route(self, method: str) -> Tuple:
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/healthz" and method == "GET":
            payload: Dict[str, object] = {
                "status": "ok",
                "auth": self.service.auth is not None,
            }
            # Workload counts only in open mode: with auth on, a tokenless
            # probe gets liveness and nothing about other tenants' jobs.
            if self.service.auth is None:
                payload["jobs"] = self.service.queue.counts()
            return 200, payload
        if path == "/metricsz" and method == "GET":
            # Operational counters reveal workload shape (job counts,
            # per-principal submits); behind auth, only admins see them —
            # the same visibility rule as the full job listing.
            identity = self._identity()
            if not identity.is_admin:
                raise _ApiError(
                    403, codes.ERR_FORBIDDEN, "metrics require an admin token"
                )
            return (
                200,
                self.service.render_metrics(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/v1/jobs":
            identity = self._identity()
            if method == "GET":
                owner = None if identity.is_admin else identity.name
                return 200, {
                    "jobs": [
                        self._snapshot_for(job, identity)
                        for job in self.service.queue.jobs(owner)
                    ]
                }
            if method == "POST":
                return self._submit(identity)
            raise _ApiError(
                405, codes.ERR_METHOD_NOT_ALLOWED, f"{method} not allowed on {path}"
            )
        if path.startswith("/v1/jobs/"):
            return self._job_route(method, path[len("/v1/jobs/"):])
        if path == "/v1/tasks/lease" or path.startswith("/v1/tasks/"):
            return self._task_route(method, path[len("/v1/tasks/"):])
        if path.startswith("/v1/warehouse"):
            return self._warehouse_route(method, path)
        if path.startswith("/v1/artifacts/"):
            return self._artifact_route(method, path[len("/v1/artifacts/"):])
        raise _ApiError(404, codes.ERR_NOT_FOUND, f"no route {method} {path}")

    # ------------------------------------------------------------------
    # Warehouse: cross-campaign queries
    def _warehouse_route(self, method: str, path: str) -> Tuple:
        identity = self._identity()
        if identity.is_worker and not identity.is_admin:
            # Worker tokens exist to lease tasks and move artifacts; letting
            # one read every tenant's records would cross the same line the
            # job-route 404 masking draws.
            raise _ApiError(
                403, codes.ERR_FORBIDDEN, "warehouse routes refuse worker tokens"
            )
        if path == "/v1/warehouse/query" and method == "GET":
            return self._warehouse_query(identity)
        if path == "/v1/warehouse/stats" and method == "GET":
            self._require_admin(identity, "warehouse stats")
            return 200, {"stats": self.service.warehouse.stats()}
        raise _ApiError(404, codes.ERR_NOT_FOUND, f"no route {method} {path}")

    def _require_admin(self, identity: TokenInfo, what: str) -> None:
        if not identity.is_admin:
            raise _ApiError(
                403, codes.ERR_FORBIDDEN, f"{what} requires an admin token"
            )

    def _warehouse_filter(self, params: Dict[str, str]):
        """Build the envelope predicate from the query parameters."""
        since = None
        if "since" in params:
            try:
                since = parse_since(params["since"])
            except ValueError as exc:
                raise _ApiError(400, codes.ERR_INVALID_REQUEST, str(exc)) from None
        return build_filter(
            scheme=params.get("scheme"),
            attack=params.get("attack"),
            suite=params.get("suite"),
            status=params.get("status"),
            target=params.get("target"),
            since=since,
        )

    def _warehouse_query(self, identity: TokenInfo) -> Tuple[int, Dict[str, object]]:
        params = self._query()
        where = self._warehouse_filter(params)
        # Same visibility rule as /v1/jobs: a tenant replays the jobs it
        # owns and nothing else, so nothing reveals that other jobs exist.
        warehouse = JobStores(
            self.service.queue,
            self.service.warehouse.memo,
            None if identity.is_admin else identity.name,
        )
        if params.get("aggregate") in ("1", "true", "yes"):
            group_by = tuple(
                field.strip()
                for field in params.get("group_by", "scheme,suite,technology").split(",")
                if field.strip()
            )
            if not group_by:
                raise _ApiError(
                    400, codes.ERR_INVALID_REQUEST, "empty group_by"
                )
            return 200, {
                "groups": aggregate_stream(
                    warehouse.iter_records(where), group_by=group_by
                ),
                "group_by": list(group_by),
            }
        try:
            limit = int(params.get("limit", 1000))
        except ValueError:
            raise _ApiError(
                400, codes.ERR_INVALID_REQUEST, "limit must be an integer"
            ) from None
        if limit <= 0:
            raise _ApiError(
                400, codes.ERR_INVALID_REQUEST, "limit must be positive"
            )
        records: List[Dict[str, object]] = []
        truncated = False
        for record in warehouse.iter_records(where):
            if len(records) >= limit:
                truncated = True
                break
            records.append(record)
        return 200, {
            "records": records,
            "count": len(records),
            "truncated": truncated,
        }

    # ------------------------------------------------------------------
    # Fleet: lease lifecycle
    def _require_worker(self, identity: TokenInfo) -> None:
        if not identity.is_worker:
            raise _ApiError(
                403,
                codes.ERR_FORBIDDEN,
                "fleet endpoints require a worker or admin token",
            )

    def _fleet(self):
        fleet = self.service.fleet
        if fleet is None:
            raise _ApiError(
                404,
                codes.ERR_NOT_FOUND,
                "fleet mode is disabled (start the service with --fleet)",
            )
        return fleet

    def _json_body(self) -> Dict[str, object]:
        try:
            payload = json.loads(self._body.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _ApiError(
                400,
                codes.ERR_INVALID_REQUEST,
                f"request body is not valid JSON: {exc}",
            ) from None
        if not isinstance(payload, dict):
            raise _ApiError(
                400, codes.ERR_INVALID_REQUEST, "request body must be a JSON object"
            )
        return payload

    def _task_route(self, method: str, tail: str) -> Tuple[int, Dict[str, object]]:
        identity = self._identity()
        self._require_worker(identity)
        fleet = self._fleet()
        if method != "POST":
            raise _ApiError(
                405,
                codes.ERR_METHOD_NOT_ALLOWED,
                f"{method} not allowed on /v1/tasks/{tail}",
            )
        payload = self._json_body()
        worker = payload.get("worker")
        if not isinstance(worker, str) or not worker:
            raise _ApiError(
                400, codes.ERR_INVALID_REQUEST, "'worker' must be a non-empty string"
            )
        if tail == "lease":
            limit = payload.get("limit", 1)
            if isinstance(limit, bool) or not isinstance(limit, int) or limit < 1:
                raise _ApiError(
                    400, codes.ERR_INVALID_REQUEST, "'limit' must be a positive integer"
                )
            ttl_s = payload.get("ttl_s")
            if ttl_s is not None and (
                isinstance(ttl_s, bool)
                or not isinstance(ttl_s, (int, float))
                or ttl_s <= 0
            ):
                raise _ApiError(
                    400, codes.ERR_INVALID_REQUEST, "'ttl_s' must be a positive number"
                )
            leases = fleet.claim_leases(worker, limit=limit, ttl_s=ttl_s)
            return 200, {"leases": leases}
        parts = tail.split("/")
        if len(parts) != 2 or parts[1] not in ("heartbeat", "complete", "release"):
            raise _ApiError(
                404, codes.ERR_NOT_FOUND, f"no route {method} /v1/tasks/{tail}"
            )
        lease_id, action = parts
        try:
            if action == "heartbeat":
                return 200, {"lease": fleet.heartbeat(lease_id, worker)}
            if action == "release":
                return 200, {"lease": fleet.release(lease_id, worker)}
            result = payload.get("result")
            if not isinstance(result, dict):
                raise _ApiError(
                    400, codes.ERR_INVALID_REQUEST, "'result' must be a JSON object"
                )
            try:
                return 200, fleet.complete(lease_id, worker, result)
            except ValueError as exc:
                raise _ApiError(
                    400, codes.ERR_INVALID_REQUEST, str(exc)
                ) from None
        except LeaseError as exc:
            raise _ApiError(*self._lease_error(exc)) from None

    @staticmethod
    def _lease_error(exc: LeaseError) -> Tuple[int, str, str]:
        if exc.code == "not_owner":
            return 403, codes.ERR_FORBIDDEN, str(exc)
        if exc.code == "lease_expired":
            return 410, codes.ERR_LEASE_EXPIRED, str(exc)
        return 404, codes.ERR_NOT_FOUND, str(exc)

    # ------------------------------------------------------------------
    # Fleet: artifact object store
    @staticmethod
    def _artifact_coords(tail: str) -> Tuple[str, str]:
        parts = tail.split("/")
        if len(parts) != 2:
            raise _ApiError(
                404, codes.ERR_NOT_FOUND, "artifact routes are /v1/artifacts/<kind>/<key>"
            )
        kind, key = parts
        if not (0 < len(kind) <= 64) or not all(
            c.isalnum() or c in "_-" for c in kind
        ):
            raise _ApiError(400, codes.ERR_INVALID_REQUEST, f"invalid kind {kind!r}")
        if not (8 <= len(key) <= 128) or not all(
            c in "0123456789abcdef" for c in key
        ):
            raise _ApiError(
                400, codes.ERR_INVALID_REQUEST, "key must be a lowercase hex digest"
            )
        return kind, key

    def _artifact_route(self, method: str, tail: str) -> Tuple:
        identity = self._identity()
        self._require_worker(identity)
        kind, key = self._artifact_coords(tail)
        cache = self.service.artifact_cache
        path = cache.path_for(kind, key) if cache.enabled else None
        if path is None:
            raise _ApiError(
                404, codes.ERR_NOT_FOUND, "artifact store disabled (--no-cache)"
            )
        if method == "GET":
            return self._artifact_get(cache, kind, key, path)
        if method == "PUT":
            return self._artifact_put(cache, kind, key, path)
        raise _ApiError(
            405,
            codes.ERR_METHOD_NOT_ALLOWED,
            f"{method} not allowed on /v1/artifacts/{tail}",
        )

    def _artifact_get(self, cache, kind: str, key: str, path) -> Tuple:
        # Shared lock: gc's exclusive scan cannot unlink the file while we
        # read it, so the digest always matches the bytes we ship.
        with cache.lock_guard(shared=True):
            try:
                data = path.read_bytes()
            except OSError:
                self.service.metrics.inc(
                    "repro_fleet_artifact_transfers_total",
                    direction="download",
                    outcome="miss",
                )
                raise _ApiError(
                    404, codes.ERR_NOT_FOUND, f"no {kind} artifact {key[:16]}..."
                ) from None
        self._extra_headers["X-Repro-Digest"] = hashlib.sha256(data).hexdigest()
        self.service.metrics.inc(
            "repro_fleet_artifact_transfers_total",
            direction="download",
            outcome="ok",
        )
        return 200, data, "application/octet-stream"

    def _artifact_put(self, cache, kind: str, key: str, path) -> Tuple:
        expected = (self.headers.get("X-Repro-Digest") or "").strip().lower()
        if not expected or len(expected) != 64 or not all(
            c in "0123456789abcdef" for c in expected
        ):
            self.close_connection = True  # body left unread
            raise _ApiError(
                400,
                codes.ERR_INVALID_REQUEST,
                "artifact uploads require an X-Repro-Digest: <sha256 hex> header",
            )
        try:
            length = int(self.headers.get("Content-Length") or -1)
        except ValueError:
            self.close_connection = True
            raise _ApiError(
                400, codes.ERR_INVALID_REQUEST, "invalid Content-Length"
            ) from None
        if length < 0:
            self.close_connection = True
            raise _ApiError(
                400, codes.ERR_INVALID_REQUEST, "artifact uploads require Content-Length"
            )
        cap = self.service.artifact_max_bytes
        if length > cap:
            self.close_connection = True
            raise _ApiError(
                413,
                codes.ERR_PAYLOAD_TOO_LARGE,
                f"artifact of {length} bytes exceeds the {cap}-byte limit",
            )
        # Stream to a temp file in the destination directory, hashing as we
        # go; only a digest-verified body is renamed into place (atomic,
        # same idempotent last-writer-wins contract as ArtifactCache.put).
        path.parent.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256()
        handle, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=".upload-", suffix=".tmp"
        )
        received = 0
        try:
            with os.fdopen(handle, "wb") as tmp:
                while received < length:
                    chunk = self.rfile.read(min(_ARTIFACT_CHUNK, length - received))
                    if not chunk:
                        break
                    digest.update(chunk)
                    tmp.write(chunk)
                    received += len(chunk)
            if received != length:
                self.close_connection = True
                raise _ApiError(
                    400, codes.ERR_INVALID_REQUEST, "artifact body truncated"
                )
            if digest.hexdigest() != expected:
                self.service.metrics.inc(
                    "repro_fleet_artifact_transfers_total",
                    direction="upload",
                    outcome="integrity_error",
                )
                raise _ApiError(
                    422,
                    codes.ERR_INTEGRITY,
                    f"artifact body digest {digest.hexdigest()[:16]}... does not "
                    f"match X-Repro-Digest {expected[:16]}...",
                )
            with cache.lock_guard(shared=True):
                os.replace(tmp_name, path)
        finally:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass  # renamed into place (the success path)
        self.service.metrics.inc(
            "repro_fleet_artifact_transfers_total",
            direction="upload",
            outcome="ok",
        )
        return 201, {"stored": True, "kind": kind, "key": key, "bytes": received}

    def _job_route(self, method: str, tail: str) -> Tuple[int, Dict[str, object]]:
        identity = self._identity()
        parts = tail.split("/")
        job_id, action = parts[0], "/".join(parts[1:])
        if action == "spec" and method == "GET" and identity.role == "worker":
            # Drainers hold leases on jobs they do not own; the spec route
            # is how they recover the task objects behind those leases.
            job = self.service.queue.get(job_id)
            if job is None:
                raise _ApiError(404, codes.ERR_NOT_FOUND, f"unknown job {job_id!r}")
        else:
            job = self._visible_job(job_id, identity)
        if method == "DELETE" and not action:
            self.service.queue.cancel(job_id)
            return 200, {"job": self._snapshot_for(job, identity)}
        if method == "POST" and action == "cancel":
            self.service.queue.cancel(job_id)
            return 200, {"job": self._snapshot_for(job, identity)}
        if method != "GET":
            raise _ApiError(
                405,
                codes.ERR_METHOD_NOT_ALLOWED,
                f"{method} not allowed on /v1/jobs/{tail}",
            )
        if not action:
            return 200, {"job": self._snapshot_for(job, identity)}
        if action == "spec":
            return 200, {
                "job_id": job.job_id,
                "spec": job.spec.to_json_dict(),
            }
        if action == "stream":
            return self._stream(job, identity)
        store = ResultStore(job.store_path)
        if action == "report":
            style = self._query().get("style", "paper")
            records = list(store.latest().values())
            if style == "matrix":
                from ..runner.matrix import render_matrix_report

                report = render_matrix_report(records)
            elif style == "paper":
                report = render_report(records)
            else:
                raise _ApiError(
                    400,
                    codes.ERR_INVALID_REQUEST,
                    f"unknown report style {style!r}; choose paper or matrix",
                )
            self._count_corrupt_lines(store)
            return 200, {
                "job_id": job.job_id,
                "status": job.status,
                "style": style,
                "report": report,
            }
        if action == "records":
            records = store.load()
            self._count_corrupt_lines(store)
            return 200, {"job_id": job.job_id, "records": records}
        raise _ApiError(404, codes.ERR_NOT_FOUND, f"no route GET /v1/jobs/{tail}")

    def _count_corrupt_lines(self, store: ResultStore) -> None:
        """Surface a store's unparseable lines on ``/metricsz``.

        :meth:`ResultStore.load` counts them into the process-global
        registry, which the scrape does not render.
        """
        if store.last_corrupt_lines:
            self.service.metrics.inc(
                "repro_store_corrupt_lines_total", store.last_corrupt_lines
            )

    def _stream(
        self, job: Job, identity: TokenInfo
    ) -> Tuple[int, Dict[str, object]]:
        query = self._query()
        try:
            since = int(query.get("since", 0))
            timeout = float(query.get("timeout", 25.0))
        except ValueError:
            raise _ApiError(
                400,
                codes.ERR_INVALID_REQUEST,
                "stream parameters 'since' and 'timeout' must be numbers",
            ) from None
        timeout = min(max(0.0, timeout), self.service.stream_max_wait_s)
        waited = self.service.queue.wait_events(job.job_id, since=since, timeout=timeout)
        if waited is None:  # job vanished between lookup and wait (impossible today)
            raise _ApiError(404, codes.ERR_NOT_FOUND, f"unknown job {job.job_id!r}")
        events, next_cursor, _ = waited
        return 200, {
            "job": self._snapshot_for(job, identity),
            "events": events,
            "next": next_cursor,
        }

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise _ApiError(
                400, codes.ERR_INVALID_REQUEST, "invalid Content-Length"
            ) from None
        if length > MAX_BODY_BYTES:
            # Refuse before buffering a single byte.  The unread body makes
            # the connection unusable for keep-alive, so drop it.
            self.close_connection = True
            raise _ApiError(
                413,
                codes.ERR_PAYLOAD_TOO_LARGE,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        return self.rfile.read(length) if length > 0 else b""

    def _submit(self, identity: TokenInfo) -> Tuple[int, Dict[str, object]]:
        if identity.role == "worker":
            # Worker tokens execute other tenants' jobs; letting them also
            # submit would collapse the role separation the tokens file
            # draws (a leaked drainer credential must not enqueue work).
            raise _ApiError(
                403, codes.ERR_FORBIDDEN, "worker tokens may not submit jobs"
            )
        try:
            payload = json.loads(self._body.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _ApiError(
                400,
                codes.ERR_INVALID_REQUEST,
                f"request body is not valid JSON: {exc}",
            ) from None
        if isinstance(payload, dict) and "spec" in payload:
            payload = payload["spec"]
        try:
            spec = CampaignSpec.from_json_dict(payload)
        except (TypeError, ValueError) as exc:
            raise _ApiError(
                400, codes.ERR_INVALID_SPEC, f"invalid campaign spec: {exc}"
            ) from None
        try:
            job, created = self.service.queue.submit(spec, owner=identity.name)
        except (TypeError, ValueError) as exc:
            # from_json_dict only shape-checks; submit()'s validate() is
            # where bad field values (unknown benchmarks, mistyped config)
            # surface.  Both are client errors, not server faults.
            raise _ApiError(
                400, codes.ERR_INVALID_SPEC, f"invalid campaign spec: {exc}"
            ) from None
        return (201 if created else 200), {
            "job": self._snapshot_for(job, identity),
            "created": created,
        }


class _ServiceServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: Listen backlog.  The stdlib default of 5 drops the SYNs of a larger
    #: burst of simultaneous connects, and each dropped client waits a full
    #: TCP retransmit (~1 s) before its request is even accepted.
    request_queue_size = 64

    def __init__(self, address, handler, service: "CampaignService"):
        super().__init__(address, handler)
        self.service = service


class JobStores(Warehouse):
    """The service's warehouse: its jobs' stores, oldest submission first.

    ``owner`` restricts the sources to that principal's jobs.  Parsed
    stores are kept in ``memo`` (the service's, shared by every view) and
    checked against the file's identity (inode, size, mtime) on every
    read, so a query costs one ``stat`` per unchanged store instead of a
    read and a parse; the post-finish hook primes a finished job's entry.  Queries overlap a running job, and
    every system call can hand that job the GIL: on the service benchmark,
    reading and parsing every store per query put the slowest queries
    about 60% higher.  The memoised records are shared; treat them as
    read-only.
    """

    def __init__(
        self, queue: JobQueue, memo: _DecodedMemo, owner: Optional[str] = None
    ) -> None:
        self.queue = queue
        self.memo = memo
        self.owner = owner

    def sources(self) -> List[Tuple[str, os.PathLike]]:
        return [(job.job_id, job.store_path) for job in self.queue.jobs(self.owner)]

    def records(self, path) -> List[Dict[str, object]]:
        try:
            identity = _identity(os.stat(path))
        except FileNotFoundError:
            return []
        records = self.memo.get(str(path), identity)
        if records is _MISSING:
            records = super().records(path)
            self.memo.put(str(path), identity, records)
        return records


class CampaignService:
    """The long-lived campaign service: queue + workers + HTTP server.

    ``port=0`` binds an ephemeral port (useful for tests); the bound address
    is available as :attr:`url` after :meth:`start`.  Usable as a context
    manager::

        with CampaignService("runs/service", port=0) as service:
            client = ServiceClient(service.url)
            ...

    ``tokens_file`` switches on bearer-token auth (see
    :mod:`repro.service.auth` for the file format).  Without it the service
    is open and every request acts as an anonymous admin.
    """

    def __init__(
        self,
        state_dir: os.PathLike,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        job_slots: int = 1,
        task_workers: Optional[int] = None,
        cache_dir: Optional[os.PathLike] = None,
        use_cache: bool = True,
        tokens_file: Optional[os.PathLike] = None,
        stream_max_wait_s: float = STREAM_MAX_WAIT_S,
        fleet: bool = False,
        lease_ttl_s: float = 30.0,
        echo: Optional[Callable[[str], None]] = None,
    ):
        self.echo = echo if echo is not None else (lambda message: None)
        self.host = host
        self._requested_port = port
        self.auth = (
            None
            if tokens_file is None
            else TokenRegistry(tokens_file, on_error=self.echo)
        )
        #: The grant unauthenticated requests run under when auth is off.
        self.anonymous = TokenInfo(name="anonymous", role="admin")
        self.stream_max_wait_s = float(stream_max_wait_s)
        #: One registry shared by queue, workers and HTTP handlers; the
        #: ``/metricsz`` endpoint renders it (see :meth:`render_metrics`).
        self.metrics = MetricsRegistry()
        self.queue = JobQueue(state_dir, metrics=self.metrics)
        self.recovered: List[str] = self.queue.recover()
        #: Cross-campaign result warehouse: every job's store, read in place.
        self.warehouse = JobStores(self.queue, _DecodedMemo(STORE_MEMO_MAX_BYTES))
        self._ingest_lock = threading.Lock()
        #: ``{job_id: records}`` already counted by :meth:`ingest_job_store`.
        self._ingested: Dict[str, int] = {}
        resolved_cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
        #: Backing store of the /v1/artifacts object-store endpoints.
        self.artifact_cache = ArtifactCache(
            resolved_cache_dir if use_cache else None
        )
        self.artifact_max_bytes = parse_size(
            os.environ.get(ARTIFACT_MAX_BYTES_ENV) or str(DEFAULT_ARTIFACT_MAX_BYTES)
        )
        #: The lease broker behind ``/v1/tasks`` in fleet mode, else None.
        self.fleet = None
        if fleet:
            # Imported lazily: the coordinator pulls in the runner stack,
            # and repro.fleet's heavy modules import this module back.
            from ..fleet.coordinator import FleetCoordinator

            self.fleet = FleetCoordinator(
                self.queue,
                lease_ttl_s=lease_ttl_s,
                echo=self.echo,
                metrics=self.metrics,
            )
        self.worker = JobWorker(
            self.queue,
            job_slots=job_slots,
            task_workers=task_workers,
            cache_dir=resolved_cache_dir,
            use_cache=use_cache,
            echo=self.echo,
            metrics=self.metrics,
            on_job_finished=lambda job: self.ingest_job_store(job.job_id),
            executor_for=None if self.fleet is None else self.fleet.executor_for,
        )
        self._httpd: Optional[_ServiceServer] = None
        self._http_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Warehouse ingest.

    def ingest_job_store(self, job_id: str) -> int:
        """Post-finish hook: count the records a job's store gained.

        Queries read the store in place, so nothing is copied; the count
        feeds ``repro_warehouse_ingested_records_total``, and the read
        leaves the store parsed for the next query.
        """
        records = self.warehouse.records(self.queue.stores_dir / f"{job_id}.jsonl")
        with self._ingest_lock:
            added = len(records) - self._ingested.get(job_id, 0)
            self._ingested[job_id] = len(records)
        if added > 0:
            self.metrics.inc("repro_warehouse_ingested_records_total", added)
        return max(added, 0)

    # ------------------------------------------------------------------
    def render_metrics(self) -> str:
        """Prometheus text rendering of the service telemetry plane.

        Counters and histograms accumulate live (submits, claims, finishes,
        HTTP requests, queue-wait/run-time); point-in-time gauges
        (jobs by state — every state, so absent ones scrape as 0 — and the
        event-feed depth) are refreshed at scrape time.
        """
        counts = self.queue.counts()
        for state in ("queued", "running", "done", "failed", "cancelled"):
            self.metrics.set_gauge(
                "repro_service_jobs", float(counts.get(state, 0)), state=state
            )
        self.metrics.set_gauge(
            "repro_service_event_feed_depth", float(self.queue.feed_depth())
        )
        # Worker utilisation: busy is maintained live by the worker loop
        # (the +0 materialises the series so an idle service scrapes 0).
        # Fleet mode executes nothing in-process, so it has no task slots.
        self.metrics.add_gauge("repro_service_workers_busy", 0.0)
        self.metrics.set_gauge(
            "repro_service_worker_slots",
            0.0 if self.fleet is not None else float(self.worker.job_slots),
        )
        if self.fleet is not None:
            gauges = self.fleet.fleet_gauges()
            self.metrics.set_gauge(
                "repro_fleet_tasks_pending", float(gauges["tasks_pending"])
            )
            self.metrics.set_gauge(
                "repro_fleet_leases_active", float(gauges["leases_active"])
            )
            self.metrics.set_gauge(
                "repro_fleet_workers_seen", float(gauges["workers_seen"])
            )
            for name, count in gauges["worker_active"].items():
                self.metrics.set_gauge(
                    "repro_fleet_worker_active_leases", float(count), worker=name
                )
        return self.metrics.render_prometheus()

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "CampaignService":
        if self._httpd is not None:
            return self
        if self.fleet is not None:
            self.fleet.start()
        self.worker.start()
        self._httpd = _ServiceServer(
            (self.host, self._requested_port), _ServiceHandler, self
        )
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-service-http", daemon=True
        )
        self._http_thread.start()
        if self.recovered:
            emit(
                self.echo,
                f"recovered {len(self.recovered)} unfinished job(s)",
                component="service",
                recovered=len(self.recovered),
            )
        if self.auth is not None:
            emit(
                self.echo,
                f"auth: {len(self.auth)} token(s) loaded",
                component="service",
            )
        emit(self.echo, f"serving on {self.url}", component="service", url=self.url)
        return self

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout)
            self._http_thread = None
        if self.fleet is not None:
            # First: with the API down no drainer can complete a task, so
            # the fleet hands its live jobs back for recovery.
            self.fleet.stop(timeout)
        self.worker.stop(timeout)

    def __enter__(self) -> "CampaignService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
