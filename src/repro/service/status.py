"""Job status constants and error codes shared by the queue and the client.

Lives in its own dependency-free module so :mod:`repro.service.client`
(which deliberately avoids importing the runner stack) and
:mod:`repro.service.jobs` agree on the state machine — and on the error
vocabulary — by construction.
"""

#: Statuses a restarted service must pick back up.
ACTIVE_STATUSES = ("queued", "running")

#: Statuses that end a job: polling stops, fetch keeps working, and a
#: duplicate submission of a ``failed``/``cancelled`` spec re-enqueues it.
TERMINAL_STATUSES = ("done", "failed", "cancelled")

# ----------------------------------------------------------------------
# Machine-readable error codes.  Every non-2xx service response carries
# ``{"error": {"code": <one of these>, "message": ...}}``; the client maps
# them onto typed exceptions.

ERR_UNAUTHORIZED = "unauthorized"  # 401: missing, unknown or revoked token
ERR_FORBIDDEN = "forbidden"  # 403: authenticated but not allowed
ERR_NOT_FOUND = "not_found"  # 404: unknown job or route
ERR_METHOD_NOT_ALLOWED = "method_not_allowed"  # 405
ERR_INVALID_REQUEST = "invalid_request"  # 400: malformed JSON / params
ERR_PAYLOAD_TOO_LARGE = "payload_too_large"  # 413: body exceeds the cap
ERR_INVALID_SPEC = "invalid_spec"  # 400: spec failed validation
ERR_INTERNAL = "internal"  # 500: handler bug

# Fleet (PR 8): task leases and the artifact object store.
ERR_CONFLICT = "conflict"  # 409: completion contradicts the lease (fingerprint)
ERR_LEASE_EXPIRED = "lease_expired"  # 410: lease expired/released/reassigned
ERR_INTEGRITY = "integrity_mismatch"  # 422: artifact body fails its digest check
