"""Long-lived campaign service: submit / poll / fetch over HTTP.

The service wraps the :mod:`repro.runner` campaign machinery in a
long-running process, turning the batch "expand a grid and wait" workflow
into an on-demand one:

* :mod:`~repro.service.jobs` — the job model and a persistent, deduplicating
  FIFO :class:`JobQueue` (job id = campaign fingerprint).
* :mod:`~repro.service.worker` — :class:`JobWorker` threads that execute
  claimed jobs with ``run_campaign(..., resume=True)`` and divide the global
  worker budgets across concurrent jobs.
* :mod:`~repro.service.api` — :class:`CampaignService`, the stdlib
  ``ThreadingHTTPServer`` JSON API (``repro serve``): bearer-token auth,
  job ownership, and a ``/v1/jobs/<id>/stream`` long-poll progress feed.
* :mod:`~repro.service.auth` — the tokens-file registry (submit/worker/admin
  roles, live-reload revocation).
* :mod:`~repro.service.client` — :class:`ServiceClient`, the stdlib HTTP
  client behind ``repro submit / status / watch / fetch / cancel``, with
  typed errors (:class:`AuthError`, :class:`NotFoundError`, ...) and
  opt-in transient-failure retries for the fleet worker loop.

Scaling out: ``repro serve --fleet`` keeps the one job path (``JobWorker``
→ ``run_campaign``) and swaps only its task backend: the :mod:`repro.fleet`
coordinator turns each submitted task into a lease, and its artifact object
store lets N ``repro work`` drainer processes share the work.

Restart safety: job state persists under the service's state directory and
every job's results live in its own JSONL store, so a killed service picks
its queue back up on restart and resumes in-flight jobs without re-running
finished tasks.
"""

from .api import CampaignService
from .auth import TokenInfo, TokenRegistry
from .client import (
    AuthError,
    DEFAULT_SERVICE_URL,
    NotFoundError,
    SERVICE_TOKEN_ENV,
    SERVICE_URL_ENV,
    ServiceClient,
    ServiceError,
)
from .jobs import ACTIVE_STATUSES, Job, JobQueue, TERMINAL_STATUSES
from .worker import JobWorker

__all__ = [
    "ACTIVE_STATUSES",
    "AuthError",
    "CampaignService",
    "DEFAULT_SERVICE_URL",
    "Job",
    "JobQueue",
    "JobWorker",
    "NotFoundError",
    "SERVICE_TOKEN_ENV",
    "SERVICE_URL_ENV",
    "ServiceClient",
    "ServiceError",
    "TERMINAL_STATUSES",
    "TokenInfo",
    "TokenRegistry",
]
