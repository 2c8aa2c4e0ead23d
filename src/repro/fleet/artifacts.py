"""Write-through artifact cache backed by the service's object store.

A fleet drainer keeps the ordinary on-disk :class:`ArtifactCache` as its
first tier and falls back to the coordinator's HTTP object store
(``GET/PUT /v1/artifacts/<kind>/<key>``) on a local miss: fetched bytes
are digest-verified, unpickled, and written through to the local tier so
the next task on this host hits locally.  Freshly built artifacts are
pickled once and those bytes are both written locally and pushed back
(best-effort) so other drainers — and the coordinator's own
``JobWorker``, if any — skip the work entirely.  The local tier is the
plain cache's, decoded-object memo included.

Remote failures never fail a task: a fetch error is a miss (the artifact
regenerates locally, determinism makes that safe) and a push error only
costs other workers a cache hit.  Each transfer outcome is counted in the
``repro_fleet_artifact_transfers_total{direction, outcome}`` series.
"""

from __future__ import annotations

import pickle
from typing import Optional
from urllib.error import URLError

from ..obs import get_registry, span
from ..runner.cache import _MISSING, ArtifactCache, atomic_write
from ..service.client import ServiceError

__all__ = ["FleetArtifactCache"]


class FleetArtifactCache(ArtifactCache):
    """Two-tier cache: local disk in front of the service object store."""

    def __init__(self, root=None, *, remote=None):
        super().__init__(root)
        #: A :class:`~repro.service.client.ServiceClient` (or anything with
        #: ``get_artifact``/``put_artifact``); None = purely local.
        self.remote = remote

    @staticmethod
    def _transfer(direction: str, outcome: str) -> None:
        get_registry().inc(
            "repro_fleet_artifact_transfers_total",
            direction=direction,
            outcome=outcome,
        )

    # ------------------------------------------------------------------
    def _load(self, kind: str, key: str) -> object:
        value = super()._load(kind, key)
        if value is not _MISSING or self.remote is None:
            return value
        try:
            data = self.remote.get_artifact(kind, key)
        except (ServiceError, URLError, OSError):
            self._transfer("fetch", "error")
            return _MISSING
        if data is None:
            self._transfer("fetch", "miss")
            return _MISSING
        try:
            value = pickle.loads(data)
        except Exception:  # noqa: BLE001 - corrupt remote bytes are a miss
            self._transfer("fetch", "error")
            return _MISSING
        self._transfer("fetch", "hit")
        # Write through: next task on this host hits the local tier.  The
        # raw fetched bytes land verbatim so local and remote stay
        # byte-identical for a given key.
        path = self.path_for(kind, key)
        if self.enabled and path is not None:
            atomic_write(path, lambda handle: handle.write(data))
        return value

    def put(self, kind: str, key: str, value: object) -> Optional[object]:
        if self.remote is None:
            return super().put(kind, key, value)
        # Pickled once: the local file and the pushed body are these bytes.
        with span("cache", op="put", kind=kind):
            data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            path = self._write(kind, key, data)
        try:
            self.remote.put_artifact(kind, key, data)
            self._transfer("push", "ok")
        except (ServiceError, URLError, OSError):
            self._transfer("push", "error")
        return path
