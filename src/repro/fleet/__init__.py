"""Distributed worker fleet: task leases, drainers, and the object store.

``repro serve --fleet`` keeps running jobs through ``JobWorker`` and
``run_campaign`` but gives the runner a :class:`FleetCoordinator` lease
executor as its task backend: each task becomes a time-bounded lease over
HTTP, and any number of ``repro work`` drainer processes — on the same host
or others — claim, execute and complete them.  See
:mod:`repro.fleet.leases` for the exactly-once bookkeeping and
:mod:`repro.fleet.artifacts` for the write-through artifact tier.

Only :mod:`.leases` is imported eagerly: the heavier modules pull in the
service/runner stacks (whose API layer itself imports ``leases``), so
they load lazily via PEP 562 to keep the import graph acyclic.
"""

from importlib import import_module

from .leases import DEFAULT_LEASE_TTL_S, LeaseError, LeaseTable, TaskLease

__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "FleetArtifactCache",
    "FleetConflict",
    "FleetCoordinator",
    "FleetWorker",
    "LeaseError",
    "LeaseTable",
    "TaskLease",
    "default_worker_name",
]

_LAZY = {
    "FleetArtifactCache": ".artifacts",
    "FleetConflict": ".coordinator",
    "FleetCoordinator": ".coordinator",
    "FleetWorker": ".worker",
    "default_worker_name": ".worker",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module, __name__), name)
