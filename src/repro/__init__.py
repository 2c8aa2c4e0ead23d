"""GNNUnlock reproduction package.

Oracle-less, GNN-based attack on provably secure logic locking (Anti-SAT,
TTLock, SFLL-HD), plus every substrate it depends on: a gate-level netlist
library, locking transforms, a synthesis flow, a from-scratch GraphSAGE /
GraphSAINT implementation, a SAT-based equivalence checker, and the baseline
attacks the paper compares against.  ``repro.runner`` orchestrates whole
attack campaigns (parallel execution, artifact caching, ``python -m repro``).
"""

__version__ = "1.1.0"

from . import netlist  # noqa: F401

__all__ = ["netlist", "runner", "service", "__version__"]


def __getattr__(name):
    # The runner pulls in the full attack stack; load it on first use so
    # ``import repro`` stays light for netlist-only consumers.
    if name == "runner":
        from . import runner

        return runner
    if name == "service":
        from . import service

        return service
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
