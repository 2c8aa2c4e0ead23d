"""Cross-campaign result warehouse.

Sharded, compacted, indexed storage for task records across many campaigns:
:class:`Warehouse` (sharded JSONL + fingerprint index + crash-safe
compaction on request), :func:`ingest_store` / :func:`ingest_state_dir`
(lazy tailing of per-job ``ResultStore`` files), and
:func:`aggregate_stream` / :func:`build_filter` (streaming queries).  See
``README.md`` § "Result warehouse".
"""

from .ingest import ingest_state_dir, ingest_store  # noqa: F401
from .query import aggregate_stream, build_filter, parse_since  # noqa: F401
from .store import Warehouse  # noqa: F401

__all__ = [
    "Warehouse",
    "aggregate_stream",
    "build_filter",
    "ingest_state_dir",
    "ingest_store",
    "parse_since",
]
