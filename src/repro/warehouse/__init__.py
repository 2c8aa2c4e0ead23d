"""Cross-campaign result warehouse.

:class:`Warehouse` is an ordered registry of JSONL result stores that it
reads in place (nothing is copied); :func:`aggregate_stream` /
:func:`build_filter` are the streaming query helpers.  See ``README.md``
§ "Result warehouse".
"""

from .query import aggregate_stream, build_filter, parse_since  # noqa: F401
from .store import Warehouse  # noqa: F401

__all__ = [
    "Warehouse",
    "aggregate_stream",
    "build_filter",
    "parse_since",
]
