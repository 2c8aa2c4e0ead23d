"""Warehouse query helpers: envelope filters and streaming aggregation.

``aggregate_stream`` replays :func:`repro.runner.store.aggregate` with
running sums instead of materialised record lists.  Floating-point addition
happens in the same order over the same values, so the two produce
*byte-identical* JSON — the property pinned by the warehouse test suite and
the CI ``warehouse-smoke`` diff.
"""

from __future__ import annotations

import datetime as _dt
import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..runner.store import AGGREGATE_METRIC_FIELDS

__all__ = ["aggregate_stream", "build_filter", "parse_since"]

_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def parse_since(value) -> float:
    """Parse a ``since`` bound: epoch seconds, ISO date/datetime, or an age.

    ``1754600000`` / ``2026-08-01`` / ``2026-08-01T12:00:00`` are absolute;
    ``30d``, ``12h``, ``45m`` mean "this long before now".
    """
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value).strip()
    if not text:
        raise ValueError("empty 'since' value")
    try:
        return float(text)
    except ValueError:
        pass
    unit = text[-1].lower()
    if unit in _AGE_UNITS:
        try:
            return time.time() - float(text[:-1]) * _AGE_UNITS[unit]
        except ValueError:
            pass
    try:
        parsed = _dt.datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(
            f"unparseable 'since' value {text!r}: use epoch seconds, an ISO "
            "date, or an age like 30d/12h/45m"
        ) from None
    return parsed.timestamp()


def build_filter(
    *,
    scheme: Optional[str] = None,
    attack: Optional[str] = None,
    suite: Optional[str] = None,
    status: Optional[str] = None,
    target: Optional[str] = None,
    since: Optional[float] = None,
) -> Callable[[Mapping[str, object]], bool]:
    """Build an envelope predicate for :meth:`Warehouse.iter_records`."""

    def predicate(env: Mapping[str, object]) -> bool:
        record = env.get("r", {})
        if not isinstance(record, Mapping):
            return False
        if scheme is not None and record.get("scheme") != scheme:
            return False
        if attack is not None and record.get("attack") != attack:
            return False
        if suite is not None and record.get("suite") != suite:
            return False
        if status is not None and record.get("status", "ok") != status:
            return False
        if target is not None and record.get("target") != target:
            return False
        if since is not None:
            try:
                recorded = float(record.get("recorded_at", 0.0))
            except (TypeError, ValueError):
                return False
            if recorded < since:
                return False
        return True

    return predicate


def aggregate_stream(
    records: Iterable[Mapping],
    group_by: Sequence[str] = ("scheme", "suite", "technology"),
) -> List[Dict[str, object]]:
    """Streaming twin of :func:`repro.runner.store.aggregate`.

    Consumes the record iterable once, holding only per-group running sums
    — never the records themselves — and emits exactly the structure (and
    exactly the floats) ``aggregate()`` computes on the same stream.
    """
    group_by = tuple(group_by)

    class _Acc:
        __slots__ = ("n_tasks", "n_instances", "sums", "counts")

        def __init__(self) -> None:
            self.n_tasks = 0
            self.n_instances = 0
            # sum() starts from int 0, so seed 0 (not 0.0) to reproduce
            # aggregate()'s exact float sequence.
            self.sums: Dict[str, object] = {
                field: 0 for field in AGGREGATE_METRIC_FIELDS
            }
            self.counts: Dict[str, int] = {
                field: 0 for field in AGGREGATE_METRIC_FIELDS
            }

    groups: Dict[Tuple, _Acc] = {}
    for record in records:
        if record.get("status", "ok") != "ok":
            continue
        key = tuple(record.get(field) for field in group_by)
        acc = groups.get(key)
        if acc is None:
            acc = groups[key] = _Acc()
        acc.n_tasks += 1
        acc.n_instances += int(record.get("n_instances", 0))
        for field in AGGREGATE_METRIC_FIELDS:
            value = record.get(field)
            if value is not None:
                acc.sums[field] = acc.sums[field] + float(value)
                acc.counts[field] += 1

    summary: List[Dict[str, object]] = []
    for key in sorted(groups, key=str):
        acc = groups[key]
        entry: Dict[str, object] = dict(zip(group_by, key))
        entry["n_tasks"] = acc.n_tasks
        entry["n_instances"] = int(acc.n_instances)
        metric_n: Dict[str, int] = {}
        for field in AGGREGATE_METRIC_FIELDS:
            count = acc.counts[field]
            entry[field] = acc.sums[field] / count if count else 0.0
            metric_n[field] = count
        entry["metric_n"] = metric_n
        summary.append(entry)
    return summary
