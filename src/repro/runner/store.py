"""JSONL result store and paper-table aggregation.

Every finished task appends one flat JSON record; the helpers below turn a
pile of records back into the paper's table shapes (Table IV/V per-class
breakdowns, Table VI-style averages) and into campaign progress summaries.
The store is append-only, so re-running a campaign keeps history;
:meth:`ResultStore.latest` deduplicates by task fingerprint, last write wins.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

try:  # POSIX only; appends degrade gracefully elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..core.reporting import format_percent, format_table
from ..obs import get_registry

__all__ = [
    "AGGREGATE_METRIC_FIELDS",
    "ResultStore",
    "aggregate",
    "campaign_table",
    "h_tech_table",
    "latest_records",
    "paper_table",
    "read_store",
    "render_report",
]


def read_store(path) -> Tuple[List[Dict[str, object]], int]:
    """Parse a JSONL store: ``(records oldest first, corrupt line count)``.

    The file is read as bytes once and split on ``\\n``.  A final line
    without its newline is still being written (or was torn by a crash) and
    is neither returned nor counted; the next :meth:`ResultStore.append`
    terminates a torn one.  Lines that do not parse to a JSON object are
    counted as corrupt.  A missing file reads as empty.
    """
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        return [], 0
    lines = data.split(b"\n")
    lines.pop()  # b"" after a final newline, else the unfinished line
    records: List[Dict[str, object]] = []
    corrupt = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if isinstance(record, dict):
            records.append(record)
        else:
            corrupt += 1
    return records, corrupt


def latest_records(
    records: Iterable[Dict[str, object]],
) -> Dict[str, Dict[str, object]]:
    """Most recent record per task fingerprint, in first-seen key order.

    Records carrying neither a ``fingerprint`` nor a ``task_id`` (foreign
    or hand-written lines) stay distinct under a synthetic per-line key
    instead of all collapsing onto one entry.
    """
    latest: Dict[str, Dict[str, object]] = {}
    for index, record in enumerate(records):
        key = record.get("fingerprint") or record.get("task_id")
        latest[str(key) if key else f"#record{index}"] = record
    return latest


class ResultStore:
    """Append-only JSONL store of task records."""

    def __init__(self, path):
        self.path = Path(path)
        #: Unparseable lines seen by the most recent :meth:`load` call.
        self.last_corrupt_lines = 0

    def append(self, record: Mapping[str, object]) -> None:
        payload = dict(record)
        payload.setdefault("recorded_at", time.time())
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Serialise first, then hand the kernel one pre-built line under an
        # exclusive flock: concurrent writers (fleet coordinator + service
        # worker sharing a state dir) cannot interleave partial lines, and a
        # crash mid-append leaves at most one truncated tail line.
        data = (json.dumps(payload, sort_keys=True, default=str) + "\n").encode(
            "utf-8"
        )
        with open(self.path, "a+b", buffering=0) as handle:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                size = handle.seek(0, os.SEEK_END)
                if size:
                    handle.seek(size - 1)
                    if handle.read(1) != b"\n":
                        # A crashed writer's torn tail: terminate it so it
                        # reads as one corrupt line instead of swallowing
                        # this record.
                        data = b"\n" + data
                view = memoryview(data)
                while view:
                    written = handle.write(view)
                    view = view[written:]
            finally:
                if fcntl is not None:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def load(self) -> List[Dict[str, object]]:
        """All records, oldest first (see :func:`read_store`).

        Unparseable lines are skipped but *counted*: the tally lands in
        :attr:`last_corrupt_lines` and on the
        ``repro_store_corrupt_lines_total`` counter so a truncated store
        shows up in reports and on ``/metricsz`` instead of silently
        under-reporting.
        """
        records, corrupt = read_store(self.path)
        self.last_corrupt_lines = corrupt
        if corrupt:
            get_registry().inc("repro_store_corrupt_lines_total", corrupt)
        return records

    def latest(self) -> Dict[str, Dict[str, object]]:
        """Most recent record per task fingerprint (see :func:`latest_records`)."""
        return latest_records(self.load())

    def clear(self) -> None:
        if self.path.is_file():
            self.path.unlink()


# ----------------------------------------------------------------------
def _ok(records: Iterable[Mapping]) -> List[Mapping]:
    return [r for r in records if r.get("status", "ok") == "ok"]


def paper_table(
    records: Iterable[Mapping],
    class_order: Optional[Sequence[str]] = None,
    *,
    mn_header: str = "#MN",
) -> str:
    """Render Table IV/V-shaped per-benchmark results from task records.

    Columns: GNN accuracy, then precision / recall / F1 per class in
    ``class_order`` (default: the union of classes observed across all
    records, in first-seen order — mixed-scheme piles keep every class
    aligned instead of borrowing the first record's set), the
    misclassified-node breakdown and the removal success rate.
    """
    rows = []
    records = _ok(records)
    if class_order is None and records:
        seen: List[str] = []
        for record in records:
            for cls in record.get("class_names", []):
                if cls and cls not in seen:
                    seen.append(cls)
        class_order = seen
    class_order = list(class_order or [])
    for record in records:
        per_class = record.get("gnn_report", {}).get("per_class", {})
        row = [
            record.get("target", "?"),
            record.get("n_instances", 0),
            format_percent(float(record.get("gnn_accuracy", 0.0))),
        ]
        for metric in ("precision", "recall", "f1"):
            for cls in class_order:
                metrics = per_class.get(cls, {})
                row.append(format_percent(float(metrics.get(metric, 0.0))))
        row.append(
            record.get("gnn_report", {}).get("misclassification_summary", "-")
        )
        row.append(format_percent(float(record.get("removal_success_rate", 0.0))))
        rows.append(row)

    headers = ["Test", "#TestGraphs", "GNN Acc. (%)"]
    for metric in ("Prec", "Rec", "F1"):
        for cls in class_order:
            headers.append(f"{metric} {cls} (%)")
    headers += [mn_header, "Removal Success (%)"]
    return format_table(headers, rows)


#: Headline metrics averaged by :func:`aggregate`, in output order.  The
#: warehouse's streaming aggregation replays the same fields in the same
#: addition order so its floats are byte-identical to this function's.
AGGREGATE_METRIC_FIELDS: Tuple[str, ...] = (
    "gnn_accuracy",
    "post_accuracy",
    "gnn_macro_precision",
    "gnn_macro_recall",
    "gnn_macro_f1",
    "removal_success_rate",
    "train_time_s",
)


def aggregate(
    records: Iterable[Mapping],
    group_by: Sequence[str] = ("scheme", "suite", "technology"),
) -> List[Dict[str, object]]:
    """Average the headline metrics over record groups (Table VI flavour).

    Each metric is averaged only over the records that actually carry the
    field — a baseline record without ``gnn_accuracy`` no longer drags the
    group mean toward zero — and ``metric_n`` reports how many records
    backed each per-metric average.
    """
    groups: Dict[Tuple, List[Mapping]] = defaultdict(list)
    for record in _ok(records):
        key = tuple(record.get(field) for field in group_by)
        groups[key].append(record)

    def mean_and_n(items: List[Mapping], field: str) -> Tuple[float, int]:
        values = [
            float(r[field]) for r in items if r.get(field) is not None
        ]
        if not values:
            return 0.0, 0
        return sum(values) / len(values), len(values)

    summary: List[Dict[str, object]] = []
    for key in sorted(groups, key=str):
        items = groups[key]
        entry: Dict[str, object] = dict(zip(group_by, key))
        entry["n_tasks"] = len(items)
        entry["n_instances"] = int(
            sum(int(r.get("n_instances", 0)) for r in items)
        )
        metric_n: Dict[str, int] = {}
        for field in AGGREGATE_METRIC_FIELDS:
            entry[field], metric_n[field] = mean_and_n(items, field)
        entry["metric_n"] = metric_n
        summary.append(entry)
    return summary


# ----------------------------------------------------------------------
_SCHEME_LABELS = {"antisat": "Anti-SAT", "ttlock": "TTLock", "xor": "XOR"}
_TECH_LABELS = {"BENCH8": "bench", "GEN65": "65nm", "GEN45": "45nm"}


def _dataset_label(entry: Mapping) -> str:
    """Paper-style row label, e.g. ``SFLL-HD2 / ISCAS-85 / 65nm``."""
    scheme = str(entry.get("scheme", "?"))
    h = entry.get("h")
    name = _SCHEME_LABELS.get(scheme)
    if name is None:
        # Schemes without a pinned paper label (SARLock, cyclic, future
        # registrations) borrow their registry display name.
        from ..locking import find_scheme

        info = find_scheme(scheme)
        name = info.display_name if info is not None else scheme
    if scheme == "sfll":
        name = f"SFLL-HD{h}" if h is not None else "SFLL-HD"
    parts = [name]
    if entry.get("suite"):
        parts.append(str(entry["suite"]))
    tech = entry.get("technology")
    if tech:
        parts.append(_TECH_LABELS.get(str(tech), str(tech)))
    return " / ".join(parts)


def h_tech_table(
    records: Iterable[Mapping],
    group_by: Sequence[str] = ("scheme", "h", "technology", "suite"),
) -> str:
    """Render Table VI: per-dataset averages over h values and technologies.

    Each row is one ``aggregate()`` group — by default one (scheme, h,
    technology, suite) dataset — averaging GNN accuracy, the macro-averaged
    precision / recall / F1, the removal success rate and the training time
    over every attacked benchmark of the group.
    """
    rows = []
    for entry in aggregate(records, group_by=group_by):
        rows.append(
            [
                _dataset_label(entry),
                format_percent(float(entry["gnn_accuracy"])),
                format_percent(float(entry["gnn_macro_precision"])),
                format_percent(float(entry["gnn_macro_recall"])),
                format_percent(float(entry["gnn_macro_f1"])),
                format_percent(float(entry["removal_success_rate"])),
                f"{float(entry['train_time_s']):.1f}",
            ]
        )
    return format_table(
        ["Dataset", "GNN Acc. (%)", "Avg. Prec. (%)", "Avg. Rec. (%)",
         "Avg. F1 (%)", "Removal Success (%)", "Avg. TR Time (s)"],
        rows,
    )


def render_report(records: Iterable[Mapping]) -> str:
    """The campaign service's job report: status counts + the paper table.

    Deliberately restricted to *deterministic* record fields (no wall-clock
    or training times), so the report fetched from a service job is
    byte-identical to the report rendered from an offline
    :func:`~repro.runner.executor.run_campaign` of the same spec on the same
    stream.  Used by the ``/v1/jobs/<id>/report`` endpoint, ``repro fetch``
    and ``repro report --service-style``.
    """
    records = list(records)
    counts: Dict[str, int] = defaultdict(int)
    for record in records:
        counts[str(record.get("status", "ok"))] += 1
    header = f"{len(records)} task(s)"
    if counts:
        header += ": " + ", ".join(
            f"{counts[status]} {status}" for status in sorted(counts)
        )
    return header + "\n\n" + paper_table(records)


def campaign_table(records: Iterable[Mapping]) -> str:
    """Per-task campaign summary including failures and cache provenance."""
    rows = []
    for record in records:
        cache = record.get("cache", {})
        cache_note = (
            ",".join(f"{kind}:{event}" for kind, event in sorted(cache.items()))
            if cache
            else "-"
        )
        status = record.get("status", "ok")
        done = status in ("ok", "skipped")
        if done and "gnn_accuracy" in record:
            headline = (
                f"acc {format_percent(float(record['gnn_accuracy']))} / "
                f"removal {format_percent(float(record['removal_success_rate']))}"
            )
        elif done and "baseline_success_rate" in record:
            headline = (
                f"success {format_percent(float(record['baseline_success_rate']))}"
            )
        elif done and "n_nodes" in record:
            headline = f"{record['n_nodes']} nodes"
            if "n_circuits" in record:
                headline += f" / {record['n_circuits']} circuits"
        else:
            headline = str(record.get("error", "-"))[:60]
        rows.append(
            [
                record.get("task_id", "?"),
                status,
                f"{float(record.get('wall_time_s', 0.0)):.2f}",
                cache_note,
                headline,
            ]
        )
    return format_table(
        ["Task", "Status", "Time (s)", "Cache", "Result"], rows
    )
