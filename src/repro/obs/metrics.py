"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

Zero-dependency and deliberately small: a :class:`MetricsRegistry` is a
thread-safe bag of labelled series that can be snapshotted to JSON, merged
with another snapshot (the cross-process story — task workers snapshot on
exit, the campaign driver merges), and rendered in the Prometheus text
exposition format (the ``/metricsz`` story).

Process model: every process owns a registry *stack*.  ``get_registry()``
returns the top; :func:`scoped_registry` pushes a fresh registry for the
duration of one unit of work (a campaign task) so the unit's delta can be
shipped elsewhere without double counting.  The stack is process-global on
purpose — helper threads must land their increments in the ambient unit's
registry, which a thread-local stack would lose.

Counters and histograms merge by addition; gauges merge last-write-wins.
Nothing here ever reaches result records, fingerprints, or reports — the
determinism contract of the stores is untouched by telemetry.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "get_registry",
    "parse_prometheus",
    "scoped_registry",
]

#: Default histogram bucket upper bounds, in seconds — spans range from
#: sub-millisecond SAT queries to multi-minute training runs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(key: _LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = [*key, *extra]
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    as_int = int(value)
    return str(as_int) if value == as_int else repr(float(value))


class MetricsRegistry:
    """Thread-safe labelled counters, gauges and fixed-bucket histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[_LabelKey, float]] = {}
        self._gauges: Dict[str, Dict[_LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[_LabelKey, Dict[str, object]]] = {}
        self._bounds: Dict[str, Tuple[float, ...]] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0.0) + float(value)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        with self._lock:
            self._gauges.setdefault(name, {})[_label_key(labels)] = float(value)

    def add_gauge(self, name: str, delta: float, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._gauges.setdefault(name, {})
            series[key] = series.get(key, 0.0) + float(delta)

    def observe(
        self,
        name: str,
        value: float,
        *,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> None:
        """Record one histogram observation (bounds fix on first use)."""
        key = _label_key(labels)
        value = float(value)
        with self._lock:
            bounds = self._bounds.setdefault(
                name, tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
            )
            series = self._histograms.setdefault(name, {})
            cell = series.get(key)
            if cell is None:
                cell = {"counts": [0] * (len(bounds) + 1), "sum": 0.0, "count": 0}
                series[key] = cell
            counts: List[int] = cell["counts"]  # type: ignore[assignment]
            for index, bound in enumerate(bounds):
                if value <= bound:
                    counts[index] += 1
                    break
            else:
                counts[-1] += 1
            cell["sum"] = float(cell["sum"]) + value
            cell["count"] = int(cell["count"]) + 1

    # ------------------------------------------------------------------
    def value(self, name: str, **labels: object) -> float:
        """Current value of a counter (0.0 when the series is absent)."""
        with self._lock:
            return self._counters.get(name, {}).get(_label_key(labels), 0.0)

    def gauge_value(self, name: str, **labels: object) -> float:
        with self._lock:
            return self._gauges.get(name, {}).get(_label_key(labels), 0.0)

    def histogram_stats(self, name: str, **labels: object) -> Dict[str, float]:
        """``{count, sum}`` of one histogram series (zeros when absent)."""
        with self._lock:
            cell = self._histograms.get(name, {}).get(_label_key(labels))
            if cell is None:
                return {"count": 0, "sum": 0.0}
            return {"count": int(cell["count"]), "sum": float(cell["sum"])}

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-safe copy of every series (the sidecar payload)."""
        with self._lock:
            return {
                "counters": {
                    name: [[dict(key), value] for key, value in sorted(series.items())]
                    for name, series in sorted(self._counters.items())
                },
                "gauges": {
                    name: [[dict(key), value] for key, value in sorted(series.items())]
                    for name, series in sorted(self._gauges.items())
                },
                "histograms": {
                    name: {
                        "bounds": list(self._bounds.get(name, DEFAULT_BUCKETS)),
                        "series": [
                            [
                                dict(key),
                                {
                                    "counts": list(cell["counts"]),  # type: ignore[arg-type]
                                    "sum": float(cell["sum"]),
                                    "count": int(cell["count"]),
                                },
                            ]
                            for key, cell in sorted(series.items())
                        ],
                    }
                    for name, series in sorted(self._histograms.items())
                },
            }

    def merge(self, snapshot: Mapping[str, object]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histograms add; gauges take the incoming value.  Unknown
        shapes are skipped rather than raised — a malformed sidecar must not
        sink the campaign that is merging it.
        """
        for name, series in (snapshot.get("counters") or {}).items():  # type: ignore[union-attr]
            for labels, value in series:
                self.inc(str(name), float(value), **labels)
        for name, series in (snapshot.get("gauges") or {}).items():  # type: ignore[union-attr]
            for labels, value in series:
                self.set_gauge(str(name), float(value), **labels)
        histograms = snapshot.get("histograms") or {}
        for name, payload in histograms.items():  # type: ignore[union-attr]
            bounds = tuple(float(b) for b in payload.get("bounds") or DEFAULT_BUCKETS)
            with self._lock:
                self._bounds.setdefault(str(name), bounds)
                own_bounds = self._bounds[str(name)]
                series = self._histograms.setdefault(str(name), {})
                for labels, cell in payload.get("series") or []:
                    key = _label_key(labels)
                    mine = series.get(key)
                    if mine is None:
                        mine = {
                            "counts": [0] * (len(own_bounds) + 1),
                            "sum": 0.0,
                            "count": 0,
                        }
                        series[key] = mine
                    counts = cell.get("counts") or []
                    if len(counts) == len(mine["counts"]):  # type: ignore[arg-type]
                        mine["counts"] = [
                            int(a) + int(b)
                            for a, b in zip(mine["counts"], counts)  # type: ignore[arg-type]
                        ]
                    mine["sum"] = float(mine["sum"]) + float(cell.get("sum", 0.0))
                    mine["count"] = int(mine["count"]) + int(cell.get("count", 0))

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._bounds.clear()

    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text exposition (version 0.0.4) of every series."""
        lines: List[str] = []
        with self._lock:
            for name in sorted(self._counters):
                lines.append(f"# TYPE {name} counter")
                for key, value in sorted(self._counters[name].items()):
                    lines.append(f"{name}{_render_labels(key)} {_format_value(value)}")
            for name in sorted(self._gauges):
                lines.append(f"# TYPE {name} gauge")
                for key, value in sorted(self._gauges[name].items()):
                    lines.append(f"{name}{_render_labels(key)} {_format_value(value)}")
            for name in sorted(self._histograms):
                lines.append(f"# TYPE {name} histogram")
                bounds = self._bounds.get(name, DEFAULT_BUCKETS)
                for key, cell in sorted(self._histograms[name].items()):
                    cumulative = 0
                    counts: Sequence[int] = cell["counts"]  # type: ignore[assignment]
                    for bound, count in zip(bounds, counts):
                        cumulative += int(count)
                        label = _render_labels(key, [("le", repr(float(bound)))])
                        lines.append(f"{name}_bucket{label} {cumulative}")
                    cumulative += int(counts[-1])
                    label = _render_labels(key, [("le", "+Inf")])
                    lines.append(f"{name}_bucket{label} {cumulative}")
                    lines.append(
                        f"{name}_sum{_render_labels(key)} "
                        f"{_format_value(float(cell['sum']))}"
                    )
                    lines.append(
                        f"{name}_count{_render_labels(key)} {int(cell['count'])}"
                    )
        return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse Prometheus text format into ``{"name{labels}": value}``.

    Intentionally minimal (no exemplar/timestamp support): enough for tests,
    CI smoke checks and the load-harness snapshot to assert on series without
    a client library.
    """
    series: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if not name:
            continue
        try:
            series[name] = float(value)
        except ValueError:
            continue
    return series


# ----------------------------------------------------------------------
# The per-process registry stack.

_REGISTRY_STACK: List[MetricsRegistry] = [MetricsRegistry()]


def get_registry() -> MetricsRegistry:
    """The process's current (innermost scoped) registry."""
    return _REGISTRY_STACK[-1]


@contextmanager
def scoped_registry(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Push a fresh registry for one unit of work.

    Increments made anywhere in the process while the scope is active land in
    the scoped registry; the caller decides what to do with its snapshot
    (write a sidecar, ship it over a pool future, merge it upward).
    """
    registry = registry if registry is not None else MetricsRegistry()
    _REGISTRY_STACK.append(registry)
    try:
        yield registry
    finally:
        try:
            _REGISTRY_STACK.remove(registry)
        except ValueError:
            pass
