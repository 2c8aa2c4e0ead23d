"""Span tracer: JSONL trace events gated behind ``REPRO_OBS=1``.

Usage::

    with obs.span("train_epoch", epoch=3) as handle:
        ...
        handle.tag(loss=0.12)

When ``REPRO_OBS`` is unset the context manager is a no-op (no clock reads,
no allocations beyond the generator frame), which is what keeps telemetry-off
runs byte-identical to historic ones at effectively zero cost.  When enabled,
each span completion appends one event to the process's current
:class:`Tracer` and observes the ``repro_span_seconds`` histogram in the
current metrics registry, so traces and rollups always agree.

Events carry wall-clock timestamps (``time.time()``), not ``perf_counter``
values: wall clocks are comparable *across processes*, which is what lets a
campaign's Chrome trace line up worker-process spans on one timeline.

Like the metrics registry, tracers form a process-global stack
(:func:`scoped_tracer`) so one task's events can be drained into its sidecar
without catching a concurrent unit's spans; ambient tags (campaign/job/task
ids) are attached via :func:`tag_context`.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from .metrics import get_registry

__all__ = [
    "OBS_ENV",
    "SPAN_SECONDS_METRIC",
    "Tracer",
    "emit_span",
    "get_tracer",
    "obs_enabled",
    "read_events_jsonl",
    "scoped_tracer",
    "span",
    "tag_context",
    "to_chrome_trace",
    "write_events_jsonl",
]

#: Setting this to 1/true/yes/on enables span tracing and sidecar emission.
OBS_ENV = "REPRO_OBS"

#: Histogram observed once per completed span, labelled ``span=<name>``.  It
#: travels in the metrics snapshot; the ``repro report --timings`` table is
#: built from the span events instead (``rollup["spans"]``, see
#: :func:`repro.obs.rollup.merge_sidecars`).
SPAN_SECONDS_METRIC = "repro_span_seconds"

_TRUE_VALUES = frozenset({"1", "true", "yes", "on"})


def obs_enabled() -> bool:
    """Whether span tracing is on (``REPRO_OBS`` truthy).

    Read live on every call — cheap (one dict lookup) and required so tests
    and child processes see toggles without module reloads.
    """
    return os.environ.get(OBS_ENV, "").strip().lower() in _TRUE_VALUES


class SpanHandle:
    """Yielded by :func:`span`; lets the body attach tags before exit."""

    __slots__ = ("tags",)

    def __init__(self) -> None:
        self.tags: Dict[str, object] = {}

    def tag(self, **tags: object) -> None:
        self.tags.update(tags)


class _NullHandle:
    __slots__ = ()

    def tag(self, **tags: object) -> None:
        pass


_NULL_HANDLE = _NullHandle()


class Tracer:
    """Thread-safe in-memory buffer of trace events."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[Dict[str, object]] = []

    def append(self, event: Dict[str, object]) -> None:
        with self._lock:
            self._events.append(event)

    def extend(self, events: Sequence[Mapping[str, object]]) -> None:
        with self._lock:
            self._events.extend(dict(e) for e in events)

    def events(self) -> List[Dict[str, object]]:
        with self._lock:
            return list(self._events)

    def drain(self) -> List[Dict[str, object]]:
        """Return and clear the buffered events."""
        with self._lock:
            events, self._events = self._events, []
            return events


_TRACER_STACK: List[Tracer] = [Tracer()]


def get_tracer() -> Tracer:
    """The process's current (innermost scoped) tracer."""
    return _TRACER_STACK[-1]


@contextmanager
def scoped_tracer(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Push a fresh tracer for one unit of work (mirrors scoped_registry)."""
    tracer = tracer if tracer is not None else Tracer()
    _TRACER_STACK.append(tracer)
    try:
        yield tracer
    finally:
        try:
            _TRACER_STACK.remove(tracer)
        except ValueError:
            pass


# ----------------------------------------------------------------------
# Ambient tags: campaign/job/task ids attached to every span emitted while
# the context is active.  Process-global (not thread-local) on purpose —
# helper threads emit spans on behalf of the ambient task and must inherit
# its ids.

_CONTEXT: Dict[str, object] = {}
_CONTEXT_LOCK = threading.Lock()


@contextmanager
def tag_context(**tags: object) -> Iterator[None]:
    """Attach ambient tags (e.g. ``task=...``) to spans emitted inside."""
    with _CONTEXT_LOCK:
        saved = dict(_CONTEXT)
        _CONTEXT.update({k: v for k, v in tags.items() if v is not None})
    try:
        yield
    finally:
        with _CONTEXT_LOCK:
            _CONTEXT.clear()
            _CONTEXT.update(saved)


def _current_context() -> Dict[str, object]:
    with _CONTEXT_LOCK:
        return dict(_CONTEXT)


# ----------------------------------------------------------------------
_RESERVED_KEYS = ("name", "ts", "dur", "pid", "tid")


def _record_span(
    name: str, *, ts: float, dur: float, tags: Optional[Mapping[str, object]] = None
) -> None:
    event: Dict[str, object] = {
        "name": name,
        "ts": round(float(ts), 6),
        "dur": round(float(dur), 6),
        "pid": os.getpid(),
        "tid": threading.get_ident(),
    }
    merged = _current_context()
    if tags:
        merged.update(tags)
    for key, value in merged.items():
        if value is not None and key not in _RESERVED_KEYS:
            event[key] = value
    get_tracer().append(event)
    get_registry().observe(SPAN_SECONDS_METRIC, float(dur), span=name)


@contextmanager
def span(name: str, **tags: object) -> Iterator:
    """Time a block as one trace event (no-op unless ``REPRO_OBS`` is set)."""
    if not obs_enabled():
        yield _NULL_HANDLE
        return
    handle = SpanHandle()
    start_wall = time.time()
    start = time.perf_counter()
    try:
        yield handle
    finally:
        merged = dict(tags)
        merged.update(handle.tags)
        _record_span(
            name, ts=start_wall, dur=time.perf_counter() - start, tags=merged
        )


def emit_span(name: str, *, ts: float, dur: float, **tags: object) -> None:
    """Record an already-measured span (e.g. queue wait computed after the
    fact from a submission timestamp).  No-op unless ``REPRO_OBS`` is set."""
    if not obs_enabled():
        return
    _record_span(name, ts=ts, dur=max(0.0, float(dur)), tags=tags)


# ----------------------------------------------------------------------
def to_chrome_trace(events: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    """Convert trace events to the Chrome trace-event JSON format.

    Load the result at ``chrome://tracing`` or https://ui.perfetto.dev.
    Timestamps and durations become microseconds; everything that is not a
    reserved field lands in ``args`` so tags survive the conversion.
    """
    trace_events: List[Dict[str, object]] = []
    for event in events:
        args = {
            k: v for k, v in event.items() if k not in _RESERVED_KEYS
        }
        trace_events.append(
            {
                "name": str(event.get("name", "span")),
                "cat": "repro",
                "ph": "X",
                "ts": float(event.get("ts", 0.0)) * 1e6,
                "dur": float(event.get("dur", 0.0)) * 1e6,
                "pid": int(event.get("pid", 0)),
                "tid": int(event.get("tid", 0)),
                "args": args,
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_events_jsonl(
    path: os.PathLike, events: Sequence[Mapping[str, object]], append: bool = True
) -> None:
    """Append events to a JSONL trace file (one JSON object per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    mode = "a" if append else "w"
    with path.open(mode, encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True, default=str) + "\n")


def read_events_jsonl(path: os.PathLike) -> List[Dict[str, object]]:
    """Load a JSONL trace file; unparseable lines are skipped."""
    path = Path(path)
    if not path.is_file():
        return []
    events: List[Dict[str, object]] = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return events
