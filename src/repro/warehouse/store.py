"""Sharded, compacted, indexed result warehouse.

One :class:`Warehouse` directory holds the records of *many* campaigns::

    <root>/
      manifest.json      # ordered list of live shard files + generation
      index.json         # persisted index snapshot (rebuildable from shards)
      sources.json       # ingest cursors: source id -> byte offset tailed
      shards/gGGGG-NNNNNN.jsonl

Each shard line is a small envelope ``{"k": key, "s": seq, "f": first_seq,
"src": source, "r": {record}}`` around the original task record.  The
in-memory index maps ``key`` (task fingerprint, falling back to task id,
falling back to a synthetic per-line key — exactly the
:meth:`repro.runner.store.ResultStore.latest` contract) to the shard, byte
offset and length of its most recent envelope, so ``latest()``-style reads
are random-access seeks, never full scans.

Ordering contract: iteration yields one record per key, ordered by the
*first* sequence number ever assigned to the key.  That reproduces
``ResultStore.latest()``'s dict order (first occurrence wins the position,
last write wins the value), which is what keeps warehouse-rendered reports
byte-identical to JSONL-backed ones.

Crash safety:

* appends serialise the whole line first and hand the kernel a single
  ``O_APPEND`` write under an exclusive ``flock``;
* compaction writes *new* shard files, fsyncs them, then atomically
  replaces ``manifest.json`` — a crash at any point leaves either the old
  or the new shard set fully live, and orphan files are swept on open.
"""

from __future__ import annotations

import io
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, NamedTuple, Optional

try:  # POSIX only; locking degrades gracefully elsewhere.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..obs import get_registry
from ..runner.cache import atomic_write

__all__ = ["Warehouse"]

_MANIFEST = "manifest.json"
_INDEX = "index.json"
_SOURCES = "sources.json"
_LOCKNAME = ".lock"

#: Appends between automatic index snapshots.  The snapshot is an
#: optimisation (the index always rebuilds from shard tails), so losing the
#: last few appends' worth of snapshot costs a short tail re-scan, not data.
_INDEX_FLUSH_EVERY = 256


class _Entry(NamedTuple):
    shard: str
    offset: int
    length: int
    seq: int
    first_seq: int
    source: str


class Warehouse:
    """Cross-campaign record store: sharded JSONL + fingerprint index."""

    def __init__(
        self,
        root,
        *,
        max_shard_bytes: int = 64 * 1024 * 1024,
    ) -> None:
        self.root = Path(root)
        self.shards_dir = self.root / "shards"
        self.max_shard_bytes = int(max_shard_bytes)
        self._mutex = threading.RLock()
        self._entries: Dict[str, _Entry] = {}
        self._scanned: Dict[str, int] = {}
        self._sources: Dict[str, Dict[str, object]] = {}
        self._total_lines = 0
        self._corrupt_lines = 0
        self._next_seq = 0
        self._dirty_appends = 0
        self._manifest: Dict[str, object] = {}
        #: Test-only failure injection point for the crash-mid-compaction
        #: recovery test; called with a phase name between compaction steps.
        self._crash_hook: Optional[Callable[[str], None]] = None
        self._open()

    # ------------------------------------------------------------------
    # Setup / persistence
    # ------------------------------------------------------------------
    def _open(self) -> None:
        self.shards_dir.mkdir(parents=True, exist_ok=True)
        manifest_path = self.root / _MANIFEST
        if manifest_path.is_file():
            try:
                self._manifest = json.loads(manifest_path.read_text())
            except (OSError, json.JSONDecodeError):
                self._manifest = {}
        if not self._manifest.get("shards") and "generation" not in self._manifest:
            self._manifest = {
                "version": 1,
                "generation": 0,
                "shards": [],
                "next_shard": 1,
            }
        live = set(self._manifest.get("shards", []))
        # Sweep crash leftovers: shard files a died compaction wrote but
        # never published in the manifest (or never got to delete).
        for path in self.shards_dir.glob("*.jsonl"):
            if path.name not in live:
                try:
                    path.unlink()
                except OSError:
                    pass
        self._load_sources()
        self._load_index_snapshot()
        with self._mutex:
            self._refresh()

    def _load_sources(self) -> None:
        path = self.root / _SOURCES
        if not path.is_file():
            return
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return
        if isinstance(data, dict):
            self._sources = {
                str(k): dict(v) for k, v in data.items() if isinstance(v, dict)
            }

    def _load_index_snapshot(self) -> None:
        path = self.root / _INDEX
        if not path.is_file():
            return
        try:
            snap = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return
        if snap.get("generation") != self._manifest.get("generation"):
            return
        live = set(self._manifest.get("shards", []))
        scanned = snap.get("scanned", {})
        for shard, offset in scanned.items():
            if shard not in live:
                return
            try:
                size = (self.shards_dir / shard).stat().st_size
            except OSError:
                return
            if int(offset) > size:
                return  # snapshot ahead of the file: stale, rebuild
        entries: Dict[str, _Entry] = {}
        for key, row in snap.get("entries", {}).items():
            if len(row) != 6 or row[0] not in live:
                return
            entries[str(key)] = _Entry(
                str(row[0]), int(row[1]), int(row[2]), int(row[3]),
                int(row[4]), str(row[5]),
            )
        self._entries = entries
        self._scanned = {str(k): int(v) for k, v in scanned.items()}
        self._total_lines = int(snap.get("total_lines", len(entries)))
        self._corrupt_lines = int(snap.get("corrupt_lines", 0))
        self._next_seq = int(snap.get("next_seq", 0))

    def _persist_index(self) -> None:
        snap = {
            "version": 1,
            "generation": self._manifest.get("generation", 0),
            "next_seq": self._next_seq,
            "total_lines": self._total_lines,
            "corrupt_lines": self._corrupt_lines,
            "scanned": self._scanned,
            "entries": {key: list(entry) for key, entry in self._entries.items()},
        }
        atomic_write(
            self.root / _INDEX,
            lambda handle: handle.write(json.dumps(snap).encode("utf-8")),
        )
        self._dirty_appends = 0

    def _persist_manifest(self) -> None:
        payload = json.dumps(self._manifest, indent=2).encode("utf-8")
        atomic_write(self.root / _MANIFEST, lambda handle: handle.write(payload))

    def _persist_sources(self) -> None:
        payload = json.dumps(self._sources, indent=2, sort_keys=True).encode("utf-8")
        atomic_write(self.root / _SOURCES, lambda handle: handle.write(payload))

    @contextmanager
    def _flock(self):
        """Cross-process exclusive lock over mutating warehouse operations."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with (self.root / _LOCKNAME).open("a+") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Scan un-indexed shard tails (another process may have appended)."""
        for shard in self._manifest.get("shards", []):
            path = self.shards_dir / shard
            try:
                size = path.stat().st_size
            except OSError:
                continue
            scanned = self._scanned.get(shard, 0)
            if size <= scanned:
                continue
            with path.open("rb") as handle:
                handle.seek(scanned)
                chunk = handle.read(size - scanned)
            end = chunk.rfind(b"\n")
            if end < 0:
                continue  # only a partial trailing line so far
            offset = scanned
            for raw in chunk[: end + 1].split(b"\n")[:-1]:
                length = len(raw) + 1
                self._note_line(shard, offset, raw)
                offset += length
            self._scanned[shard] = offset

    def _note_line(self, shard: str, offset: int, raw: bytes) -> None:
        line = raw.strip()
        if not line:
            return
        try:
            env = json.loads(line)
            key = str(env["k"])
            seq = int(env["s"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            self._corrupt_lines += 1
            return
        first = int(env.get("f", seq))
        previous = self._entries.get(key)
        if previous is not None:
            first = min(first, previous.first_seq)
        self._entries[key] = _Entry(
            shard, offset, len(raw) + 1, seq, first, str(env.get("src", ""))
        )
        self._total_lines += 1
        self._next_seq = max(self._next_seq, seq + 1)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _active_shard(self, need: int) -> str:
        shards: List[str] = self._manifest.setdefault("shards", [])
        if shards:
            current = shards[-1]
            if self._scanned.get(current, 0) + need <= self.max_shard_bytes:
                return current
        generation = int(self._manifest.get("generation", 0))
        number = int(self._manifest.get("next_shard", 1))
        name = f"g{generation:04d}-{number:06d}.jsonl"
        self._manifest["next_shard"] = number + 1
        shards.append(name)
        self._persist_manifest()
        return name

    def append(
        self,
        record: Mapping[str, object],
        *,
        key: Optional[str] = None,
        source: str = "",
    ) -> str:
        """Append one record; returns the key it was stored under."""
        return self.append_many([(key, record)], source=source)[0]

    def append_many(
        self,
        items,
        *,
        source: str = "",
    ) -> List[str]:
        """Append ``(key, record)`` pairs in one locked pass.

        ``key`` may be ``None``: the fingerprint / task id fallback (and a
        synthetic per-sequence key for records carrying neither) is applied
        here, mirroring ``ResultStore.latest()``.
        """
        keys: List[str] = []
        with self._mutex, self._flock():
            self._refresh()
            handle: Optional[io.FileIO] = None
            shard = ""
            try:
                for key, record in items:
                    if key is None:
                        key = record.get("fingerprint") or record.get("task_id")
                        key = str(key) if key else f"#seq{self._next_seq}"
                    seq = self._next_seq
                    self._next_seq += 1
                    previous = self._entries.get(key)
                    first = previous.first_seq if previous is not None else seq
                    env: Dict[str, object] = {
                        "f": first,
                        "k": key,
                        "r": dict(record),
                        "s": seq,
                    }
                    if source:
                        env["src"] = source
                    data = (
                        json.dumps(env, sort_keys=True, default=str) + "\n"
                    ).encode("utf-8")
                    target = self._active_shard(len(data))
                    if handle is None or target != shard:
                        if handle is not None:
                            handle.close()
                        shard = target
                        handle = open(  # noqa: SIM115 - closed in finally
                            self.shards_dir / shard, "ab", buffering=0
                        )
                        if fcntl is not None:
                            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                    offset = self._scanned.get(shard, 0)
                    size = handle.seek(0, os.SEEK_END)
                    if size > offset:
                        # Partial line left by a crashed writer: terminate it
                        # so it parses as one corrupt line, never merges with
                        # ours.
                        handle.write(b"\n")
                        self._corrupt_lines += 1
                        offset = size + 1
                    view = memoryview(data)
                    while view:
                        written = handle.write(view)
                        view = view[written:]
                    self._scanned[shard] = offset + len(data)
                    self._entries[key] = _Entry(
                        shard, offset, len(data), seq, first, source
                    )
                    self._total_lines += 1
                    keys.append(key)
            finally:
                if handle is not None:
                    handle.close()
            self._dirty_appends += len(keys)
            get_registry().inc("repro_warehouse_appends_total", len(keys))
            if self._dirty_appends >= _INDEX_FLUSH_EVERY:
                self._persist_index()
        return keys

    def flush(self) -> None:
        """Persist the index snapshot and ingest cursors."""
        with self._mutex:
            self._persist_index()
            self._persist_sources()

    # ------------------------------------------------------------------
    # Ingest cursors
    # ------------------------------------------------------------------
    def source_cursor(self, source: str) -> Dict[str, object]:
        with self._mutex:
            return dict(self._sources.get(source, {"offset": 0, "lines": 0}))

    def set_source_cursor(self, source: str, cursor: Mapping[str, object]) -> None:
        with self._mutex:
            self._sources[source] = dict(cursor)
            self._persist_sources()

    def sources(self) -> Dict[str, Dict[str, object]]:
        with self._mutex:
            return {name: dict(cur) for name, cur in self._sources.items()}

    # ------------------------------------------------------------------
    # Reads (streaming)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._mutex:
            self._refresh()
            return len(self._entries)

    def iter_envelopes(self, *, latest: bool = True) -> Iterator[Dict[str, object]]:
        """Stream envelopes one at a time; never materialises the full set.

        ``latest=True`` yields the most recent envelope per key ordered by
        the key's first appearance (the ``ResultStore.latest()`` contract);
        ``latest=False`` streams every stored line in shard order.
        """
        registry = get_registry()
        if not latest:
            with self._mutex:
                self._refresh()
                shards = list(self._manifest.get("shards", []))
            for shard in shards:
                path = self.shards_dir / shard
                if not path.is_file():
                    continue
                with path.open("rb") as handle:
                    for raw in handle:
                        line = raw.strip()
                        if not line:
                            continue
                        try:
                            env = json.loads(line)
                        except json.JSONDecodeError:
                            continue
                        registry.inc("repro_warehouse_records_scanned_total")
                        yield env
            return
        with self._mutex:
            self._refresh()
            entries = sorted(self._entries.values(), key=lambda e: e.first_seq)
        handles: Dict[str, io.BufferedReader] = {}
        try:
            for entry in entries:
                handle = handles.get(entry.shard)
                if handle is None:
                    handle = (self.shards_dir / entry.shard).open("rb")
                    handles[entry.shard] = handle
                handle.seek(entry.offset)
                env = json.loads(handle.read(entry.length))
                registry.inc("repro_warehouse_records_scanned_total")
                yield env
        finally:
            for handle in handles.values():
                handle.close()

    def iter_records(
        self,
        where: Optional[Callable[[Mapping[str, object]], bool]] = None,
        *,
        latest: bool = True,
    ) -> Iterator[Dict[str, object]]:
        """Stream the stored records (the inner ``r`` payloads).

        ``where`` receives the *envelope* (record under ``"r"``, source
        under ``"src"``) so callers can filter on provenance without the
        record ever being copied.
        """
        for env in self.iter_envelopes(latest=latest):
            if where is not None and not where(env):
                continue
            yield env.get("r", {})

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """Random-access fetch of the latest record for ``key`` (one seek)."""
        with self._mutex:
            self._refresh()
            entry = self._entries.get(key)
        if entry is None:
            return None
        with (self.shards_dir / entry.shard).open("rb") as handle:
            handle.seek(entry.offset)
            env = json.loads(handle.read(entry.length))
        return env.get("r", {})

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> Dict[str, object]:
        """Rewrite shards keeping only the latest envelope per key.

        A no-op (``compacted: False``) when there is nothing to fold.

        Envelope lines are byte-copied (sequence numbers and first-seen
        ordering included), so every read observable — ``latest()`` order,
        streamed aggregates, rendered reports — is identical before and
        after.  Crash-safe: new shards are written and fsynced first, then
        ``manifest.json`` flips atomically; old files are only unlinked
        after the flip, and orphans from a crash are swept on next open.
        """
        with self._mutex, self._flock():
            self._refresh()
            folded = self._total_lines - len(self._entries) + self._corrupt_lines
            if folded == 0:
                return {
                    "compacted": False,
                    "folded": 0,
                    "records": len(self._entries),
                    "shards": len(self._manifest.get("shards", [])),
                }
            generation = int(self._manifest.get("generation", 0)) + 1
            ordered = sorted(self._entries.items(), key=lambda kv: kv[1].first_seq)
            old_shards = list(self._manifest.get("shards", []))
            reads: Dict[str, io.BufferedReader] = {}
            new_shards: List[str] = []
            new_entries: Dict[str, _Entry] = {}
            new_scanned: Dict[str, int] = {}
            writer: Optional[io.FileIO] = None
            number = 1
            try:
                for key, entry in ordered:
                    source = reads.get(entry.shard)
                    if source is None:
                        source = (self.shards_dir / entry.shard).open("rb")
                        reads[entry.shard] = source
                    source.seek(entry.offset)
                    raw = source.read(entry.length)
                    if writer is None or (
                        new_scanned[new_shards[-1]] + len(raw) > self.max_shard_bytes
                        and new_scanned[new_shards[-1]] > 0
                    ):
                        if writer is not None:
                            writer.flush()
                            os.fsync(writer.fileno())
                            writer.close()
                        name = f"g{generation:04d}-{number:06d}.jsonl"
                        number += 1
                        new_shards.append(name)
                        new_scanned[name] = 0
                        writer = open(  # noqa: SIM115 - closed below
                            self.shards_dir / name, "wb"
                        )
                    offset = new_scanned[new_shards[-1]]
                    writer.write(raw)
                    new_scanned[new_shards[-1]] = offset + len(raw)
                    new_entries[key] = _Entry(
                        new_shards[-1], offset, len(raw),
                        entry.seq, entry.first_seq, entry.source,
                    )
                if writer is not None:
                    writer.flush()
                    os.fsync(writer.fileno())
            finally:
                if writer is not None:
                    writer.close()
                for handle in reads.values():
                    handle.close()
            if self._crash_hook is not None:
                self._crash_hook("pre-manifest")
            self._manifest = {
                "version": 1,
                "generation": generation,
                "shards": new_shards,
                "next_shard": number,
            }
            self._persist_manifest()
            if self._crash_hook is not None:
                self._crash_hook("post-manifest")
            for shard in old_shards:
                try:
                    (self.shards_dir / shard).unlink()
                except OSError:
                    pass
            self._entries = new_entries
            self._scanned = new_scanned
            self._total_lines = len(new_entries)
            self._corrupt_lines = 0
            self._persist_index()
            registry = get_registry()
            registry.inc("repro_warehouse_compactions_total")
            registry.inc("repro_warehouse_compacted_lines_total", folded)
            return {
                "compacted": True,
                "folded": folded,
                "records": len(new_entries),
                "shards": len(new_shards),
            }

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._mutex:
            self._refresh()
            shards = list(self._manifest.get("shards", []))
            size = 0
            for shard in shards:
                try:
                    size += (self.shards_dir / shard).stat().st_size
                except OSError:
                    pass
            return {
                "records": len(self._entries),
                "lines": self._total_lines,
                "superseded": self._total_lines - len(self._entries),
                "corrupt_lines": self._corrupt_lines,
                "shards": len(shards),
                "bytes": size,
                "generation": int(self._manifest.get("generation", 0)),
                "sources": {name: dict(cur) for name, cur in self._sources.items()},
            }
