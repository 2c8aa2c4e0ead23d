"""Content-addressed on-disk artifact cache.

Campaigns repeatedly need two expensive artifact kinds: built locked
datasets (a :class:`~repro.core.dataset.NodeDataset`, which carries its
generated instances; an older artifact may hold the bare instance list) and
trained GNN models.  Both are fully determined by a canonical
spec (the :meth:`~repro.runner.campaign.DatasetSpec.canonical` /
:meth:`~repro.runner.campaign.AttackTask.canonical` dictionaries), so the
cache key is the SHA-256 of that spec's canonical JSON — re-running a
campaign, or running a second campaign that shares a dataset, skips the work.

Layout: ``<root>/<kind>/<key[:2]>/<key>.pkl``.  Writes are atomic
(temp file + rename) so concurrent workers generating the same artifact
cannot corrupt each other; the operation is idempotent, the last writer
wins with identical bytes.

Lifecycle: every fingerprint embeds :data:`CACHE_VERSION`, so bumping the
version after an incompatible code change retires the whole cache cleanly
(old entries simply stop being addressed).  Storing the built dataset did
not bump it, because this code still reads every artifact written before:
bumping would have thrown away caches that stay valid.  The change is
one-way, though: an older version that loads a built dataset where it
expects an instance list fails the task, so older versions must not share
a cache root or a fleet artifact store with this one.  Stale bytes are reclaimed by
:meth:`ArtifactCache.gc`, which evicts least-recently-used entries first —
a cache hit refreshes the artifact's mtime, so mtime order is use order.

Decoding: a process decodes each artifact file once.  :meth:`ArtifactCache.get`
keeps the decoded object in a process-wide LRU bounded by
:data:`MEMO_MAX_BYTES` of artifact *file* bytes (an artifact larger than the
bound is never held) and hands the same object to every later hit on the
same file.  An entry is valid while the file's ``(st_ino, st_size,
st_mtime_ns)`` equals the identity this process recorded right after its
own touch, so a deleted, replaced (a new inode from :func:`atomic_write`) or
rewritten file is read from disk again; :meth:`ArtifactCache.gc` forgets
each file it evicts.  ``put`` does not memoise, so a producing task never
shares its live object.  The contract is that a loaded artifact is
read-only: a caller that mutates what ``get`` returned corrupts every later
hit in this process.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..obs import get_registry, span

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "ArtifactCache",
    "CacheEntry",
    "CACHE_MAX_AGE_ENV",
    "CACHE_MAX_BYTES_ENV",
    "CACHE_VERSION",
    "atomic_write",
    "cache_budget_from_env",
    "canonical_json",
    "default_cache_dir",
    "fingerprint",
    "parse_age",
    "parse_size",
]

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Automatic cache budget: when either is set, ``run_campaign`` garbage
#: collects the artifact cache after the campaign instead of waiting for an
#: operator to run ``repro cache gc``.
CACHE_MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"
CACHE_MAX_AGE_ENV = "REPRO_CACHE_MAX_AGE"

_SIZE_UNITS = {"k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}
_AGE_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}


def _finite_non_negative(value: float, text: str) -> float:
    # A negative budget would evict everything; an infinite size has no int.
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"expected a finite non-negative amount, got {text!r}")
    return value


def parse_size(text: str) -> int:
    """``"500M"``, ``"2G"``, ``"1048576"`` -> bytes.

    Raises ``ValueError`` on negative or non-finite input.
    """
    t = text.strip().lower()
    if t.endswith("b"):
        t = t[:-1]
    multiplier = 1
    if t and t[-1] in _SIZE_UNITS:
        multiplier = _SIZE_UNITS[t[-1]]
        t = t[:-1]
    return int(_finite_non_negative(float(t) * multiplier, text))


def parse_age(text: str) -> float:
    """``"12h"``, ``"7d"``, ``"3600"`` -> seconds.

    Raises ``ValueError`` on negative or non-finite input.
    """
    t = text.strip().lower()
    multiplier = 1
    if t and t[-1] in _AGE_UNITS:
        multiplier = _AGE_UNITS[t[-1]]
        t = t[:-1]
    return _finite_non_negative(float(t) * multiplier, text)


def cache_budget_from_env() -> Tuple[Optional[int], Optional[float]]:
    """The automatic ``(max_bytes, max_age_s)`` cache budget, if any is set.

    Malformed values are treated as unset rather than sinking a campaign
    over a housekeeping knob.
    """
    max_bytes: Optional[int] = None
    max_age: Optional[float] = None
    raw = os.environ.get(CACHE_MAX_BYTES_ENV, "").strip()
    if raw:
        try:
            max_bytes = parse_size(raw)
        except ValueError:  # e.g. "lots", "inf", "-1"
            max_bytes = None
    raw = os.environ.get(CACHE_MAX_AGE_ENV, "").strip()
    if raw:
        try:
            max_age = parse_age(raw)
        except ValueError:
            max_age = None
    return max_bytes, max_age

#: Artifact format version, hashed into every fingerprint.  Bump it whenever
#: dataset generation, training, or the pickled artifact layout changes in a
#: way that makes previously cached artifacts wrong to reuse.
CACHE_VERSION = 2

_MISSING = object()

#: Bound on the artifact file bytes whose decoded objects a process keeps
#: (the quick Anti-SAT dataset is a 605 KB file, the full-profile ISCAS-85
#: one 1.75 MB).
MEMO_MAX_BYTES = 64 * 1024**2

#: ``(st_ino, st_size, st_mtime_ns)`` of an artifact file.
_Identity = Tuple[int, int, int]


def _identity(stat: os.stat_result) -> _Identity:
    return (stat.st_ino, stat.st_size, stat.st_mtime_ns)


class _DecodedMemo:
    """Process-wide LRU of decoded artifacts, keyed by file path.

    Bounded by ``max_bytes`` (default :data:`MEMO_MAX_BYTES`) of file
    bytes; one lock guards the dict, and callers decode outside it.
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[_Identity, object]]" = OrderedDict()
        self._bytes = 0

    def get(self, path: str, identity: _Identity) -> object:
        """The value held for ``path`` if its file still has ``identity``."""
        with self._lock:
            entry = self._entries.get(path)
            if entry is None or entry[0] != identity:
                return _MISSING
            return entry[1]

    def put(self, path: str, identity: _Identity, value: object) -> None:
        """Hold ``value`` as the most recently used entry."""
        bound = MEMO_MAX_BYTES if self.max_bytes is None else self.max_bytes
        with self._lock:
            self._drop(path)
            size = identity[1]
            if size > bound:
                return
            self._entries[path] = (identity, value)
            self._bytes += size
            while self._bytes > bound:
                _, (old, _) = self._entries.popitem(last=False)
                self._bytes -= old[1]

    def forget(self, path: str) -> None:
        with self._lock:
            self._drop(path)

    def _drop(self, path: str) -> None:
        entry = self._entries.pop(path, None)
        if entry is not None:
            self._bytes -= entry[0][1]

    def _after_fork(self) -> None:
        # A pool worker forked while another thread held the lock would
        # otherwise wait on it forever; the entries stay valid.
        self._lock = threading.Lock()


_MEMO = _DecodedMemo()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_MEMO._after_fork)


def canonical_json(payload: Mapping) -> str:
    """Deterministic JSON rendering used for cache keys.

    Keys are sorted, separators minimal, and non-JSON scalars fall back to
    ``str`` — the rendering must be stable across processes and sessions.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def fingerprint(payload: Mapping) -> str:
    """SHA-256 hex digest of a canonicalized spec, stamped with CACHE_VERSION.

    The version stamp means a code change that bumps :data:`CACHE_VERSION`
    invalidates every previously cached artifact (and stored result record)
    without touching the files themselves.
    """
    stamped = {"cache_version": CACHE_VERSION, "spec": payload}
    return hashlib.sha256(canonical_json(stamped).encode()).hexdigest()


def atomic_write(path: Path, write) -> None:
    """Write a file atomically: temp file in the target directory + rename.

    ``write`` receives the open binary handle.  Concurrent writers cannot
    corrupt each other (the last rename wins whole) and a crash mid-write
    leaves the target untouched.  Shared by the artifact cache and the
    service's job-state persistence.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-gnnunlock``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-gnnunlock"


@dataclass(frozen=True)
class CacheEntry:
    """One stored artifact: identity, size, and last-use time."""

    kind: str
    key: str
    size_bytes: int
    mtime: float
    path: Path


#: Cross-process eviction lock: gc takes it exclusively, readers that must
#: not see an artifact vanish mid-read (the fleet artifact endpoints) take
#: it shared.
_GC_LOCKNAME = "gc.lock"


class ArtifactCache:
    """Pickle-based content-addressed artifact store.

    ``root=None`` disables the cache: every ``get`` misses and ``put`` is a
    no-op, so call sites need no conditionals.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root: Optional[Path] = Path(root) if root is not None else None
        self.enabled = self.root is not None

    @staticmethod
    def _count(kind: str, event: str) -> None:
        """Count one hit, miss, write or evict in the current metrics registry.

        The series is ``repro_cache_events_total{kind, event}``.  It lands in
        the process registry (or a task's scoped one under ``REPRO_OBS=1``,
        which the campaign folds into its telemetry rollup); the service's
        ``/metricsz`` renders its own registry and does not carry it.  Per
        task, the record's ``cache`` field says what each artifact kind did.
        """
        get_registry().inc("repro_cache_events_total", kind=kind, event=event)

    # ------------------------------------------------------------------
    def path_for(self, kind: str, key: str) -> Optional[Path]:
        if self.root is None:
            return None
        return self.root / kind / key[:2] / f"{key}.pkl"

    def get(self, kind: str, key: str, default: object = None) -> object:
        """Load a cached artifact, or ``default`` on a miss.

        An unreadable entry (truncated write from a killed process, version
        skew) counts as a miss and is deleted so it regenerates cleanly.

        The returned object is read-only: a later hit on the same unchanged
        file in this process returns the very same object without decoding
        it again (see the module docstring for the memo's bound and
        identity rule).  Every hit still counts as a hit and refreshes the
        file's mtime.
        """
        with span("cache", op="get", kind=kind) as handle:
            value = self._load(kind, key)
            if value is _MISSING:
                self._count(kind, "miss")
                handle.tag(event="miss")
                return default
            self._count(kind, "hit")
            handle.tag(event="hit")
            return value

    def has(self, kind: str, key: str) -> bool:
        """Whether an artifact exists, without loading it or counting stats."""
        path = self.path_for(kind, key)
        return self.enabled and path is not None and path.is_file()

    def put(self, kind: str, key: str, value: object) -> Optional[Path]:
        """Atomically persist an artifact; returns its path (None if disabled)."""
        if not self.enabled:
            return None
        with span("cache", op="put", kind=kind):
            return self._write(kind, key, pickle.dumps(value, pickle.HIGHEST_PROTOCOL))

    def _write(self, kind: str, key: str, data: bytes) -> Optional[Path]:
        """Atomically store an artifact's pickled bytes and count the write."""
        path = self.path_for(kind, key)
        if path is None:
            return None
        atomic_write(path, lambda handle: handle.write(data))
        self._count(kind, "write")
        return path

    def _load(self, kind: str, key: str) -> object:
        path = self.path_for(kind, key)
        if not self.enabled or path is None:
            return _MISSING
        name = str(path)
        try:
            seen = path.stat()
        except OSError:  # deleted, or never written
            _MEMO.forget(name)
            return _MISSING
        value = _MEMO.get(name, _identity(seen))
        if value is _MISSING:
            try:
                with path.open("rb") as handle:
                    seen = os.fstat(handle.fileno())
                    value = pickle.load(handle)
            except Exception:  # noqa: BLE001 - any unreadable entry is a miss
                _MEMO.forget(name)
                try:
                    path.unlink()
                except OSError:
                    pass
                return _MISSING
        try:
            # A hit marks the artifact as recently used; gc() evicts by mtime.
            os.utime(path, None)
        except OSError:
            pass
        try:
            # The identity after our own touch, so coarse mtimes still match.
            touched: Optional[_Identity] = _identity(path.stat())
        except OSError:
            touched = None
        if touched is not None and touched[:2] == (seen.st_ino, seen.st_size):
            _MEMO.put(name, touched, value)
        else:  # gone or replaced meanwhile: read the disk next time
            _MEMO.forget(name)
        return value

    # ------------------------------------------------------------------
    def scan(self, kind: Optional[str] = None) -> List[CacheEntry]:
        """Every stored artifact with its size and last-use (mtime) stamp."""
        if not self.enabled or self.root is None or not self.root.is_dir():
            return []
        kinds: Iterator[Path]
        if kind is not None:
            kinds = iter([self.root / kind])
        else:
            kinds = (p for p in sorted(self.root.iterdir()) if p.is_dir())
        found: List[CacheEntry] = []
        for kind_dir in kinds:
            if not kind_dir.is_dir():
                continue
            for path in sorted(kind_dir.glob("*/*.pkl")):
                try:
                    stat = path.stat()
                except OSError:  # raced with a concurrent gc/unlink
                    continue
                found.append(
                    CacheEntry(
                        kind=kind_dir.name,
                        key=path.stem,
                        size_bytes=stat.st_size,
                        mtime=stat.st_mtime,
                        path=path,
                    )
                )
        return found

    def entries(self, kind: Optional[str] = None) -> List[Tuple[str, str, int]]:
        """``(kind, key, size_bytes)`` for every stored artifact."""
        return [(e.kind, e.key, e.size_bytes) for e in self.scan(kind)]

    def size_bytes(self) -> int:
        return sum(size for _, _, size in self.entries())

    def kind_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-kind ``{count, bytes, oldest_mtime, newest_mtime}`` summary."""
        stats: Dict[str, Dict[str, float]] = {}
        for entry in self.scan():
            bucket = stats.setdefault(
                entry.kind,
                {
                    "count": 0,
                    "bytes": 0,
                    "oldest_mtime": entry.mtime,
                    "newest_mtime": entry.mtime,
                },
            )
            bucket["count"] += 1
            bucket["bytes"] += entry.size_bytes
            bucket["oldest_mtime"] = min(bucket["oldest_mtime"], entry.mtime)
            bucket["newest_mtime"] = max(bucket["newest_mtime"], entry.mtime)
        return stats

    # ------------------------------------------------------------------
    @contextmanager
    def lock_guard(self, *, shared: bool = False):
        """``flock`` the cache's eviction lock for the duration of the block.

        :meth:`gc` holds it exclusively across its scan+evict pass so two
        drainers sharing one cache dir cannot double-evict; readers that
        stream an artifact off disk (the service's ``/v1/artifacts``
        endpoints) hold it ``shared=True`` so gc cannot unlink the file
        under them mid-transfer.  No-op when the cache is disabled or the
        platform lacks ``fcntl``.
        """
        if not self.enabled or self.root is None or fcntl is None:
            yield
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with (self.root / _GC_LOCKNAME).open("a+") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def gc(
        self,
        *,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
        dry_run: bool = False,
        now: Optional[float] = None,
    ) -> List[CacheEntry]:
        """Evict artifacts least-recently-used first; returns what was evicted.

        ``max_age_s`` removes every entry unused for longer than that;
        ``max_bytes`` then removes the oldest remaining entries until the
        cache fits the budget.  A hit refreshes an artifact's mtime, so
        "oldest" means least recently *used*, not least recently written.
        ``dry_run`` reports the eviction set without deleting anything.

        The scan+evict pass runs under the exclusive cross-process
        :meth:`lock_guard` (shared for ``dry_run``), so concurrent drainers
        gc-ing one cache dir serialize instead of double-evicting.
        """
        if not self.enabled:
            return []
        with self.lock_guard(shared=dry_run):
            return self._gc_locked(
                max_bytes=max_bytes, max_age_s=max_age_s, dry_run=dry_run, now=now
            )

    def _gc_locked(
        self,
        *,
        max_bytes: Optional[int],
        max_age_s: Optional[float],
        dry_run: bool,
        now: Optional[float],
    ) -> List[CacheEntry]:
        now = time.time() if now is None else now
        entries = sorted(self.scan(), key=lambda e: (e.mtime, e.kind, e.key))
        remaining = sum(e.size_bytes for e in entries)
        evicted: List[CacheEntry] = []
        for entry in entries:
            expired = max_age_s is not None and now - entry.mtime > max_age_s
            over_budget = max_bytes is not None and remaining > max_bytes
            if not (expired or over_budget):
                continue
            if not dry_run:
                try:
                    entry.path.unlink()
                except OSError:
                    continue  # still present: its bytes still count
                _MEMO.forget(str(entry.path))
                try:
                    entry.path.parent.rmdir()  # prune the shard dir if now empty
                except OSError:
                    pass
                self._count(entry.kind, "evict")
            evicted.append(entry)
            remaining -= entry.size_bytes
        return evicted
