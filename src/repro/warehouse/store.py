"""Cross-campaign result warehouse: an ordered registry of JSONL stores.

A :class:`Warehouse` directory holds one file, ``registry.jsonl``: the
result stores registered with it, one ``{"source", "path"}`` line each, in
registration order.  Nothing is copied.  A query replays every registered
store in place, in registration order, through the stores' own parser
(:func:`~repro.runner.store.read_store`) and ``latest()`` keying
(:func:`~repro.runner.store.latest_records`), so :meth:`iter_records`
equals the concatenated ``ResultStore.latest()`` of the sources by
construction, and a record appended to a registered store shows up in the
next query.  Crash safety is the stores' own: a completely appended record
survives a crash at any point (``ResultStore.append``).

Stores the warehouse writes itself (a matrix history, a converted legacy
directory) live under ``<root>/stores/``.

A directory in the older layout (``manifest.json`` + ``shards/``, which
held a second copy of every record) is converted the first time it is
opened: the newest record per key is written out as one store per source,
in first-seen order, and registered; the old files are deleted last, so a
crash partway through redoes the conversion.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from ..obs import get_registry
from ..runner.cache import atomic_write
from ..runner.store import ResultStore, latest_records, read_store

__all__ = ["REGISTRY", "Warehouse"]

#: The registry file, the only file of a warehouse directory.
REGISTRY = "registry.jsonl"

_LEGACY_MANIFEST = "manifest.json"


def _dump(record: Mapping[str, object]) -> bytes:
    return (json.dumps(record, sort_keys=True, default=str) + "\n").encode("utf-8")


class Warehouse:
    """Ordered registry of source JSONL stores, read in place."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._convert_legacy()

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def sources(self) -> List[Tuple[str, Path]]:
        """Registered ``(source, store path)`` pairs, in registration order."""
        registered: Dict[str, str] = {}
        for entry in read_store(self.root / REGISTRY)[0]:
            if "path" in entry and "source" in entry:
                registered.setdefault(str(entry["path"]), str(entry["source"]))
        return [(source, self.root / path) for path, source in registered.items()]

    def register(self, path, *, source: Optional[str] = None) -> bool:
        """Register one store (named by its file stem unless ``source``).

        Re-registering a path is a no-op and returns False.  A store inside
        the warehouse directory is recorded relative to it, so the directory
        can move; any other store by its absolute path.
        """
        path = Path(path).resolve()
        if any(known.resolve() == path for _, known in self.sources()):
            return False
        root = self.root.resolve()
        stored = path.relative_to(root) if path.is_relative_to(root) else path
        ResultStore(self.root / REGISTRY).append(
            {"source": source or path.stem, "path": str(stored)}
        )
        return True

    def store_path(self, source: str) -> Path:
        """Where the warehouse keeps a store of its own for ``source``."""
        name = re.sub(r"[^A-Za-z0-9._-]", "_", source) or "_"
        return self.root / "stores" / f"{name}.jsonl"

    # ------------------------------------------------------------------
    # Reads (streaming, one source store in memory at a time)
    # ------------------------------------------------------------------
    def iter_envelopes(self) -> Iterator[Dict[str, object]]:
        """Stream ``{"k": "<source>:<key>", "src": source, "r": record}``.

        One envelope per record of each source's ``latest()``, sources in
        registration order.
        """
        registry = get_registry()
        for source, path in self.sources():
            for key, record in latest_records(self.records(path)).items():
                registry.inc("repro_warehouse_records_scanned_total")
                yield {"k": f"{source}:{key}", "src": source, "r": record}

    def records(self, path) -> List[Dict[str, object]]:
        """Every complete record of one source store, oldest first."""
        return read_store(path)[0]

    def iter_records(
        self,
        where: Optional[Callable[[Mapping[str, object]], bool]] = None,
    ) -> Iterator[Dict[str, object]]:
        """Stream the records (the envelopes' ``r`` payloads).

        ``where`` receives the *envelope* (record under ``"r"``, source
        under ``"src"``) so callers can filter on provenance.
        """
        for env in self.iter_envelopes():
            if where is None or where(env):
                yield env["r"]

    def __len__(self) -> int:
        return int(self.stats()["records"])

    def stats(self) -> Dict[str, object]:
        """Record, line and corrupt-line counts, in total and per source."""
        sources: Dict[str, Dict[str, object]] = {}
        for source, path in self.sources():
            records, corrupt = read_store(path)
            entry = sources.setdefault(
                source, {"records": 0, "lines": 0, "corrupt_lines": 0}
            )
            entry["records"] += len(latest_records(records))
            entry["lines"] += len(records)
            entry["corrupt_lines"] += corrupt

        def total(field: str) -> int:
            return sum(int(entry[field]) for entry in sources.values())

        return {
            "records": total("records"),
            "lines": total("lines"),
            "superseded": total("lines") - total("records"),
            "corrupt_lines": total("corrupt_lines"),
            "sources": sources,
        }

    # ------------------------------------------------------------------
    # One-time conversion of the older shard layout
    # ------------------------------------------------------------------
    def _convert_legacy(self) -> None:
        manifest = self.root / _LEGACY_MANIFEST
        if manifest.is_file():
            # Newest envelope per key, placed at the key's first sequence
            # number: the order the shard layout's reads reproduced.
            newest: Dict[str, Tuple[int, Dict[str, object]]] = {}
            for shard in json.loads(manifest.read_text()).get("shards", []):
                for env in read_store(self.root / "shards" / shard)[0]:
                    if "k" not in env or "s" not in env:
                        continue
                    key = str(env["k"])
                    first = int(env.get("f", env["s"]))
                    if key in newest:
                        first = min(first, newest[key][0])
                    newest[key] = (first, env)
            by_source: Dict[str, List[bytes]] = {}
            for _first, env in sorted(newest.values(), key=lambda item: item[0]):
                source = str(env.get("src", ""))
                record = env.get("r", {})
                if env["k"] == source and record.get("kind") == "matrix_sweep":
                    continue  # a matrix history's head key: its newest sweep again
                by_source.setdefault(source, []).append(_dump(record))
            registry = []
            for source, lines in by_source.items():
                path = self.store_path(source)
                atomic_write(path, lambda handle, lines=lines: handle.writelines(lines))
                registry.append(
                    _dump({"source": source, "path": str(path.relative_to(self.root))})
                )
            atomic_write(self.root / REGISTRY, lambda handle: handle.writelines(registry))
            manifest.unlink()  # the conversion is complete from here on
        if (self.root / "shards").is_dir():
            # The rest of the old layout; ``shards/`` goes last, so a crash
            # in between leaves it to mark what is still to delete.
            for name in ("index.json", "sources.json", ".lock"):
                (self.root / name).unlink(missing_ok=True)
            shutil.rmtree(self.root / "shards")
