"""Artifact-cache behaviour: hits, misses, atomicity, corruption handling,
version stamping, LRU garbage collection, the cache-event series and the
in-process memo of decoded artifacts."""

import os
import pickle
import threading
import time

import pytest

from repro.obs import scoped_registry
from repro.runner import ArtifactCache, fingerprint
from repro.runner import cache as cache_module
from repro.runner.cache import atomic_write, canonical_json

#: Every hit, miss, write and eviction lands in this registry series.
EVENTS = "repro_cache_events_total"


class TestFingerprint:
    def test_stable_across_key_order(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_differs_per_content(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_canonical_json_is_minimal_and_sorted(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_non_json_scalars_fall_back_to_str(self):
        assert fingerprint({"p": 3.5}) != fingerprint({"p": "other"})


class TestArtifactCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with scoped_registry() as registry:
            assert cache.get("dataset", "ab" * 32) is None
            cache.put("dataset", "ab" * 32, {"payload": [1, 2, 3]})
            assert cache.get("dataset", "ab" * 32) == {"payload": [1, 2, 3]}
        assert registry.value(EVENTS, kind="dataset", event="hit") == 1
        assert registry.value(EVENTS, kind="dataset", event="miss") == 1
        assert registry.value(EVENTS, kind="dataset", event="write") == 1
        assert registry.value(EVENTS, kind="model", event="hit") == 0

    def test_has_counts_nothing(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("model", "cd" * 32, 7)
        with scoped_registry() as registry:
            assert not cache.has("model", "ef" * 32)
            assert cache.has("model", "cd" * 32)
        assert registry.snapshot()["counters"] == {}

    def test_disabled_cache_is_inert(self):
        cache = ArtifactCache(None)
        assert not cache.enabled
        assert cache.put("dataset", "ef" * 32, 1) is None
        assert cache.get("dataset", "ef" * 32) is None
        assert cache.entries() == []

    def test_corrupt_entry_counts_as_miss_and_is_removed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "12" * 32
        path = cache.put("dataset", key, [1, 2])
        path.write_bytes(b"not a pickle")
        assert cache.get("dataset", key) is None
        assert not path.exists()

    def test_entries_and_size(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("dataset", "aa" * 32, list(range(100)))
        cache.put("model", "bb" * 32, "weights")
        entries = cache.entries()
        assert [(kind, key) for kind, key, _ in entries] == [
            ("dataset", "aa" * 32),
            ("model", "bb" * 32),
        ]
        assert cache.size_bytes() == sum(size for _, _, size in entries)
        assert len(cache.entries("model")) == 1

    def test_layout_shards_by_key_prefix(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = "fe" * 32
        path = cache.put("dataset", key, 1)
        assert path == tmp_path / "dataset" / "fe" / f"{key}.pkl"

    def test_roundtrips_arbitrary_picklables(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        value = {"nested": (1, 2), "bytes": b"\x00\x01"}
        cache.put("model", "ad" * 32, value)
        restored = cache.get("model", "ad" * 32)
        assert restored == value
        assert pickle.dumps(restored)


class TestCacheVersion:
    def test_version_stamp_changes_every_fingerprint(self, monkeypatch):
        payload = {"kind": "dataset", "seed": 11}
        before = fingerprint(payload)
        monkeypatch.setattr(cache_module, "CACHE_VERSION", cache_module.CACHE_VERSION + 1)
        assert fingerprint(payload) != before

    def test_canonical_json_is_version_free(self, monkeypatch):
        """Only the hash is stamped; the canonical rendering stays stable."""
        payload = {"a": 1}
        before = canonical_json(payload)
        monkeypatch.setattr(cache_module, "CACHE_VERSION", 999)
        assert canonical_json(payload) == before


def _age(path, seconds):
    old = time.time() - seconds
    os.utime(path, (old, old))


class TestCacheGc:
    def _filled(self, tmp_path, sizes=(100, 200, 300)):
        cache = ArtifactCache(tmp_path)
        paths = []
        for index, size in enumerate(sizes):
            key = f"{index:02d}" * 32
            paths.append(cache.put("dataset", key, b"x" * size))
        return cache, paths

    def test_max_age_evicts_only_stale_entries(self, tmp_path):
        cache, paths = self._filled(tmp_path)
        _age(paths[0], 3600)
        evicted = cache.gc(max_age_s=60)
        assert [e.path for e in evicted] == [paths[0]]
        assert not paths[0].exists() and paths[1].exists()

    def test_max_bytes_evicts_oldest_first(self, tmp_path):
        cache, paths = self._filled(tmp_path)
        _age(paths[0], 300)
        _age(paths[1], 200)
        total = cache.size_bytes()
        evicted = cache.gc(max_bytes=total - 1)
        # Only the single oldest entry needs to go to fit the budget.
        assert [e.path for e in evicted] == [paths[0]]
        assert cache.size_bytes() <= total - 1

    def test_hit_refreshes_lru_position(self, tmp_path):
        cache, paths = self._filled(tmp_path)
        for path in paths:
            _age(path, 500)
        _age(paths[2], 600)  # oldest by write...
        cache.get("dataset", paths[2].stem)  # ...but freshly used
        evicted = cache.gc(max_age_s=60)
        assert paths[2].exists()
        assert {e.path for e in evicted} == {paths[0], paths[1]}

    def test_dry_run_deletes_nothing(self, tmp_path):
        cache, paths = self._filled(tmp_path)
        with scoped_registry() as registry:
            evicted = cache.gc(max_bytes=0, dry_run=True)
        assert len(evicted) == len(paths)
        assert all(path.exists() for path in paths)
        assert registry.value(EVENTS, kind="dataset", event="evict") == 0

    def test_gc_counts_each_eviction(self, tmp_path):
        cache, paths = self._filled(tmp_path)
        cache.put("model", "mm" * 32, b"w")
        with scoped_registry() as registry:
            cache.gc(max_bytes=0)
        assert registry.value(EVENTS, kind="dataset", event="evict") == len(paths)
        assert registry.value(EVENTS, kind="model", event="evict") == 1

    def test_empty_shard_dirs_are_pruned(self, tmp_path):
        cache, paths = self._filled(tmp_path)
        cache.gc(max_bytes=0)
        assert all(not path.parent.exists() for path in paths)

    def test_disabled_cache_gc_is_inert(self):
        assert ArtifactCache(None).gc(max_bytes=0) == []

    def test_no_criteria_evicts_nothing(self, tmp_path):
        cache, paths = self._filled(tmp_path)
        assert cache.gc() == []
        assert all(path.exists() for path in paths)

    def test_kind_stats_summarises_per_kind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("dataset", "aa" * 32, b"x" * 10)
        cache.put("dataset", "ab" * 32, b"x" * 20)
        cache.put("model", "ba" * 32, b"x" * 5)
        stats = cache.kind_stats()
        assert set(stats) == {"dataset", "model"}
        assert stats["dataset"]["count"] == 2
        assert stats["dataset"]["bytes"] > stats["model"]["bytes"]


# ----------------------------------------------------------------------
KEY = "ab" * 32


@pytest.fixture
def memo(monkeypatch):
    """A fresh process-wide memo, so each test sees only its own entries."""
    fresh = cache_module._DecodedMemo()
    monkeypatch.setattr(cache_module, "_MEMO", fresh)
    return fresh


@pytest.fixture
def loads(monkeypatch):
    """Every ``pickle.load`` the cache makes, by file name."""
    calls = []
    original = pickle.load

    def counting(handle):
        calls.append(os.path.basename(handle.name))
        return original(handle)

    monkeypatch.setattr(cache_module.pickle, "load", counting)
    return calls


def _held(memo, path):
    return str(path) in memo._entries


class TestDecodedMemo:
    def test_second_get_returns_the_same_object_without_decoding(
        self, tmp_path, memo, loads
    ):
        ArtifactCache(tmp_path).put("dataset", KEY, {"payload": [1, 2]})
        first = ArtifactCache(tmp_path).get("dataset", KEY)
        assert first == {"payload": [1, 2]}
        # Any handle on the same root shares the process-wide memo.
        assert ArtifactCache(tmp_path).get("dataset", KEY) is first
        assert loads == [f"{KEY}.pkl"]

    def test_put_does_not_memoise(self, tmp_path, memo, loads):
        cache = ArtifactCache(tmp_path)
        value = {"payload": [1, 2]}
        path = cache.put("model", KEY, value)
        assert not _held(memo, path)
        loaded = cache.get("model", KEY)
        assert loaded == value and loaded is not value
        assert len(loads) == 1

    def test_deleted_file_is_a_miss(self, tmp_path, memo):
        cache = ArtifactCache(tmp_path)
        path = cache.put("model", KEY, "weights")
        assert cache.get("model", KEY) == "weights"
        path.unlink()
        with scoped_registry() as registry:
            assert cache.get("model", KEY) is None
        assert registry.value(EVENTS, kind="model", event="miss") == 1
        assert not _held(memo, path)

    def test_file_replaced_through_atomic_write_is_decoded_again(
        self, tmp_path, memo, loads
    ):
        cache = ArtifactCache(tmp_path)
        path = cache.put("model", KEY, "old")
        assert cache.get("model", KEY) == "old"
        # Same size, new inode: the identity check still sees the change.
        atomic_write(path, lambda handle: pickle.dump("new", handle))
        assert cache.get("model", KEY) == "new"
        assert cache.get("model", KEY) == "new"
        assert len(loads) == 2

    def test_file_corrupted_in_place_is_a_miss_and_deleted(self, tmp_path, memo):
        cache = ArtifactCache(tmp_path)
        path = cache.put("dataset", KEY, list(range(100)))
        assert cache.get("dataset", KEY) == list(range(100))
        with path.open("r+b") as handle:  # a truncated rewrite, same inode
            handle.truncate(10)
        with scoped_registry() as registry:
            assert cache.get("dataset", KEY) is None
        assert registry.value(EVENTS, kind="dataset", event="miss") == 1
        assert not path.exists()
        assert not _held(memo, path)

    def test_gc_eviction_forgets_the_entry(self, tmp_path, memo):
        cache = ArtifactCache(tmp_path)
        path = cache.put("dataset", KEY, [1, 2])
        cache.get("dataset", KEY)
        assert _held(memo, path)
        assert cache.gc(max_bytes=0, dry_run=True)
        assert _held(memo, path)
        cache.gc(max_bytes=0)
        assert not _held(memo, path)

    def test_byte_bound_evicts_least_recently_used_first(
        self, tmp_path, memo, loads, monkeypatch
    ):
        cache = ArtifactCache(tmp_path)
        keys = [f"{index:02d}" * 32 for index in range(3)]
        paths = [cache.put("dataset", key, b"x" * 1000) for key in keys]
        size = paths[0].stat().st_size
        monkeypatch.setattr(cache_module, "MEMO_MAX_BYTES", 2 * size)
        cache.get("dataset", keys[0])
        cache.get("dataset", keys[1])
        cache.get("dataset", keys[0])  # keys[1] is now least recently used
        cache.get("dataset", keys[2])
        assert [_held(memo, p) for p in paths] == [True, False, True]
        assert memo._bytes == 2 * size
        loads.clear()
        cache.get("dataset", keys[0])
        cache.get("dataset", keys[1])
        assert loads == [f"{keys[1]}.pkl"]

    def test_artifact_over_the_bound_is_not_held(
        self, tmp_path, memo, loads, monkeypatch
    ):
        cache = ArtifactCache(tmp_path)
        small = cache.put("model", KEY, b"x")
        path = cache.put("dataset", KEY, b"x" * 1000)
        monkeypatch.setattr(cache_module, "MEMO_MAX_BYTES", path.stat().st_size - 1)
        cache.get("model", KEY)
        assert cache.get("dataset", KEY) == b"x" * 1000
        assert cache.get("dataset", KEY) == b"x" * 1000
        assert not _held(memo, path)
        # Nor does it push out what is held.
        assert _held(memo, small)
        assert memo._bytes == small.stat().st_size
        assert len(loads) == 3

    def test_every_hit_still_counts_and_touches(
        self, tmp_path, memo, loads, monkeypatch
    ):
        cache = ArtifactCache(tmp_path)
        path = cache.put("model", KEY, "weights")
        touched = []
        original = os.utime

        def counting_utime(target, *args, **kwargs):
            touched.append(os.fspath(target))
            return original(target, *args, **kwargs)

        monkeypatch.setattr(cache_module.os, "utime", counting_utime)
        with scoped_registry() as registry:
            for _ in range(3):
                assert cache.get("model", KEY) == "weights"
        assert registry.value(EVENTS, kind="model", event="hit") == 3
        assert registry.value(EVENTS, kind="model", event="miss") == 0
        assert touched == [str(path)] * 3
        assert len(loads) == 1

    def test_an_aged_hit_is_still_refreshed(self, tmp_path, memo):
        cache = ArtifactCache(tmp_path)
        path = cache.put("model", KEY, "weights")
        cache.get("model", KEY)
        _age(path, 600)
        cache.get("model", KEY)
        assert time.time() - path.stat().st_mtime < 60

    def test_concurrent_gets_return_equal_values(self, tmp_path, memo):
        cache = ArtifactCache(tmp_path)
        value = {"payload": list(range(1000))}
        cache.put("dataset", KEY, value)
        barrier = threading.Barrier(8)
        results = []

        def read():
            barrier.wait()
            results.append(cache.get("dataset", KEY))

        with scoped_registry() as registry:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(results) == 8 and all(r == value for r in results)
        assert registry.value(EVENTS, kind="dataset", event="hit") == 8
