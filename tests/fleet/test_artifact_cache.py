"""FleetArtifactCache: local disk in front of a remote object store.

The remote is a fake with the ``get_artifact``/``put_artifact`` surface of
:class:`~repro.service.client.ServiceClient`; every transfer outcome is
read from the ``repro_fleet_artifact_transfers_total`` series.
"""

from __future__ import annotations

import pickle
from urllib.error import URLError

from repro.fleet import FleetArtifactCache
from repro.obs import scoped_registry
from repro.service.client import ServiceError

TRANSFERS = "repro_fleet_artifact_transfers_total"
KEY = "ab" * 32


class FakeRemote:
    """In-memory object store; ``fail`` makes every call raise it."""

    def __init__(self, blobs=None, fail=None):
        self.blobs = dict(blobs or {})
        self.fail = fail
        self.gets = []
        self.puts = []

    def get_artifact(self, kind, key):
        self.gets.append((kind, key))
        if self.fail is not None:
            raise self.fail
        return self.blobs.get((kind, key))

    def put_artifact(self, kind, key, data):
        self.puts.append((kind, key))
        if self.fail is not None:
            raise self.fail
        self.blobs[(kind, key)] = data
        return {"stored": True}


def _transfers(registry):
    """Non-zero transfer counts as ``{"<direction>_<outcome>": n}``."""
    counts = {}
    for direction, outcome in (
        ("fetch", "hit"), ("fetch", "miss"), ("fetch", "error"),
        ("push", "ok"), ("push", "error"),
    ):
        n = registry.value(TRANSFERS, direction=direction, outcome=outcome)
        if n:
            counts[f"{direction}_{outcome}"] = n
    return counts


class TestFetch:
    def test_local_miss_fetches_and_writes_through(self, tmp_path):
        data = pickle.dumps({"weights": [1, 2, 3]})
        remote = FakeRemote({("model", KEY): data})
        cache = FleetArtifactCache(tmp_path, remote=remote)
        with scoped_registry() as registry:
            assert cache.get("model", KEY) == {"weights": [1, 2, 3]}
            # The fetched bytes landed verbatim in the local tier ...
            assert cache.path_for("model", KEY).read_bytes() == data
            # ... so the next get is a local hit that never asks the remote.
            assert cache.get("model", KEY) == {"weights": [1, 2, 3]}
        assert remote.gets == [("model", KEY)]
        assert _transfers(registry) == {"fetch_hit": 1}
        events = "repro_cache_events_total"
        assert registry.value(events, kind="model", event="hit") == 2

    def test_remote_miss_is_a_miss(self, tmp_path):
        cache = FleetArtifactCache(tmp_path, remote=FakeRemote())
        with scoped_registry() as registry:
            assert cache.get("dataset", KEY, "default") == "default"
        assert _transfers(registry) == {"fetch_miss": 1}
        assert cache.entries() == []

    def test_remote_error_is_a_miss(self, tmp_path):
        errors = (ServiceError(503, "down"), URLError("refused"), OSError("reset"))
        for error in errors:
            cache = FleetArtifactCache(tmp_path, remote=FakeRemote(fail=error))
            with scoped_registry() as registry:
                assert cache.get("dataset", KEY) is None
            assert _transfers(registry) == {"fetch_error": 1}
            assert cache.entries() == []

    def test_corrupt_remote_bytes_are_a_miss(self, tmp_path):
        remote = FakeRemote({("dataset", KEY): b"not a pickle"})
        cache = FleetArtifactCache(tmp_path, remote=remote)
        with scoped_registry() as registry:
            assert cache.get("dataset", KEY) is None
        assert _transfers(registry) == {"fetch_error": 1}
        assert cache.entries() == []

    def test_without_remote_is_purely_local(self, tmp_path):
        cache = FleetArtifactCache(tmp_path)
        with scoped_registry() as registry:
            assert cache.get("dataset", KEY) is None
            cache.put("dataset", KEY, [1])
            assert cache.get("dataset", KEY) == [1]
        assert _transfers(registry) == {}


class TestPush:
    def test_put_pushes_the_artifact(self, tmp_path):
        remote = FakeRemote()
        cache = FleetArtifactCache(tmp_path, remote=remote)
        with scoped_registry() as registry:
            path = cache.put("model", KEY, ("model", "history"))
        assert path is not None and path.is_file()
        assert remote.puts == [("model", KEY)]
        assert pickle.loads(remote.blobs[("model", KEY)]) == ("model", "history")
        assert _transfers(registry) == {"push_ok": 1}

    def test_push_error_keeps_the_local_copy(self, tmp_path):
        cache = FleetArtifactCache(tmp_path, remote=FakeRemote(fail=URLError("x")))
        with scoped_registry() as registry:
            path = cache.put("model", KEY, 42)
        assert path.is_file()
        assert cache.get("model", KEY) == 42
        assert _transfers(registry) == {"push_error": 1}

    def test_pushed_artifact_serves_another_host(self, tmp_path):
        remote = FakeRemote()
        FleetArtifactCache(tmp_path / "a", remote=remote).put("dataset", KEY, [7])
        other = FleetArtifactCache(tmp_path / "b", remote=remote)
        with scoped_registry() as registry:
            assert other.get("dataset", KEY) == [7]
        assert _transfers(registry) == {"fetch_hit": 1}
