"""FleetArtifactCache: local disk in front of a remote object store.

The remote is a fake with the ``get_artifact``/``put_artifact`` surface of
:class:`~repro.service.client.ServiceClient`; every transfer outcome is
read from the ``repro_fleet_artifact_transfers_total`` series.
"""

from __future__ import annotations

import pickle
from urllib.error import URLError

import numpy as np

from repro.core import AttackConfig, build_dataset
from repro.fleet import FleetArtifactCache
from repro.obs import scoped_registry
from repro.runner import CampaignSpec
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

    def test_put_pickles_once_and_pushes_the_local_bytes(self, tmp_path, monkeypatch):
        remote = FakeRemote()
        cache = FleetArtifactCache(tmp_path, remote=remote)
        serialised = []
        dump, dumps = pickle.dump, pickle.dumps
        monkeypatch.setattr(
            pickle, "dump", lambda *a, **k: serialised.append("dump") or dump(*a, **k)
        )
        monkeypatch.setattr(
            pickle, "dumps", lambda *a, **k: serialised.append("dumps") or dumps(*a, **k)
        )
        path = cache.put("model", KEY, {"weights": list(range(100))})
        assert len(serialised) == 1
        assert remote.blobs[("model", KEY)] == path.read_bytes()

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

    def test_built_dataset_round_trips_to_another_host(self, tmp_path):
        """The ``dataset`` artifact is a built NodeDataset; a second host
        fetches it whole, and its write-through copy is the remote's bytes."""
        spec = CampaignSpec(
            name="fleet-dataset",
            schemes=("antisat",),
            benchmarks=("c2670",),
            key_size_groups=((8,),),
            attacks=("dataset-summary",),
            config=AttackConfig(locks_per_setting=1, iscas_key_sizes=(8,), seed=5),
        )
        dataset = build_dataset(spec.expand()[0].dataset.generate())
        remote = FakeRemote()
        FleetArtifactCache(tmp_path / "a", remote=remote).put("dataset", KEY, dataset)
        other = FleetArtifactCache(tmp_path / "b", remote=remote)
        with scoped_registry() as registry:
            fetched = other.get("dataset", KEY)
        assert _transfers(registry) == {"fetch_hit": 1}
        for name in ("features", "labels", "instance_index"):
            np.testing.assert_array_equal(
                getattr(fetched, name), getattr(dataset, name)
            )
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(
                getattr(fetched.adjacency, part), getattr(dataset.adjacency, part)
            )
        assert fetched.node_names == dataset.node_names
        assert fetched.class_map == dataset.class_map
        assert [i.name for i in fetched.instances] == [
            i.name for i in dataset.instances
        ]
        local = other.path_for("dataset", KEY).read_bytes()
        assert local == remote.blobs[("dataset", KEY)]
