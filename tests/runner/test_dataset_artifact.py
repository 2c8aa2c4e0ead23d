"""The ``dataset`` artifact holds the built :class:`NodeDataset`.

A hit hands the task the cached dataset without rebuilding it; an artifact
that still holds the older bare instance list is built on read and left
untouched.  Either way the records are the same.
"""

import dataclasses

import numpy as np

from repro.core import NodeDataset, build_dataset
from repro.runner import ArtifactCache, CampaignSpec, DatasetSpec, execute_task

_VOLATILE = ("wall_time_s", "attack_time_s", "train_time_s", "cache", "recorded_at")


def _scrub(record):
    return {key: value for key, value in record.items() if key not in _VOLATILE}


def assert_same_dataset(left: NodeDataset, right: NodeDataset) -> None:
    np.testing.assert_array_equal(left.features, right.features)
    assert left.features.dtype == right.features.dtype
    np.testing.assert_array_equal(left.labels, right.labels)
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(
            getattr(left.adjacency, part), getattr(right.adjacency, part)
        )
    assert left.adjacency.shape == right.adjacency.shape
    assert left.node_names == right.node_names
    np.testing.assert_array_equal(left.instance_index, right.instance_index)
    assert left.class_map == right.class_map
    assert [i.name for i in left.instances] == [i.name for i in right.instances]


def _count_builds(monkeypatch):
    calls = []
    original = DatasetSpec.build

    def counting_build(self, instances):
        calls.append(self.fingerprint())
        return original(self, instances)

    monkeypatch.setattr(DatasetSpec, "build", counting_build)
    return calls


def _put_legacy(cache_dir, task) -> bytes:
    """Store ``task``'s dataset as a bare instance list; return its bytes."""
    cache = ArtifactCache(cache_dir)
    path = cache.put("dataset", task.dataset.fingerprint(), task.dataset.generate())
    return path.read_bytes()


def _baseline_and_summary_tasks(tiny_config):
    spec = CampaignSpec(
        name="baseline",
        schemes=("xor",),
        benchmarks=("c2670",),
        key_size_groups=((4,),),
        attacks=("sat", "dataset-summary"),
        attack_params={"sat": {"max_iterations": 12}},
        config=tiny_config,
    )
    tasks = spec.expand()
    assert [t.attack for t in tasks] == ["sat", "dataset-summary"]
    return tasks


class TestBuiltArtifact:
    def test_hit_equals_a_fresh_build(self, tiny_campaign, tmp_path):
        spec = dataclasses.replace(tiny_campaign, attacks=("dataset-summary",))
        task = spec.expand()[0]
        cold = execute_task(task, str(tmp_path))
        assert cold.cache_events == {"dataset": "miss"}
        cached = ArtifactCache(tmp_path).get("dataset", task.dataset.fingerprint())
        assert isinstance(cached, NodeDataset)
        assert_same_dataset(cached, build_dataset(task.dataset.generate()))
        warm = execute_task(task, str(tmp_path))
        assert warm.cache_events == {"dataset": "hit"}
        assert _scrub(warm.record) == _scrub(cold.record)

    def test_warm_gnnunlock_task_does_not_build(
        self, tiny_campaign, tmp_path, monkeypatch
    ):
        task = tiny_campaign.expand()[0]
        calls = _count_builds(monkeypatch)
        cold = execute_task(task, str(tmp_path))
        assert cold.ok, cold.error
        assert len(calls) == 1  # the one dataset miss
        del calls[:]
        warm = execute_task(task, str(tmp_path))
        assert warm.cache_events == {"dataset": "hit", "model": "hit"}
        assert calls == []
        assert _scrub(warm.record) == _scrub(cold.record)


class TestLegacyArtifact:
    def test_instance_list_is_built_and_left_as_is(
        self, tiny_campaign, tmp_path, monkeypatch
    ):
        task = tiny_campaign.expand()[0]
        fresh = execute_task(task, str(tmp_path / "fresh"))
        legacy_bytes = _put_legacy(tmp_path / "legacy", task)
        calls = _count_builds(monkeypatch)
        result = execute_task(task, str(tmp_path / "legacy"))
        assert result.ok, result.error
        assert result.cache_events == {"dataset": "hit", "model": "miss"}
        assert len(calls) == 1
        assert _scrub(result.record) == _scrub(fresh.record)
        path = ArtifactCache(tmp_path / "legacy").path_for(
            "dataset", task.dataset.fingerprint()
        )
        assert path.read_bytes() == legacy_bytes

    def test_baseline_and_summary_records_match_across_formats(
        self, tiny_config, tmp_path
    ):
        tasks = _baseline_and_summary_tasks(tiny_config)
        built = tmp_path / "built"
        for task in tasks:
            execute_task(task, str(built))  # first run writes the built dataset
        legacy = tmp_path / "legacy"
        _put_legacy(legacy, tasks[0])
        for task in tasks:
            from_built = execute_task(task, str(built))
            from_legacy = execute_task(task, str(legacy))
            assert from_built.ok and from_legacy.ok
            assert from_built.cache_events["dataset"] == "hit"
            assert from_legacy.cache_events["dataset"] == "hit"
            assert _scrub(from_built.record) == _scrub(from_legacy.record)

    def test_baseline_reads_legacy_instances_without_building(
        self, tiny_config, tmp_path, monkeypatch
    ):
        baseline = _baseline_and_summary_tasks(tiny_config)[0]
        _put_legacy(tmp_path, baseline)
        calls = _count_builds(monkeypatch)
        result = execute_task(baseline, str(tmp_path))
        assert result.ok, result.error
        assert result.cache_events == {"dataset": "hit", "model": "off"}
        assert calls == []
        uncached = execute_task(baseline, None)
        assert uncached.ok, uncached.error
        assert uncached.cache_events == {"dataset": "off", "model": "off"}
        assert calls == []
        assert _scrub(uncached.record) == _scrub(result.record)

    def test_uncached_summary_builds_once(self, tiny_config, monkeypatch):
        summary = _baseline_and_summary_tasks(tiny_config)[1]
        calls = _count_builds(monkeypatch)
        result = execute_task(summary, None)
        assert result.ok, result.error
        assert result.cache_events == {"dataset": "off"}
        assert len(calls) == 1
