"""Unit tests for labeling, dataset assembly, splits and dataset generation."""

import numpy as np
import pytest

from repro.core import (
    ANTISAT_CLASSES,
    SFLL_CLASSES,
    AttackConfig,
    build_dataset,
    circuit_to_graph,
    classes_to_labels,
    generate_dataset,
    generate_instances,
    labels_to_classes,
    leave_one_design_out,
    suite_benchmarks,
    suite_key_sizes,
)
from repro.core.dataset import LockedInstance
from repro.locking import SCHEMES, AntiSatLocking, SfllHdLocking, TTLockLocking


def _quick_config(**kwargs):
    base = AttackConfig(locks_per_setting=1, seed=2, **kwargs)
    return base


@pytest.fixture(scope="module")
def antisat_dataset():
    config = AttackConfig(locks_per_setting=1, seed=2)
    instances = generate_instances(
        "antisat", ["c2670", "c3540", "c5315"], key_sizes=(8,), config=config
    )
    return build_dataset(instances)


class TestLabeling:
    def test_class_maps(self):
        # Results carry the display name; it resolves through the registry.
        assert dict(SCHEMES.get("Anti-SAT").class_map) == ANTISAT_CLASSES
        assert dict(SCHEMES.get("SFLL-HD").class_map) == SFLL_CLASSES
        assert dict(SCHEMES.get("TTLock").class_map) == SFLL_CLASSES
        with pytest.raises(ValueError):
            SCHEMES.get("unknown")

    def test_labels_to_classes_roundtrip(self, antisat_locked):
        graph = circuit_to_graph(antisat_locked.locked)
        classes = labels_to_classes(antisat_locked, graph, ANTISAT_CLASSES)
        labels = classes_to_labels(classes, ANTISAT_CLASSES)
        for node, label in zip(graph.nodes, labels):
            assert antisat_locked.labels[node] == label

    def test_unknown_label_rejected(self, sfll_hd2_locked):
        graph = circuit_to_graph(sfll_hd2_locked.locked)
        with pytest.raises(ValueError):
            labels_to_classes(sfll_hd2_locked, graph, ANTISAT_CLASSES)


class TestSchemeFactory:
    def test_registry_create(self):
        assert isinstance(SCHEMES.get("antisat").create(key_size=8), AntiSatLocking)
        assert isinstance(SCHEMES.get("ttlock").create(key_size=8), TTLockLocking)
        sfll = SCHEMES.get("sfll")
        assert isinstance(sfll.create(key_size=8, h=2), SfllHdLocking)
        # h = 0 degenerates to TTLock.
        locker = sfll.create(key_size=8, h=0)
        assert isinstance(locker, TTLockLocking)
        assert locker.name == "TTLock"
        with pytest.raises(ValueError):
            sfll.create(key_size=8)
        with pytest.raises(ValueError):
            SCHEMES.get("mystery")

    def test_suite_helpers(self):
        assert "c7552" in suite_benchmarks("ISCAS-85")
        assert "b17_C" in suite_benchmarks("ITC-99")
        with pytest.raises(ValueError):
            suite_benchmarks("nonexistent")
        config = AttackConfig()
        assert suite_key_sizes("ISCAS-85", config) == config.iscas_key_sizes
        assert suite_key_sizes("ITC-99", config) == config.itc_key_sizes


class TestGeneration:
    def test_generate_instances_counts(self):
        config = AttackConfig(locks_per_setting=2, seed=1)
        instances = generate_instances(
            "antisat", ["c2670", "c5315"], key_sizes=(8, 16), config=config
        )
        assert len(instances) == 2 * 2 * 2
        names = {inst.name for inst in instances}
        assert len(names) == len(instances)

    def test_low_pi_benchmark_skips_large_keys(self):
        # c3540's stand-in has < 64 PIs, so K=64 SFLL locking is skipped, the
        # same exception the paper makes.
        config = _quick_config()
        instances = generate_instances(
            "ttlock", ["c3540"], key_sizes=(8, 64), config=config
        )
        assert all(inst.key_size == 8 for inst in instances)

    def test_generation_is_deterministic(self):
        config = _quick_config()
        a = generate_instances("ttlock", ["c3540"], key_sizes=(8,), config=config)
        b = generate_instances("ttlock", ["c3540"], key_sizes=(8,), config=config)
        assert a[0].result.key == b[0].result.key

    def test_different_copies_use_different_keys(self):
        config = AttackConfig(locks_per_setting=2, seed=3)
        instances = generate_instances(
            "ttlock", ["c5315"], key_sizes=(16,), config=config
        )
        assert instances[0].result.key != instances[1].result.key

    def test_sweep_h_ignored_by_schemes_without_h(self):
        config = _quick_config()
        instances = generate_instances(
            "antisat", ["c2670"], key_sizes=(8,), h=3, config=config
        )
        assert instances[0].h is None
        assert instances[0].result.scheme == "Anti-SAT"

    def test_sfll_with_h0_generates_ttlock(self):
        config = _quick_config()
        instances = generate_instances(
            "sfll", ["c3540"], key_sizes=(8,), h=0, config=config
        )
        assert instances[0].result.scheme == "TTLock"
        assert instances[0].h == 0

    @pytest.mark.parametrize("scheme,h", [("sfll", None), ("mystery", None)])
    def test_unusable_scheme_rejected(self, scheme, h):
        with pytest.raises(ValueError):
            generate_instances(
                scheme, ["c2670"], key_sizes=(8,), h=h, config=_quick_config()
            )

    def test_synthesised_generation(self):
        config = _quick_config(technology="GEN65")
        instances = generate_instances(
            "sfll", ["c3540"], key_sizes=(8,), h=2, config=config
        )
        assert instances[0].result.locked.library.name == "GEN65"
        assert instances[0].technology == "GEN65"

    def test_generate_dataset_shape(self):
        config = _quick_config()
        dataset = generate_dataset(
            "antisat", "ISCAS-85", config=config, key_sizes=(8,)
        )
        assert dataset.n_classes == 2
        assert dataset.n_features == 13
        assert len(dataset.instances) == 4
        summary = dataset.summary()
        assert summary["#Circuits"] == 4
        assert summary["#Nodes"] == dataset.n_nodes


class TestDataset:
    def test_block_structure(self, antisat_dataset):
        dataset = antisat_dataset
        assert dataset.n_nodes == sum(g.n_nodes for g in dataset.graphs)
        assert dataset.adjacency.shape == (dataset.n_nodes, dataset.n_nodes)
        assert len(dataset.node_names) == dataset.n_nodes

    def test_nodes_of_instance_partition(self, antisat_dataset):
        dataset = antisat_dataset
        seen = np.zeros(dataset.n_nodes, dtype=int)
        for idx in range(len(dataset.instances)):
            seen[dataset.nodes_of_instance(idx)] += 1
        assert (seen == 1).all()

    def test_benchmarks_listed_once(self, antisat_dataset):
        assert antisat_dataset.benchmarks() == ["c2670", "c3540", "c5315"]

    def test_mixed_schemes_rejected(self, antisat_locked, ttlock_locked):
        instances = [
            LockedInstance("a", "ISCAS-85", antisat_locked, 8),
            LockedInstance("b", "ISCAS-85", ttlock_locked, 8),
        ]
        with pytest.raises(ValueError):
            build_dataset(instances)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            build_dataset([])

    def test_to_graph_data(self, antisat_dataset):
        dataset = antisat_dataset
        n = dataset.n_nodes
        data = dataset.to_graph_data(
            np.ones(n, bool), np.zeros(n, bool), np.zeros(n, bool)
        )
        assert data.n_nodes == n
        assert data.n_classes == 2


class TestSplits:
    def test_leave_one_design_out(self, antisat_dataset):
        split = leave_one_design_out(antisat_dataset, "c3540")
        assert split.target_benchmark == "c3540"
        assert split.validation_benchmark != "c3540"
        counts = split.counts()
        assert counts["train"] > 0 and counts["val"] > 0 and counts["test"] > 0
        # Masks are disjoint and every test node belongs to the target.
        assert not (split.train & split.test).any()
        assert not (split.val & split.test).any()
        for idx in antisat_dataset.instances_of_benchmark("c3540"):
            assert split.test[antisat_dataset.nodes_of_instance(idx)].all()

    def test_explicit_validation_benchmark(self, antisat_dataset):
        split = leave_one_design_out(
            antisat_dataset, "c3540", validation_benchmark="c2670"
        )
        assert split.validation_benchmark == "c2670"

    def test_invalid_arguments(self, antisat_dataset):
        with pytest.raises(ValueError):
            leave_one_design_out(antisat_dataset, "missing")
        with pytest.raises(ValueError):
            leave_one_design_out(
                antisat_dataset, "c3540", validation_benchmark="c3540"
            )
        with pytest.raises(ValueError):
            leave_one_design_out(
                antisat_dataset, "c3540", validation_benchmark="missing"
            )
