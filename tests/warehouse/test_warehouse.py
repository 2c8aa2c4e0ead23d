"""Warehouse behaviour: a registry of stores read in place, latest() parity,
streaming reads, the matrix history and the one-time legacy conversion."""

import json
import shutil
from pathlib import Path

import pytest

from repro.obs import scoped_registry
from repro.runner import ResultStore, WarehouseMatrixHistory
from repro.runner.matrix import trend_deltas
from repro.runner.store import aggregate
from repro.warehouse import Warehouse, aggregate_stream, build_filter, parse_since
from repro.warehouse.store import REGISTRY

LEGACY = Path(__file__).parent / "legacy"


def _record(target="c2670", *, fp="f1", scheme="antisat", status="ok", acc=0.9):
    return {
        "task_id": f"t/{target}",
        "fingerprint": fp,
        "status": status,
        "attack": "gnnunlock",
        "scheme": scheme,
        "suite": "ISCAS-85",
        "technology": "BENCH8",
        "target": target,
        "n_instances": 2,
        "class_names": ["DN", "AN"],
        "gnn_accuracy": acc,
        "removal_success_rate": 1.0,
        "recorded_at": 1000.0,
    }


def _store(path, *records):
    store = ResultStore(path)
    for record in records:
        store.append(record)
    return store


def _warehouse(tmp_path, *records, source="job"):
    store = _store(tmp_path / f"{source}.jsonl", *records)
    warehouse = Warehouse(tmp_path / "wh")
    warehouse.register(store.path)
    return warehouse


class TestRegistry:
    def test_iteration_equals_store_latest(self, tmp_path):
        store = _store(
            tmp_path / "job.jsonl",
            _record("c2670", fp="f1", acc=0.1),
            _record("c3540", fp="f2"),
            _record("c2670", fp="f1", acc=0.9),  # supersedes f1
            {"note": "keyless-1"},
            {"note": "keyless-2"},
        )
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.register(store.path)
        assert list(warehouse.iter_records()) == list(store.latest().values())
        assert len(warehouse) == 4
        assert warehouse.stats()["superseded"] == 1

    def test_reregistering_is_a_noop_and_the_registry_survives_reopen(self, tmp_path):
        _store(tmp_path / "a.jsonl", _record(fp="fa"))
        _store(tmp_path / "b.jsonl", _record(fp="fb"))
        warehouse = Warehouse(tmp_path / "wh")
        assert warehouse.register(tmp_path / "a.jsonl") is True
        assert warehouse.register(tmp_path / "b.jsonl") is True
        assert warehouse.register(tmp_path / "a.jsonl") is False
        reopened = Warehouse(tmp_path / "wh")
        assert [source for source, _ in reopened.sources()] == ["a", "b"]
        assert [r["fingerprint"] for r in reopened.iter_records()] == ["fa", "fb"]

    def test_the_registry_is_the_only_file(self, tmp_path):
        warehouse = _warehouse(tmp_path, _record(fp="f1"))
        list(warehouse.iter_records())
        assert [p.name for p in warehouse.root.iterdir()] == [REGISTRY]

    def test_appended_records_show_up_without_reregistering(self, tmp_path):
        warehouse = _warehouse(tmp_path, _record(fp="f1"))
        ResultStore(tmp_path / "job.jsonl").append(_record("c3540", fp="f2"))
        assert [r["fingerprint"] for r in warehouse.iter_records()] == ["f1", "f2"]

    def test_sources_replay_in_registration_order(self, tmp_path):
        for job in ("zeta", "alpha"):
            _store(tmp_path / f"{job}.jsonl", _record(fp=job))
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.register(tmp_path / "zeta.jsonl")
        warehouse.register(tmp_path / "alpha.jsonl", source="renamed")
        envelopes = list(warehouse.iter_envelopes())
        assert [env["src"] for env in envelopes] == ["zeta", "renamed"]
        assert envelopes[0]["k"] == "zeta:zeta"

    def test_same_fingerprint_across_sources_does_not_collide(self, tmp_path):
        """Two campaigns running the same task keep separate records;
        supersession is a within-store notion."""
        warehouse = Warehouse(tmp_path / "wh")
        for job in ("job-a", "job-b"):
            warehouse.register(_store(tmp_path / f"{job}.jsonl", _record(fp="f1")).path)
        assert len(warehouse) == 2
        assert warehouse.stats()["superseded"] == 0

    def test_stores_inside_the_directory_move_with_it(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")
        own = _store(warehouse.store_path("own"), _record(fp="f1"))
        warehouse.register(own.path)
        shutil.move(str(tmp_path / "wh"), str(tmp_path / "moved"))
        assert len(Warehouse(tmp_path / "moved")) == 1

    def test_missing_and_torn_stores_read_what_is_complete(self, tmp_path):
        path = tmp_path / "job.jsonl"
        path.write_bytes(json.dumps(_record(fp="f1")).encode() + b'\n{"half": ')
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.register(path)
        warehouse.register(tmp_path / "gone.jsonl")
        assert [r["fingerprint"] for r in warehouse.iter_records()] == ["f1"]


class TestStreaming:
    def test_iteration_decodes_one_record_at_a_time(self, tmp_path):
        """The streaming contract: pulling one record from the iterator
        yields one envelope, not the whole set."""
        warehouse = _warehouse(
            tmp_path, *(_record(f"c{i}", fp=f"f{i}") for i in range(50))
        )

        def scanned(registry):
            series = registry.snapshot()["counters"].get(
                "repro_warehouse_records_scanned_total", []
            )
            return sum(value for _labels, value in series)

        with scoped_registry() as registry:
            iterator = warehouse.iter_records()
            next(iterator)
            assert scanned(registry) == 1
            next(iterator)
            assert scanned(registry) == 2
            iterator.close()

    def test_filters(self, tmp_path):
        warehouse = _warehouse(
            tmp_path,
            _record(fp="f1", scheme="antisat"),
            _record(fp="f2", scheme="sarlock"),
            _record(fp="f3", scheme="sarlock", status="failed"),
        )
        by_scheme = build_filter(scheme="sarlock", status="ok")
        assert [r["fingerprint"] for r in warehouse.iter_records(by_scheme)] == ["f2"]

    def test_since_filter_and_parse(self, tmp_path):
        warehouse = _warehouse(
            tmp_path,
            dict(_record(fp="f1"), recorded_at=100.0),
            dict(_record(fp="f2"), recorded_at=2000.0),
        )
        since = build_filter(since=500.0)
        assert [r["fingerprint"] for r in warehouse.iter_records(since)] == ["f2"]
        assert parse_since("1234") == 1234.0
        assert parse_since("2026-08-01") > 1.7e9
        assert parse_since("1h") < parse_since("0.001s")
        with pytest.raises(ValueError):
            parse_since("next tuesday")

    def test_aggregate_stream_matches_aggregate(self, tmp_path):
        records = [
            _record("c2670", fp="f1", acc=0.9),
            _record("c3540", fp="f2", acc=0.7),
            _record("c5315", fp="f3", scheme="sarlock"),
        ]
        warehouse = _warehouse(tmp_path, *records)
        assert aggregate_stream(warehouse.iter_records()) == aggregate(records)


class TestWarehouseMatrixHistory:
    def test_append_latest_and_len(self, tmp_path):
        history = WarehouseMatrixHistory(Warehouse(tmp_path / "wh"), name="m")
        assert history.latest() is None
        assert len(history) == 0
        history.append({"cell|a": {"value": 0.5}}, recorded_at=1.0)
        history.append({"cell|a": {"value": 0.7}}, recorded_at=2.0)
        latest = history.latest()
        assert latest["cells"]["cell|a"]["value"] == 0.7
        assert len(history) == 2
        sweeps = history.sweeps()
        assert [s["recorded_at"] for s in sweeps] == [1.0, 2.0]
        assert [s["sweep"] for s in sweeps] == [1, 2]

    def test_sweeps_are_a_registered_source(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")
        history = WarehouseMatrixHistory(warehouse, name="m")
        history.append({"cell|a": {"value": 0.5}}, recorded_at=1.0)
        history.append({"cell|a": {"value": 0.7}}, recorded_at=2.0)
        assert [source for source, _ in warehouse.sources()] == ["matrix:m"]
        assert [r["sweep"] for r in warehouse.iter_records()] == [1, 2]

    def test_histories_share_a_directory(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")
        first = WarehouseMatrixHistory(warehouse, name="alpha")
        second = WarehouseMatrixHistory(warehouse, name="beta")
        first.append({"a|x": {"value": 1.0}}, recorded_at=1.0)
        assert second.latest() is None
        assert len(second.sweeps()) == 0
        second.append({"b|x": {"value": 0.5}}, recorded_at=2.0)
        first.append({"a|x": {"value": 0.0}}, recorded_at=3.0)
        reopened = Warehouse(tmp_path / "wh")
        alpha = WarehouseMatrixHistory(reopened, name="alpha")
        beta = WarehouseMatrixHistory(reopened, name="beta")
        assert (len(alpha), len(beta)) == (2, 1)
        assert alpha.latest()["cells"] == {"a|x": {"value": 0.0}}
        assert beta.latest()["cells"] == {"b|x": {"value": 0.5}}
        assert [s for s, _ in reopened.sources()] == ["matrix:alpha", "matrix:beta"]


class TestLegacyConversion:
    """``legacy/`` holds a warehouse (``wh``: two campaign stores, a re-run
    task and a keyless line, ingested in two passes) and a matrix history
    shared by two names (``history``), both written by the shard/manifest
    layout, plus the outputs that layout gave for them
    (``expected.json``)."""

    @pytest.fixture
    def legacy(self, tmp_path, monkeypatch):
        shutil.copytree(LEGACY, tmp_path / "legacy")
        monkeypatch.chdir(tmp_path / "legacy")
        return json.loads(Path("expected.json").read_text())

    @pytest.mark.parametrize(
        "name, flags",
        [
            ("query", []),
            ("report", ["--report"]),
            ("aggregate", ["--aggregate"]),
            ("aggregate_by_scheme", ["--aggregate", "--group-by", "scheme"]),
        ],
    )
    def test_queries_match_the_old_layout(self, legacy, capsys, name, flags):
        from repro.runner.cli import main

        assert main(["warehouse", "query", "--warehouse", "wh", *flags]) == 0
        assert capsys.readouterr().out == legacy[name]

    def test_conversion_leaves_registry_and_stores_only(self, legacy):
        warehouse = Warehouse("wh")
        files = sorted(str(p.relative_to("wh")) for p in Path("wh").rglob("*"))
        assert files == [REGISTRY, "stores", "stores/camp-a.jsonl", "stores/camp-b.jsonl"]
        assert [source for source, _ in warehouse.sources()] == ["camp-a", "camp-b"]
        assert warehouse.stats()["superseded"] == 0

    def test_matrix_history_converts_without_head_duplicates(self, legacy):
        warehouse = Warehouse("history")
        for name in ("alpha", "beta"):
            history = WarehouseMatrixHistory(warehouse, name=name)
            expected = legacy["matrix"][name]
            latest = history.latest()
            assert len(history) == expected["len"]
            assert [s["sweep"] for s in history.sweeps()] == expected["sweeps"]
            assert latest == expected["latest"]
            deltas = trend_deltas(legacy["matrix_current"], latest["cells"])
            assert json.loads(json.dumps(deltas)) == expected["deltas"]
        assert len(warehouse) == 3  # three sweeps; the head copies are gone
        history = WarehouseMatrixHistory(warehouse, name="alpha")
        history.append({"a|x": {"value": 1.0}}, recorded_at=9.0)
        assert [s["sweep"] for s in history.sweeps()] == [1, 2, 3]

    def test_a_crash_before_the_manifest_goes_redoes_the_conversion(
        self, legacy, monkeypatch
    ):
        import repro.warehouse.store as store_module

        original = store_module.atomic_write

        def crash_on_registry(path, write):
            if path.name == REGISTRY:
                raise KeyboardInterrupt("crash")
            original(path, write)

        monkeypatch.setattr(store_module, "atomic_write", crash_on_registry)
        with pytest.raises(KeyboardInterrupt):
            Warehouse("wh")
        assert Path("wh/manifest.json").is_file()
        monkeypatch.setattr(store_module, "atomic_write", original)
        records = [json.dumps(r, sort_keys=True) for r in Warehouse("wh").iter_records()]
        assert "\n".join(records) + "\n" == legacy["query"]

    def test_leftovers_after_the_manifest_are_deleted(self, legacy):
        Warehouse("wh")
        Path("wh/shards").mkdir()
        Path("wh/shards/g0000-000001.jsonl").write_text("{}\n")
        Path("wh/index.json").write_text("{}")
        Warehouse("wh")
        assert sorted(p.name for p in Path("wh").iterdir()) == [REGISTRY, "stores"]
