"""Warehouse behaviour: ingest cursors, latest() parity, streaming reads,
crash-safe compaction and the warehouse-backed matrix history."""

import json
import threading

import pytest

from repro.obs import scoped_registry
from repro.runner import ResultStore, WarehouseMatrixHistory
from repro.runner.store import aggregate, render_report
from repro.warehouse import (
    Warehouse,
    aggregate_stream,
    build_filter,
    ingest_state_dir,
    ingest_store,
    parse_since,
)


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


def _fill(store, n=6):
    for i in range(n):
        store.append(_record(f"c{i}", fp=f"f{i}", acc=0.5 + i / 100))


class TestAppendAndLatest:
    def test_latest_order_matches_result_store(self, tmp_path):
        store = ResultStore(tmp_path / "job.jsonl")
        store.append(_record("c2670", fp="f1", acc=0.1))
        store.append(_record("c3540", fp="f2"))
        store.append(_record("c2670", fp="f1", acc=0.9))  # supersedes f1
        store.append({"note": "keyless-1"})
        store.append({"note": "keyless-2"})
        warehouse = Warehouse(tmp_path / "wh")
        ingest_store(warehouse, store.path, source="job")
        assert list(warehouse.iter_records()) == list(store.latest().values())

    def test_direct_append_dedupes_by_fingerprint(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.append(_record(fp="f1", acc=0.2))
        warehouse.append(_record(fp="f1", acc=0.8))
        records = list(warehouse.iter_records())
        assert len(records) == 1
        assert records[0]["gnn_accuracy"] == 0.8
        assert len(warehouse) == 1

    def test_get_is_random_access(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.append(_record(fp="f1"), key="f1")
        assert warehouse.get("f1")["fingerprint"] == "f1"
        assert warehouse.get("missing") is None

    def test_appends_roll_shards(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh", max_shard_bytes=300)
        for i in range(8):
            warehouse.append(_record(f"c{i}", fp=f"f{i}"))
        assert warehouse.stats()["shards"] > 1
        assert len(warehouse) == 8

    def test_reopen_recovers_index(self, tmp_path):
        first = Warehouse(tmp_path / "wh")
        for i in range(4):
            first.append(_record(f"c{i}", fp=f"f{i}"))
        first.flush()
        reopened = Warehouse(tmp_path / "wh")
        assert list(reopened.iter_records()) == list(first.iter_records())

    def test_reopen_without_snapshot_rescans(self, tmp_path):
        first = Warehouse(tmp_path / "wh")
        for i in range(4):
            first.append(_record(f"c{i}", fp=f"f{i}"))
        (tmp_path / "wh" / "index.json").unlink(missing_ok=True)
        reopened = Warehouse(tmp_path / "wh")
        assert len(reopened) == 4

    def test_concurrent_appends_never_interleave(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")

        def writer(worker):
            for i in range(20):
                warehouse.append(_record(f"c{worker}-{i}", fp=f"w{worker}-{i}"))

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(warehouse) == 80
        assert warehouse.stats()["corrupt_lines"] == 0


class TestIngest:
    def test_cursor_makes_reingest_incremental(self, tmp_path):
        store = ResultStore(tmp_path / "job.jsonl")
        _fill(store, 3)
        warehouse = Warehouse(tmp_path / "wh")
        assert ingest_store(warehouse, store.path, source="job") == 3
        assert ingest_store(warehouse, store.path, source="job") == 0
        store.append(_record("c9", fp="f9"))
        assert ingest_store(warehouse, store.path, source="job") == 1

    def test_truncated_source_resets_cursor(self, tmp_path):
        store = ResultStore(tmp_path / "job.jsonl")
        _fill(store, 3)
        warehouse = Warehouse(tmp_path / "wh")
        ingest_store(warehouse, store.path, source="job")
        store.clear()
        store.append(_record("c0", fp="f0", acc=0.77))
        assert ingest_store(warehouse, store.path, source="job") == 1
        assert warehouse.get("job:f0")["gnn_accuracy"] == 0.77

    def test_partial_trailing_line_waits(self, tmp_path):
        path = tmp_path / "job.jsonl"
        path.write_bytes(
            json.dumps(_record(fp="f1")).encode() + b"\n" + b'{"half": '
        )
        warehouse = Warehouse(tmp_path / "wh")
        assert ingest_store(warehouse, path, source="job") == 1
        with path.open("ab") as handle:
            handle.write(b"1}\n")
        assert ingest_store(warehouse, path, source="job") == 1
        assert len(warehouse) == 2

    def test_corrupt_lines_counted_not_ingested(self, tmp_path):
        path = tmp_path / "job.jsonl"
        with path.open("w") as handle:
            handle.write(json.dumps(_record(fp="f1")) + "\n")
            handle.write("{definitely not json\n")
            handle.write(json.dumps(_record(fp="f2", target="c3540")) + "\n")
        warehouse = Warehouse(tmp_path / "wh")
        assert ingest_store(warehouse, path, source="job") == 2
        assert warehouse.source_cursor("job")["corrupt"] == 1

    def test_ingest_state_dir_sweeps_stores(self, tmp_path):
        stores = tmp_path / "state" / "stores"
        stores.mkdir(parents=True)
        ResultStore(stores / "aaaa.jsonl").append(_record(fp="fa"))
        ResultStore(stores / "bbbb.jsonl").append(_record(fp="fb", scheme="sarlock"))
        warehouse = Warehouse(tmp_path / "wh")
        added = ingest_state_dir(warehouse, tmp_path / "state")
        assert added == {"aaaa": 1, "bbbb": 1}

    def test_same_fingerprint_across_sources_does_not_collide(self, tmp_path):
        """Two campaigns running the same task keep separate records;
        supersession is a within-store notion."""
        for job in ("job-a", "job-b"):
            store = ResultStore(tmp_path / f"{job}.jsonl")
            store.append(_record(fp="f1", acc=0.5))
        warehouse = Warehouse(tmp_path / "wh")
        for job in ("job-a", "job-b"):
            ingest_store(warehouse, tmp_path / f"{job}.jsonl", source=job)
        assert len(warehouse) == 2
        assert warehouse.stats()["superseded"] == 0


class TestStreaming:
    def test_iteration_decodes_one_record_at_a_time(self, tmp_path):
        """The streaming contract: pulling one record from the iterator
        touches one stored envelope, not the whole set."""
        warehouse = Warehouse(tmp_path / "wh")
        for i in range(50):
            warehouse.append(_record(f"c{i}", fp=f"f{i}"))
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
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.append(_record(fp="f1", scheme="antisat"), source="jobA")
        warehouse.append(_record(fp="f2", scheme="sarlock"), source="jobB")
        warehouse.append(_record(fp="f3", scheme="sarlock", status="failed"))
        by_scheme = build_filter(scheme="sarlock", status="ok")
        assert [r["fingerprint"] for r in warehouse.iter_records(by_scheme)] == ["f2"]
        by_source = build_filter(sources=["jobA"])
        assert [r["fingerprint"] for r in warehouse.iter_records(by_source)] == ["f1"]

    def test_since_filter_and_parse(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")
        old = dict(_record(fp="f1"), recorded_at=100.0)
        new = dict(_record(fp="f2"), recorded_at=2000.0)
        warehouse.append(old)
        warehouse.append(new)
        since = build_filter(since=500.0)
        assert [r["fingerprint"] for r in warehouse.iter_records(since)] == ["f2"]
        assert parse_since("1234") == 1234.0
        assert parse_since("2026-08-01") > 1.7e9
        assert parse_since("1h") < parse_since("0.001s")
        with pytest.raises(ValueError):
            parse_since("next tuesday")

    def test_aggregate_stream_matches_aggregate(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")
        records = [
            _record("c2670", fp="f1", acc=0.9),
            _record("c3540", fp="f2", acc=0.7),
            _record("c5315", fp="f3", scheme="sarlock"),
        ]
        for record in records:
            warehouse.append(record)
        assert aggregate_stream(warehouse.iter_records()) == aggregate(records)


class TestCompaction:
    def test_compaction_folds_duplicates_and_preserves_reads(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh", max_shard_bytes=500)
        for round_ in range(4):
            for i in range(5):
                warehouse.append(_record(f"c{i}", fp=f"f{i}", acc=round_ / 10))
        before_records = list(warehouse.iter_records())
        before_report = render_report(before_records)
        result = warehouse.compact()
        assert result["compacted"] is True
        assert result["folded"] == 15
        assert list(warehouse.iter_records()) == before_records
        assert render_report(list(warehouse.iter_records())) == before_report
        assert warehouse.stats()["superseded"] == 0

    def test_compaction_survives_reopen(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")
        for acc in (0.1, 0.2, 0.3):
            warehouse.append(_record(fp="f1", acc=acc))
        warehouse.compact()
        reopened = Warehouse(tmp_path / "wh")
        records = list(reopened.iter_records())
        assert len(records) == 1
        assert records[0]["gnn_accuracy"] == 0.3

    def test_no_garbage_no_compaction(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")
        warehouse.append(_record(fp="f1"))
        assert warehouse.compact()["compacted"] is False

    @pytest.mark.parametrize("phase", ["pre-manifest", "post-manifest"])
    def test_crash_mid_compaction_recovers(self, tmp_path, phase):
        """A compaction killed before or after the manifest flip loses
        nothing: reopen sweeps the orphans and serves identical records."""
        warehouse = Warehouse(tmp_path / "wh")
        for i in range(6):
            warehouse.append(_record(f"c{i}", fp=f"f{i % 3}", acc=i / 10))
        expected = list(warehouse.iter_records())
        expected_report = render_report(expected)

        class _Crash(RuntimeError):
            pass

        def crash(point):
            if point == phase:
                raise _Crash(point)

        warehouse._crash_hook = crash
        with pytest.raises(_Crash):
            warehouse.compact()
        recovered = Warehouse(tmp_path / "wh")
        assert list(recovered.iter_records()) == expected
        assert render_report(list(recovered.iter_records())) == expected_report
        # Pre-manifest crash leaves the garbage for the next compaction;
        # post-manifest means the fold already landed and there is none.
        result = recovered.compact()
        assert result["compacted"] is (phase == "pre-manifest")
        assert list(recovered.iter_records()) == expected


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

    def test_head_survives_compaction(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")
        history = WarehouseMatrixHistory(warehouse, name="m")
        for sweep in range(3):
            history.append({"cell|a": {"value": sweep / 10}}, recorded_at=float(sweep))
        warehouse.compact()
        assert history.latest()["cells"]["cell|a"]["value"] == 0.2
        assert len(history.sweeps()) == 3
        assert len(history) == 3

    def test_histories_are_namespaced(self, tmp_path):
        warehouse = Warehouse(tmp_path / "wh")
        first = WarehouseMatrixHistory(warehouse, name="alpha")
        second = WarehouseMatrixHistory(warehouse, name="beta")
        first.append({"a|x": {"value": 1.0}}, recorded_at=1.0)
        assert second.latest() is None
        assert len(second.sweeps()) == 0
