"""Result store aggregation and the ``python -m repro`` command line."""

import json

import pytest

from repro.runner import ResultStore, aggregate, campaign_table, paper_table
from repro.runner.cli import main


def _record(target="c2670", *, status="ok", accuracy=0.98, removal=1.0, fp="f1"):
    return {
        "task_id": f"t/{target}",
        "fingerprint": fp,
        "status": status,
        "attack": "gnnunlock",
        "scheme": "antisat",
        "suite": "ISCAS-85",
        "technology": "BENCH8",
        "target": target,
        "n_instances": 2,
        "class_names": ["DN", "AN"],
        "gnn_accuracy": accuracy,
        "post_accuracy": 1.0,
        "removal_success_rate": removal,
        "train_time_s": 0.5,
        "wall_time_s": 0.9,
        "cache": {"dataset": "miss", "model": "miss"},
        "gnn_report": {
            "per_class": {
                "AN": {"precision": 1.0, "recall": 0.95, "f1": 0.97, "support": 10},
                "DN": {"precision": 0.99, "recall": 1.0, "f1": 0.99, "support": 90},
            },
            "misclassification_summary": "1 AN as DN",
        },
    }


class TestResultStore:
    def test_append_load_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(_record("c2670"))
        store.append(_record("c3540", fp="f2"))
        records = store.load()
        assert [r["target"] for r in records] == ["c2670", "c3540"]
        assert all("recorded_at" in r for r in records)

    def test_load_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append(_record())
        with path.open("a") as handle:
            handle.write("{not json}\n")
        store.append(_record("c3540", fp="f2"))
        assert len(store.load()) == 2

    def test_latest_deduplicates_by_fingerprint(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(_record(accuracy=0.90))
        store.append(_record(accuracy=0.99))
        latest = store.latest()
        assert len(latest) == 1
        assert latest["f1"]["gnn_accuracy"] == 0.99

    def test_missing_file_loads_empty(self, tmp_path):
        assert ResultStore(tmp_path / "absent.jsonl").load() == []

    def test_latest_keeps_keyless_records_distinct(self, tmp_path):
        """Records without fingerprint/task_id must not collide on one key."""
        store = ResultStore(tmp_path / "r.jsonl")
        store.append({"note": "first", "status": "ok"})
        store.append({"note": "second", "status": "ok"})
        store.append(_record())  # a normal keyed record on top
        latest = store.latest()
        assert len(latest) == 3
        notes = {r.get("note") for r in latest.values()}
        assert {"first", "second"} <= notes

    def test_latest_treats_empty_keys_as_missing(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append({"fingerprint": "", "task_id": "", "note": "a"})
        store.append({"fingerprint": "", "task_id": "", "note": "b"})
        assert len(store.latest()) == 2

    def test_latest_survives_corrupt_lines_between_records(self, tmp_path):
        """Truncated JSONL lines interleaved with valid ones are ignored and
        do not shift keyless records onto each other."""
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append({"note": "keyless-1", "status": "ok"})
        with path.open("a") as handle:
            handle.write('{"fingerprint": "f9", "status"\n')  # truncated write
            handle.write("\n")
        store.append({"note": "keyless-2", "status": "ok"})
        store.append(_record(fp="f1"))
        with path.open("a") as handle:
            handle.write("{half a reco")
        latest = store.latest()
        assert len(latest) == 3
        assert "f1" in latest
        assert {r.get("note") for r in latest.values()} >= {"keyless-1", "keyless-2"}

    def test_latest_falls_back_to_task_id(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append({"task_id": "t/one", "round": 1})
        store.append({"task_id": "t/one", "round": 2})
        latest = store.latest()
        assert len(latest) == 1
        assert latest["t/one"]["round"] == 2

    def test_concurrent_appends_never_interleave(self, tmp_path):
        """Writers from many threads each land one intact line: the payload
        is serialised before the (locked) single write."""
        import threading

        store = ResultStore(tmp_path / "r.jsonl")

        def writer(worker):
            for i in range(25):
                store.append(_record(f"c{worker}-{i}", fp=f"w{worker}-{i}"))

        threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(store.load()) == 100
        assert store.last_corrupt_lines == 0

    def test_load_counts_corrupt_lines(self, tmp_path):
        from repro.obs import scoped_registry

        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append(_record())
        with path.open("a") as handle:
            handle.write("{not json}\n")
            handle.write("also not json\n")
        store.append(_record("c3540", fp="f2"))
        with scoped_registry() as registry:
            assert len(store.load()) == 2
        assert store.last_corrupt_lines == 2
        series = registry.snapshot()["counters"]["repro_store_corrupt_lines_total"]
        assert sum(value for _labels, value in series) == 2
        # A clean reload resets the counter.
        clean = ResultStore(tmp_path / "clean.jsonl")
        clean.append(_record())
        clean.load()
        assert clean.last_corrupt_lines == 0


class TestAggregation:
    def test_aggregate_averages_per_group(self):
        records = [_record("c2670", accuracy=0.9), _record("c3540", accuracy=1.0)]
        summary = aggregate(records)
        assert len(summary) == 1
        assert summary[0]["n_tasks"] == 2
        assert summary[0]["gnn_accuracy"] == pytest.approx(0.95)

    def test_aggregate_ignores_failed_records(self):
        records = [_record(), _record("c3540", status="failed")]
        assert aggregate(records)[0]["n_tasks"] == 1

    def test_aggregate_averages_only_present_fields(self):
        """A record without a metric must not drag the mean toward zero; it
        simply isn't part of that metric's sample."""
        with_post = _record("c2670", accuracy=0.8)
        without_post = _record("c3540", accuracy=0.6, fp="f2")
        del without_post["post_accuracy"]
        without_post["train_time_s"] = None  # explicit null, same treatment
        summary = aggregate([with_post, without_post])[0]
        assert summary["gnn_accuracy"] == pytest.approx(0.7)
        assert summary["post_accuracy"] == pytest.approx(1.0)  # one sample
        assert summary["train_time_s"] == pytest.approx(0.5)
        assert summary["metric_n"]["gnn_accuracy"] == 2
        assert summary["metric_n"]["post_accuracy"] == 1
        assert summary["metric_n"]["train_time_s"] == 1

    def test_aggregate_reports_zero_n_for_absent_metric(self):
        record = _record()
        del record["post_accuracy"]
        summary = aggregate([record])[0]
        assert summary["post_accuracy"] == 0.0
        assert summary["metric_n"]["post_accuracy"] == 0

    def test_paper_table_shape(self):
        table = paper_table([_record()], class_order=("AN", "DN"))
        assert "Prec AN (%)" in table and "F1 DN (%)" in table
        assert "98.00" in table  # gnn accuracy
        assert "1 AN as DN" in table

    def test_paper_table_unions_classes_across_schemes(self):
        """A mixed sarlock+antisat pile must carry every observed class: the
        default class order is the union across records, not whatever the
        first record happened to train on."""
        antisat = _record("c2670")
        sarlock = dict(
            _record("c3540", fp="f2"),
            scheme="sarlock",
            class_names=["DN", "SAR"],
            gnn_report={
                "per_class": {
                    "DN": {"precision": 0.9, "recall": 0.9, "f1": 0.9},
                    "SAR": {"precision": 0.8, "recall": 0.8, "f1": 0.8},
                },
                "misclassification_summary": "-",
            },
        )
        for records in ([antisat, sarlock], [sarlock, antisat]):
            table = paper_table(records)
            for cls in ("AN", "DN", "SAR"):
                assert f"Prec {cls} (%)" in table
                assert f"F1 {cls} (%)" in table

    def test_campaign_table_survives_nodes_without_circuits(self):
        record = {
            "task_id": "t/summary",
            "status": "ok",
            "n_nodes": 1234,
            "cache": {},
        }
        table = campaign_table([record])
        assert "1234 nodes" in table
        with_circuits = dict(record, n_circuits=8)
        assert "1234 nodes / 8 circuits" in campaign_table([with_circuits])

    def test_campaign_table_reports_failures(self):
        failed = dict(_record("c3540", status="failed"), error="KeyError: boom")
        table = campaign_table([_record(), failed])
        assert "failed" in table
        assert "KeyError: boom" in table
        assert "dataset:miss" in table

    def test_render_report_counts_statuses_and_omits_timings(self):
        from repro.runner import render_report

        failed = dict(_record("c3540", status="failed", fp="f2"), error="boom")
        report = render_report([_record(), failed])
        assert report.startswith("2 task(s): 1 failed, 1 ok")
        assert "GNN Acc. (%)" in report
        # Volatile fields must not leak in: the report diffs across runs.
        assert "wall_time" not in report and "Time (s)" not in report

    def test_render_report_is_deterministic_for_identical_records(self):
        from repro.runner import render_report

        first = render_report([_record(), _record("c3540", fp="f2")])
        second = render_report(
            [dict(_record(), wall_time_s=99.0, recorded_at=1.0),
             dict(_record("c3540", fp="f2"), train_time_s=42.0)]
        )
        assert first == second

    def test_render_report_empty(self):
        from repro.runner import render_report

        assert render_report([]).startswith("0 task(s)")


class TestCli:
    def test_run_dry_run(self, capsys):
        assert main(["run", "--profile", "quick", "--dry-run", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "4 task(s)" in out
        assert "dry run: nothing executed" in out

    def test_run_dry_run_with_grid_options(self, capsys):
        code = main(
            [
                "run", "--dry-run", "--no-cache",
                "--scheme", "sfll:2@GEN65",
                "--targets", "c2670", "c3540",
                "--key-sizes", "8,16",
                "--sweep", "gnn.hidden_dim=16,32",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 task(s)" in out  # 2 targets x 2 sweep values
        assert "sfll:2@GEN65" in out

    def test_list_tasks_shows_cache_status(self, tmp_path, capsys):
        code = main(
            ["list", "--profile", "quick", "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        assert "dataset missing" in capsys.readouterr().out

    def test_list_cache_empty(self, tmp_path, capsys):
        code = main(["list", "--cache", "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert "is empty" in capsys.readouterr().out

    def test_report_reads_store(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(_record())
        store.append(_record("c3540", fp="f2"))
        code = main(["report", "--store", str(tmp_path / "r.jsonl"), "--paper"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GNN Acc. (%)" in out
        assert "c3540" in out

    def test_report_missing_store_errors(self, tmp_path, capsys):
        code = main(["report", "--store", str(tmp_path / "absent.jsonl")])
        assert code == 1

    def test_report_warns_about_dropped_corrupt_lines(self, tmp_path, capsys):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.append(_record())
        with path.open("a") as handle:
            handle.write("{corrupted line\n")
        code = main(["report", "--store", str(path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "1 unparseable line(s)" in captured.err
        assert "under-counts" in captured.err
        assert "c2670" in captured.out

    def test_report_service_style_matches_render_report(self, tmp_path, capsys):
        from repro.runner import render_report

        store = ResultStore(tmp_path / "r.jsonl")
        store.append(_record())
        store.append(_record("c3540", fp="f2"))
        code = main(
            ["report", "--store", str(tmp_path / "r.jsonl"), "--service-style"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out == render_report(list(store.latest().values())) + "\n"

    def test_usage_mistakes_print_clean_errors(self, capsys):
        assert main(["run", "--scheme", "bogus", "--dry-run", "--no-cache"]) == 2
        assert "unknown locking scheme" in capsys.readouterr().err
        assert main(["run", "--sweep", "gnn.epochs", "--dry-run", "--no-cache"]) == 2
        assert "expected key=value" in capsys.readouterr().err
        assert main(["run", "--scheme", "sfll", "--dry-run", "--no-cache"]) == 2
        assert "h value" in capsys.readouterr().err

    def test_dry_run_rejects_unknown_benchmark(self, capsys):
        code = main(
            ["run", "--dry-run", "--no-cache",
             "--benchmarks", "nosuchbench", "--key-sizes", "8"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown benchmark 'nosuchbench'" in err
        assert "Traceback" not in err

    def test_dry_run_rejects_mistyped_config_override(self, capsys):
        code = main(
            ["run", "--dry-run", "--no-cache", "--set", "gnn.epochs=abc"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "gnn.epochs" in err and "expected int" in err
        assert "Traceback" not in err

    def test_real_run_rejects_invalid_spec_before_executing(
        self, tmp_path, capsys
    ):
        """The same validation guards non-dry runs: no store file appears."""
        store = tmp_path / "never.jsonl"
        code = main(
            ["run", "--no-cache", "--store", str(store),
             "--targets", "nosuchbench", "--key-sizes", "8"]
        )
        assert code == 2
        assert "unknown target" in capsys.readouterr().err
        assert not store.exists()

    def test_dry_run_rejects_mistyped_sweep_value(self, capsys):
        code = main(
            ["run", "--dry-run", "--no-cache", "--sweep", "gnn.hidden_dim=16,big"]
        )
        assert code == 2
        assert "gnn.hidden_dim" in capsys.readouterr().err

    def test_run_zero_tasks_errors(self, capsys):
        # K = 600 needs 300 PIs — beyond every stand-in — so the grid is empty.
        code = main(["run", "--no-cache", "--key-sizes", "600"])
        assert code == 1

    def test_run_resume_skips_completed_tasks(self, tmp_path, capsys):
        args = [
            "run", "--serial",
            "--benchmarks", "c2670", "c3540", "c5315",
            "--targets", "c2670",
            "--key-sizes", "8",
            "--set", "gnn.epochs=2", "--set", "gnn.root_nodes=100",
            "--store", str(tmp_path / "s.jsonl"),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "1 task(s) already complete, 0 to run" in out
        assert "skipped" in out


class TestWarehouseCli:
    def _seed_store(self, path, *targets):
        store = ResultStore(path)
        for i, target in enumerate(targets):
            store.append(_record(target, fp=f"{path.stem}-{i}"))
        return store

    def test_ingest_query_compact_stats_roundtrip(self, tmp_path, capsys):
        self._seed_store(tmp_path / "job-a.jsonl", "c2670", "c3540")
        self._seed_store(tmp_path / "job-b.jsonl", "c5315")
        wh_dir = str(tmp_path / "wh")
        code = main(
            ["warehouse", "ingest", "--warehouse", wh_dir,
             "--store", str(tmp_path / "job-a.jsonl"),
             "--store", str(tmp_path / "job-b.jsonl")]
        )
        assert code == 0
        assert "ingested 3 record(s)" in capsys.readouterr().out

        code = main(["warehouse", "query", "--warehouse", wh_dir])
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines() if line
        ]
        assert {r["target"] for r in lines} == {"c2670", "c3540", "c5315"}

        code = main(
            ["warehouse", "query", "--warehouse", wh_dir,
             "--aggregate", "--group-by", "scheme"]
        )
        assert code == 0
        groups = json.loads(capsys.readouterr().out)
        assert groups[0]["scheme"] == "antisat"
        assert groups[0]["n_tasks"] == 3

        code = main(["warehouse", "compact", "--warehouse", wh_dir])
        assert code == 0
        capsys.readouterr()
        code = main(["warehouse", "stats", "--warehouse", wh_dir])
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["records"] == 3
        assert sorted(stats["sources"]) == ["job-a", "job-b"]

    def test_query_report_matches_store_render(self, tmp_path, capsys):
        from repro.runner import render_report

        store = self._seed_store(tmp_path / "job.jsonl", "c2670", "c3540")
        code = main(
            ["warehouse", "ingest", "--warehouse", str(tmp_path / "wh"),
             "--store", str(store.path)]
        )
        assert code == 0
        capsys.readouterr()
        code = main(
            ["warehouse", "query", "--warehouse", str(tmp_path / "wh"),
             "--report"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out == render_report(list(store.latest().values())) + "\n"

    def test_ingest_without_inputs_errors(self, tmp_path, capsys):
        code = main(["warehouse", "ingest", "--warehouse", str(tmp_path / "wh")])
        assert code != 0


class TestCacheCli:
    def _fill(self, cache_dir):
        from repro.runner import ArtifactCache

        cache = ArtifactCache(cache_dir)
        cache.put("dataset", "aa" * 32, b"x" * 2000)
        cache.put("model", "bb" * 32, b"y" * 100)
        return cache

    def test_stats_lists_kinds(self, tmp_path, capsys):
        self._fill(tmp_path / "cache")
        code = main(["cache", "stats", "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 artifact(s)" in out
        assert "dataset" in out and "model" in out

    def test_stats_empty_cache(self, tmp_path, capsys):
        code = main(["cache", "stats", "--cache-dir", str(tmp_path / "none")])
        assert code == 0
        assert "is empty" in capsys.readouterr().out

    def test_root_with_old_counter_files_works(self, tmp_path, capsys):
        """Older versions kept lifetime counters at the cache root; they are
        left alone and no longer read."""
        cache_dir = tmp_path / "cache"
        cache = self._fill(cache_dir)
        (cache_dir / "counters.json").write_text('{"dataset.hit": 7}')
        (cache_dir / "counters.lock").write_text("")
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "2 artifact(s)" in out and "dataset" in out and "model" in out
        assert "hit" not in out
        code = main(["cache", "gc", "--cache-dir", str(cache_dir), "--max-bytes", "0"])
        assert code == 0
        assert "evicted 2 artifact(s)" in capsys.readouterr().out
        assert cache.entries() == []
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_gc_requires_a_criterion(self, tmp_path, capsys):
        code = main(["cache", "gc", "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_gc_evicts_and_reports(self, tmp_path, capsys):
        cache = self._fill(tmp_path / "cache")
        code = main(
            ["cache", "gc", "--cache-dir", str(tmp_path / "cache"),
             "--max-bytes", "0"]
        )
        assert code == 0
        assert "evicted 2 artifact(s)" in capsys.readouterr().out
        assert cache.entries() == []

    def test_gc_dry_run_keeps_entries(self, tmp_path, capsys):
        cache = self._fill(tmp_path / "cache")
        code = main(
            ["cache", "gc", "--cache-dir", str(tmp_path / "cache"),
             "--max-age", "0s", "--dry-run"]
        )
        assert code == 0
        assert "would evict" in capsys.readouterr().out
        assert len(cache.entries()) == 2

    def test_size_suffixes_parse(self):
        from repro.runner.cache import parse_age, parse_size

        assert parse_size("2K") == 2048
        assert parse_size("1.5M") == int(1.5 * 1024**2)
        assert parse_size("3g") == 3 * 1024**3
        assert parse_size("512") == 512
        assert parse_age("30m") == 1800
        assert parse_age("2h") == 7200
        assert parse_age("7d") == 7 * 86400
        assert parse_age("90") == 90.0
        assert parse_size("0") == 0 and parse_age("0s") == 0.0
        # Negative or non-finite amounts are errors, never "evict all" or
        # an OverflowError.
        for bad in ("-1", "-2K", "inf", "-inf", "1e400", "nan"):
            with pytest.raises(ValueError):
                parse_size(bad)
        for bad in ("-3d", "-1", "inf", "1e400d", "nan"):
            with pytest.raises(ValueError):
                parse_age(bad)

    @pytest.mark.parametrize(
        "flag", ["--max-age=-3d", "--max-bytes=-1", "--max-bytes=inf",
                 "--max-bytes=1e400"],
    )
    def test_gc_rejects_bad_budget_cleanly(self, tmp_path, capsys, flag):
        cache = self._fill(tmp_path / "cache")
        with pytest.raises(SystemExit) as exc:
            main(["cache", "gc", "--cache-dir", str(tmp_path / "cache"), flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid" in err and "Traceback" not in err
        assert len(cache.entries()) == 2
