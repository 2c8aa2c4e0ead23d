"""Executor behaviour: parallel == serial, cache reuse, crash isolation,
campaign resume, progress callbacks, cancellation and aggregated cache
statistics."""

import dataclasses
import multiprocessing
import os

import pytest

from repro.runner import (
    AttackTask,
    CampaignSpec,
    DatasetSpec,
    ResultStore,
    campaign_cache_stats,
    execute_task,
    paper_table,
    run_campaign,
)

#: Record keys that legitimately differ between runs (timings, provenance).
_VOLATILE = ("wall_time_s", "attack_time_s", "train_time_s", "cache", "recorded_at")


def _scrub(record):
    record = dict(record)
    for key in _VOLATILE:
        record.pop(key, None)
    return record


class TestSerialParallelEquivalence:
    def test_records_are_bit_identical(self, tiny_campaign, tmp_path):
        tasks = tiny_campaign.expand()
        serial = run_campaign(tasks, serial=True, cache_dir=tmp_path / "serial")
        parallel = run_campaign(tasks, workers=2, cache_dir=tmp_path / "parallel")
        assert [r.status for r in serial] == ["ok", "ok"]
        assert [r.status for r in parallel] == ["ok", "ok"]
        for left, right in zip(serial, parallel):
            assert _scrub(left.record) == _scrub(right.record)

    def test_results_come_back_in_task_order(self, tiny_campaign, tmp_path):
        tasks = tiny_campaign.expand()
        results = run_campaign(tasks, workers=2, cache_dir=tmp_path / "cache")
        assert [r.task_id for r in results] == [t.task_id for t in tasks]


class TestArtifactReuse:
    def test_second_run_hits_dataset_and_model_cache(self, tiny_campaign, tmp_path):
        tasks = tiny_campaign.expand()
        cold = run_campaign(tasks, serial=True, cache_dir=tmp_path / "cache")
        warm = run_campaign(tasks, serial=True, cache_dir=tmp_path / "cache")
        assert cold[0].cache_events == {"dataset": "miss", "model": "miss"}
        # Task 2 shares task 1's dataset even within the first run.
        assert cold[1].cache_events == {"dataset": "hit", "model": "miss"}
        for result in warm:
            assert result.cache_events == {"dataset": "hit", "model": "hit"}
        for first, second in zip(cold, warm):
            assert _scrub(first.record) == _scrub(second.record)

    def test_cache_disabled_reports_off(self, tiny_campaign, tmp_path):
        task = tiny_campaign.expand()[0]
        result = execute_task(task, None)
        assert result.ok
        assert result.cache_events == {"dataset": "off", "model": "off"}

    def test_store_receives_one_record_per_task(self, tiny_campaign, tmp_path):
        tasks = tiny_campaign.expand()
        store = ResultStore(tmp_path / "results.jsonl")
        run_campaign(tasks, serial=True, cache_dir=tmp_path / "cache", store=store)
        records = store.load()
        assert len(records) == 2
        assert {r["task_id"] for r in records} == {t.task_id for t in tasks}
        assert all(r["status"] == "ok" for r in records)
        assert all("gnn_accuracy" in r for r in records)


class TestCrashIsolation:
    def _broken_task(self) -> AttackTask:
        dataset = DatasetSpec(
            scheme="antisat",
            suite="ISCAS-85",
            benchmarks=("no-such-benchmark",),
            key_sizes=(8,),
        )
        return AttackTask(
            task_id="broken", dataset=dataset, target_benchmark="no-such-benchmark"
        )

    def test_failure_is_captured_not_raised(self):
        result = execute_task(self._broken_task(), None)
        assert result.status == "failed"
        assert "no-such-benchmark" in result.error
        assert result.traceback and "Traceback" in result.traceback

    def test_one_crash_does_not_sink_the_campaign(self, tiny_campaign, tmp_path):
        good = tiny_campaign.expand()[0]
        tasks = [self._broken_task(), good]
        results = run_campaign(tasks, workers=2, cache_dir=tmp_path / "cache")
        assert [r.status for r in results] == ["failed", "ok"]
        assert results[1].record["gnn_accuracy"] > 0.5

    def test_unknown_attack_name_fails_cleanly(self, tiny_campaign):
        task = dataclasses.replace(tiny_campaign.expand()[0], attack="mystery")
        result = execute_task(task, None)
        assert result.status == "failed"
        assert "unknown attack" in result.error


class TestTimeouts:
    def test_serial_budget_checked_between_tasks(self, tiny_campaign, tmp_path):
        tasks = [
            dataclasses.replace(t, timeout_s=0.0) for t in tiny_campaign.expand()
        ]
        results = run_campaign(tasks, serial=True, cache_dir=tmp_path / "cache")
        assert [r.status for r in results] == ["timeout", "timeout"]
        assert all("budget" in r.error for r in results)
        assert all(r.record is None for r in results)

    def test_parallel_expired_budget_returns_promptly(self, tiny_campaign, tmp_path):
        tasks = [
            dataclasses.replace(t, timeout_s=0.0) for t in tiny_campaign.expand()
        ]
        results = run_campaign(tasks, workers=2, cache_dir=tmp_path / "cache")
        # Every task is reported as timed out (running ones are abandoned and
        # their workers terminated) and run_campaign itself does not hang.
        assert [r.status for r in results] == ["timeout", "timeout"]

    def test_no_timeout_means_unlimited(self, tiny_campaign, tmp_path):
        task = tiny_campaign.expand()[0]
        assert task.timeout_s is None
        results = run_campaign([task], serial=True, cache_dir=tmp_path / "cache")
        assert results[0].ok


class TestResume:
    def test_resume_needs_a_store(self, tiny_campaign):
        with pytest.raises(ValueError, match="store"):
            run_campaign(tiny_campaign.expand(), resume=True)

    def test_interrupted_campaign_resumes_and_matches_uninterrupted(
        self, tiny_campaign, tmp_path
    ):
        """Interrupt after task 1, resume, compare against a straight run."""
        tasks = tiny_campaign.expand()
        cache = tmp_path / "cache"

        straight_store = ResultStore(tmp_path / "straight.jsonl")
        run_campaign(tasks, serial=True, cache_dir=cache, store=straight_store)

        resumed_store = ResultStore(tmp_path / "resumed.jsonl")
        # "Interruption": only the first task ever ran.
        run_campaign(tasks[:1], serial=True, cache_dir=cache, store=resumed_store)
        results = run_campaign(
            tasks, serial=True, cache_dir=cache, store=resumed_store, resume=True
        )
        assert [r.status for r in results] == ["skipped", "ok"]

        straight = straight_store.latest()
        resumed = resumed_store.latest()
        assert list(straight) == list(resumed)
        # The rendered report is byte-identical to the uninterrupted run's.
        assert paper_table(list(resumed.values())) == paper_table(
            list(straight.values())
        )

    def test_second_resume_executes_zero_tasks(self, tiny_campaign, tmp_path):
        tasks = tiny_campaign.expand()
        store = ResultStore(tmp_path / "r.jsonl")
        run_campaign(tasks, serial=True, cache_dir=tmp_path / "cache", store=store)
        results = run_campaign(
            tasks, serial=True, cache_dir=tmp_path / "cache", store=store,
            resume=True,
        )
        assert [r.status for r in results] == ["skipped", "skipped"]
        assert all(r.ok for r in results)
        # Nothing re-executed => nothing re-appended and no cache traffic.
        assert len(store.load()) == len(tasks)
        stats = campaign_cache_stats(results)
        assert stats.hits == stats.misses == 0

    def test_resume_reports_skip_counts(self, tiny_campaign, tmp_path):
        tasks = tiny_campaign.expand()
        store = ResultStore(tmp_path / "r.jsonl")
        run_campaign(tasks[:1], serial=True, cache_dir=tmp_path / "c", store=store)
        lines = []
        run_campaign(
            tasks, serial=True, cache_dir=tmp_path / "c", store=store,
            resume=True, echo=lines.append,
        )
        assert any("1 task(s) already complete, 1 to run" in line for line in lines)

    def test_failed_records_are_not_skipped(self, tiny_campaign, tmp_path):
        """Only ok records satisfy resume; failures re-execute."""
        task = tiny_campaign.expand()[0]
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(
            {"fingerprint": task.fingerprint(), "status": "failed", "error": "x"}
        )
        results = run_campaign(
            [task], serial=True, cache_dir=tmp_path / "cache", store=store,
            resume=True,
        )
        assert results[0].status == "ok"


class TestProgressCallback:
    def test_on_result_fires_once_per_task_in_order(self, tiny_campaign, tmp_path):
        tasks = tiny_campaign.expand()
        seen = []
        results = run_campaign(
            tasks,
            serial=True,
            cache_dir=tmp_path / "cache",
            on_result=lambda index, total, result: seen.append(
                (index, total, result.task_id, result.status)
            ),
        )
        assert seen == [
            (i, len(tasks), t.task_id, "ok") for i, t in enumerate(tasks)
        ]
        assert [r.task_id for r in results] == [t.task_id for t in tasks]

    def test_on_result_streams_before_the_campaign_finishes(
        self, tiny_campaign, tmp_path
    ):
        """The hook must see task N before task N+1 executes (streaming), not
        receive everything in a burst after the campaign completes."""
        tasks = tiny_campaign.expand()
        store = ResultStore(tmp_path / "r.jsonl")
        appended_when_seen = []
        run_campaign(
            tasks,
            serial=True,
            cache_dir=tmp_path / "cache",
            store=store,
            on_result=lambda index, total, result: appended_when_seen.append(
                len(store.load())
            ),
        )
        # When the hook fires for task i, only tasks 0..i have store records.
        assert appended_when_seen == [1, 2]

    def test_on_result_includes_skipped_tasks_on_resume(
        self, tiny_campaign, tmp_path
    ):
        tasks = tiny_campaign.expand()
        store = ResultStore(tmp_path / "r.jsonl")
        run_campaign(tasks, serial=True, cache_dir=tmp_path / "cache", store=store)
        seen = []
        run_campaign(
            tasks,
            serial=True,
            cache_dir=tmp_path / "cache",
            store=store,
            resume=True,
            on_result=lambda index, total, result: seen.append(
                (index, total, result.status)
            ),
        )
        assert seen == [(0, 2, "skipped"), (1, 2, "skipped")]

    def test_parallel_campaign_reports_in_task_order(self, tiny_campaign, tmp_path):
        tasks = tiny_campaign.expand()
        seen = []
        run_campaign(
            tasks,
            workers=2,
            cache_dir=tmp_path / "cache",
            on_result=lambda index, total, result: seen.append(index),
        )
        assert seen == list(range(len(tasks)))


class TestCancellation:
    def test_serial_cancel_before_start_runs_nothing(self, tiny_campaign, tmp_path):
        tasks = tiny_campaign.expand()
        results = run_campaign(
            tasks, serial=True, cache_dir=tmp_path / "cache", cancel=lambda: True
        )
        assert [r.status for r in results] == ["cancelled", "cancelled"]
        assert all(r.record is None for r in results)
        assert all("cancelled" in r.error for r in results)

    def test_serial_cancel_between_tasks(self, tiny_campaign, tmp_path):
        """Cancellation raised after task 1 stops task 2 from executing."""
        tasks = tiny_campaign.expand()
        finished = []
        results = run_campaign(
            tasks,
            serial=True,
            cache_dir=tmp_path / "cache",
            cancel=lambda: len(finished) >= 1,
            on_result=lambda index, total, result: finished.append(result),
        )
        assert [r.status for r in results] == ["ok", "cancelled"]

    def test_cancelled_tasks_append_cancelled_records(self, tiny_campaign, tmp_path):
        tasks = tiny_campaign.expand()
        store = ResultStore(tmp_path / "r.jsonl")
        run_campaign(
            tasks,
            serial=True,
            cache_dir=tmp_path / "cache",
            store=store,
            cancel=lambda: True,
        )
        records = store.load()
        assert len(records) == 2
        assert all(r["status"] == "cancelled" for r in records)

    def test_resume_reexecutes_cancelled_tasks(self, tiny_campaign, tmp_path):
        """Cancelled records do not satisfy resume; the work happens later."""
        tasks = tiny_campaign.expand()
        store = ResultStore(tmp_path / "r.jsonl")
        run_campaign(
            tasks,
            serial=True,
            cache_dir=tmp_path / "cache",
            store=store,
            cancel=lambda: True,
        )
        results = run_campaign(
            tasks, serial=True, cache_dir=tmp_path / "cache", store=store,
            resume=True,
        )
        assert [r.status for r in results] == ["ok", "ok"]

    def test_parallel_cancel_returns_promptly(self, tiny_campaign, tmp_path):
        """With cancel already set, a 2-worker campaign reports every task as
        cancelled (queued ones revoked, running ones abandoned) and returns
        without waiting for full attacks to finish."""
        tasks = tiny_campaign.expand()
        results = run_campaign(
            tasks, workers=2, cache_dir=tmp_path / "cache", cancel=lambda: True
        )
        assert [r.status for r in results] == ["cancelled", "cancelled"]

    def test_parallel_cancel_interrupts_a_blocked_wait(
        self, tiny_campaign, tmp_path
    ):
        """Cancellation must land while the executor is blocked waiting on a
        long in-flight task, not only between future waits: the slow tasks
        below would run for minutes, yet the campaign returns within a few
        poll slices of the cancel request and abandons the workers."""
        import threading
        import time as time_module

        slow = [
            dataclasses.replace(
                task, config=task.config.with_gnn(epochs=100_000, patience=100_000)
            )
            for task in tiny_campaign.expand()
        ]
        flag = threading.Event()
        timer = threading.Timer(1.0, flag.set)
        timer.start()
        started = time_module.monotonic()
        try:
            results = run_campaign(
                slow, workers=2, cache_dir=tmp_path / "cache", cancel=flag.is_set
            )
        finally:
            timer.cancel()
            flag.set()
        assert [r.status for r in results] == ["cancelled", "cancelled"]
        assert any("worker terminated" in r.error for r in results)
        # Far below the tasks' natural runtime: the wait was interrupted.
        assert time_module.monotonic() - started < 30


class TestPoolShutdown:
    def test_successful_campaign_shuts_the_pool_down_gracefully(
        self, tiny_campaign, tmp_path, monkeypatch
    ):
        """A fully-consumed pooled campaign must take the graceful
        shutdown(wait=True) path, never the terminate-workers kill path
        (which is reserved for hung/abandoned/aborted campaigns)."""
        from repro.runner import executor as executor_module

        calls = []
        real_pool = executor_module.ProcessPoolExecutor

        class SpyPool(real_pool):
            def shutdown(self, wait=True, cancel_futures=False):
                calls.append({"wait": wait, "cancel_futures": cancel_futures})
                return super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", SpyPool)
        results = run_campaign(
            tiny_campaign.expand(), workers=2, cache_dir=tmp_path / "cache"
        )
        assert all(r.ok for r in results)
        assert calls == [{"wait": True, "cancel_futures": False}]


class TestCallerExecutor:
    def test_every_task_goes_to_the_given_executor(self, tiny_campaign, tmp_path):
        """A caller's executor replaces the pool and the serial shortcut
        alike, even for a lone task, and the campaign shuts it down."""
        from concurrent.futures import ThreadPoolExecutor

        submitted, shutdowns = [], []

        class SpyExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append(args[0].task_id)
                return super().submit(fn, *args, **kwargs)

            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append(wait)
                return super().shutdown(wait=wait, cancel_futures=cancel_futures)

        task = tiny_campaign.expand()[0]
        serial = run_campaign([task], serial=True, cache_dir=tmp_path / "cache")
        spied = run_campaign(
            [task],
            serial=True,
            cache_dir=tmp_path / "cache",
            executor=SpyExecutor(max_workers=1),
        )
        assert submitted == [task.task_id]
        assert shutdowns == [True]
        assert _scrub(spied[0].record) == _scrub(serial[0].record)


class TestProgressHookFailure:
    def test_raising_hook_aborts_the_campaign_promptly(
        self, tiny_campaign, tmp_path
    ):
        """An on_result exception propagates without first running every
        remaining (here: effectively endless) task to completion."""
        import time as time_module

        tasks = tiny_campaign.expand()
        slow = dataclasses.replace(
            tasks[1], config=tasks[1].config.with_gnn(epochs=100_000, patience=100_000)
        )

        def explode(index, total, result):
            raise RuntimeError("progress sink failed")

        started = time_module.monotonic()
        with pytest.raises(RuntimeError, match="progress sink failed"):
            run_campaign(
                [tasks[0], slow],
                workers=2,
                cache_dir=tmp_path / "cache",
                on_result=explode,
            )
        # The slow worker was terminated, not drained to completion.
        assert time_module.monotonic() - started < 30


class TestWorkerCrash:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="crash injection relies on fork inheriting the patched executor",
    )
    def test_worker_death_mid_job_is_reported_not_raised(
        self, tiny_campaign, tmp_path, monkeypatch
    ):
        """A worker process dying outright (OOM kill, segfault) surfaces as a
        failed result for its task instead of sinking run_campaign."""
        from repro.runner import executor as executor_module

        monkeypatch.setattr(executor_module, "execute_task", _die_hard)
        tasks = tiny_campaign.expand()
        store = ResultStore(tmp_path / "r.jsonl")
        results = run_campaign(
            tasks, workers=2, cache_dir=tmp_path / "cache", store=store
        )
        assert [r.status for r in results] == ["failed", "failed"]
        assert all("BrokenProcessPool" in r.error for r in results)
        # The failure is durable: the store records it for post-mortems.
        assert all(r["status"] == "failed" for r in store.load())


def _die_hard(task, *args, **kwargs):
    """Simulates a hard worker death (no Python-level exception to catch)."""
    os._exit(3)


class TestCampaignCacheStats:
    def test_warm_rerun_counts_only_hits(self, tiny_campaign, tmp_path):
        tasks = tiny_campaign.expand()
        cold = run_campaign(tasks, serial=True, cache_dir=tmp_path / "cache")
        warm = run_campaign(tasks, serial=True, cache_dir=tmp_path / "cache")
        cold_stats = campaign_cache_stats(cold)
        assert cold_stats.misses > 0
        warm_stats = campaign_cache_stats(warm)
        assert warm_stats.misses == 0
        assert warm_stats.hits == 2 * len(tasks)  # dataset + model per task
        assert warm_stats.per_kind["dataset"]["hits"] == len(tasks)
        assert warm_stats.per_kind["model"]["misses"] == 0


class TestDatasetSummaryTasks:
    def test_dataset_summary_records_shape_only(self, tiny_campaign, tmp_path):
        spec = dataclasses.replace(tiny_campaign, attacks=("dataset-summary",))
        tasks = spec.expand()
        result = execute_task(tasks[0], str(tmp_path / "cache"))
        assert result.ok, result.error
        record = result.record
        assert record["attack"] == "dataset-summary"
        assert record["n_circuits"] == 3
        assert record["n_classes"] == 2  # Anti-SAT: AN vs DN
        assert record["n_nodes"] > 0 and record["n_features"] > 0
        assert "gnn_accuracy" not in record

    def test_dataset_summary_uses_the_dataset_cache(self, tiny_campaign, tmp_path):
        spec = dataclasses.replace(tiny_campaign, attacks=("dataset-summary",))
        task = spec.expand()[0]
        execute_task(task, str(tmp_path / "cache"))
        warm = execute_task(task, str(tmp_path / "cache"))
        assert warm.cache_events == {"dataset": "hit"}


class TestAutomaticCacheBudget:
    def test_campaign_runs_cache_gc_under_env_budget(
        self, tiny_campaign, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        tasks = tiny_campaign.expand()
        run_campaign(tasks, serial=True, cache_dir=cache_dir)
        from repro.runner import ArtifactCache

        assert ArtifactCache(cache_dir).size_bytes() > 0
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
        lines = []
        results = run_campaign(
            tasks, serial=True, cache_dir=cache_dir, echo=lines.append
        )
        assert all(r.ok for r in results)
        assert ArtifactCache(cache_dir).size_bytes() == 0
        assert any("cache gc: evicted" in line for line in lines)

    def test_age_budget_keeps_fresh_artifacts(
        self, tiny_campaign, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        tasks = tiny_campaign.expand()[:1]
        monkeypatch.setenv("REPRO_CACHE_MAX_AGE", "7d")
        run_campaign(tasks, serial=True, cache_dir=cache_dir)
        from repro.runner import ArtifactCache

        # Everything was just written: nothing is older than the budget.
        assert ArtifactCache(cache_dir).size_bytes() > 0

    def test_no_budget_means_no_gc(self, tiny_campaign, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        monkeypatch.delenv("REPRO_CACHE_MAX_AGE", raising=False)
        cache_dir = tmp_path / "cache"
        lines = []
        run_campaign(
            tiny_campaign.expand()[:1], serial=True, cache_dir=cache_dir,
            echo=lines.append,
        )
        assert not any("cache gc" in line for line in lines)

    @pytest.mark.parametrize("bogus", ["lots", "inf", "1e400", "-1"])
    def test_malformed_budget_is_ignored(
        self, tiny_campaign, tmp_path, monkeypatch, bogus
    ):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", bogus)
        cache_dir = tmp_path / "cache"
        results = run_campaign(
            tiny_campaign.expand()[:1], serial=True, cache_dir=cache_dir
        )
        assert results[0].ok
        from repro.runner import ArtifactCache

        assert ArtifactCache(cache_dir).size_bytes() > 0


class TestBaselineTasks:
    def test_baseline_attack_runs_through_the_runner(self, tiny_config, tmp_path):
        spec = CampaignSpec(
            name="baseline",
            schemes=("xor",),
            benchmarks=("c2670",),
            key_size_groups=((4,),),
            attacks=("sat",),
            attack_params={"sat": {"max_iterations": 12}},
            config=tiny_config,
        )
        tasks = spec.expand()
        assert len(tasks) == 1
        result = execute_task(tasks[0], str(tmp_path / "cache"))
        assert result.ok, result.error
        assert result.record["attack"] == "sat"
        assert result.record["n_instances"] == 1
        assert result.record["baseline_success"] is True

    def test_baseline_results_do_not_depend_on_cache_temperature(
        self, tiny_config, tmp_path
    ):
        """A cached (pickled) dataset must behave exactly like a fresh one —
        library identity survives the round-trip, so format/scheme dispatch
        in the baseline attacks sees the same circuits either way."""
        spec = CampaignSpec(
            name="probe",
            schemes=("sfll:2@BENCH8",),
            benchmarks=("c7552",),
            key_size_groups=((16,),),
            attacks=("fall", "sfll-hd-unlocked"),
            config=tiny_config,
        )
        tasks = spec.expand()
        cold = [execute_task(t, str(tmp_path / "cache")) for t in tasks]
        warm = [execute_task(t, str(tmp_path / "cache")) for t in tasks]
        assert [r.cache_events["dataset"] for r in warm] == ["hit", "hit"]
        for before, after in zip(cold, warm):
            assert after.ok, after.error
            assert _scrub(after.record) == _scrub(before.record)
