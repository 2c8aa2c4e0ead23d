"""Load tests: concurrent clients against a live service.

These ride the :mod:`benchmarks.bench_service_load` harness, so the
invariants CI gates on are exactly the ones the benchmark measures: no
lost or duplicated jobs under concurrent submission, disjoint owner views,
fetched reports byte-identical to direct runs, and bounded submit latency.

The sustained-soak variant is marked ``soak`` and excluded from tier-1
(``pytest -m soak`` runs it).
"""

import json

import pytest

from benchmarks.bench_service_load import (
    MAX_P95_SUBMIT_S,
    check_results,
    main,
    run_bench,
)


class TestLoadHarness:
    def test_eight_concurrent_clients_hold_every_invariant(self, tmp_path):
        """The acceptance scenario: >= 8 concurrent clients, zero lost or
        duplicated jobs, reports match offline runs, p95 submit latency
        bounded."""
        results = run_bench(
            clients=8,
            jobs_per_client=2,
            job_slots=2,
            offline_checks=2,
            root=tmp_path,
        )
        assert check_results(results, strict=False) == []
        load = results["load"]
        assert load["total_jobs"] == 16
        assert load["invariants"] == {
            "no_duplicate_jobs": True,
            "no_lost_jobs": True,
            "all_done": True,
            "progress_consistent": True,
            "owner_views_disjoint": True,
            "reports_match_offline": True,
        }
        assert "guardrails" not in results
        assert load["submit_latency_s"]["p50"] <= load["submit_latency_s"]["p95"]
        assert load["submit_latency_s"]["p95"] < MAX_P95_SUBMIT_S
        assert load["jobs_per_s"] > 0

    def test_bench_entrypoint_emits_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_service_load.json"
        code = main(
            [
                "--clients", "2",
                "--jobs-per-client", "1",
                "--job-slots", "1",
                "--offline-checks", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "jobs/s" in stdout
        payload = json.loads(out.read_text())
        assert payload["bench"] == "service_load"
        assert payload["load"]["total_jobs"] == 2
        assert payload["load"]["submit_latency_s"]["p95"] > 0
        assert all(payload["load"]["invariants"].values())


@pytest.mark.soak
class TestSoak:
    def test_sustained_traffic_stays_healthy(self, tmp_path):
        """~20s of continuous submit/stream/fetch cycles: the service keeps
        answering, no cycle fails, and every invariant still holds."""
        results = run_bench(
            clients=4,
            jobs_per_client=2,
            job_slots=2,
            soak_seconds=20.0,
            offline_checks=1,
            root=tmp_path,
        )
        assert check_results(results, strict=False) == []
        soak = results["soak"]
        assert soak["errors"] == []
        assert soak["service_healthy_after"]
        assert soak["cycles"] >= 20  # well over 1 cycle/s/client on any box
