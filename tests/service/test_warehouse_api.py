"""Warehouse endpoints over real loopback HTTP: cross-campaign queries,
ownership masking and compaction byte-identity."""

import json

import pytest

from service_helpers import summary_spec

from repro.runner import ResultStore, render_report
from repro.service import ServiceClient, ServiceError


def _submit_and_wait(client, name):
    job = client.submit(summary_spec(name=name))["job"]
    client.wait(job["job_id"], timeout=120)
    return job["job_id"]


def _write_tokens(path, tokens):
    path.write_text(json.dumps({"tokens": tokens}), encoding="utf-8")
    return path


TOKENS = {
    "alice-secret": {"name": "alice", "role": "submit"},
    "bob-secret": {"name": "bob", "role": "submit"},
    "ops-secret": {"name": "ops", "role": "admin"},
    "fleet-secret": {"name": "w1", "role": "worker"},
}


class TestWarehouseQueries:
    def test_cross_campaign_query_spans_jobs(self, service_factory):
        client = ServiceClient(service_factory().url)
        first = _submit_and_wait(client, "camp-a")
        second = _submit_and_wait(client, "camp-b")
        payload = client.warehouse_query()
        assert payload["truncated"] is False
        assert payload["count"] == 4  # two targets per campaign
        names = {record["task_id"].split("/", 1)[0] for record in payload["records"]}
        assert names == {"camp-a", "camp-b"}
        stats = client.warehouse_stats()
        assert stats["records"] == 4
        assert sorted(stats["sources"]) == sorted([first, second])

    def test_filters_and_aggregate_mode(self, service_factory):
        client = ServiceClient(service_factory().url)
        _submit_and_wait(client, "camp-a")
        assert client.warehouse_query(scheme="antisat")["count"] == 2
        assert client.warehouse_query(scheme="sarlock")["count"] == 0
        payload = client.warehouse_query(aggregate=True, group_by="scheme")
        assert payload["group_by"] == ["scheme"]
        groups = payload["groups"]
        assert len(groups) == 1
        assert groups[0]["scheme"] == "antisat"
        assert groups[0]["n_tasks"] == 2

    def test_bad_since_and_limit_are_400(self, service_factory):
        client = ServiceClient(service_factory().url)
        for kwargs in ({"since": "whenever"}, {"limit": 0}):
            with pytest.raises(ServiceError) as excinfo:
                client.warehouse_query(**kwargs)
            assert excinfo.value.status == 400

    def test_limit_truncates(self, service_factory):
        client = ServiceClient(service_factory().url)
        _submit_and_wait(client, "camp-a")
        payload = client.warehouse_query(limit=1)
        assert payload["count"] == 1
        assert payload["truncated"] is True

    def test_compaction_keeps_report_byte_identical(self, service_factory):
        """A legacy per-job store dropped into ``stores/`` is migrated
        lazily, and compacting its superseded lines must not change what a
        query-backed report says."""
        service = service_factory()
        legacy = ResultStore(service.queue.stores_dir / "legacy-job.jsonl")
        for accuracy in (0.4, 0.6, 0.8):  # same fingerprint: two supersessions
            legacy.append(
                {
                    "task_id": "t/c2670",
                    "fingerprint": "legacy-f1",
                    "status": "ok",
                    "attack": "gnnunlock",
                    "scheme": "antisat",
                    "suite": "ISCAS-85",
                    "technology": "BENCH8",
                    "target": "c2670",
                    "n_instances": 2,
                    "gnn_accuracy": accuracy,
                }
            )
        client = ServiceClient(service.url)
        before = client.warehouse_query()
        assert before["count"] == 1
        assert before["records"][0]["gnn_accuracy"] == 0.8
        report_before = render_report(before["records"])
        result = client.warehouse_compact()
        assert result["compacted"] is True
        assert result["folded"] == 2
        after = client.warehouse_query()
        assert after["records"] == before["records"]
        assert render_report(after["records"]) == report_before
        assert client.warehouse_stats()["superseded"] == 0


class TestWarehouseAuth:
    @pytest.fixture
    def clients(self, service_factory, tmp_path):
        tokens_path = _write_tokens(tmp_path / "tokens.json", TOKENS)
        service = service_factory(tokens_file=tokens_path)
        return {
            name: ServiceClient(service.url, token=f"{secret}")
            for secret, name in (
                ("alice-secret", "alice"),
                ("bob-secret", "bob"),
                ("ops-secret", "ops"),
                ("fleet-secret", "worker"),
            )
        }

    def test_tenants_see_only_their_own_records(self, clients):
        _submit_and_wait(clients["alice"], "camp-alice")
        _submit_and_wait(clients["bob"], "camp-bob")
        for name in ("alice", "bob"):
            payload = clients[name].warehouse_query()
            assert payload["count"] == 2
        assert clients["ops"].warehouse_query()["count"] == 4

    def test_worker_tokens_are_refused(self, clients):
        with pytest.raises(ServiceError) as excinfo:
            clients["worker"].warehouse_query()
        assert excinfo.value.status == 403

    def test_stats_and_compact_are_admin_only(self, clients):
        for call in (
            clients["alice"].warehouse_stats,
            clients["alice"].warehouse_compact,
        ):
            with pytest.raises(ServiceError) as excinfo:
                call()
            assert excinfo.value.status == 403
        assert "records" in clients["ops"].warehouse_stats()


class TestWarehouseRefresh:
    """After the first sweep, a refresh tails only stores that can grow:
    those of unfinished jobs and of finishes the post-finish hook has not
    ingested yet."""

    @pytest.fixture
    def service(self, tmp_path):
        from repro.service import CampaignService

        # Never started: the test plays the worker and its post-finish hook.
        return CampaignService(tmp_path / "state", port=0, cache_dir=tmp_path / "c")

    @pytest.fixture
    def tailed(self, monkeypatch):
        import repro.service.api as api

        sources = []

        def spy(warehouse, path, *, source=None):
            sources.append(source)
            return original(warehouse, path, source=source)

        original = api.ingest_store
        monkeypatch.setattr(api, "ingest_store", spy)
        return sources

    @staticmethod
    def _append(job, n):
        ResultStore(job.store_path).append(
            {"task_id": f"{job.job_id}/{n}", "fingerprint": f"{job.job_id}-{n}"}
        )

    def test_finished_stores_are_skipped_until_requeued(self, service, tailed):
        queue = service.queue
        done, _ = queue.submit(summary_spec("done"))
        queue.claim(timeout=0)
        self._append(done, 0)
        queue.finish(done, "done")
        service._ingest_finished_job(done)
        live, _ = queue.submit(summary_spec("live"))
        queue.claim(timeout=0)
        self._append(live, 0)

        service.refresh_warehouse()  # the first sweep reads every store
        assert len(service.warehouse) == 2
        tailed.clear()
        self._append(live, 1)
        assert service.refresh_warehouse() == {live.job_id: 1}
        assert tailed == [live.job_id]

        queue.finish(live, "failed", error="boom")
        tailed.clear()
        service.refresh_warehouse()  # finished, but the hook has not run
        assert tailed == [live.job_id]
        service._ingest_finished_job(live)
        tailed.clear()
        service.refresh_warehouse()
        assert tailed == []

        queue.submit(summary_spec("live"))  # a failed job re-runs
        self._append(live, 2)
        assert service.refresh_warehouse() == {live.job_id: 1}
        assert tailed == [live.job_id]
        assert len(service.warehouse) == 4

    def test_first_sweep_settles_jobs_finished_before_it(self, tmp_path, tailed):
        from repro.service import CampaignService

        earlier = CampaignService(tmp_path / "state", port=0, cache_dir=tmp_path / "c")
        job, _ = earlier.queue.submit(summary_spec("old"))
        earlier.queue.claim(timeout=0)
        self._append(job, 0)
        earlier.queue.finish(job, "done")

        service = CampaignService(tmp_path / "state", port=0, cache_dir=tmp_path / "c")
        assert service.refresh_warehouse() == {job.job_id: 1}
        service.refresh_warehouse()
        assert tailed == []
