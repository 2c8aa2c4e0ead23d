"""Warehouse endpoints over real loopback HTTP: cross-campaign queries over
the job stores read in place, and ownership masking."""

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

    def test_superseded_lines_read_as_the_store_latest(self, service_factory):
        """A job store with superseded lines reads as its ``latest()``, and
        the query-backed report renders byte-identically to the store's."""
        service = service_factory()
        client = ServiceClient(service.url)
        job_id = _submit_and_wait(client, "camp-a")
        store = ResultStore(service.queue.stores_dir / f"{job_id}.jsonl")
        for accuracy in (0.4, 0.6, 0.8):  # same fingerprint: two supersessions
            store.append(
                {
                    "task_id": "t/c2670",
                    "fingerprint": "hand-f1",
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
        payload = client.warehouse_query()
        assert payload["count"] == 3
        assert payload["records"][-1]["gnn_accuracy"] == 0.8
        expected = list(store.latest().values())
        assert payload["records"] == expected
        assert render_report(payload["records"]) == render_report(expected)
        stats = client.warehouse_stats()
        assert stats["superseded"] == 2
        assert stats["sources"][job_id]["lines"] == 5
        assert not (service.queue.state_dir / "warehouse").exists()


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

    def test_stats_are_admin_only(self, clients):
        with pytest.raises(ServiceError) as excinfo:
            clients["alice"].warehouse_stats()
        assert excinfo.value.status == 403
        assert "records" in clients["ops"].warehouse_stats()

    def test_compaction_route_is_gone(self, clients):
        with pytest.raises(ServiceError) as excinfo:
            clients["ops"]._request("POST", "/v1/warehouse/compact")
        assert excinfo.value.status == 404


class TestJobStores:
    """The service's warehouse is its jobs' stores, read in place: a
    running job's finished tasks and a re-enqueued job's new records show
    up in the next query, with nothing to refresh."""

    @pytest.fixture
    def service(self, tmp_path):
        from repro.service import CampaignService

        # Never started: the test plays the worker.
        return CampaignService(tmp_path / "state", port=0, cache_dir=tmp_path / "c")

    @staticmethod
    def _append(job, n):
        ResultStore(job.store_path).append(
            {"task_id": f"{job.job_id}/{n}", "fingerprint": f"{job.spec.name}-{n}"}
        )

    @staticmethod
    def _fingerprints(service, owner=None):
        from repro.service.api import JobStores

        stores = JobStores(service.queue, service.warehouse.memo, owner)
        return [record["fingerprint"] for record in stores.iter_records()]

    def test_running_and_requeued_jobs_are_read_in_place(self, service):
        queue = service.queue
        done, _ = queue.submit(summary_spec("done"))
        queue.claim(timeout=0)
        self._append(done, 0)
        queue.finish(done, "done")
        live, _ = queue.submit(summary_spec("live"))
        queue.claim(timeout=0)
        self._append(live, 0)
        assert self._fingerprints(service) == ["done-0", "live-0"]
        self._append(live, 1)  # the running job finishes another task
        assert self._fingerprints(service) == ["done-0", "live-0", "live-1"]

        queue.finish(live, "failed", error="boom")
        queue.submit(summary_spec("live"))  # a failed job re-runs
        self._append(live, 2)
        assert self._fingerprints(service) == ["done-0", "live-0", "live-1", "live-2"]
        assert len(service.warehouse) == 4

    def test_owner_view_replays_only_owned_jobs(self, service):
        queue = service.queue
        mine, _ = queue.submit(summary_spec("mine"), owner="alice")
        theirs, _ = queue.submit(summary_spec("theirs"), owner="bob")
        shared, _ = queue.submit(summary_spec("shared"), owner="bob")
        queue.submit(summary_spec("shared"), owner="alice")
        for job in (mine, theirs, shared):
            self._append(job, 0)
        assert self._fingerprints(service, "alice") == ["mine-0", "shared-0"]
        assert self._fingerprints(service, "bob") == ["theirs-0", "shared-0"]
        assert self._fingerprints(service, "carol") == []

    def test_post_finish_hook_counts_new_records_once(self, service):
        queue = service.queue
        job, _ = queue.submit(summary_spec("counted"))
        queue.claim(timeout=0)
        self._append(job, 0)
        self._append(job, 1)
        queue.finish(job, "failed", error="boom")
        assert service.ingest_job_store(job.job_id) == 2
        assert service.ingest_job_store(job.job_id) == 0
        queue.submit(summary_spec("counted"))
        self._append(job, 2)
        assert service.ingest_job_store(job.job_id) == 1
        assert service.metrics.value("repro_warehouse_ingested_records_total") == 3

    def test_queries_racing_appends_see_whole_records(self, service):
        """Queries on several threads, racing a writer, each see a prefix
        of the appends, and the memo never serves a store that grew."""
        import sys
        import threading

        queue = service.queue
        job, _ = queue.submit(summary_spec("busy"))
        queue.claim(timeout=0)
        expected = [f"busy-{n}" for n in range(200)]
        errors = []
        written = threading.Event()

        def writer():
            for n in range(200):
                self._append(job, n)
            written.set()

        def reader():
            try:
                while not written.is_set():
                    seen = self._fingerprints(service)
                    assert seen == expected[: len(seen)]
            except AssertionError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(4)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert self._fingerprints(service) == expected
