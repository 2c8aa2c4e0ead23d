"""Bearer-token auth, roles and job ownership over real loopback HTTP."""

import json
import os
import time

import pytest

from service_helpers import gnn_spec, summary_spec

from repro.runner.cli import main
from repro.service import (
    AuthError,
    ServiceClient,
    TokenInfo,
    TokenRegistry,
)
from repro.service.auth import parse_tokens


def _write_tokens(path, tokens, *, bump_past=None):
    path.write_text(json.dumps({"tokens": tokens}), encoding="utf-8")
    if bump_past is not None:
        # mtime granularity can swallow a rewrite within the same tick; move
        # the clock forward explicitly so the registry must reload.
        stamp = max(time.time(), bump_past + 1.0)
        os.utime(path, (stamp, stamp))
    return path


BASE_TOKENS = {
    "alice-secret": {"name": "alice", "role": "submit"},
    "bob-secret": {"name": "bob", "role": "submit"},
    "ops-secret": {"name": "ops", "role": "admin"},
}


@pytest.fixture
def auth_service(service_factory, tmp_path):
    tokens_path = _write_tokens(tmp_path / "tokens.json", dict(BASE_TOKENS))
    service = service_factory(tokens_file=tokens_path)
    return service, tokens_path


class TestAuthentication:
    def test_healthz_is_open_and_reports_auth(self, auth_service):
        service, _ = auth_service
        payload = ServiceClient(service.url).health()
        assert payload["status"] == "ok"
        assert payload["auth"] is True

    def test_missing_token_is_401(self, auth_service):
        service, _ = auth_service
        with pytest.raises(AuthError) as excinfo:
            ServiceClient(service.url).jobs()
        assert excinfo.value.status == 401
        assert excinfo.value.code == "unauthorized"

    def test_garbage_token_is_401(self, auth_service):
        service, _ = auth_service
        client = ServiceClient(service.url, token="never-issued")
        with pytest.raises(AuthError) as excinfo:
            client.submit(summary_spec())
        assert excinfo.value.status == 401

    def test_valid_token_submits(self, auth_service):
        service, _ = auth_service
        client = ServiceClient(service.url, token="alice-secret")
        response = client.submit(summary_spec())
        assert response["created"] is True
        assert response["job"]["owners"] == ["alice"]
        client.wait(response["job"]["job_id"], timeout=120)

    def test_revoked_token_is_401_without_restart(self, auth_service):
        service, tokens_path = auth_service
        client = ServiceClient(service.url, token="alice-secret")
        assert client.jobs() == []
        revoked = {k: v for k, v in BASE_TOKENS.items() if k != "alice-secret"}
        _write_tokens(tokens_path, revoked, bump_past=tokens_path.stat().st_mtime)
        with pytest.raises(AuthError) as excinfo:
            client.jobs()
        assert excinfo.value.status == 401
        # The other tokens keep working.
        assert ServiceClient(service.url, token="bob-secret").jobs() == []

    def test_broken_tokens_file_keeps_last_good_set(self, auth_service):
        """A typo while editing the tokens file must not lock everyone out."""
        service, tokens_path = auth_service
        mtime = tokens_path.stat().st_mtime
        tokens_path.write_text("{not json", encoding="utf-8")
        stamp = max(time.time(), mtime + 1.0)
        os.utime(tokens_path, (stamp, stamp))
        assert ServiceClient(service.url, token="alice-secret").jobs() == []
        assert service.auth.last_error is not None

    def test_malformed_tokens_file_rejected_at_startup(self, tmp_path):
        from repro.service import CampaignService

        bad = tmp_path / "tokens.json"
        bad.write_text(json.dumps({"tokens": {"t": {"role": "submit"}}}))
        with pytest.raises(ValueError, match="name"):
            CampaignService(tmp_path / "state", tokens_file=bad)

    def test_parse_tokens_validates_fields(self):
        with pytest.raises(ValueError, match="role"):
            parse_tokens({"tokens": {"t": {"name": "x", "role": "root"}}})
        with pytest.raises(ValueError, match="unknown token field"):
            parse_tokens({"tokens": {"t": {"name": "x", "frobnicate": 1}}})
        with pytest.raises(ValueError, match="unknown token field.*frobnicate"):
            parse_tokens(
                {"tokens": {"t": {"name": "x", "max_queued": 2, "frobnicate": 1}}}
            )
        with pytest.raises(ValueError, match="tokens file"):
            parse_tokens(["not", "a", "mapping"])

    def test_registry_len_and_reload(self, tmp_path):
        path = _write_tokens(tmp_path / "tokens.json", dict(BASE_TOKENS))
        registry = TokenRegistry(path)
        assert len(registry) == 3
        assert registry.lookup("alice-secret").name == "alice"
        assert registry.lookup("alice-secret").role == "submit"
        assert registry.lookup("nope") is None


class TestOwnershipAndRoles:
    def test_submit_role_sees_only_own_jobs(self, auth_service):
        service, _ = auth_service
        alice = ServiceClient(service.url, token="alice-secret")
        bob = ServiceClient(service.url, token="bob-secret")
        ops = ServiceClient(service.url, token="ops-secret")
        job_a = alice.submit(summary_spec("alice-job"))["job"]
        job_b = bob.submit(summary_spec("bob-job"))["job"]
        assert {j["job_id"] for j in alice.jobs()} == {job_a["job_id"]}
        assert {j["job_id"] for j in bob.jobs()} == {job_b["job_id"]}
        assert {j["job_id"] for j in ops.jobs()} == {
            job_a["job_id"],
            job_b["job_id"],
        }

    def test_submit_role_holds_many_queued_jobs_and_sees_only_its_own(
        self, auth_service
    ):
        """No per-owner cap: a backlog of queued jobs is admitted, and the
        listing and warehouse views stay limited to the owner's jobs."""
        service, _ = auth_service
        service.worker.stop()
        alice = ServiceClient(service.url, token="alice-secret")
        bob = ServiceClient(service.url, token="bob-secret")
        alice_ids = {
            alice.submit(summary_spec(f"backlog-{i}"))["job"]["job_id"]
            for i in range(6)
        }
        bob_id = bob.submit(summary_spec("bob-backlog"))["job"]["job_id"]
        assert len(alice_ids) == 6
        listed = alice.jobs()
        assert {snap["job_id"] for snap in listed} == alice_ids
        assert all(snap["status"] == "queued" for snap in listed)
        assert {snap["job_id"] for snap in bob.jobs()} == {bob_id}
        service.worker.start()
        for job_id in alice_ids:
            assert alice.wait(job_id, timeout=120)["status"] == "done"
        assert bob.wait(bob_id, timeout=120)["status"] == "done"
        assert alice.warehouse_query()["count"] == 12  # two targets per job
        assert bob.warehouse_query()["count"] == 2

    def test_foreign_job_access_is_an_indistinguishable_404(self, auth_service):
        """Another tenant's job answers exactly like a nonexistent one —
        job ids are computable fingerprints, so a distinguishable 403 would
        let any token probe what specs other tenants run."""
        from repro.service import NotFoundError

        service, _ = auth_service
        alice = ServiceClient(service.url, token="alice-secret")
        bob = ServiceClient(service.url, token="bob-secret")
        job = alice.submit(summary_spec())["job"]
        probes = {}
        for name, call in (
            ("status", bob.status),
            ("report", bob.report),
            ("cancel", bob.cancel),
            ("stream", bob.stream),
        ):
            with pytest.raises(NotFoundError) as excinfo:
                call(job["job_id"])
            probes[name] = (excinfo.value.status, excinfo.value.message)
        with pytest.raises(NotFoundError) as excinfo:
            bob.status("0000000000000000")  # genuinely nonexistent
        missing = (excinfo.value.status, excinfo.value.message.replace(
            "0000000000000000", job["job_id"]
        ))
        assert probes["status"] == missing  # byte-identical answers

    def test_admin_can_cancel_any_job(self, auth_service):
        service, _ = auth_service
        alice = ServiceClient(service.url, token="alice-secret")
        ops = ServiceClient(service.url, token="ops-secret")
        job = alice.submit(gnn_spec("admin-cancel", epochs=80))["job"]
        ops.cancel(job["job_id"])
        final = ops.wait(job["job_id"], timeout=120)
        assert final["status"] == "cancelled"

    def test_duplicate_submission_shares_ownership(self, auth_service):
        """Bob submitting Alice's exact spec dedupes onto her job and gains
        access to it (both own the identical workload) — but neither tenant
        sees the other's name: an unredacted owners list would leak which
        specs other tenants run, the very thing the 404 masking hides."""
        service, _ = auth_service
        alice = ServiceClient(service.url, token="alice-secret")
        bob = ServiceClient(service.url, token="bob-secret")
        ops = ServiceClient(service.url, token="ops-secret")
        job = alice.submit(summary_spec())["job"]
        again = bob.submit(summary_spec())
        assert again["created"] is False
        assert again["job"]["owners"] == ["bob"]  # co-owners redacted
        assert bob.status(job["job_id"])["owners"] == ["bob"]
        assert alice.status(job["job_id"])["owners"] == ["alice"]
        assert ops.status(job["job_id"])["owners"] == ["alice", "bob"]

    def test_cli_token_flag_and_env(self, auth_service, capsys, monkeypatch):
        service, _ = auth_service
        assert main(["status", "--url", service.url, "--token", "ops-secret"]) == 0
        capsys.readouterr()
        assert main(["status", "--url", service.url]) == 2
        assert "401" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_SERVICE_TOKEN", "ops-secret")
        assert main(["status", "--url", service.url]) == 0


LEGACY_LIMITS = {
    "max_queued": 1,
    "max_active": 1,
    "submit_rate": 0.25,
    "submit_burst": 1,
    "max_priority": 0,
}


class TestLegacyTokens:
    """Tokens files written for releases that enforced per-token limits."""

    def test_legacy_limit_fields_load_and_are_ignored(self):
        tokens = parse_tokens(
            {
                "tokens": {
                    "a": {"name": "alice", "role": "submit", **LEGACY_LIMITS},
                    "o": {"name": "ops", "role": "admin", "max_priority": 3},
                }
            }
        )
        assert tokens == {
            "a": TokenInfo(name="alice", role="submit"),
            "o": TokenInfo(name="ops", role="admin"),
        }

    def test_legacy_tokens_file_serves_without_limits(
        self, service_factory, tmp_path
    ):
        """The old limits (one queued job, a 0.25/s bucket of one, priority
        cap 0) no longer apply: every submission is admitted."""
        tokens = dict(BASE_TOKENS)
        tokens["alice-secret"] = {"name": "alice", "role": "submit", **LEGACY_LIMITS}
        tokens_path = _write_tokens(tmp_path / "tokens.json", tokens)
        service = service_factory(tokens_file=tokens_path)
        assert len(service.auth) == 3
        service.worker.stop()
        alice = ServiceClient(service.url, token="alice-secret")
        ids = [
            alice.submit(summary_spec(f"legacy-{i}"))["job"]["job_id"]
            for i in range(4)
        ]
        assert len(set(ids)) == 4
        service.worker.start()
        for job_id in ids:
            assert alice.wait(job_id, timeout=120)["status"] == "done"


class TestBodySizeCap:
    def test_oversized_content_length_is_413_before_buffering(
        self, service_factory
    ):
        """A huge Content-Length is refused from the header alone — the
        server must never try to buffer the advertised bytes."""
        import http.client

        service = service_factory()
        conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
        try:
            conn.putrequest("POST", "/v1/jobs")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(4 * 1024 * 1024 * 1024))
            conn.endheaders()  # no body sent: the response must not wait for one
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 413
            assert payload["error"]["code"] == "payload_too_large"
        finally:
            conn.close()
        # The listener is unharmed.
        assert ServiceClient(service.url).health()["status"] == "ok"
