"""Shared fixtures for the campaign-service tests.

Service tests favour ``dataset-summary`` campaigns (no GNN training, so a
job completes in about a second) and bind the HTTP server to an ephemeral
port; nothing here touches the network beyond loopback.  Spec factories
live in :mod:`service_helpers` so test modules can import them directly.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def service_factory(tmp_path):
    """Start :class:`CampaignService` instances that stop at test teardown."""
    from repro.service import CampaignService

    started = []

    def factory(subdir: str = "state", **kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("task_workers", 1)
        kwargs.setdefault("cache_dir", tmp_path / "cache")
        service = CampaignService(tmp_path / subdir, **kwargs)
        service.start()
        started.append(service)
        return service

    yield factory
    for service in started:
        service.stop()
