"""Shared fixtures for the fleet tests.

Mirrors the service suite's conventions (ephemeral ports, dataset-summary
campaigns) and reuses its spec factories by putting
``tests/service`` on ``sys.path``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "service"))


@pytest.fixture
def fleet_service_factory(tmp_path):
    """Start ``CampaignService(fleet=True)`` instances stopped at teardown."""
    from repro.service import CampaignService

    started = []

    def factory(subdir: str = "state", **kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("fleet", True)
        kwargs.setdefault("lease_ttl_s", 5.0)
        kwargs.setdefault("cache_dir", tmp_path / "cache")
        service = CampaignService(tmp_path / subdir, **kwargs)
        service.start()
        started.append(service)
        return service

    yield factory
    for service in started:
        service.stop()
