"""Shared fixtures for the campaign-runner tests: a tiny two-task campaign."""

from __future__ import annotations

import pytest

from repro.core import AttackConfig
from repro.runner import CampaignSpec

TINY_CONFIG = AttackConfig(locks_per_setting=1, iscas_key_sizes=(8,), seed=5).with_gnn(
    hidden_dim=16, epochs=10, root_nodes=200, eval_every=2, patience=10
)

TINY_BENCHMARKS = ("c2670", "c3540", "c5315")


@pytest.fixture
def tiny_config() -> AttackConfig:
    return TINY_CONFIG


@pytest.fixture
def tiny_campaign() -> CampaignSpec:
    """Two fast Anti-SAT tasks sharing one three-benchmark dataset."""
    return CampaignSpec(
        name="tiny",
        schemes=("antisat",),
        benchmarks=TINY_BENCHMARKS,
        targets=("c2670", "c3540"),
        key_size_groups=((8,),),
        config=TINY_CONFIG,
    )
