"""Every task runs one serial pipeline on one RNG stream.

There is no intra-task worker budget: no entry point takes a pool, no
record, fingerprint or wire payload carries a worker share, and the
environment variables that used to select one change nothing.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

import repro
from repro.baselines import fall_attack, sat_attack, sfll_hd_unlocked_attack, sps_attack
from repro.core.attack import GnnUnlockAttack, attack_design, train_attack_model
from repro.fleet.coordinator import FleetCoordinator
from repro.gnn import RandomWalkSampler, train_node_classifier
from repro.gnn.trainer import Trainer
from repro.runner import CampaignSpec, ResultStore, run_campaign
from repro.runner.cli import main
from repro.runner.executor import execute_task
from repro.sat import check_equivalence
from repro.service import CampaignService

#: Keyword names that only the deleted pooled path understood.
_POOL_KNOBS = {"pool", "prefetch", "intra_workers"}

#: Environment variables that used to size and pick the intra-task pool.
_POOL_ENV = {"REPRO_INTRA_WORKERS": "4", "REPRO_INTRA_BACKEND": "thread"}

_VOLATILE = (
    "wall_time_s",
    "attack_time_s",
    "train_time_s",
    "queue_wait_s",
    "cache",
    "recorded_at",
)


def _scrub(record):
    return {k: v for k, v in record.items() if k not in _VOLATILE}


@pytest.mark.parametrize(
    "entry_point",
    [
        train_attack_model,
        attack_design,
        GnnUnlockAttack.attack,
        train_node_classifier,
        Trainer,
        RandomWalkSampler,
        check_equivalence,
        fall_attack,
        sat_attack,
        sfll_hd_unlocked_attack,
        sps_attack,
        execute_task,
        run_campaign,
        CampaignService,
        FleetCoordinator,
    ],
    ids=lambda fn: fn.__qualname__,
)
def test_entry_point_takes_no_worker_budget(entry_point):
    params = set(inspect.signature(entry_point).parameters)
    assert not params & _POOL_KNOBS


def test_execute_task_positional_order_is_stable():
    # Process pools ship these positionally; the order is part of the API.
    params = inspect.signature(execute_task).parameters
    positional = [
        name
        for name, p in params.items()
        if p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    ]
    assert positional == ["task", "cache_dir", "submitted_at", "obs_dir"]
    assert params["cache"].kind is inspect.Parameter.KEYWORD_ONLY


def test_parallel_package_is_gone():
    assert "parallel" not in getattr(repro, "__all__", ())
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.parallel")


@pytest.mark.parametrize("verb", ["run", "matrix", "serve"])
def test_cli_rejects_intra_workers(verb, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([verb, "--intra-workers", "2"])
    assert excinfo.value.code == 2
    assert "--intra-workers" in capsys.readouterr().err


class TestSingleStream:
    def test_fingerprints_ignore_the_old_pool_environment(
        self, tiny_campaign, monkeypatch
    ):
        tasks = tiny_campaign.expand()
        before = [(t.fingerprint(), t.model_fingerprint()) for t in tasks]
        for name, value in _POOL_ENV.items():
            monkeypatch.setenv(name, value)
        after = [(t.fingerprint(), t.model_fingerprint()) for t in tasks]
        assert after == before

    def test_identities_have_no_stream_variant(self, tiny_campaign):
        task = tiny_campaign.expand()[0]
        assert "stream" not in task.canonical()
        assert "stream" not in task.model_canonical()
        for method in (task.fingerprint, task.model_fingerprint):
            with pytest.raises(TypeError):
                method(pooled=True)

    def test_records_ignore_the_old_pool_environment(
        self, tiny_config, tmp_path, monkeypatch
    ):
        spec = CampaignSpec(
            name="one",
            schemes=("antisat",),
            benchmarks=("c2670", "c3540", "c5315"),
            targets=("c2670",),
            key_size_groups=((8,),),
            config=tiny_config,
        )
        plain = ResultStore(tmp_path / "plain.jsonl")
        run_campaign(spec.expand(), serial=True, use_cache=False, store=plain)
        for name, value in _POOL_ENV.items():
            monkeypatch.setenv(name, value)
        env = ResultStore(tmp_path / "env.jsonl")
        run_campaign(spec.expand(), serial=True, use_cache=False, store=env)
        plain_records, env_records = plain.load(), env.load()
        assert len(plain_records) == 1
        assert "intra_workers" not in plain_records[0]
        assert [_scrub(r) for r in env_records] == [
            _scrub(r) for r in plain_records
        ]
