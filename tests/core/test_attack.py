"""Integration-level tests of the end-to-end GNNUnlock attack."""

import numpy as np
import pytest

from repro.core import (
    AttackConfig,
    GnnUnlockAttack,
    build_dataset,
    generate_instances,
)


def _quick_gnn(config: AttackConfig) -> AttackConfig:
    return config.with_gnn(hidden_dim=24, epochs=50, root_nodes=400, eval_every=5)


@pytest.fixture(scope="module")
def antisat_attack():
    config = _quick_gnn(AttackConfig(locks_per_setting=1, seed=3))
    instances = generate_instances(
        "antisat", ["c2670", "c3540", "c5315", "c7552"], key_sizes=(8, 16), config=config
    )
    return GnnUnlockAttack(build_dataset(instances), config=config)


@pytest.fixture(scope="module")
def ttlock_attack():
    config = _quick_gnn(AttackConfig(locks_per_setting=1, seed=7))
    instances = generate_instances(
        "ttlock", ["c2670", "c3540", "c5315", "c7552"], key_sizes=(8, 16), config=config
    )
    return GnnUnlockAttack(build_dataset(instances), config=config)


class TestAntiSatAttack:
    def test_attack_breaks_target(self, antisat_attack):
        outcome = antisat_attack.attack("c7552", validation_benchmark="c5315")
        assert outcome.gnn_accuracy > 0.95
        assert outcome.post_accuracy == pytest.approx(1.0)
        assert outcome.removal_success_rate == pytest.approx(1.0)
        assert outcome.scheme == "Anti-SAT"
        assert outcome.train_nodes > 0 and outcome.test_nodes > 0
        assert len(outcome.instances) == 2  # K = 8 and K = 16

    def test_postprocessing_never_hurts(self, antisat_attack):
        outcome = antisat_attack.attack("c3540", validation_benchmark="c5315")
        assert outcome.post_accuracy >= outcome.gnn_accuracy

    def test_ablation_without_postprocessing(self, antisat_attack):
        outcome = antisat_attack.attack(
            "c3540", validation_benchmark="c5315", apply_postprocessing=False
        )
        assert outcome.post_accuracy == pytest.approx(outcome.gnn_accuracy)

    def test_attack_without_removal_verification(self, antisat_attack):
        outcome = antisat_attack.attack(
            "c2670", validation_benchmark="c5315", verify_removal=False
        )
        assert all(not inst.removal_success for inst in outcome.instances)
        assert all(inst.recovered is None for inst in outcome.instances)


class TestTtlockAttack:
    def test_attack_breaks_target(self, ttlock_attack):
        outcome = ttlock_attack.attack("c7552", validation_benchmark="c5315")
        assert outcome.gnn_accuracy > 0.85
        assert outcome.post_accuracy == pytest.approx(1.0)
        assert outcome.removal_success_rate == pytest.approx(1.0)
        # The restore predictor should be near-perfect (paper observation).
        assert outcome.post_report.per_class["RN"].recall == pytest.approx(1.0)

    def test_recovered_netlists_have_no_key_inputs(self, ttlock_attack):
        outcome = ttlock_attack.attack("c2670", validation_benchmark="c5315")
        for inst in outcome.instances:
            assert inst.recovered is not None
            assert inst.recovered.key_inputs == ()

    def test_report_fields(self, ttlock_attack):
        outcome = ttlock_attack.attack("c3540", validation_benchmark="c5315")
        assert set(outcome.gnn_report.class_names) == {"DN", "RN", "PN"}
        assert outcome.attack_time_s > 0
        assert outcome.history.epochs_run > 0


class TestReproducibility:
    def test_repeated_attack_reports_the_same_outcome(self, antisat_attack):
        # One serial pipeline on one identity-seeded RNG stream: attacking
        # the same target twice trains the same model and removes the same
        # gates.
        from repro.runner.executor import outcome_record

        records = []
        for _ in range(2):
            outcome = antisat_attack.attack("c2670", validation_benchmark="c5315")
            record = outcome_record(outcome)
            for volatile in ("train_time_s", "attack_time_s"):
                record.pop(volatile)
            records.append(record)
        assert records[0] == records[1]
