"""Unit tests for the attack-wide configuration object."""

import pytest

from repro.core import AttackConfig
from repro.gnn import GnnConfig


class TestAttackConfig:
    def test_defaults_follow_paper_key_sweeps(self):
        config = AttackConfig()
        assert config.iscas_key_sizes == (8, 16, 32, 64)
        assert config.itc_key_sizes == (32, 64, 128)
        assert config.technology == "BENCH8"

    def test_with_gnn_overrides_only_gnn_fields(self):
        config = AttackConfig(seed=5).with_gnn(hidden_dim=128, epochs=10)
        assert config.gnn.hidden_dim == 128
        assert config.gnn.epochs == 10
        assert config.seed == 5
        assert AttackConfig().gnn.hidden_dim == 64  # original untouched

    def test_scaled_down_profile_is_smaller(self):
        config = AttackConfig()
        small = config.scaled_down()
        assert small.locks_per_setting <= config.locks_per_setting
        assert small.gnn.hidden_dim < config.gnn.hidden_dim
        assert small.iscas_key_sizes == (8,)

    def test_paper_scale_matches_table2(self):
        paper = AttackConfig().paper_scale()
        assert paper.gnn.hidden_dim == 512
        assert paper.gnn.epochs == 2000
        assert paper.gnn.root_nodes == 3000
        assert paper.locks_per_setting == 3

    def test_library_lookup(self):
        from repro.netlist import BENCH8, GEN65
        from repro.synth import SynthesisOptions

        assert SynthesisOptions(technology="BENCH8").library() is BENCH8
        assert SynthesisOptions(technology="GEN65").library() is GEN65


class TestGnnConfigDescribe:
    def test_describe_reports_layer_shapes(self):
        config = GnnConfig(n_features=18, n_classes=3, hidden_dim=256)
        described = config.describe()
        assert described["Input Layer"] == "[18, 256]"
        assert described["Hidden Layer 2"] == "[512, 256]"
        assert described["Output Layer"] == "[256, 3]"
        assert described["Optimizer"] == "Adam"
        assert described["Sampler"] == "Random Walk"


class TestBenchmarkProfiles:
    def test_scaled_dimensions_respect_caps(self):
        from repro.benchgen import ALL_PROFILES
        from repro.benchgen.profiles import MAX_SCALED_GATES, MAX_SCALED_INPUTS

        for profile in ALL_PROFILES.values():
            n_inputs, n_outputs, n_gates = profile.scaled()
            assert n_gates <= MAX_SCALED_GATES
            assert n_inputs <= min(profile.original_inputs, MAX_SCALED_INPUTS)
            assert n_outputs >= 1

    def test_scale_factor_monotonic(self):
        from repro.benchgen import benchmark_profile

        profile = benchmark_profile("b14_C")
        assert profile.scaled(0.02)[2] <= profile.scaled(0.08)[2]


class TestDeriveSeed:
    """Identity-derived seeds: stable per identity, distinct across them."""

    BASE = AttackConfig(seed=11).derive_seed("c2670", "antisat", 8)

    def test_repeatable_and_64_bit(self):
        seeds = {
            AttackConfig(seed=11).derive_seed("c2670", "antisat", 8)
            for _ in range(3)
        }
        assert seeds == {self.BASE}
        assert 0 <= self.BASE < 2**64

    @pytest.mark.parametrize(
        "config, parts",
        [
            (AttackConfig(seed=12), ("c2670", "antisat", 8)),
            (AttackConfig(seed=11), ("c3540", "antisat", 8)),
            (AttackConfig(seed=11), ("antisat", "c2670", 8)),
            (AttackConfig(seed=11), ("c2670", "antisat", 16)),
            (AttackConfig(seed=11), ("c2670", "antisat", 8, 0)),
        ],
        ids=["base-seed", "part-value", "part-order", "key-size", "extra-part"],
    )
    def test_any_identity_change_moves_the_seed(self, config, parts):
        assert config.derive_seed(*parts) != self.BASE

    def test_only_the_base_seed_of_the_config_matters(self):
        tweaked = AttackConfig(seed=11).with_gnn(hidden_dim=8, epochs=3)
        assert tweaked.derive_seed("c2670", "antisat", 8) == self.BASE
