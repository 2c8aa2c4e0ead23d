"""CampaignSpec grid expansion, scheme parsing, deterministic seeding and
the JSON round-trip behind the campaign service."""

import dataclasses
import json

import pytest

from repro.core import AttackConfig
from repro.runner import (
    CampaignSpec,
    DatasetSpec,
    config_from_dict,
    config_to_dict,
    parse_scheme_spec,
    profile_campaign,
    profile_config,
    profile_suites,
)


class TestSchemeSpec:
    def test_defaults_per_scheme(self):
        assert parse_scheme_spec("antisat").technology == "BENCH8"
        assert parse_scheme_spec("ttlock").technology == "GEN65"
        assert parse_scheme_spec("xor").technology == "BENCH8"

    def test_h_and_technology(self):
        spec = parse_scheme_spec("sfll:4@GEN45")
        assert (spec.scheme, spec.h, spec.technology) == ("sfll", 4, "GEN45")

    def test_aliases_normalise(self):
        assert parse_scheme_spec("SFLL-HD:2").scheme == "sfll"
        assert parse_scheme_spec("random_xor").scheme == "xor"

    def test_sfll_requires_h(self):
        with pytest.raises(ValueError, match="h value"):
            parse_scheme_spec("sfll")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown locking scheme"):
            parse_scheme_spec("bogus")


class TestGridExpansion:
    def test_cartesian_product_size(self):
        spec = CampaignSpec(
            name="grid",
            schemes=("antisat", "sfll:2"),
            suites=("ISCAS-85",),
            key_size_groups=((8,), (16,)),
            overrides=({}, {"gnn.epochs": 5}),
            config=profile_config("quick"),
        )
        tasks = spec.expand()
        # 2 schemes x 2 key groups x 2 overrides x 4 ISCAS targets
        assert len(tasks) == 32
        assert len({t.task_id for t in tasks}) == 32
        assert len({t.fingerprint() for t in tasks}) == 32

    def test_pi_constrained_targets_are_skipped(self):
        # c3540's stand-in has too few PIs for K = 64 with SFLL (paper note).
        spec = CampaignSpec(
            schemes=("sfll:2",),
            key_size_groups=((64,),),
            config=profile_config("quick"),
        )
        targets = {t.target_benchmark for t in spec.expand()}
        assert "c3540" not in targets
        assert "c2670" in targets

    def test_tasks_sharing_a_dataset_share_its_fingerprint(self, tiny_campaign):
        tasks = tiny_campaign.expand()
        assert len(tasks) == 2
        assert len({t.dataset.fingerprint() for t in tasks}) == 1
        assert len({t.fingerprint() for t in tasks}) == 2

    def test_expansion_is_deterministic(self, tiny_campaign):
        first = tiny_campaign.expand()
        second = tiny_campaign.expand()
        assert [t.fingerprint() for t in first] == [t.fingerprint() for t in second]
        assert [t.config.gnn.seed for t in first] == [t.config.gnn.seed for t in second]

    def test_gnn_seeds_differ_per_target(self, tiny_campaign):
        seeds = [t.config.gnn.seed for t in tiny_campaign.expand()]
        assert len(set(seeds)) == len(seeds)

    def test_unknown_target_rejected(self):
        spec = CampaignSpec(targets=("never-a-benchmark",))
        with pytest.raises(ValueError, match="not part of the dataset"):
            spec.expand()

    def test_override_reaches_task_config(self):
        spec = CampaignSpec(
            overrides=({"gnn.epochs": 3, "locks_per_setting": 2},),
            targets=("c2670",),
        )
        task = spec.expand()[0]
        assert task.config.gnn.epochs == 3
        assert task.dataset.locks_per_setting == 2


class TestPinnedFingerprints:
    """Task and model identities must never drift silently.

    Stores resume and caches hit by these digests, so a change here orphans
    every existing store record and cached model.  The values were computed
    with the serial pipeline and stay fixed across refactors.
    """

    PINS = {
        "gnnunlock": (
            "bab341127bf271faf52b67a999aff0e60d63c1f4fb80b5e2008eaf36fb0ba56d",
            "ceb8d798ab2c0d5d7f843b0080242148853a995bf8d11c44c71d5dd7edd0f349",
        ),
        "sat": (
            "cfdf07e19e44e6bba348dd78c6112f7acc44b956d2e1355bf5ea49e95f23d52b",
            "0a01d0231e6bdd3588dd328818f16a054496b6b6a851d709ff3df0fb4c11a09b",
        ),
        "dataset-summary": (
            "5d93fa089363c81db625cbae6009aafe6e89d82244a4143e935ff58e845128ae",
            "0a01d0231e6bdd3588dd328818f16a054496b6b6a851d709ff3df0fb4c11a09b",
        ),
    }

    def test_task_and_model_fingerprints_are_pinned(self, tiny_config):
        spec = CampaignSpec(
            name="pins",
            schemes=("antisat",),
            benchmarks=("c2670", "c3540", "c5315"),
            targets=("c2670",),
            key_size_groups=((8,),),
            attacks=tuple(self.PINS),
            config=tiny_config,
        )
        tasks = spec.expand()
        assert [t.attack for t in tasks] == list(self.PINS)
        for task in tasks:
            assert (task.fingerprint(), task.model_fingerprint()) == self.PINS[
                task.attack
            ], task.task_id

    def test_derive_seed_is_pinned(self):
        assert AttackConfig(seed=11).derive_seed("a", 1) == 10203279686820311211


class TestPostprocessingAxis:
    def test_axis_doubles_gnnunlock_tasks(self, tiny_campaign):
        import dataclasses

        spec = dataclasses.replace(tiny_campaign, postprocessing=(True, False))
        tasks = spec.expand()
        assert len(tasks) == 2 * len(tiny_campaign.expand())
        raw = [t for t in tasks if not t.apply_postprocessing]
        assert len(raw) == len(tasks) // 2
        assert all(t.task_id.endswith("/raw") for t in raw)
        assert len({t.fingerprint() for t in tasks}) == len(tasks)

    def test_variants_share_the_trained_model(self, tiny_campaign):
        """Both ablation arms must hit the same cached model."""
        import dataclasses

        spec = dataclasses.replace(tiny_campaign, postprocessing=(True, False))
        by_target = {}
        for task in spec.expand():
            by_target.setdefault(task.target_benchmark, []).append(task)
        for variants in by_target.values():
            assert len({t.model_fingerprint() for t in variants}) == 1
            assert len({t.config.gnn.seed for t in variants}) == 1

    def test_baseline_attacks_ignore_the_axis(self, tiny_config):
        spec = CampaignSpec(
            name="pp-baseline",
            schemes=("xor",),
            benchmarks=("c2670", "c3540", "c5315"),
            targets=("c2670",),
            key_size_groups=((4,),),
            attacks=("sat",),
            postprocessing=(True, False),
            config=tiny_config,
        )
        assert len(spec.expand()) == 1


class TestDatasetSpec:
    def test_generation_is_bit_identical(self):
        spec = DatasetSpec(
            scheme="antisat",
            suite="ISCAS-85",
            benchmarks=("c2670",),
            key_sizes=(8,),
            seed=9,
        )
        first = spec.generate()
        second = spec.generate()
        assert len(first) == len(second) == 1
        assert first[0].result.key == second[0].result.key
        assert first[0].result.labels == second[0].result.labels
        assert (
            first[0].result.locked.gate_names()
            == second[0].result.locked.gate_names()
        )

    def test_fingerprint_tracks_identity_fields(self):
        base = DatasetSpec(
            scheme="antisat", suite="ISCAS-85", benchmarks=("c2670",), key_sizes=(8,)
        )
        import dataclasses

        assert base.fingerprint() == dataclasses.replace(base).fingerprint()
        assert base.fingerprint() != dataclasses.replace(base, seed=12).fingerprint()
        assert (
            base.fingerprint()
            != dataclasses.replace(base, key_sizes=(16,)).fingerprint()
        )


class TestAttackConfigOverrides:
    def test_dotted_and_bare_gnn_keys(self):
        config = AttackConfig().with_overrides({"gnn.epochs": 9, "hidden_dim": 8})
        assert config.gnn.epochs == 9
        assert config.gnn.hidden_dim == 8

    def test_sequences_become_tuples(self):
        config = AttackConfig().with_overrides({"iscas_key_sizes": [8, 16]})
        assert config.iscas_key_sizes == (8, 16)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown AttackConfig override"):
            AttackConfig().with_overrides({"not_a_field": 1})

    def test_derive_seed_is_stable_and_part_sensitive(self):
        config = AttackConfig(seed=11)
        assert config.derive_seed("a", 1) == config.derive_seed("a", 1)
        assert config.derive_seed("a", 1) != config.derive_seed("a", 2)
        assert config.derive_seed("a", 1) != AttackConfig(seed=12).derive_seed("a", 1)


class TestJsonRoundTrip:
    def _rich_spec(self):
        return CampaignSpec(
            name="rich",
            schemes=("antisat", "sfll:2@GEN65"),
            suites=("ISCAS-85",),
            key_size_groups=((8,), (8, 16)),
            benchmarks=("c2670", "c3540", "c5315"),
            targets=("c2670", "c3540"),
            overrides=({}, {"gnn.epochs": 5}),
            attacks=("gnnunlock", "sat"),
            attack_params={"sat": {"max_iterations": 12}},
            postprocessing=(True, False),
            config=profile_config("quick"),
            timeout_s=120.0,
        )

    def test_roundtrip_preserves_expansion(self):
        spec = self._rich_spec()
        payload = json.loads(json.dumps(spec.to_json_dict()))
        restored = CampaignSpec.from_json_dict(payload)
        assert [t.fingerprint() for t in restored.expand()] == [
            t.fingerprint() for t in spec.expand()
        ]
        assert [t.task_id for t in restored.expand()] == [
            t.task_id for t in spec.expand()
        ]

    def test_roundtrip_preserves_campaign_fingerprint(self):
        spec = self._rich_spec()
        restored = CampaignSpec.from_json_dict(
            json.loads(json.dumps(spec.to_json_dict()))
        )
        assert restored.fingerprint() == spec.fingerprint()
        assert restored.to_json_dict() == spec.to_json_dict()

    def test_fingerprint_tracks_grid_changes(self, tiny_campaign):
        base = tiny_campaign.fingerprint()
        assert dataclasses.replace(tiny_campaign).fingerprint() == base
        changed = dataclasses.replace(tiny_campaign, targets=("c2670",))
        assert changed.fingerprint() != base
        reseeded = dataclasses.replace(
            tiny_campaign, config=tiny_campaign.config.with_overrides({"seed": 6})
        )
        assert reseeded.fingerprint() != base

    def test_defaults_omitted_fields_round_trip(self):
        spec = CampaignSpec.from_json_dict({"name": "bare"})
        assert spec.name == "bare"
        assert parse_scheme_spec(spec.schemes[0]) == parse_scheme_spec("antisat")
        assert spec.key_size_groups is None

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown CampaignSpec field"):
            CampaignSpec.from_json_dict({"name": "x", "frobnicate": 1})
        with pytest.raises(ValueError, match="unknown CampaignSpec field.*frobnicate"):
            CampaignSpec.from_json_dict({"name": "x", "priority": 1, "frobnicate": 1})

    @pytest.mark.parametrize("priority", [0, 5, -1, "urgent"])
    def test_legacy_priority_key_is_dropped(self, priority):
        """Job snapshots and clients from releases whose service scheduled by
        priority send a ``"priority"`` key: it loads and drops out, leaving
        the spec and its fingerprint as they are without it."""
        spec = self._rich_spec()
        payload = json.loads(json.dumps(spec.to_json_dict()))
        restored = CampaignSpec.from_json_dict({**payload, "priority": priority})
        assert restored.to_json_dict() == spec.to_json_dict()
        assert restored.fingerprint() == spec.fingerprint()

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            CampaignSpec.from_json_dict(["not", "a", "spec"])

    def test_malformed_field_shapes_rejected_with_clear_messages(self):
        """JSON-valid but wrongly shaped fields must raise ValueError (the
        service maps it to 400), never TypeError from deep inside."""
        with pytest.raises(ValueError, match="key_size_groups"):
            CampaignSpec.from_json_dict({"key_size_groups": 5})
        with pytest.raises(ValueError, match="key_size_groups"):
            CampaignSpec.from_json_dict({"key_size_groups": [8, 16]})
        with pytest.raises(ValueError, match="overrides"):
            CampaignSpec.from_json_dict({"overrides": {"gnn.epochs": 5}})
        with pytest.raises(ValueError, match="overrides"):
            CampaignSpec.from_json_dict({"overrides": [["gnn.epochs", 5]]})
        with pytest.raises(ValueError, match="attack_params"):
            CampaignSpec.from_json_dict({"attack_params": {"sat": 12}})
        with pytest.raises(ValueError, match="schemes.*JSON array"):
            CampaignSpec.from_json_dict({"schemes": "antisat"})

    def test_mistyped_scalars_rejected_by_validate(self):
        with pytest.raises(ValueError, match="timeout_s"):
            CampaignSpec.from_json_dict({"timeout_s": {}}).validate()
        with pytest.raises(ValueError, match="name"):
            CampaignSpec.from_json_dict({"name": 7}).validate()

    def test_config_dict_roundtrip(self):
        config = profile_config("full")
        restored = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert restored == config

    def test_config_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown AttackConfig field"):
            config_from_dict({"not_a_knob": 1})
        with pytest.raises(ValueError, match="unknown GnnConfig field"):
            config_from_dict({"gnn": {"not_a_knob": 1}})

    def test_config_mistyped_field_rejected(self):
        with pytest.raises(ValueError, match="gnn.epochs"):
            config_from_dict({"gnn": {"epochs": "many"}})
        with pytest.raises(ValueError, match="locks_per_setting"):
            config_from_dict({"locks_per_setting": "two"})


class TestValidate:
    def test_valid_spec_returns_expanded_tasks(self, tiny_campaign):
        tasks = tiny_campaign.validate()
        assert [t.fingerprint() for t in tasks] == [
            t.fingerprint() for t in tiny_campaign.expand()
        ]

    def test_unknown_benchmark_rejected(self, tiny_campaign):
        spec = dataclasses.replace(
            tiny_campaign, benchmarks=("c2670", "nosuchbench")
        )
        with pytest.raises(ValueError, match="unknown benchmark 'nosuchbench'"):
            spec.validate()

    def test_unknown_target_rejected(self, tiny_campaign):
        spec = dataclasses.replace(tiny_campaign, targets=("nosuchbench",))
        with pytest.raises(ValueError, match="unknown target"):
            spec.validate()

    def test_unknown_attack_rejected(self, tiny_campaign):
        spec = dataclasses.replace(tiny_campaign, attacks=("mystery",))
        with pytest.raises(ValueError, match="unknown attack"):
            spec.validate()

    def test_unknown_scheme_and_suite_rejected(self, tiny_campaign):
        with pytest.raises(ValueError, match="unknown locking scheme"):
            dataclasses.replace(tiny_campaign, schemes=("bogus",)).validate()
        with pytest.raises(ValueError, match="unknown benchmark suite"):
            dataclasses.replace(tiny_campaign, suites=("NOPE-1",)).validate()

    def test_mistyped_config_rejected(self, tiny_campaign):
        spec = dataclasses.replace(
            tiny_campaign, config=tiny_campaign.config.with_gnn(epochs="abc")
        )
        with pytest.raises(ValueError, match="gnn.epochs.*expected int"):
            spec.validate()

    def test_mistyped_override_rejected(self, tiny_campaign):
        spec = dataclasses.replace(
            tiny_campaign, overrides=({"gnn.hidden_dim": "wide"},)
        )
        with pytest.raises(ValueError, match="gnn.hidden_dim"):
            spec.validate()

    def test_nonpositive_key_size_rejected(self, tiny_campaign):
        spec = dataclasses.replace(tiny_campaign, key_size_groups=((0,),))
        with pytest.raises(ValueError, match="positive"):
            spec.validate()


class TestProfiles:
    def test_quick_profile_is_iscas_only(self):
        assert profile_suites("quick") == ("ISCAS-85",)
        assert profile_suites("full") == ("ISCAS-85", "ITC-99")

    def test_profile_campaign_accepts_overrides(self):
        spec = profile_campaign("quick", schemes=("ttlock",), targets=("c2670",))
        tasks = spec.expand()
        assert [t.target_benchmark for t in tasks] == ["c2670"]
        assert tasks[0].dataset.scheme == "ttlock"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            profile_config("huge")
