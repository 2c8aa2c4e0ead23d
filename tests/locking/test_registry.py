"""Scheme-registry contract: every registered scheme, one conformance bar.

The parametrized suite is the acceptance gate a new registration must clear:
lock a small circuit, behave correctly under simulation with the right key,
corrupt outputs under wrong keys, label only classes the scheme declares, and
survive a pickle round-trip.  The fingerprint pins guard the registry
refactor itself — registry-backed ``generate_instances`` must keep dataset
fingerprints byte-identical to the pre-registry encoder.
"""

import pickle

import numpy as np
import pytest

from repro.benchgen import get_benchmark
from repro.locking import (
    SCHEMES,
    SchemeInfo,
    SchemeParam,
    find_scheme,
    get_scheme,
)
from repro.locking.registry import SchemeRegistry
from repro.netlist import random_patterns, simulate
from repro.runner.campaign import DatasetSpec

#: Registered scheme -> parameters used by the conformance suite.
CONFORMANCE_PARAMS = {
    "antisat": {"key_size": 8},
    "cyclic": {"key_size": 4},
    "sarlock": {"key_size": 6},
    "sfll": {"key_size": 8, "h": 2},
    "ttlock": {"key_size": 8},
    "xor": {"key_size": 5},
}


def _locked_result(name):
    params = CONFORMANCE_PARAMS[name]
    locker = SCHEMES.create(name, **params)
    return locker.lock(get_benchmark("c2670"), rng=np.random.default_rng(1234))


@pytest.fixture(scope="module")
def locked_results():
    return {name: _locked_result(name) for name in SCHEMES.names()}


class TestRegistryConformance:
    """Every registered scheme clears the same behavioural bar."""

    def test_conformance_suite_covers_every_registration(self):
        assert set(CONFORMANCE_PARAMS) == set(SCHEMES.names())
        assert len(SCHEMES) >= 6

    @pytest.mark.parametrize("name", sorted(CONFORMANCE_PARAMS))
    def test_lock_produces_keyed_circuit(self, name, locked_results):
        result = locked_results[name]
        key_size = CONFORMANCE_PARAMS[name]["key_size"]
        assert len(result.key) == key_size
        assert len(result.locked.key_inputs) == key_size
        assert set(result.locked.outputs) == set(result.original.outputs)

    @pytest.mark.parametrize("name", sorted(CONFORMANCE_PARAMS))
    def test_correct_key_restores_function(self, name, locked_results):
        result = locked_results[name]
        rng = np.random.default_rng(7)
        patterns = random_patterns(len(result.original.inputs), 64, rng)
        assign = dict(zip(result.original.inputs, patterns.T))
        reference = simulate(result.original, assign)
        keyed = dict(assign)
        keyed.update(result.key)
        unlocked = simulate(result.locked, keyed)
        for po in result.original.outputs:
            assert np.array_equal(unlocked[po], reference[po]), (name, po)

    @pytest.mark.parametrize("name", sorted(CONFORMANCE_PARAMS))
    def test_wrong_keys_corrupt_outputs(self, name, locked_results):
        """Each single-bit key flip must change the function somewhere.

        Simulation over many random patterns misses point corruptions
        (SARLock corrupts exactly one input pattern per wrong key), so the
        check is SAT-based equivalence, the same oracle the removal step
        trusts.
        """
        from repro.sat.equivalence import check_equivalence

        result = locked_results[name]
        correct = dict(result.key)
        key_names = list(result.locked.key_inputs)
        for flip in key_names[: min(4, len(key_names))]:
            wrong = dict(correct)
            wrong[flip] = not wrong[flip]
            outcome = check_equivalence(
                result.original, result.locked, key_assignment=wrong
            )
            assert not outcome.equivalent, (name, flip)

    @pytest.mark.parametrize("name", sorted(CONFORMANCE_PARAMS))
    def test_labels_within_declared_class_map(self, name, locked_results):
        result = locked_results[name]
        info = get_scheme(name)
        assert set(result.labels.values()) <= set(info.class_map)
        # The protection class actually appears: a lock that labels nothing
        # as protection logic would train a one-class GNN.
        assert set(result.labels.values()) - {"DN"}
        # And the result's display name resolves back to the same scheme.
        assert SCHEMES.get(result.scheme).class_map == info.class_map

    @pytest.mark.parametrize("name", sorted(CONFORMANCE_PARAMS))
    def test_pickle_round_trip(self, name, locked_results):
        result = locked_results[name]
        clone = pickle.loads(pickle.dumps(result))
        assert clone.scheme == result.scheme
        assert clone.key == result.key
        assert clone.labels == result.labels
        assert sorted(clone.locked.gate_names()) == sorted(result.locked.gate_names())

    @pytest.mark.parametrize("name", sorted(CONFORMANCE_PARAMS))
    def test_display_name_matches_result_scheme(self, name, locked_results):
        """LockingResult.scheme is the registry display name (or a decorated
        variant like ``SFLL-HD2``), so labels and reports resolve back."""
        info = get_scheme(name)
        assert find_scheme(locked_results[name].scheme) is info


class TestRegistryIndex:
    def test_aliases_and_case_normalisation(self):
        assert get_scheme("Anti-SAT").name == "antisat"
        assert get_scheme("SFLL_HD").name == "sfll"
        assert get_scheme("sfllhd").name == "sfll"
        assert get_scheme("XorLock").name == "xor"
        assert find_scheme("nope") is None

    def test_unknown_scheme_lists_registrations(self):
        with pytest.raises(ValueError, match="unknown locking scheme"):
            get_scheme("mystery")

    def test_param_validation(self):
        with pytest.raises(ValueError, match="unknown"):
            SCHEMES.create("xor", key_size=4, h=1)
        with pytest.raises(ValueError, match="requires parameter"):
            SCHEMES.create("antisat", )
        with pytest.raises(ValueError, match=">= 4"):
            SCHEMES.create("antisat", key_size=2)
        with pytest.raises(ValueError, match="even"):
            SCHEMES.create("antisat", key_size=7)
        with pytest.raises(ValueError, match="h must be in"):
            SCHEMES.create("sfll", key_size=8, h=9)
        with pytest.raises(ValueError, match="must be an integer"):
            SCHEMES.create("xor", key_size=True)

    def test_duplicate_registration_rejected(self):
        registry = SchemeRegistry()
        info = SchemeInfo(
            name="demo",
            display_name="Demo",
            factory=lambda **kw: None,
            params=(SchemeParam("key_size", minimum=1),),
            class_map={"DN": 0},
            aliases=("demolock",),
        )
        registry.register(info)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(info)
        registry.unregister("demo")
        assert "demo" not in registry

    def test_third_party_registration_round_trip(self):
        """A new scheme is one register_scheme call away from the grid."""
        from repro.locking.xor_lock import RandomXorLocking

        SCHEMES.register(
            SchemeInfo(
                name="demoxor",
                display_name="DemoXOR",
                factory=lambda key_size: RandomXorLocking(key_size),
                params=(SchemeParam("key_size", minimum=1),),
                class_map={"DN": 0, "KG": 1},
            )
        )
        try:
            locker = SCHEMES.create("demoxor", key_size=3)
            result = locker.lock(
                get_benchmark("c2670"), rng=np.random.default_rng(5)
            )
            assert len(result.key) == 3
        finally:
            SCHEMES.unregister("demoxor")


class TestFingerprintPins:
    """Registry-backed generation keeps dataset fingerprints byte-identical.

    These hashes were computed on the pre-registry encoder; if one moves,
    every cached dataset and stored campaign silently invalidates.
    """

    PINNED = {
        ("antisat", None, "BENCH8"): "d67ea194a492e5932b918be2db4a40ea"
                                     "b2044fbbe22b46631a28c8fea3ad88ba",
        ("ttlock", None, "GEN65"): "a2b3e05e318934a763192a4c9c113cc8"
                                   "710e1431513af33b594e417b1463b020",
        ("sfll", 2, "GEN65"): "b7e2435dc98d5c080380304cbe89ba66"
                              "9763e68856965d272b2825a6db244817",
        ("xor", None, "BENCH8"): "442d94ecd2cb721e7246d182dc736176"
                                 "8ed884cef5e88b604a48e5ac7f2f0728",
    }

    @pytest.mark.parametrize("scheme,h,technology", sorted(
        PINNED, key=lambda entry: entry[0]
    ))
    def test_dataset_fingerprint_pinned(self, scheme, h, technology):
        spec = DatasetSpec(
            scheme=scheme,
            h=h,
            technology=technology,
            suite="ISCAS-85",
            benchmarks=("c2670", "c3540"),
            key_sizes=(8,),
            locks_per_setting=1,
            seed=11,
        )
        assert spec.fingerprint() == self.PINNED[(scheme, h, technology)]
