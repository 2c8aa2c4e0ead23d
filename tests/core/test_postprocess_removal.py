"""Unit tests for post-processing rectification and protection removal.

These tests feed *deliberately corrupted* predictions (ground truth plus
injected errors) through the post-processing algorithms and check that the
rectified labels allow a clean removal — the same role the algorithms play in
the paper when the GNN misclassifies a handful of nodes.
"""

import numpy as np
import pytest

from repro.core import (
    ANTISAT_CLASSES,
    SFLL_CLASSES,
    LockedInstance,
    RemovalError,
    build_dataset,
    postprocess_antisat,
    postprocess_predictions,
    postprocess_sfll,
    remove_protection_logic,
)
from repro.core.attack import _attack_instance, _class_names_of
from repro.locking import (
    ANTISAT,
    CYCLE,
    DESIGN,
    PERTURB,
    RESTORE,
    AntiSatLocking,
    CyclicLocking,
    RandomXorLocking,
    SarLockLocking,
    SfllHdLocking,
    TTLockLocking,
)
from repro.sat import check_equivalence


def _truth(result):
    return dict(result.labels)


def _assert_recoverable(result, labels):
    recovered = remove_protection_logic(result.locked, labels)
    assert check_equivalence(recovered, result.original).equivalent
    assert not recovered.key_inputs


class TestAntiSatPostprocessing:
    def test_ground_truth_passes_through(self, antisat_locked):
        rectified = postprocess_antisat(antisat_locked.locked, _truth(antisat_locked))
        assert rectified == _truth(antisat_locked)
        _assert_recoverable(antisat_locked, rectified)

    def test_false_positive_design_node_dropped(self, antisat_locked):
        predictions = _truth(antisat_locked)
        victim = next(g for g, l in predictions.items() if l == DESIGN)
        predictions[victim] = ANTISAT
        rectified = postprocess_antisat(antisat_locked.locked, predictions)
        assert rectified[victim] in (DESIGN, ANTISAT)
        _assert_recoverable(antisat_locked, rectified)

    def test_missed_interior_node_recovered(self, antisat_locked):
        truth = _truth(antisat_locked)
        predictions = dict(truth)
        interior = next(
            g for g, l in truth.items() if l == ANTISAT and g != antisat_locked.target_net
        )
        predictions[interior] = DESIGN
        rectified = postprocess_antisat(antisat_locked.locked, predictions)
        _assert_recoverable(antisat_locked, rectified)

    def test_missed_integration_xor_recovered(self, antisat_locked):
        predictions = _truth(antisat_locked)
        predictions[antisat_locked.target_net] = DESIGN
        rectified = postprocess_antisat(antisat_locked.locked, predictions)
        assert rectified[antisat_locked.target_net] == ANTISAT
        _assert_recoverable(antisat_locked, rectified)

    def test_dispatcher_selects_antisat(self, antisat_locked):
        rectified = postprocess_predictions(
            antisat_locked.locked, _truth(antisat_locked), ANTISAT_CLASSES
        )
        _assert_recoverable(antisat_locked, rectified)


class TestSfllPostprocessing:
    @pytest.fixture(params=["ttlock", "sfll_hd2"])
    def locked(self, request, ttlock_locked, sfll_hd2_locked):
        return ttlock_locked if request.param == "ttlock" else sfll_hd2_locked

    def test_ground_truth_passes_through(self, locked):
        rectified = postprocess_sfll(locked.locked, _truth(locked))
        assert rectified == _truth(locked)
        _assert_recoverable(locked, rectified)

    def test_perturb_restore_confusion_rectified(self, locked):
        truth = _truth(locked)
        predictions = dict(truth)
        # Swap a handful of perturb predictions to restore and vice versa.
        perturb = [g for g, l in truth.items() if l == PERTURB][:3]
        restore = [g for g, l in truth.items() if l == RESTORE][:3]
        for g in perturb:
            predictions[g] = RESTORE
        for g in restore:
            predictions[g] = PERTURB
        rectified = postprocess_sfll(locked.locked, predictions)
        assert rectified == truth
        _assert_recoverable(locked, rectified)

    def test_design_false_positives_dropped(self, locked):
        truth = _truth(locked)
        predictions = dict(truth)
        victims = [g for g, l in truth.items() if l == DESIGN][:5]
        for i, victim in enumerate(victims):
            predictions[victim] = PERTURB if i % 2 == 0 else RESTORE
        rectified = postprocess_sfll(locked.locked, predictions)
        _assert_recoverable(locked, rectified)

    def test_missed_stripping_and_restoring_xor_recovered(self, locked):
        truth = _truth(locked)
        predictions = dict(truth)
        restoring_xor = locked.target_net
        stripping_xor = next(
            net
            for net in locked.locked.gate(restoring_xor).inputs
            if truth.get(net) == PERTURB
        )
        predictions[restoring_xor] = DESIGN
        predictions[stripping_xor] = DESIGN
        rectified = postprocess_sfll(locked.locked, predictions)
        assert rectified[restoring_xor] == RESTORE
        assert rectified[stripping_xor] == PERTURB
        _assert_recoverable(locked, rectified)

    def test_missed_interior_perturb_nodes_recovered(self, locked):
        truth = _truth(locked)
        predictions = dict(truth)
        interior = [g for g, l in truth.items() if l == PERTURB][:4]
        for g in interior:
            predictions[g] = DESIGN
        rectified = postprocess_sfll(locked.locked, predictions)
        _assert_recoverable(locked, rectified)

    def test_dispatcher_selects_sfll(self, locked):
        rectified = postprocess_predictions(
            locked.locked, _truth(locked), SFLL_CLASSES
        )
        _assert_recoverable(locked, rectified)


class TestDispatchByFamily:
    """The rectifier follows the locking family, not the predicted labels."""

    @pytest.mark.parametrize(
        "scheme", [CyclicLocking, SarLockLocking, RandomXorLocking, TTLockLocking]
    )
    def test_all_design_prediction_stays_in_the_family(
        self, scheme, small_random_circuit
    ):
        # An all-DN prediction used to reach the Anti-SAT rectifier, whose
        # AN labels are outside these families' class maps (KeyError: 'AN').
        result = scheme(8).lock(small_random_circuit, rng=np.random.default_rng(0))
        dataset = build_dataset(
            [LockedInstance("small_rand", "test", result, key_size=8)]
        )
        predictions = np.full(dataset.labels.shape, dataset.class_map[DESIGN])
        outcome = _attack_instance(
            dataset,
            _class_names_of(dataset),
            0,
            predictions,
            verify_removal=True,
            apply_postprocessing=True,
        )
        assert outcome.post_classes is not None
        assert set(outcome.post_classes.tolist()) <= set(dataset.class_map.values())
        assert not outcome.removal_success

    @pytest.mark.parametrize(
        "scheme, classes",
        [
            (AntiSatLocking(8), ANTISAT_CLASSES),
            (SfllHdLocking(8, h=2), SFLL_CLASSES),
        ],
        ids=["antisat", "sfll"],
    )
    def test_rectifier_labels_stay_in_the_class_map(
        self, scheme, classes, small_random_circuit
    ):
        result = scheme.lock(small_random_circuit, rng=np.random.default_rng(0))
        predictions = {gate: DESIGN for gate in result.labels}
        rectified = postprocess_predictions(result.locked, predictions, classes)
        assert set(rectified) == set(predictions)
        assert set(rectified.values()) <= set(classes)

    def test_class_map_is_required(self, antisat_locked):
        with pytest.raises(TypeError):
            postprocess_predictions(antisat_locked.locked, _truth(antisat_locked))

    def test_family_without_rectifier_passes_predictions_through(
        self, small_random_circuit
    ):
        result = CyclicLocking(8).lock(
            small_random_circuit, rng=np.random.default_rng(0)
        )
        predictions = {gate: DESIGN for gate in result.labels}
        rectified = postprocess_predictions(
            result.locked, predictions, {DESIGN: 0, CYCLE: 1}
        )
        assert rectified == predictions


class TestRemoval:
    def test_ground_truth_removal_recovers_original(
        self, antisat_locked, ttlock_locked, sfll_hd2_locked
    ):
        for result in (antisat_locked, ttlock_locked, sfll_hd2_locked):
            recovered = remove_protection_logic(result.locked, result.labels)
            assert check_equivalence(recovered, result.original).equivalent

    def test_key_inputs_removed(self, ttlock_locked):
        recovered = remove_protection_logic(ttlock_locked.locked, ttlock_locked.labels)
        assert recovered.key_inputs == ()
        assert set(recovered.outputs) == set(ttlock_locked.original.outputs)

    def test_unresolvable_reference_raises_in_strict_mode(self, ttlock_locked):
        labels = dict(ttlock_locked.labels)
        # Pretend a random restore-unit AND gate is design logic while its
        # whole cone is removed: its input cannot be resolved.
        restore_root = next(
            net
            for net in ttlock_locked.locked.gate(ttlock_locked.target_net).inputs
            if labels.get(net) == RESTORE
        )
        labels[restore_root] = DESIGN
        with pytest.raises(RemovalError):
            remove_protection_logic(ttlock_locked.locked, labels)

    def test_non_strict_mode_returns_damaged_netlist(self, ttlock_locked):
        labels = dict(ttlock_locked.labels)
        restore_root = next(
            net
            for net in ttlock_locked.locked.gate(ttlock_locked.target_net).inputs
            if labels.get(net) == RESTORE
        )
        labels[restore_root] = DESIGN
        recovered = remove_protection_logic(ttlock_locked.locked, labels, strict=False)
        assert recovered is not None

    def test_all_design_labels_on_unlocked_circuit_is_noop(self, ttlock_locked):
        original = ttlock_locked.original
        labels = {g: DESIGN for g in original.gate_names()}
        recovered = remove_protection_logic(original, labels)
        assert len(recovered) == len(original)
        assert check_equivalence(recovered, original).equivalent

    def test_all_design_labels_on_locked_circuit_raises(self, ttlock_locked):
        # Keeping every gate while dropping the key inputs leaves the restore
        # comparators dangling, which strict removal must report.
        labels = {g: DESIGN for g in ttlock_locked.locked.gate_names()}
        with pytest.raises(RemovalError):
            remove_protection_logic(ttlock_locked.locked, labels)
