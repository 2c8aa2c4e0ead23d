"""The rectifiers against the per-gate versions they replaced.

``postprocess_antisat`` and ``postprocess_sfll`` read every gate's support
from one :func:`~repro.netlist.support_bitsets` pass.  The reference below
is the earlier implementation, kept verbatim apart from its names: it walks
each gate's fan-in with :func:`transitive_inputs` and :func:`fanin_cone`.
Both must return the same labels on the quick-profile Anti-SAT, TTLock and
SFLL-HD instances for the ground truth, random flips of 1/5/20/50% of the
labels, an all-design prediction and all-protection predictions.
"""

from typing import Dict, Mapping, Set, Tuple

import numpy as np
import pytest

from repro.core import postprocess_antisat, postprocess_sfll
from repro.locking import ANTISAT, DESIGN, PERTURB, RESTORE
from repro.netlist import Circuit
from repro.netlist.traversal import (
    fanin_cone,
    key_inputs_in_fanin,
    primary_inputs_in_fanin,
    transitive_inputs,
)
from repro.runner import profile_campaign

_XOR_CELLS = ("XOR", "XNOR", "XOR2", "XNOR2", "XOR3", "XNOR3")


# ---------------------------------------------------------------------------
# Reference: the per-gate rectifiers
# ---------------------------------------------------------------------------

def _ref_support_sets(circuit: Circuit, gate: str) -> Tuple[Set[str], Set[str]]:
    """(primary inputs, key inputs) in the structural support of ``gate``."""
    support = transitive_inputs(circuit, gate)
    pis = {n for n in support if circuit.is_input(n)}
    kis = {n for n in support if circuit.is_key_input(n)}
    return pis, kis


def _ref_direct_pi_anchors(
    circuit: Circuit, predictions: Mapping[str, str], label: str
) -> Set[str]:
    """Protected-input estimate: PIs read directly by ``label`` gates that
    also read a key input directly.

    The first layer of both the restore unit and the Anti-SAT block combines
    each selected design input with a key bit, so those gates anchor the
    protected-input recovery even when deeper predictions are noisy.
    """
    anchors: Set[str] = set()
    for gate, lab in predictions.items():
        if lab != label:
            continue
        inputs = circuit.gate(gate).inputs
        if not any(circuit.is_key_input(net) for net in inputs):
            continue
        anchors |= {net for net in inputs if circuit.is_input(net)}
    return anchors


# ---------------------------------------------------------------------------
# Anti-SAT
# ---------------------------------------------------------------------------

def reference_postprocess_antisat(
    circuit: Circuit, predictions: Mapping[str, str]
) -> Dict[str, str]:
    """Rectify Anti-SAT predictions (Fig. 3c)."""
    rectified: Dict[str, str] = dict(predictions)

    block_inputs = _ref_direct_pi_anchors(circuit, predictions, ANTISAT)
    if not block_inputs:
        # Fall back to the support of every predicted Anti-SAT gate.
        for gate, label in predictions.items():
            if label == ANTISAT:
                block_inputs |= primary_inputs_in_fanin(circuit, gate)

    # Rule 1: an Anti-SAT node has KIs in its fan-in cone and is controlled
    # only by the block's own inputs; other Anti-SAT predictions are dropped.
    for gate, label in predictions.items():
        if label != ANTISAT:
            continue
        pis, kis = _ref_support_sets(circuit, gate)
        if not kis:
            rectified[gate] = DESIGN
        elif pis and not pis <= block_inputs:
            rectified[gate] = DESIGN

    # Rule 2: a predicted design node whose fan-in cone gates are all
    # (predicted) Anti-SAT nodes belongs to the Anti-SAT block.  The first
    # key-XOR layer has an empty gate cone, so it qualifies whenever it reads
    # a KI and only block inputs.
    for gate, label in predictions.items():
        if label != DESIGN:
            continue
        if not key_inputs_in_fanin(circuit, gate):
            continue
        cone = fanin_cone(circuit, gate, include_start=False)
        if not all(rectified.get(g) == ANTISAT for g in cone):
            continue
        pis, _ = _ref_support_sets(circuit, gate)
        if pis <= block_inputs:
            rectified[gate] = ANTISAT

    # Rule 3: recover a misclassified integration XOR.  The gate that splices
    # the Anti-SAT output into the design is an XOR with exactly one input
    # whose entire cone is Anti-SAT logic; if it ended up labelled as a design
    # node the removal would leave a dangling reference, so reclassify it.
    for gate, label in list(rectified.items()):
        if label != DESIGN:
            continue
        if circuit.gate(gate).cell.name not in _XOR_CELLS:
            continue
        antisat_inputs = 0
        design_inputs = 0
        for net in circuit.gate(gate).inputs:
            if rectified.get(net) == ANTISAT:
                cone = fanin_cone(circuit, net, include_start=True)
                if cone and all(rectified.get(g) == ANTISAT for g in cone):
                    antisat_inputs += 1
                    continue
            design_inputs += 1
        if antisat_inputs == 1 and design_inputs <= 1:
            rectified[gate] = ANTISAT
    return rectified


# ---------------------------------------------------------------------------
# TTLock / SFLL-HD
# ---------------------------------------------------------------------------

def reference_postprocess_sfll(
    circuit: Circuit, predictions: Mapping[str, str]
) -> Dict[str, str]:
    """Rectify TTLock / SFLL-HD predictions (Fig. 3d)."""
    rectified: Dict[str, str] = dict(predictions)

    # Protected inputs X, anchored on restore-unit comparator gates: any gate
    # predicted as protection logic (restore or perturb) that reads a key
    # input directly belongs to the comparator layer, and the PIs it reads are
    # protected inputs.  Fall back to the full support of the predicted
    # restore logic if the GNN missed that whole layer.
    protected_inputs = _ref_direct_pi_anchors(
        circuit, predictions, RESTORE
    ) | _ref_direct_pi_anchors(circuit, predictions, PERTURB)
    if not protected_inputs:
        for gate, label in predictions.items():
            if label == RESTORE and key_inputs_in_fanin(circuit, gate):
                protected_inputs |= primary_inputs_in_fanin(circuit, gate)

    verified_restore: Set[str] = set()
    verified_perturb: Set[str] = set()

    def is_verified_restore(gate: str) -> bool:
        """Restore logic proper: support inside X plus at least one KI."""
        if gate in verified_restore:
            return True
        pis, kis = _ref_support_sets(circuit, gate)
        if kis and pis <= protected_inputs:
            verified_restore.add(gate)
            return True
        return False

    def is_verified_perturb(gate: str) -> bool:
        """Perturb logic proper: support inside X, no KIs."""
        if gate in verified_perturb:
            return True
        pis, kis = _ref_support_sets(circuit, gate)
        if pis and not kis and pis <= protected_inputs:
            verified_perturb.add(gate)
            return True
        return False

    def is_stripping_xor(gate: str) -> bool:
        """XOR combining exactly one design signal with verified perturb logic."""
        if circuit.gate(gate).cell.name not in _XOR_CELLS:
            return False
        design_like = 0
        perturb_like = 0
        for net in circuit.gate(gate).inputs:
            label = rectified.get(net)
            if label == PERTURB and is_verified_perturb(net):
                perturb_like += 1
            elif label in (RESTORE, ANTISAT, PERTURB):
                return False
            else:
                design_like += 1
        return perturb_like >= 1 and design_like <= 1

    def is_restoring_xor(gate: str) -> bool:
        """XOR merging the restore signal back into the stripped output."""
        if circuit.gate(gate).cell.name not in _XOR_CELLS:
            return False
        has_restore = False
        other_ok = True
        for net in circuit.gate(gate).inputs:
            label = rectified.get(net)
            if label == RESTORE and is_verified_restore(net):
                has_restore = True
            elif label == RESTORE:
                other_ok = False
        return has_restore and other_ok

    # Rule 1 (restore check): restore nodes have KIs in their fan-in cone and
    # are controlled only by X and KIs; the restoring XOR at the protected
    # output is the one exception (its support covers the design cone).
    for gate, label in predictions.items():
        if label != RESTORE:
            continue
        pis, kis = _ref_support_sets(circuit, gate)
        if kis and pis <= protected_inputs:
            verified_restore.add(gate)
            continue
        if kis and is_restoring_xor(gate):
            continue
        if not kis and ((pis and pis <= protected_inputs) or is_stripping_xor(gate)):
            rectified[gate] = PERTURB
        else:
            rectified[gate] = DESIGN

    # Rule 2 (perturb check): perturb nodes are controlled solely by protected
    # inputs; a KI in the support moves the gate to the restore class, other
    # violations to the design class, except for the output-stripping XOR and
    # the restoring XOR (the two splice gates see the design cone as well).
    for gate, label in list(rectified.items()):
        if label != PERTURB:
            continue
        pis, kis = _ref_support_sets(circuit, gate)
        if kis:
            if pis <= protected_inputs or is_restoring_xor(gate):
                rectified[gate] = RESTORE
            else:
                rectified[gate] = DESIGN
            continue
        if pis and pis <= protected_inputs:
            verified_perturb.add(gate)
            continue
        if is_stripping_xor(gate):
            continue
        rectified[gate] = DESIGN

    # Rule 3 (design check): promotions cascade along the stripping XOR ->
    # restoring XOR chain, so iterate to a fixpoint.
    changed = True
    while changed:
        changed = False
        for gate, label in list(rectified.items()):
            if label != DESIGN:
                continue
            inputs = circuit.gate(gate).inputs
            direct_labels = {rectified.get(net) for net in inputs}

            # Restoring XOR missed by the GNN.
            if (
                PERTURB in direct_labels
                and RESTORE in direct_labels
                and circuit.gate(gate).cell.name in _XOR_CELLS
            ):
                rectified[gate] = RESTORE
                changed = True
                continue

            # Interior perturb gates / stripping XOR missed by the GNN.
            if PERTURB in direct_labels:
                pis, kis = _ref_support_sets(circuit, gate)
                if kis:
                    continue
                if (pis and pis <= protected_inputs) or is_stripping_xor(gate):
                    rectified[gate] = PERTURB
                    changed = True

    # Rule 4 (perturb pruning): every true perturb gate ultimately drives
    # other perturb logic or the splice XORs, never plain design logic.  An
    # isolated perturb-labelled gate surrounded by design gates is a GNN false
    # positive (e.g. a NOR-tree in the design whose support happens to sit
    # inside X) — drop it.  Iterate so chains of false positives unwind.
    fanout = circuit.fanout_map()
    changed = True
    while changed:
        changed = False
        for gate, label in list(rectified.items()):
            if label != PERTURB:
                continue
            sinks = fanout.get(gate, ())
            if not sinks:
                rectified[gate] = DESIGN
                changed = True
                continue
            if not any(rectified.get(sink) in (PERTURB, RESTORE) for sink in sinks):
                rectified[gate] = DESIGN
                changed = True
    return rectified


# ---------------------------------------------------------------------------
# Differential test
# ---------------------------------------------------------------------------

FAMILIES = {
    "antisat": ((DESIGN, ANTISAT), postprocess_antisat, reference_postprocess_antisat),
    "ttlock": ((DESIGN, RESTORE, PERTURB), postprocess_sfll, reference_postprocess_sfll),
    "sfll:2": ((DESIGN, RESTORE, PERTURB), postprocess_sfll, reference_postprocess_sfll),
}
FLIP_RATES = (0.01, 0.05, 0.2, 0.5)


def _quick_instances(scheme):
    spec = profile_campaign("quick", schemes=(scheme,), targets=("c2670",))
    (task,) = spec.expand()
    return task.dataset.generate()


def _prediction_sets(truth, labels, rng):
    yield "truth", dict(truth)
    for rate in FLIP_RATES:
        flipped = dict(truth)
        for gate, label in truth.items():
            if rng.random() < rate:
                others = [other for other in labels if other != label]
                flipped[gate] = others[int(rng.integers(len(others)))]
        yield f"flip{rate}", flipped
    for label in labels:
        yield f"all-{label}", {gate: label for gate in truth}


@pytest.mark.parametrize("scheme", sorted(FAMILIES))
def test_rectifier_matches_per_gate_reference(scheme):
    labels, rectify, reference = FAMILIES[scheme]
    rng = np.random.default_rng(23)
    instances = _quick_instances(scheme)
    assert len(instances) == 12
    changed = 0
    for instance in instances:
        circuit = instance.result.locked
        truth = dict(instance.result.labels)
        for name, predictions in _prediction_sets(truth, labels, rng):
            expected = reference(circuit, predictions)
            assert rectify(circuit, predictions) == expected, (
                instance.benchmark, instance.key_size, name
            )
            changed += expected != predictions
    # The rectifiers really rewrite labels on these inputs.
    assert changed >= len(instances) * 4
