"""Shared structural analysis used by the FALL and SFLL-HD-Unlocked baselines.

Both prior attacks start the same way: trace the key inputs to locate the
restore unit, derive the protected input set, and walk back from the protected
output to the perturb (functionality-stripped) cone.  Both published tools
only accept bench-format netlists, a restriction Table I calls out; the
functions below enforce the same restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..netlist.circuit import Circuit, CircuitError
from ..netlist.gates import BENCH8
from ..netlist.traversal import fanin_cone, key_cone, primary_inputs_in_fanin
from ..sat.solver import ConflictBudgetExceeded, SatSolver
from ..sat.tseitin import CircuitEncoder

__all__ = ["SfllStructure", "trace_sfll_structure", "enumerate_activating_patterns"]

_XOR_CELLS = ("XOR", "XNOR", "XOR2", "XNOR2")


@dataclass
class SfllStructure:
    """Recovered structural decomposition of an SFLL/TTLock-locked netlist."""

    protected_inputs: Tuple[str, ...]
    restore_gates: Tuple[str, ...]
    restoring_xor: str
    stripping_xor: str
    flip_root: str
    protected_output: str
    #: Key input -> protected primary input, read off the comparator gates.
    pairing: Dict[str, str] = None  # type: ignore[assignment]


def trace_sfll_structure(circuit: Circuit) -> SfllStructure:
    """Locate the restore unit, perturb cone and splice XORs of an SFLL netlist.

    Raises :class:`~repro.netlist.circuit.CircuitError` when the netlist is not
    in bench format or the expected structure cannot be found (which is how the
    published tools fail on unexpected inputs).
    """
    if circuit.library is not BENCH8:
        raise CircuitError(
            "FALL / SFLL-HD-Unlocked only accept bench-format netlists "
            f"(got a {circuit.library.name} netlist)"
        )
    if not circuit.key_inputs:
        raise CircuitError("netlist has no key inputs")

    # Comparator layer: gates reading key inputs directly; the PIs they read
    # are the protected inputs.
    comparator_gates = [
        gate.name
        for gate in circuit
        if any(circuit.is_key_input(net) for net in gate.inputs)
    ]
    if not comparator_gates:
        raise CircuitError("no gates read the key inputs directly")
    protected_inputs: Set[str] = set()
    pairing: Dict[str, str] = {}
    for name in comparator_gates:
        inputs = circuit.gate(name).inputs
        pis = [net for net in inputs if circuit.is_input(net)]
        kis = [net for net in inputs if circuit.is_key_input(net)]
        protected_inputs |= set(pis)
        if len(pis) == 1 and len(kis) == 1:
            pairing[kis[0]] = pis[0]
    if not protected_inputs:
        raise CircuitError("could not derive the protected input set")

    restore_gates = set(key_cone(circuit))
    key_fed_nets = restore_gates | set(circuit.key_inputs)

    # The restoring XOR: an XOR whose inputs split into a key-fed restore side
    # (support inside the protected inputs plus KIs) and a key-free stripped
    # side that is itself an XOR merging the design signal with a perturb
    # signal supported only by protected inputs.
    restoring_xor: Optional[str] = None
    stripped_side: Optional[str] = None
    flip_root: Optional[str] = None
    for gate in circuit:
        if gate.cell.name not in _XOR_CELLS or len(gate.inputs) != 2:
            continue
        sides = [net in key_fed_nets for net in gate.inputs]
        if sides.count(True) != 1:
            continue
        key_fed = gate.inputs[sides.index(True)]
        key_free = gate.inputs[sides.index(False)]
        if not circuit.has_gate(key_free):
            continue
        if circuit.has_gate(key_fed):
            restore_pis = primary_inputs_in_fanin(circuit, key_fed)
            if restore_pis and not restore_pis <= protected_inputs:
                continue  # a design gate downstream of the restore logic
        strip_gate = circuit.gate(key_free)
        if strip_gate.cell.name not in _XOR_CELLS or len(strip_gate.inputs) != 2:
            continue
        candidate_flip: Optional[str] = None
        for net in strip_gate.inputs:
            if not circuit.has_gate(net):
                continue
            pis = primary_inputs_in_fanin(circuit, net)
            if pis and pis <= protected_inputs:
                candidate_flip = net
        if candidate_flip is None:
            continue
        restoring_xor = gate.name
        stripped_side = key_free
        flip_root = candidate_flip
        break
    if restoring_xor is None or stripped_side is None:
        raise CircuitError("could not locate the restoring XOR")
    if flip_root is None:
        raise CircuitError("could not locate the perturb (flip) signal")

    return SfllStructure(
        protected_inputs=tuple(sorted(protected_inputs)),
        restore_gates=tuple(sorted(restore_gates)),
        restoring_xor=restoring_xor,
        stripping_xor=stripped_side,
        flip_root=flip_root,
        protected_output=restoring_xor,
        pairing=pairing,
    )


def enumerate_activating_patterns(
    circuit: Circuit,
    flip_root: str,
    protected_inputs: Tuple[str, ...],
    *,
    max_patterns: int = 64,
    max_conflicts: int = 200_000,
) -> List[Dict[str, bool]]:
    """Enumerate protected-input patterns that raise the flip signal.

    Each SAT call constrains the perturb cone only (the rest of the design is
    irrelevant to the flip signal), and previously found patterns are blocked,
    so the enumeration walks through distinct protected patterns.
    """
    cone = fanin_cone(circuit, flip_root, include_start=True)
    sub = Circuit(f"{circuit.name}_flip_cone", circuit.library)
    support = set()
    for gate_name in cone:
        support |= set(circuit.gate(gate_name).inputs)
    for net in circuit.inputs:
        if net in support or net in protected_inputs:
            sub.add_input(net)
    for net in circuit.key_inputs:
        if net in support:
            sub.add_key_input(net)
    for gate_name in circuit.topological_order():
        if gate_name in cone:
            gate = circuit.gate(gate_name)
            sub.add_gate(gate_name, gate.cell, gate.inputs)
    sub.add_output(flip_root)

    encoder = CircuitEncoder()
    var_of = encoder.encode(sub)
    cnf = encoder.cnf
    cnf.add_clause([var_of[flip_root]])

    # One incremental solver enumerates all patterns: blocking clauses are
    # pushed into the live solver, which keeps its watches and learned
    # clauses across queries instead of rebuilding the formula per pattern.
    solver = SatSolver(cnf)
    patterns: List[Dict[str, bool]] = []
    for attempt in range(max_patterns):
        solver.set_phase_seed(attempt)
        try:
            result = solver.solve(max_conflicts=max_conflicts)
        except ConflictBudgetExceeded:
            break
        if not result.satisfiable:
            break
        pattern = {
            net: result.value(var_of[net])
            for net in protected_inputs
            if net in var_of
        }
        patterns.append(pattern)
        # Block this protected-input assignment.
        blocking = []
        for net in protected_inputs:
            if net not in var_of:
                continue
            var = var_of[net]
            blocking.append(-var if pattern[net] else var)
        if not blocking:
            break
        cnf.add_clause(blocking)
        solver.add_clause(blocking)
    return patterns
