"""Structural traversal utilities: fan-in / fan-out cones, levels, support.

These routines back both the GNNUnlock post-processing algorithm (which
reasons about KI / protected-input membership of fan-in cones) and the
baseline attacks (which trace key inputs through the netlist).
"""

from __future__ import annotations

from typing import Dict, List, Set

from .circuit import Circuit

__all__ = [
    "fanin_cone",
    "fanout_cone",
    "key_cone",
    "transitive_inputs",
    "has_key_input_in_fanin",
    "primary_inputs_in_fanin",
    "key_inputs_in_fanin",
    "gate_levels",
    "output_cone",
]


def fanin_cone(circuit: Circuit, net: str, *, include_start: bool = True) -> Set[str]:
    """All gate names in the transitive fan-in of ``net``.

    PIs and KIs terminate the traversal and are not included (they are not
    gates).  ``net`` itself is included when it names a gate and
    ``include_start`` is true.
    """
    gates = circuit.gates
    seen: Set[str] = set()
    stack: List[str] = [net]
    while stack:
        current = stack.pop()
        gate = gates.get(current)
        if gate is None:
            continue
        if current in seen:
            continue
        seen.add(current)
        stack.extend(gate.inputs)
    if not include_start:
        seen.discard(net)
    return seen


def fanout_cone(circuit: Circuit, net: str, *, include_start: bool = True) -> Set[str]:
    """All gate names in the transitive fan-out of ``net``."""
    fanout = circuit.fanout_map()
    seen: Set[str] = set()
    stack: List[str] = list(fanout.get(net, ()))
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(fanout.get(current, ()))
    if include_start and circuit.has_gate(net):
        seen.add(net)
    elif not include_start:
        seen.discard(net)
    return seen


def key_cone(circuit: Circuit) -> List[str]:
    """Gates in the transitive fan-out of any key input, in topological order.

    One multi-source walk over a single :meth:`Circuit.fanout_map`, so the
    cost is linear in the netlist however many key inputs there are.  A net
    has a key input in its fan-in exactly when it is a key input or a gate
    of this cone, which makes the cone the bulk form of
    :func:`has_key_input_in_fanin`.
    """
    fanout = circuit.fanout_map()
    seen: Set[str] = set()
    stack: List[str] = [g for ki in circuit.key_inputs for g in fanout.get(ki, ())]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(fanout.get(current, ()))
    return [name for name in circuit.topological_order() if name in seen]


def transitive_inputs(circuit: Circuit, net: str) -> Set[str]:
    """The set of PI / KI names feeding ``net`` (its structural support)."""
    gates = circuit.gates
    terminals: Set[str] = set()
    seen: Set[str] = set()
    stack: List[str] = [net]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        gate = gates.get(current)
        if gate is None:
            if circuit.is_input(current) or circuit.is_key_input(current):
                terminals.add(current)
            continue
        stack.extend(gate.inputs)
    return terminals


def primary_inputs_in_fanin(circuit: Circuit, net: str) -> Set[str]:
    """Primary (non-key) inputs in the structural support of ``net``."""
    return {n for n in transitive_inputs(circuit, net) if circuit.is_input(n)}


def key_inputs_in_fanin(circuit: Circuit, net: str) -> Set[str]:
    """Key inputs in the structural support of ``net``."""
    return {n for n in transitive_inputs(circuit, net) if circuit.is_key_input(n)}


def has_key_input_in_fanin(circuit: Circuit, net: str) -> bool:
    """True when at least one KI lies in the fan-in cone of ``net``."""
    gates = circuit.gates
    seen: Set[str] = set()
    stack: List[str] = [net]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        if circuit.is_key_input(current):
            return True
        gate = gates.get(current)
        if gate is not None:
            stack.extend(gate.inputs)
    return False


def gate_levels(circuit: Circuit) -> Dict[str, int]:
    """Logic level of each gate (PIs/KIs are level 0; a gate is 1 + max input)."""
    levels: Dict[str, int] = {}
    gates = circuit.gates
    for name in circuit.topological_order():
        gate = gates[name]
        level = 0
        for net in gate.inputs:
            level = max(level, levels.get(net, 0))
        levels[name] = level + 1
    return levels


def output_cone(circuit: Circuit, output: str) -> Set[str]:
    """Gates in the fan-in cone of a primary output."""
    return fanin_cone(circuit, output, include_start=True)
