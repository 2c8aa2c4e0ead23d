"""Structural traversal utilities: fan-in / fan-out cones, levels, support.

These routines back both the GNNUnlock post-processing algorithm (which
reasons about KI / protected-input membership of fan-in cones) and the
baseline attacks (which trace key inputs through the netlist).

The per-net queries (:func:`transitive_inputs` and its PI / KI filters) walk
one fan-in cone each.  :func:`support_bitsets` is the bulk form of
:func:`transitive_inputs`: the support of every net at once, in one linear
pass, for callers that ask about many nets of the same netlist.  Likewise
:func:`key_cone` is the bulk form of :func:`has_key_input_in_fanin`.  None
of these routines copies the gate mapping (they read
:meth:`Circuit.gate_view`).
"""

from __future__ import annotations

from typing import Dict, List, Set

from .circuit import Circuit

__all__ = [
    "fanin_cone",
    "fanout_cone",
    "key_cone",
    "transitive_inputs",
    "support_bitsets",
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
    gates = circuit.gate_view()
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
    gates = circuit.gate_view()
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


def support_bitsets(circuit: Circuit) -> Dict[str, int]:
    """The structural support of every net, as bitsets over the declared inputs.

    Bit ``i`` stands for ``circuit.all_inputs[i]`` (the primary inputs, then
    the key inputs), so ``bits & ((1 << len(circuit.inputs)) - 1)`` keeps the
    primary inputs of a support and ``bits >> len(circuit.inputs)`` its key
    inputs.  The result has an entry for every gate and every declared input;
    any other net (an undeclared, dangling one) has the empty support, so
    read it with ``.get(net, 0)``.  Decoded, ``bits[net]`` is exactly
    :func:`transitive_inputs` of ``net``.

    One pass of Tarjan's strongly-connected-components algorithm over the
    fan-in edges: components complete after every component they read from,
    so each support is the OR of its readers' already-final supports, and the
    gates of a combinational cycle share one support.
    """
    gates = circuit.gate_view()
    bits: Dict[str, int] = {net: 1 << i for i, net in enumerate(circuit.all_inputs)}
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    open_stack: List[str] = []
    for root in gates:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        open_stack.append(root)
        work = [(root, iter(gates[root].inputs))]
        while work:
            node, pending = work[-1]
            for net in pending:
                if net not in gates:
                    continue
                if net not in index:
                    index[net] = low[net] = len(index)
                    open_stack.append(net)
                    work.append((net, iter(gates[net].inputs)))
                    break
                if net not in bits and index[net] < low[node]:
                    # ``net`` is still open, so it sits on this DFS's stack.
                    low[node] = index[net]
            else:
                work.pop()
                node_low = low[node]
                if work:
                    parent = work[-1][0]
                    if node_low < low[parent]:
                        low[parent] = node_low
                if node_low != index[node]:
                    continue
                # ``node`` roots a component: every net it reads is final
                # or belongs to the component itself (and reads as 0).
                support = 0
                member = None
                members = []
                while member != node:
                    member = open_stack.pop()
                    members.append(member)
                    for net in gates[member].inputs:
                        support |= bits.get(net, 0)
                for member in members:
                    bits[member] = support
    return bits


def primary_inputs_in_fanin(circuit: Circuit, net: str) -> Set[str]:
    """Primary (non-key) inputs in the structural support of ``net``."""
    return {n for n in transitive_inputs(circuit, net) if circuit.is_input(n)}


def key_inputs_in_fanin(circuit: Circuit, net: str) -> Set[str]:
    """Key inputs in the structural support of ``net``."""
    return {n for n in transitive_inputs(circuit, net) if circuit.is_key_input(n)}


def has_key_input_in_fanin(circuit: Circuit, net: str) -> bool:
    """True when at least one KI lies in the fan-in cone of ``net``."""
    gates = circuit.gate_view()
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
    gates = circuit.gate_view()
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
