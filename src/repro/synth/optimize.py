"""Light-weight logic optimisation passes.

Real synthesis (Synopsys Design Compiler in the paper) restructures the
netlist before mapping it onto library cells.  These passes provide the same
kind of restructuring — enough that the protection logic is not a verbatim
copy of what the locking transform emitted — while preserving function and
reporting a name map for label propagation.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..netlist.circuit import Circuit
from ..netlist.traversal import fanin_cone

__all__ = ["remove_buffers", "remove_double_inverters", "remove_dead_gates", "compose_name_maps"]


def compose_name_maps(first: Dict[str, str], second: Dict[str, str]) -> Dict[str, str]:
    """Compose two gate-name maps: ``second`` applied after ``first``.

    Both maps send *new* gate names to the names of the gates they were
    derived from; the composition sends the final names all the way back to
    the original netlist's names.
    """
    composed: Dict[str, str] = {}
    for new_name, mid_name in second.items():
        composed[new_name] = first.get(mid_name, mid_name)
    return composed


def remove_buffers(circuit: Circuit) -> Tuple[Circuit, Dict[str, str]]:
    """Bypass BUF gates whose output is not a primary output."""
    out = circuit.copy()
    name_map = {name: name for name in out.gate_names()}
    changed = True
    while changed:
        changed = False
        for name in list(out.gate_names()):
            gate = out.gate(name)  # only the gate itself is ever removed
            if gate.cell.name != "BUF" or out.is_output(name):
                continue
            source = gate.inputs[0]
            for sink in out.fanout_of(name):
                out.replace_gate_input(sink, name, source)
            out.remove_gate(name)
            name_map.pop(name, None)
            changed = True
    return out, name_map


def remove_double_inverters(circuit: Circuit) -> Tuple[Circuit, Dict[str, str]]:
    """Rewrite ``NOT(NOT(x))`` sinks to read ``x`` directly.

    The inner/outer inverters themselves are left for dead-gate removal so
    that primary outputs driven by them keep a driver.
    """
    out = circuit.copy()
    name_map = {name: name for name in out.gate_names()}
    inverter_of: Dict[str, str] = {}
    for name in out.topological_order():
        gate = out.gate(name)
        if gate.cell.name not in ("NOT", "INV"):
            continue
        source = gate.inputs[0]
        if source in inverter_of and not out.is_output(name):
            original = inverter_of[source]
            for sink in out.fanout_of(name):
                out.replace_gate_input(sink, name, original)
        else:
            inverter_of[name] = source
    return out, name_map


def remove_dead_gates(
    circuit: Circuit, *, keep: Optional[Set[str]] = None
) -> Tuple[Circuit, Dict[str, str]]:
    """Remove gates that reach no primary output.

    ``keep`` names gates that must survive regardless (used by tests and by
    flows that want to preserve the full node count of the original design).
    """
    keep = keep or set()
    live: Set[str] = set()
    for po in circuit.outputs:
        live |= fanin_cone(circuit, po)
    out = circuit.copy()
    name_map = {}
    for name in list(out.gate_names()):
        if name in live or name in keep:
            name_map[name] = name
        else:
            out.remove_gate(name)
    return out, name_map
