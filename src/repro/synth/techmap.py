"""Technology mapping onto standard-cell-like libraries.

The mapper consumes a BENCH8 netlist (typically after
:func:`~repro.synth.decompose.decompose_to_primitives`) and re-expresses it in
:data:`~repro.netlist.gates.GEN65` or :data:`~repro.netlist.gates.GEN45`:

1. fanout-1 gate pairs are merged into wider / complex cells (AND3/AND4,
   NAND3, AOI21/AOI22, OAI21/OAI22, ...) where the target library offers them,
2. remaining primitives are renamed to their fixed-arity library cells,
3. simple gates are occasionally re-expressed through De Morgan-equivalent
   forms, keyed deterministically off the gate name, so the same logical
   function does not always synthesise to the same cell — this reproduces the
   "different synthesis settings" variation the paper stresses.

The mapper never merges gates from different ``merge_groups`` (the flow passes
the design/perturb/restore/Anti-SAT partition), mirroring how the paper's
protection logic remains a connected sub-graph after synthesis.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from ..netlist.circuit import Circuit, CircuitError
from ..netlist.gates import BENCH8, GEN45, GEN65, CellLibrary

__all__ = ["technology_map", "MAPPABLE_LIBRARIES"]

MAPPABLE_LIBRARIES = ("GEN65", "GEN45")

# Direct renames from 2-input/1-input BENCH8 primitives to library cells.
_DIRECT_MAP = {
    "NOT": "INV",
    "BUF": "BUF",
    "AND": "AND2",
    "NAND": "NAND2",
    "OR": "OR2",
    "NOR": "NOR2",
    "XOR": "XOR2",
    "XNOR": "XNOR2",
}


def _stable_hash(name: str) -> int:
    return int.from_bytes(hashlib.sha1(name.encode()).digest()[:4], "big")


def _arity_aware_cell(cell: str, n_inputs: int, library: CellLibrary) -> Optional[str]:
    """Library cell implementing a BENCH8 primitive of the given arity."""
    if cell in ("NOT", "BUF"):
        mapped = _DIRECT_MAP[cell]
        return mapped if mapped in library else None
    if cell in ("AND", "NAND", "OR", "NOR", "XOR", "XNOR"):
        candidate = f"{cell}{n_inputs}"
        if candidate in library:
            return candidate
        return None
    return None


def technology_map(
    circuit: Circuit,
    library: CellLibrary,
    *,
    merge_groups: Optional[Dict[str, str]] = None,
    effort: str = "medium",
) -> Tuple[Circuit, Dict[str, str]]:
    """Map a BENCH8 netlist onto ``library`` (GEN65 or GEN45).

    Parameters
    ----------
    merge_groups:
        Optional partition of the gates (gate name -> group id).  Gates from
        different groups are never merged into one library cell.
    effort:
        ``"low"`` (rename only), ``"medium"`` (default; merge + rename) or
        ``"high"`` (merge + rename + De Morgan re-expression).

    Returns
    -------
    (mapped_circuit, name_map)
        ``name_map`` sends every gate of the mapped circuit to the gate of the
        input circuit it was derived from.
    """
    if library.name not in MAPPABLE_LIBRARIES:
        raise CircuitError(f"cannot technology-map onto library {library.name}")
    if circuit.library is not BENCH8:
        raise CircuitError("technology_map expects a BENCH8 netlist")
    if effort not in ("low", "medium", "high"):
        raise ValueError(f"unknown effort {effort!r}")

    groups = merge_groups or {}
    work = circuit.copy()
    name_map: Dict[str, str] = {name: name for name in work.gate_names()}

    if effort in ("medium", "high"):
        _merge_pass(work, library, groups, name_map)

    mapped = Circuit(circuit.name, library)
    for net in work.inputs:
        mapped.add_input(net)
    for net in work.key_inputs:
        mapped.add_key_input(net)

    final_map: Dict[str, str] = {}
    for name in work.topological_order():
        gate = work.gate(name)
        cell = gate.cell.name
        if cell in library and (
            library[cell].arity is None or library[cell].arity == len(gate.inputs)
        ):
            mapped.add_gate(name, cell, gate.inputs)
            final_map[name] = name_map.get(name, name)
            continue
        target_cell = _arity_aware_cell(cell, len(gate.inputs), library)
        if target_cell is None:
            raise CircuitError(
                f"gate {name}: cell {cell} with {len(gate.inputs)} inputs cannot "
                f"be mapped onto {library.name}; decompose the netlist first"
            )
        if effort == "high" and _wants_demorgan(name, target_cell, library):
            created = _demorgan_expand(mapped, name, target_cell, gate.inputs)
            for new_name in created:
                final_map[new_name] = name_map.get(name, name)
            continue
        mapped.add_gate(name, target_cell, gate.inputs)
        final_map[name] = name_map.get(name, name)

    for net in work.outputs:
        mapped.add_output(net)
    return mapped, final_map


# ---------------------------------------------------------------------------
# Merge pass (operates in-place on a BENCH8 copy, pre-mapping)
# ---------------------------------------------------------------------------

def _merge_pass(
    work: Circuit,
    library: CellLibrary,
    groups: Dict[str, str],
    name_map: Dict[str, str],
) -> None:
    """Greedy single-pass pattern merging into complex/wide cells.

    Each merge folds a fanout-1 gate into its reader in place: the reader
    becomes a wider primitive, or an AOI/OAI :class:`_ComplexPlaceholder`
    that the mapping loop turns into the library cell.  One topological
    sweep with O(1) gate lookups and a fanout map built once.
    """
    fanout = work.fanout_map()

    def lookup(net: str):
        return work.gate(net) if work.has_gate(net) else None

    # ``fanout`` is built once and never refreshed, which is exact: only
    # ``len(fanout[net])`` is read.  A merge folds ``src`` (single reader
    # ``name``) into ``name``; each input net of ``src`` swaps one reader
    # slot from ``src`` to ``name``, so its count is unchanged, ``src``
    # leaves the netlist and is never queried again, and no other net's
    # readers change.
    def single_fanout(net: str) -> bool:
        return len(fanout.get(net, ())) == 1 and not work.is_output(net)

    def same_group(a: str, b: str) -> bool:
        return groups.get(a, groups.get(name_map.get(a, a))) == groups.get(
            b, groups.get(name_map.get(b, b))
        )

    for name in list(work.topological_order()):
        gate = work.gate(name)  # a merge only removes gates already visited
        cell = gate.cell.name
        ins = list(gate.inputs)

        # AND2(AND2(a,b), c) -> AND3 ; likewise AND4, OR3, OR4 (GEN65 only).
        if cell in ("AND", "OR") and len(ins) == 2:
            wide3 = f"{'AND' if cell == 'AND' else 'OR'}3"
            wide4 = f"{'AND' if cell == 'AND' else 'OR'}4"
            for idx, src in enumerate(ins):
                inner = lookup(src)
                if (
                    inner is not None
                    and inner.cell.name == cell
                    and len(inner.inputs) == 2
                    and single_fanout(src)
                    and same_group(name, src)
                    and wide3 in library
                ):
                    other = ins[1 - idx]
                    new_inputs = list(inner.inputs) + [other]
                    work.set_gate(name, cell, new_inputs)
                    work.remove_gate(src)
                    name_map.pop(src, None)
                    break
            gate = work.gate(name)
            ins = list(gate.inputs)
            if len(ins) == 3 and wide4 in library:
                for idx, src in enumerate(ins):
                    inner = lookup(src)
                    if (
                        inner is not None
                        and inner.cell.name == cell
                        and len(inner.inputs) == 2
                        and single_fanout(src)
                        and same_group(name, src)
                    ):
                        others = [x for j, x in enumerate(ins) if j != idx]
                        work.set_gate(name, cell, list(inner.inputs) + others)
                        work.remove_gate(src)
                        name_map.pop(src, None)
                        break
            continue

        # NOT(AND(a,b[,c])) -> NAND ; NOT(OR(...)) -> NOR (absorb the inverter).
        if cell == "NOT":
            src = ins[0]
            inner = lookup(src)
            if (
                inner is not None
                and inner.cell.name in ("AND", "OR")
                and 2 <= len(inner.inputs) <= 3
                and single_fanout(src)
                and same_group(name, src)
            ):
                inverted = "NAND" if inner.cell.name == "AND" else "NOR"
                wide_ok = len(inner.inputs) == 2 or (
                    f"{inverted}{len(inner.inputs)}" in library
                )
                if wide_ok:
                    work.set_gate(name, inverted, inner.inputs)
                    work.remove_gate(src)
                    name_map.pop(src, None)
            continue

        # NOR(AND(a,b), c) -> AOI21 ; NOR(AND(a,b), AND(c,d)) -> AOI22
        # NAND(OR(a,b), c) -> OAI21 ; NAND(OR(a,b), OR(c,d)) -> OAI22
        if cell in ("NOR", "NAND") and len(ins) == 2:
            inner_cell = "AND" if cell == "NOR" else "OR"
            complex2 = "AOI22" if cell == "NOR" else "OAI22"
            complex1 = "AOI21" if cell == "NOR" else "OAI21"
            inner_gates = []
            for src in ins:
                inner = lookup(src)
                if (
                    inner is not None
                    and inner.cell.name == inner_cell
                    and len(inner.inputs) == 2
                    and single_fanout(src)
                    and same_group(name, src)
                ):
                    inner_gates.append(inner)
                else:
                    inner_gates.append(None)
            if inner_gates[0] is not None and inner_gates[1] is not None and complex2 in library:
                new_inputs = list(inner_gates[0].inputs) + list(inner_gates[1].inputs)
                work.set_gate(name, _ComplexPlaceholder(complex2), new_inputs)
                for src in ins:
                    work.remove_gate(src)
                    name_map.pop(src, None)
            elif inner_gates[0] is not None and complex1 in library:
                new_inputs = list(inner_gates[0].inputs) + [ins[1]]
                work.set_gate(name, _ComplexPlaceholder(complex1), new_inputs)
                work.remove_gate(ins[0])
                name_map.pop(ins[0], None)
            elif inner_gates[1] is not None and complex1 in library:
                new_inputs = list(inner_gates[1].inputs) + [ins[0]]
                work.set_gate(name, _ComplexPlaceholder(complex1), new_inputs)
                work.remove_gate(ins[1])
                name_map.pop(ins[1], None)
            continue


class _ComplexPlaceholder:
    """Stand-in cell used between the merge pass and the mapping loop.

    The merge pass runs on a BENCH8 netlist which has no AOI/OAI cells, so
    merged gates temporarily carry this placeholder; the mapping loop
    recognises it via ``cell.name`` and emits the real library cell.
    """

    def __init__(self, name: str):
        self.name = name
        self.arity = None
        self.is_variadic = True

    def evaluate(self, *inputs):  # pragma: no cover - never simulated
        raise CircuitError(f"placeholder cell {self.name} cannot be evaluated")


# ---------------------------------------------------------------------------
# De Morgan re-expression
# ---------------------------------------------------------------------------

def _wants_demorgan(name: str, cell: str, library: CellLibrary) -> bool:
    if cell not in ("AND2", "OR2"):
        return False
    return _stable_hash(name) % 4 == 0


def _demorgan_expand(
    mapped: Circuit, name: str, cell: str, inputs
) -> List[str]:
    """Emit ``AND2(a,b)`` as ``INV(NAND2(a,b))`` (resp. OR via NOR)."""
    inverted = "NAND2" if cell == "AND2" else "NOR2"
    inner = mapped.fresh_net_name(f"{name}_dm")
    mapped.add_gate(inner, inverted, inputs)
    mapped.add_gate(name, "INV", [inner])
    return [inner, name]
