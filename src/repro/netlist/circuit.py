"""Gate-level combinational netlist representation.

A :class:`Circuit` holds primary inputs (PIs), key inputs (KIs), primary
outputs (POs) and a set of :class:`Gate` instances.  Every gate drives exactly
one net whose name is the gate's name; gate inputs refer to nets by name (a net
is either a PI, a KI, or the output of another gate).

This mirrors the netlist model used by the GNNUnlock scripts: the circuit is a
graph whose nodes are gates, the PIs/KIs/POs are *not* nodes but their
connectivity is recorded per gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .gates import BENCH8, CellLibrary, CellType

__all__ = ["Gate", "Circuit", "CircuitError"]


class CircuitError(ValueError):
    """Raised for structurally invalid netlist operations."""


@dataclass
class Gate:
    """One instantiated cell.

    The gate drives the net named ``name``.  ``inputs`` is an ordered tuple of
    net names (order matters for non-symmetric cells such as MUX2/AOI21).
    """

    name: str
    cell: CellType
    inputs: Tuple[str, ...]

    def __post_init__(self) -> None:
        self.inputs = tuple(self.inputs)
        if self.cell.arity is not None and len(self.inputs) != self.cell.arity:
            raise CircuitError(
                f"gate {self.name}: cell {self.cell.name} expects "
                f"{self.cell.arity} inputs, got {len(self.inputs)}"
            )
        if self.cell.arity is None and not self.inputs:
            raise CircuitError(f"gate {self.name}: no inputs")

    @property
    def cell_name(self) -> str:
        return self.cell.name


class Circuit:
    """A combinational gate-level netlist.

    Parameters
    ----------
    name:
        Design name (module name when written as Verilog).
    library:
        The :class:`~repro.netlist.gates.CellLibrary` the gates are drawn from.
    """

    def __init__(self, name: str, library: CellLibrary = BENCH8):
        self.name = name
        self.library = library
        self._inputs: List[str] = []
        self._key_inputs: List[str] = []
        self._outputs: List[str] = []
        self._gates: Dict[str, Gate] = {}
        self._topo_cache: Optional[List[str]] = None
        self._index_ports()

    def _index_ports(self) -> None:
        """(Re)build the port membership sets from the port lists.

        The sets answer :meth:`is_input`, :meth:`is_key_input`,
        :meth:`is_output` and :meth:`net_exists` in O(1).  Only the port
        mutators keep them current; gate edits never touch them.
        """
        self._input_set: Set[str] = set(self._inputs)
        self._key_set: Set[str] = set(self._key_inputs)
        self._output_set: Set[str] = set(self._outputs)

    def __getstate__(self) -> Dict[str, object]:
        # The membership sets are derived from the port lists; pickles carry
        # the lists alone, as they always have.
        state = dict(self.__dict__)
        for derived in ("_input_set", "_key_set", "_output_set"):
            del state[derived]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._index_ports()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> None:
        """Declare a primary input net."""
        self._check_new_net(name)
        self._inputs.append(name)
        self._input_set.add(name)
        self._invalidate()

    def add_key_input(self, name: str) -> None:
        """Declare a key input net (a locking key bit)."""
        self._check_new_net(name)
        self._key_inputs.append(name)
        self._key_set.add(name)
        self._invalidate()

    def add_output(self, name: str) -> None:
        """Declare a primary output.  The net must eventually be driven."""
        if name in self._output_set:
            raise CircuitError(f"output {name} already declared")
        self._outputs.append(name)
        self._output_set.add(name)
        self._invalidate()

    def add_gate(self, name: str, cell: str | CellType, inputs: Sequence[str]) -> Gate:
        """Instantiate a cell driving net ``name``."""
        self._check_new_net(name)
        cell_type = self.library[cell] if isinstance(cell, str) else cell
        gate = Gate(name, cell_type, tuple(inputs))
        self._gates[name] = gate
        self._invalidate()
        return gate

    def remove_gate(self, name: str) -> Gate:
        """Remove the gate driving net ``name`` (dangling references allowed).

        Callers performing protection-logic removal typically remove a whole
        cone and then re-stitch the cut nets; dangling inputs are reported by
        :meth:`validate` rather than rejected here.
        """
        try:
            gate = self._gates.pop(name)
        except KeyError:
            raise CircuitError(f"no gate named {name}") from None
        self._invalidate()
        return gate

    def remove_output(self, name: str) -> None:
        try:
            self._outputs.remove(name)
        except ValueError:
            raise CircuitError(f"no output named {name}") from None
        if name not in self._outputs:  # a rename can leave a duplicate
            self._output_set.discard(name)
        self._invalidate()

    def remove_key_input(self, name: str) -> None:
        try:
            self._key_inputs.remove(name)
        except ValueError:
            raise CircuitError(f"no key input named {name}") from None
        self._key_set.discard(name)
        self._invalidate()

    def rename_net(self, old: str, new: str) -> None:
        """Rename a net everywhere it appears (driver, sinks, port lists)."""
        if old == new:
            return
        self._check_new_net(new)
        if old in self._gates:
            gate = self._gates.pop(old)
            self._gates[new] = Gate(new, gate.cell, gate.inputs)
        for gname, gate in list(self._gates.items()):
            if old in gate.inputs:
                new_inputs = tuple(new if i == old else i for i in gate.inputs)
                self._gates[gname] = Gate(gname, gate.cell, new_inputs)
        self._inputs = [new if n == old else n for n in self._inputs]
        self._key_inputs = [new if n == old else n for n in self._key_inputs]
        self._outputs = [new if n == old else n for n in self._outputs]
        self._index_ports()
        self._invalidate()

    def replace_gate_input(self, gate_name: str, old: str, new: str) -> None:
        """Rewire one gate: every occurrence of ``old`` in its inputs becomes ``new``."""
        gate = self.gate(gate_name)
        if old not in gate.inputs:
            raise CircuitError(f"gate {gate_name} has no input {old}")
        new_inputs = tuple(new if i == old else i for i in gate.inputs)
        self._gates[gate_name] = Gate(gate_name, gate.cell, new_inputs)
        self._invalidate()

    def set_gate(self, name: str, cell: str | CellType, inputs: Sequence[str]) -> Gate:
        """Replace the gate driving ``name`` (keeping its sinks)."""
        if name not in self._gates:
            raise CircuitError(f"no gate named {name}")
        cell_type = self.library[cell] if isinstance(cell, str) else cell
        gate = Gate(name, cell_type, tuple(inputs))
        self._gates[name] = gate
        self._invalidate()
        return gate

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> Tuple[str, ...]:
        """Primary inputs, excluding key inputs."""
        return tuple(self._inputs)

    @property
    def key_inputs(self) -> Tuple[str, ...]:
        return tuple(self._key_inputs)

    @property
    def all_inputs(self) -> Tuple[str, ...]:
        """Primary inputs followed by key inputs."""
        return tuple(self._inputs) + tuple(self._key_inputs)

    @property
    def outputs(self) -> Tuple[str, ...]:
        return tuple(self._outputs)

    @property
    def gates(self) -> Dict[str, Gate]:
        """Fresh O(n) copy of the net name -> driving gate mapping.

        Every read copies all gates.  To read gates without a copy use
        :meth:`gate_view` (a read-only live mapping), :meth:`gate`,
        :meth:`has_gate`, iteration over the circuit, or one
        :meth:`fanout_map` for sinks.
        """
        return dict(self._gates)

    def gate_view(self) -> Mapping[str, Gate]:
        """Read-only live view of the net name -> driving gate mapping (no copy)."""
        return MappingProxyType(self._gates)

    def gate(self, name: str) -> Gate:
        try:
            return self._gates[name]
        except KeyError:
            raise CircuitError(f"no gate named {name}") from None

    def has_gate(self, name: str) -> bool:
        return name in self._gates

    def gate_names(self) -> Tuple[str, ...]:
        return tuple(self._gates)

    def is_input(self, net: str) -> bool:
        return net in self._input_set

    def is_key_input(self, net: str) -> bool:
        return net in self._key_set

    def is_output(self, net: str) -> bool:
        return net in self._output_set

    def net_exists(self, net: str) -> bool:
        return (
            net in self._gates
            or net in self._input_set
            or net in self._key_set
        )

    def __len__(self) -> int:
        """Number of gates."""
        return len(self._gates)

    def __contains__(self, net: str) -> bool:
        return self.net_exists(net)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit({self.name!r}, lib={self.library.name}, "
            f"|PI|={len(self._inputs)}, |KI|={len(self._key_inputs)}, "
            f"|PO|={len(self._outputs)}, |gates|={len(self._gates)})"
        )

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def fanout_map(self) -> Dict[str, List[str]]:
        """Map net name -> list of gate names that read it."""
        fanout: Dict[str, List[str]] = {}
        for gate in self._gates.values():
            for net in gate.inputs:
                fanout.setdefault(net, []).append(gate.name)
        return fanout

    def fanout_of(self, net: str) -> List[str]:
        """Gate names reading ``net`` (recomputed; use fanout_map for bulk)."""
        return [g.name for g in self._gates.values() if net in g.inputs]

    def topological_order(self) -> List[str]:
        """Gate names in topological order (inputs before outputs).

        Raises :class:`CircuitError` if the netlist has a combinational cycle
        or a gate reads an undeclared net.
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        in_deg: Dict[str, int] = {}
        dependents: Dict[str, List[str]] = {}
        sources = set(self._inputs) | set(self._key_inputs)
        for gate in self._gates.values():
            count = 0
            for net in gate.inputs:
                if net in self._gates:
                    count += 1
                    dependents.setdefault(net, []).append(gate.name)
                elif net not in sources:
                    raise CircuitError(
                        f"gate {gate.name} reads undeclared net {net}"
                    )
            in_deg[gate.name] = count
        ready = sorted(name for name, deg in in_deg.items() if deg == 0)
        order: List[str] = []
        # Kahn's algorithm with deterministic tie-breaking.
        from heapq import heapify, heappop, heappush

        heapify(ready)
        while ready:
            name = heappop(ready)
            order.append(name)
            for dep in dependents.get(name, ()):
                in_deg[dep] -= 1
                if in_deg[dep] == 0:
                    heappush(ready, dep)
        if len(order) != len(self._gates):
            cyclic = sorted(set(self._gates) - set(order))
            raise CircuitError(f"combinational cycle involving {cyclic[:5]}")
        self._topo_cache = order
        return list(order)

    # ------------------------------------------------------------------
    # Copy / merge helpers
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Deep-copy the netlist (gates are immutable so shallow refs are fine)."""
        other = Circuit(name or self.name, self.library)
        other._inputs = list(self._inputs)
        other._key_inputs = list(self._key_inputs)
        other._outputs = list(self._outputs)
        other._gates = dict(self._gates)
        other._index_ports()
        return other

    def fresh_net_name(self, prefix: str) -> str:
        """Return a net name with ``prefix`` that does not collide."""
        if not self.net_exists(prefix) and prefix not in self._output_set:
            return prefix
        i = 0
        while True:
            candidate = f"{prefix}_{i}"
            if not self.net_exists(candidate) and candidate not in self._output_set:
                return candidate
            i += 1

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_new_net(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise CircuitError(f"invalid net name {name!r}")
        if self.net_exists(name):
            raise CircuitError(f"net {name} already exists")

    def _invalidate(self) -> None:
        self._topo_cache = None
