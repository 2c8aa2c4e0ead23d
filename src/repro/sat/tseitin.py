"""Tseitin encoding of gate-level netlists into CNF.

Each net in the circuit gets one CNF variable; each gate contributes clauses
constraining its output variable to equal the cell function of its input
variables.  Cells with no hand-written encoding are encoded from their truth
table (exact, fine for the <=5-input cells in our libraries).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..netlist.circuit import Circuit, Gate
from .cnf import CNF

__all__ = ["CircuitEncoder", "encode_circuit"]


class CircuitEncoder:
    """Encode one or more circuits into a shared :class:`CNF` formula.

    Net variables are registered in the CNF under ``f"{prefix}{net}"`` so two
    copies of a circuit (e.g. the two halves of a miter, or the keyed copies
    inside a SAT-attack formulation) can coexist with shared or distinct
    inputs.
    """

    def __init__(self, cnf: Optional[CNF] = None):
        self.cnf = cnf if cnf is not None else CNF()

    def net_var(self, net: str, prefix: str = "") -> int:
        """CNF variable for a circuit net (created on first use)."""
        return self.cnf.var(f"{prefix}{net}")

    # ------------------------------------------------------------------
    def encode(
        self,
        circuit: Circuit,
        *,
        prefix: str = "",
        share_nets: Optional[Dict[str, int]] = None,
    ) -> Dict[str, int]:
        """Encode ``circuit`` and return a mapping net -> CNF variable.

        ``share_nets`` maps net names to pre-existing CNF variables (used to
        tie the primary inputs of two miter halves together).  The
        ``dict.get`` default is evaluated eagerly, so ``prefix + net`` is
        registered even for a shared net; the variable numbering (pinned by
        golden digests) depends on it.  Such a name stays in no clause, and
        :class:`~repro.sat.solver.SatSolver` never decides a variable that
        occurs in no clause, so it costs the search nothing.
        """
        var_of: Dict[str, int] = {}
        share_nets = share_nets or {}

        for net in circuit.all_inputs:
            var_of[net] = share_nets.get(net, self.net_var(net, prefix))
        for name in circuit.topological_order():
            gate = circuit.gate(name)
            out_var = share_nets.get(name, self.net_var(name, prefix))
            var_of[name] = out_var
            in_vars = [var_of[n] for n in gate.inputs]
            self.encode_gate(gate, out_var, in_vars)
        return var_of

    # ------------------------------------------------------------------
    def encode_gate(self, gate: Gate, out: int, ins: List[int]) -> None:
        """Add the clauses tying variable ``out`` to ``gate``'s function of ``ins``.

        ``ins`` holds one literal per gate input pin; a negative literal
        feeds the complement of its variable.
        """
        name = gate.cell.name
        add = self.cnf.add_clause
        if name in ("NOT", "INV"):
            add([out, ins[0]])
            add([-out, -ins[0]])
            return
        if name == "BUF":
            add([out, -ins[0]])
            add([-out, ins[0]])
            return
        if name in ("AND", "AND2", "AND3", "AND4"):
            self._encode_and(out, ins, invert=False)
            return
        if name in ("NAND", "NAND2", "NAND3", "NAND4"):
            self._encode_and(out, ins, invert=True)
            return
        if name in ("OR", "OR2", "OR3", "OR4"):
            self._encode_or(out, ins, invert=False)
            return
        if name in ("NOR", "NOR2", "NOR3", "NOR4"):
            self._encode_or(out, ins, invert=True)
            return
        if name in ("XOR", "XOR2", "XOR3", "XNOR", "XNOR2", "XNOR3"):
            self._encode_xor(out, ins, invert=name.startswith("XN"))
            return
        # Generic truth-table encoding for complex cells (AOI/OAI/MUX/MAJ/...).
        self._encode_truth_table(gate, out, ins)

    def _encode_and(self, out: int, ins: List[int], *, invert: bool) -> None:
        o = -out if invert else out
        for i in ins:
            self.cnf.add_clause([-o, i])
        self.cnf.add_clause([o] + [-i for i in ins])

    def _encode_or(self, out: int, ins: List[int], *, invert: bool) -> None:
        o = -out if invert else out
        for i in ins:
            self.cnf.add_clause([o, -i])
        self.cnf.add_clause([-o] + list(ins))

    def _encode_xor(self, out: int, ins: List[int], *, invert: bool) -> None:
        """Chain XORs pairwise through fresh intermediate variables."""
        acc = ins[0]
        for nxt in ins[1:-1]:
            fresh = self.cnf.new_var()
            self._encode_xor2(fresh, acc, nxt, invert=False)
            acc = fresh
        self._encode_xor2(out, acc, ins[-1], invert=invert)

    def _encode_xor2(self, out: int, a: int, b: int, *, invert: bool) -> None:
        o = -out if invert else out
        self.cnf.add_clause([-o, a, b])
        self.cnf.add_clause([-o, -a, -b])
        self.cnf.add_clause([o, -a, b])
        self.cnf.add_clause([o, a, -b])

    def _encode_truth_table(self, gate: Gate, out: int, ins: List[int]) -> None:
        k = len(ins)
        if k > 8:
            raise ValueError(
                f"cell {gate.cell.name} with {k} inputs is too wide for "
                "truth-table encoding"
            )
        for assignment in itertools.product([False, True], repeat=k):
            value = bool(gate.cell.evaluate(*[np.array(b) for b in assignment]))
            # Clause forbidding (assignment, not value) i.e. asserting
            # out == value whenever inputs match the assignment.
            clause = []
            for var, bit in zip(ins, assignment):
                clause.append(-var if bit else var)
            clause.append(out if value else -out)
            self.cnf.add_clause(clause)


def encode_circuit(circuit: Circuit, *, prefix: str = "") -> Tuple[CNF, Dict[str, int]]:
    """Encode a single circuit; returns (CNF, net -> variable mapping)."""
    encoder = CircuitEncoder()
    var_of = encoder.encode(circuit, prefix=prefix)
    return encoder.cnf, var_of
