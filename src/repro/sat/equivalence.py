"""Combinational equivalence checking (the Synopsys Formality substitute).

Two circuits are equivalent when, for every assignment of the shared primary
inputs, every shared primary output takes the same value.  We build a miter —
both circuits driven by the same inputs, each output pair XORed, the XORs ORed
into a single flag — and ask the SAT solver whether the flag can be 1.

Before the miter, :func:`check_equivalence` tries a structural proof in the
style of structural hashing (Kuehlmann & Krohm, DAC 1997): both circuits are
hash-consed into one table with the pinned key bits as constants, folding
constants, buffers, inverter pairs and the AND/OR/XOR identities on the way.
When every output of one circuit lands on the same entry as in the other,
the circuits are equivalent; otherwise the SAT miter decides.  A correct key
on XOR or MUX-style key gates folds the locked circuit back onto the
original, so key verification of those schemes needs no SAT call.

For circuits whose input count is small, an exhaustive-simulation check is
also provided (and used as a cross-check in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..netlist.circuit import Circuit, CircuitError
from ..netlist.simulate import exhaustive_patterns, simulate_patterns
from .cnf import CNF
from .solver import solve
from .tseitin import CircuitEncoder

__all__ = [
    "EquivalenceResult",
    "check_equivalence",
    "equivalent",
    "miter_cnf",
    "structurally_identical",
    "structurally_equivalent",
]


@dataclass
class EquivalenceResult:
    """Outcome of an equivalence check."""

    equivalent: bool
    counterexample: Optional[Dict[str, bool]]
    method: str
    conflicts: int = 0

    def __bool__(self) -> bool:
        return self.equivalent


def miter_cnf(
    a: Circuit,
    b: Circuit,
    *,
    key_assignment: Optional[Mapping[str, bool]] = None,
) -> Tuple[CNF, Dict[str, int]]:
    """Build the miter CNF of two circuits over their shared interface.

    Returns the CNF (satisfiable iff the circuits differ) and the mapping from
    shared input names to CNF variables (to decode counterexamples).

    ``key_assignment`` pins key-input nets of either circuit to constants,
    which lets callers check "locked circuit under key k == original".
    """
    key_assignment = dict(key_assignment or {})
    inputs_a = set(a.inputs) | set(a.key_inputs)
    inputs_b = set(b.inputs) | set(b.key_inputs)
    shared_inputs = sorted((inputs_a | inputs_b) - set(key_assignment))
    outputs = sorted(set(a.outputs) & set(b.outputs))
    if not outputs:
        raise CircuitError("circuits share no outputs to compare")

    encoder = CircuitEncoder()
    cnf = encoder.cnf
    shared_vars = {net: cnf.var(f"in::{net}") for net in shared_inputs}
    for net, value in key_assignment.items():
        var = cnf.var(f"in::{net}")
        shared_vars[net] = var
        cnf.add_clause([var if value else -var])

    share_a = {net: shared_vars[net] for net in inputs_a if net in shared_vars}
    share_b = {net: shared_vars[net] for net in inputs_b if net in shared_vars}
    vars_a = encoder.encode(a, prefix="A::", share_nets=share_a)
    vars_b = encoder.encode(b, prefix="B::", share_nets=share_b)

    xor_vars = []
    for net in outputs:
        va, vb = vars_a[net], vars_b[net]
        x = cnf.new_var()
        cnf.add_clause([-x, va, vb])
        cnf.add_clause([-x, -va, -vb])
        cnf.add_clause([x, -va, vb])
        cnf.add_clause([x, va, -vb])
        xor_vars.append(x)
    # The miter is satisfiable iff some output pair differs.
    cnf.add_clause(xor_vars)
    return cnf, shared_vars


def structurally_identical(a: Circuit, b: Circuit) -> bool:
    """True when both circuits have identical interfaces and identical gates.

    Structural identity (same net names, same cells, same pin connections) is
    a sufficient condition for equivalence and serves as a fast path for the
    removal-success check: a clean protection-logic removal reproduces the
    original netlist gate for gate.
    """
    if set(a.inputs) != set(b.inputs) or set(a.key_inputs) != set(b.key_inputs):
        return False
    if set(a.outputs) != set(b.outputs):
        return False
    gates_a, gates_b = a.gates, b.gates
    if set(gates_a) != set(gates_b):
        return False
    for name, gate in gates_a.items():
        other = gates_b[name]
        if gate.cell.name != other.cell.name:
            return False
        if gate.cell.name in _COMMUTATIVE_CELLS:
            if sorted(gate.inputs) != sorted(other.inputs):
                return False
        elif gate.inputs != other.inputs:
            return False
    return True


_COMMUTATIVE_CELLS = frozenset(
    {
        "AND", "NAND", "OR", "NOR", "XOR", "XNOR",
        "AND2", "AND3", "AND4", "NAND2", "NAND3", "NAND4",
        "OR2", "OR3", "OR4", "NOR2", "NOR3", "NOR4",
        "XOR2", "XOR3", "XNOR2", "XNOR3", "MAJ3",
    }
)


#: Literals of the structural hash: ``2 * node + negated``.  Node 0 is the
#: constant, so literal 0 is false and literal 1 is true.
_FALSE, _TRUE = 0, 1

#: Operators of the folded cells.
_BUF, _AND, _OR, _XOR = range(4)

#: Cells folded by the structural hash: name -> (operator, output inverted).
#: Every other cell is hashed on its name and input literals as is.
_FOLDED_CELLS: Dict[str, Tuple[int, int]] = {
    "BUF": (_BUF, 0), "NOT": (_BUF, 1), "INV": (_BUF, 1),
    **{name: (_AND, 0) for name in ("AND", "AND2", "AND3", "AND4")},
    **{name: (_AND, 1) for name in ("NAND", "NAND2", "NAND3", "NAND4")},
    **{name: (_OR, 0) for name in ("OR", "OR2", "OR3", "OR4")},
    **{name: (_OR, 1) for name in ("NOR", "NOR2", "NOR3", "NOR4")},
    **{name: (_XOR, 0) for name in ("XOR", "XOR2", "XOR3")},
    **{name: (_XOR, 1) for name in ("XNOR", "XNOR2", "XNOR3")},
}


class _StructuralHash:
    """Hash-consing table shared by the circuits being compared.

    Equal literals denote equal functions of the named leaves (sound); the
    converse does not hold (incomplete).  An OR is hashed as the complement
    of an AND of complements, so the two share entries.
    """

    def __init__(self) -> None:
        self._nodes: Dict[tuple, int] = {}

    def _node(self, key: tuple) -> int:
        nodes = self._nodes
        return 2 * nodes.setdefault(key, len(nodes) + 1)

    def literals(
        self, circuit: Circuit, pinned: Mapping[str, bool]
    ) -> Dict[str, int]:
        """Literal of every net of ``circuit``; pinned inputs are constants."""
        nodes = self._nodes
        lits: Dict[str, int] = {}
        for net in circuit.all_inputs:
            if net in pinned:
                lits[net] = _TRUE if pinned[net] else _FALSE
            else:
                lits[net] = 2 * nodes.setdefault(("leaf", net), len(nodes) + 1)
        gate_of = circuit.gate
        for name in circuit.topological_order():
            gate = gate_of(name)
            cell = gate.cell.name
            ins = [lits[n] for n in gate.inputs]
            folded = _FOLDED_CELLS.get(cell)
            if folded is None:
                if cell in _COMMUTATIVE_CELLS:
                    ins.sort()
                lits[name] = 2 * nodes.setdefault((cell, *ins), len(nodes) + 1)
                continue
            op, invert = folded
            if op == _BUF:
                lit = ins[0]
            elif op == _XOR:
                lit = self._xor(ins)
            else:
                lit = self._and(ins, op == _OR)
            lits[name] = lit ^ invert
        return lits

    def _and(self, ins: List[int], flip: int) -> int:
        """AND of ``ins``; with ``flip``, their OR (an AND of complements)."""
        if len(ins) == 2:
            a, b = ins[0] ^ flip, ins[1] ^ flip
            if a > b:
                a, b = b, a
            if a == _FALSE or a ^ b == 1:
                return flip  # absorbing input, or x AND NOT x
            if a == _TRUE or a == b:
                return b ^ flip
            return self._node(("AND", a, b)) ^ flip
        if flip:
            return self._and([x ^ 1 for x in ins], 0) ^ 1
        ins.sort()
        if ins[0] <= _TRUE:  # constants sort first
            if ins[0] == _FALSE:
                return _FALSE  # absorbing input
            ins = [x for x in ins if x != _TRUE]
            if not ins:
                return _TRUE
        operands = [ins[0]]
        for lit in ins[1:]:
            last = operands[-1]
            if lit == last:
                continue
            if lit == last ^ 1:
                return _FALSE  # x AND NOT x: the two literals sort together
            operands.append(lit)
        if len(operands) == 1:
            return operands[0]
        return self._node(("AND", *operands))

    def _xor(self, ins: List[int]) -> int:
        parity = 0
        odd = set()  # nodes occurring an odd number of times
        for lit in ins:
            parity ^= lit & 1
            var = lit >> 1
            if var in odd:
                odd.remove(var)
            elif var:
                odd.add(var)
        if len(odd) <= 1:
            return 2 * odd.pop() ^ parity if odd else parity
        return self._node(("XOR", *sorted(odd))) ^ parity


def structurally_equivalent(
    a: Circuit,
    b: Circuit,
    *,
    key_assignment: Optional[Mapping[str, bool]] = None,
) -> bool:
    """Structural equivalence up to internal net renaming and local folding.

    Both circuits are hash-consed from the named inputs upwards into one
    table (commutative cells sort their children).  ``key_assignment`` pins
    inputs of either circuit to constants, which then fold: constants,
    buffers and inverter pairs vanish, an AND/OR with a controlling input is
    constant, non-controlling inputs and duplicates drop, and XOR/XNOR cancel
    duplicate inputs and carry their inversions and constants as one parity.
    Complex cells (AOI, OAI, MUX, ...) are hashed but not folded.

    The circuits are structurally equivalent when their free inputs and their
    outputs match and every output maps to the same literal in both.  This is
    sound (no false positives) but incomplete (functionally equal yet
    structurally different circuits are not detected) — exactly what is
    needed as a fast path before the SAT-based proof.
    """
    pinned = dict(key_assignment or {})
    free_a = (set(a.inputs) | set(a.key_inputs)) - set(pinned)
    free_b = (set(b.inputs) | set(b.key_inputs)) - set(pinned)
    if free_a != free_b or set(a.outputs) != set(b.outputs):
        return False
    table = _StructuralHash()
    try:
        lits_a = table.literals(a, pinned)
        lits_b = table.literals(b, pinned)
    except CircuitError:
        return False
    for po in a.outputs:
        if po not in lits_a or po not in lits_b or lits_a[po] != lits_b[po]:
            return False
    return True


def check_equivalence(
    a: Circuit,
    b: Circuit,
    *,
    key_assignment: Optional[Mapping[str, bool]] = None,
    method: str = "auto",
    max_conflicts: Optional[int] = None,
) -> EquivalenceResult:
    """Check combinational equivalence of two circuits.

    Parameters
    ----------
    key_assignment:
        Optional constants for key inputs (of either circuit).  Inputs not
        pinned must exist in both circuits with identical names.
    method:
        ``"auto"`` (default: structural fast path, then SAT), ``"sat"``,
        ``"structural"`` (fast path only; inconclusive -> not equivalent) or
        ``"exhaustive"`` (only for small input counts).  The structural path
        folds the pinned key bits as constants.
    """
    if method == "exhaustive":
        return _check_exhaustive(a, b, key_assignment or {})
    if method in ("auto", "structural"):
        proven = structurally_identical(a, b) or structurally_equivalent(
            a, b, key_assignment=key_assignment
        )
        if proven or method == "structural":
            return EquivalenceResult(proven, None, "structural")
        method = "sat"
    if method != "sat":
        raise ValueError(f"unknown equivalence method {method!r}")

    cnf, shared_vars = miter_cnf(a, b, key_assignment=key_assignment)
    result = solve(cnf, max_conflicts=max_conflicts)
    if not result.satisfiable:
        return EquivalenceResult(True, None, "sat", result.conflicts)
    counterexample = {
        net: result.value(var) for net, var in shared_vars.items()
    }
    return EquivalenceResult(False, counterexample, "sat", result.conflicts)


def _check_exhaustive(
    a: Circuit, b: Circuit, key_assignment: Mapping[str, bool]
) -> EquivalenceResult:
    inputs, outputs = _common_interface_with_keys(a, b, key_assignment)
    if len(inputs) > 18:
        raise CircuitError(
            f"exhaustive equivalence over {len(inputs)} inputs is infeasible"
        )
    patterns = exhaustive_patterns(len(inputs))

    def run(circuit: Circuit) -> np.ndarray:
        order = circuit.all_inputs
        cols = []
        for net in order:
            if net in key_assignment:
                cols.append(np.full(len(patterns), bool(key_assignment[net])))
            else:
                cols.append(patterns[:, inputs.index(net)])
        matrix = np.column_stack(cols) if cols else np.zeros((len(patterns), 0), bool)
        return simulate_patterns(circuit, matrix, input_order=order, outputs=outputs)

    out_a, out_b = run(a), run(b)
    diff = np.any(out_a != out_b, axis=1)
    if not diff.any():
        return EquivalenceResult(True, None, "exhaustive")
    idx = int(np.argmax(diff))
    counterexample = {net: bool(patterns[idx, i]) for i, net in enumerate(inputs)}
    counterexample.update({k: bool(v) for k, v in key_assignment.items()})
    return EquivalenceResult(False, counterexample, "exhaustive")


def _common_interface_with_keys(
    a: Circuit, b: Circuit, key_assignment: Mapping[str, bool]
) -> Tuple[list, Tuple[str, ...]]:
    inputs_a = (set(a.inputs) | set(a.key_inputs)) - set(key_assignment)
    inputs_b = (set(b.inputs) | set(b.key_inputs)) - set(key_assignment)
    if inputs_a != inputs_b:
        raise CircuitError(
            "circuits have different free-input interfaces: "
            f"A-only={sorted(inputs_a - inputs_b)[:5]}, "
            f"B-only={sorted(inputs_b - inputs_a)[:5]}"
        )
    outputs = tuple(sorted(set(a.outputs) & set(b.outputs)))
    if not outputs:
        raise CircuitError("circuits share no outputs to compare")
    return sorted(inputs_a), outputs


def equivalent(a: Circuit, b: Circuit, **kwargs) -> bool:
    """Shorthand for ``check_equivalence(a, b, **kwargs).equivalent``."""
    return check_equivalence(a, b, **kwargs).equivalent
