"""Combinational equivalence checking (the Synopsys Formality substitute).

Two circuits are equivalent when, for every assignment of the shared primary
inputs, every shared primary output takes the same value.  We build a miter —
both circuits driven by the same inputs, each output pair XORed, the XORs ORed
into a single flag — and ask the SAT solver whether the flag can be 1.

For circuits whose input count is small, an exhaustive-simulation check is
also provided (and used as a cross-check in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

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


def _common_interface(a: Circuit, b: Circuit) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    inputs_a = set(a.inputs) | set(a.key_inputs)
    inputs_b = set(b.inputs) | set(b.key_inputs)
    if inputs_a != inputs_b:
        raise CircuitError(
            "circuits have different input interfaces: "
            f"only-in-A={sorted(inputs_a - inputs_b)[:5]}, "
            f"only-in-B={sorted(inputs_b - inputs_a)[:5]}"
        )
    outputs_a, outputs_b = set(a.outputs), set(b.outputs)
    if outputs_a != outputs_b:
        raise CircuitError(
            "circuits have different output interfaces: "
            f"only-in-A={sorted(outputs_a - outputs_b)[:5]}, "
            f"only-in-B={sorted(outputs_b - outputs_a)[:5]}"
        )
    return tuple(sorted(inputs_a)), tuple(sorted(outputs_a))


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


def structurally_equivalent(a: Circuit, b: Circuit) -> bool:
    """Structural equivalence up to internal net renaming.

    Every net is assigned a canonical identifier by hash-consing the DAG from
    the primary/key inputs upwards (commutative cells sort their children).
    Two circuits are structurally equivalent when their interfaces match and
    every shared primary output maps to the same canonical identifier.  This
    is sound (no false positives) but incomplete (functionally equal yet
    structurally different circuits are not detected) — exactly what is needed
    as a fast path before the SAT-based proof.
    """
    if set(a.inputs) != set(b.inputs) or set(a.key_inputs) != set(b.key_inputs):
        return False
    if set(a.outputs) != set(b.outputs):
        return False

    structures: Dict[tuple, int] = {}

    def canonical_ids(circuit: Circuit) -> Dict[str, int]:
        ids: Dict[str, int] = {}
        for net in list(circuit.inputs) + list(circuit.key_inputs):
            key = ("leaf", net)
            ids[net] = structures.setdefault(key, len(structures))
        for name in circuit.topological_order():
            gate = circuit.gate(name)
            child_ids = [ids[n] for n in gate.inputs]
            if gate.cell.name in _COMMUTATIVE_CELLS:
                child_ids = sorted(child_ids)
            key = (gate.cell.name, tuple(child_ids))
            ids[name] = structures.setdefault(key, len(structures))
        return ids

    try:
        ids_a = canonical_ids(a)
        ids_b = canonical_ids(b)
    except CircuitError:
        return False
    for po in a.outputs:
        if po not in ids_a or po not in ids_b or ids_a[po] != ids_b[po]:
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
        ``"exhaustive"`` (only for small input counts).
    """
    if method == "exhaustive":
        return _check_exhaustive(a, b, key_assignment or {})
    if method == "structural":
        return EquivalenceResult(
            structurally_identical(a, b) or structurally_equivalent(a, b),
            None,
            "structural",
        )
    if method == "auto":
        if not key_assignment and (
            structurally_identical(a, b) or structurally_equivalent(a, b)
        ):
            return EquivalenceResult(True, None, "structural")
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
