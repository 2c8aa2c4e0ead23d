"""Tseitin encoding of gate-level netlists into CNF.

Each net in the circuit gets one CNF variable; each gate contributes clauses
constraining its output variable to equal the cell function of its input
variables.  Cells with no hand-written encoding are encoded from their truth
table (exact, fine for the <=5-input cells in our libraries).

Encoding the same circuit repeatedly is a hot path: a miter encodes both
halves, and the SAT attack encodes two keyed copies plus one copy per DIP.
``encode`` therefore memoises a per-circuit **encoding template** — the exact variable
allocation order and clause stream of a direct encode, keyed by a structural
fingerprint — and instantiates it by replaying the allocations into the
target CNF.  Instantiation is guaranteed to produce byte-identical clauses
and variable numbering to the direct path (this is asserted by tests, and
``REPRO_CNF_MEMO=0`` disables the cache entirely).
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..netlist.circuit import Circuit, Gate
from .cnf import CNF

__all__ = ["CircuitEncoder", "encode_circuit", "clear_encoding_cache"]


class _EncodingTemplate:
    """Replayable record of one circuit's direct encode.

    ``slots[i]`` names the net bound to template-local variable ``i + 1``
    (``None`` for anonymous auxiliaries, e.g. XOR-chain intermediates), in
    the exact order the direct path allocates them.  ``clauses`` holds the
    clause stream in template-local literals.  ``var_of`` maps each net to
    its template-local variable.
    """

    __slots__ = ("slots", "clauses", "var_of")

    def __init__(
        self,
        slots: Tuple[Optional[str], ...],
        clauses: Tuple[Tuple[int, ...], ...],
        var_of: Dict[str, int],
    ):
        self.slots = slots
        self.clauses = clauses
        self.var_of = var_of


#: fingerprint -> template, LRU-bounded.  Process-local by design: worker
#: processes each warm their own cache.
_TEMPLATE_CACHE: "OrderedDict[bytes, _EncodingTemplate]" = OrderedDict()
_TEMPLATE_CACHE_MAX = 128
_TEMPLATE_LOCK = threading.Lock()

#: Pins cell objects whose id() participates in a cached fingerprint, so a
#: recycled id can never alias a different cell.
_FINGERPRINTED_CELLS: Dict[int, object] = {}


def clear_encoding_cache() -> None:
    """Drop all memoised encoding templates (mainly for tests)."""
    with _TEMPLATE_LOCK:
        _TEMPLATE_CACHE.clear()
        _FINGERPRINTED_CELLS.clear()


def _memo_enabled() -> bool:
    return os.environ.get("REPRO_CNF_MEMO", "1").strip().lower() not in (
        "0",
        "false",
        "off",
    )


def _circuit_fingerprint(circuit: Circuit) -> bytes:
    """Structural fingerprint: same value iff the direct encode is identical.

    Cells are identified by ``id()`` (library cells are process-level
    singletons, and every fingerprinted cell is pinned so ids cannot be
    recycled), nets by name, gates in topological order — exactly the data
    the direct encode consumes.
    """
    h = hashlib.blake2b(digest_size=16)

    def put(token: str) -> None:
        h.update(token.encode())
        h.update(b"\x00")

    for net in circuit.all_inputs:
        put(net)
    h.update(b"\x01")
    for net in circuit.outputs:
        put(net)
    h.update(b"\x01")
    for name in circuit.topological_order():
        gate = circuit.gate(name)
        cell = gate.cell
        _FINGERPRINTED_CELLS.setdefault(id(cell), cell)
        put(name)
        put(str(id(cell)))
        for net in gate.inputs:
            put(net)
        h.update(b"\x02")
    return h.digest()


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
        tie the primary inputs of two miter halves together).

        Repeated encodes of a structurally-identical circuit replay a cached
        template instead of re-walking the netlist; the resulting CNF is
        byte-identical to the direct path in clause order and variable
        numbering.  Set ``REPRO_CNF_MEMO=0`` to force direct encoding.
        """
        if not _memo_enabled():
            return self._encode_direct(circuit, prefix=prefix, share_nets=share_nets)
        if share_nets and any(v > self.cnf.n_vars for v in share_nets.values()):
            # A shared variable above the current allocation high-water mark
            # would make the direct path grow n_vars mid-stream (interleaved
            # with aux allocation); replay cannot mirror that, so don't.
            return self._encode_direct(circuit, prefix=prefix, share_nets=share_nets)
        template = self._template_for(circuit)
        return self._instantiate(template, prefix=prefix, share_nets=share_nets or {})

    @staticmethod
    def _template_for(circuit: Circuit) -> _EncodingTemplate:
        fingerprint = _circuit_fingerprint(circuit)
        with _TEMPLATE_LOCK:
            template = _TEMPLATE_CACHE.get(fingerprint)
            if template is not None:
                _TEMPLATE_CACHE.move_to_end(fingerprint)
                return template
        # Build outside the lock: a direct encode into a private CNF, whose
        # variable numbers 1..n ARE the allocation order.
        recorder = CircuitEncoder(CNF())
        var_of = recorder._encode_direct(circuit)
        private = recorder.cnf
        names_by_var = {var: name for name, var in private.names.items()}
        slots = tuple(names_by_var.get(v) for v in range(1, private.n_vars + 1))
        template = _EncodingTemplate(slots, tuple(private.clauses_from(0)), var_of)
        with _TEMPLATE_LOCK:
            _TEMPLATE_CACHE[fingerprint] = template
            while len(_TEMPLATE_CACHE) > _TEMPLATE_CACHE_MAX:
                _TEMPLATE_CACHE.popitem(last=False)
        return template

    def _instantiate(
        self,
        template: _EncodingTemplate,
        *,
        prefix: str,
        share_nets: Dict[str, int],
    ) -> Dict[str, int]:
        """Replay a template into ``self.cnf``, mirroring the direct path.

        Note the direct path registers ``prefix + net`` in the CNF *even
        when* ``share_nets`` overrides that net (``dict.get`` evaluates its
        default eagerly), so we do the same — variable numbering must match
        exactly.
        """
        cnf = self.cnf
        mapping = [0]  # 1-based: mapping[local_var] -> target literal base
        for slot in template.slots:
            if slot is None:
                mapping.append(cnf.new_var())
            else:
                allocated = cnf.var(f"{prefix}{slot}")
                mapping.append(share_nets.get(slot, allocated))
        # Every mapped variable is <= cnf.n_vars (allocated above, or a
        # share variable pre-checked by encode()), and template literals are
        # already validated — append straight to the clause list.
        clause_list = cnf._clauses
        for clause in template.clauses:
            clause_list.append(
                tuple(mapping[lit] if lit > 0 else -mapping[-lit] for lit in clause)
            )
        return {net: mapping[local] for net, local in template.var_of.items()}

    def _encode_direct(
        self,
        circuit: Circuit,
        *,
        prefix: str = "",
        share_nets: Optional[Dict[str, int]] = None,
    ) -> Dict[str, int]:
        """Reference encoder: walk the netlist gate by gate."""
        var_of: Dict[str, int] = {}
        share_nets = share_nets or {}

        for net in circuit.all_inputs:
            var_of[net] = share_nets.get(net, self.net_var(net, prefix))
        for name in circuit.topological_order():
            gate = circuit.gate(name)
            out_var = share_nets.get(name, self.net_var(name, prefix))
            var_of[name] = out_var
            in_vars = [var_of[n] for n in gate.inputs]
            self._encode_gate(gate, out_var, in_vars)
        return var_of

    # ------------------------------------------------------------------
    def _encode_gate(self, gate: Gate, out: int, ins: List[int]) -> None:
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
