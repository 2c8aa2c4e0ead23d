"""The oracle-guided SAT attack [Subramanyan et al., HOST 2015].

Included as the context baseline motivating PSLL: it breaks traditional
XOR-based locking in a handful of iterations, but Anti-SAT / SFLL force (close
to) one iteration per protected pattern, so a small iteration budget runs out
— which is exactly why the oracle-less GNNUnlock attack matters.

The attack needs an oracle; we use the original (unlocked) circuit as the
functional oracle, which the oracle-guided threat model permits.

Encoding
--------
The DIP search runs on a miter: two full copies of the locked circuit with
shared primary inputs and separate keys (copies A and B), plus a clause that
some output differs.  Each distinguishing input pattern (DIP) the search finds
is answered by the oracle, and that answer is added as a constraint on both
keys.  Only the gates in the key inputs' transitive fan-out (the *key cone*,
computed once per attack) can depend on the key, so the constraint is
encoded over that cone alone:

1. One simulation of the locked circuit on the DIP gives the value of every
   key-independent net.
2. The cone is folded with those constants in topological order: a gate is
   resolved when its unknown inputs cannot change its output (an AND with a
   0 input, an OR with a 1 input, any cell with all inputs known, ...).
3. The cone gates left unresolved are encoded once per key copy; a known
   input is bound to one constant-true variable shared by the whole attack.
4. An unresolved output gets a unit clause with the oracle's value.  A
   resolved output that disagrees with the oracle adds the empty clause: no
   key is consistent, and the attack ends on an unsatisfiable constraint
   system.

The constraints admit exactly the keys that two full circuit copies with
constant-pinned inputs would admit.  The gates they leave out are ones the
DIP already fixes; for AND/OR/XOR-type cells they are exactly the gates unit
propagation fixed at decision level 0 in the full copies.  So the attack no
longer adds, watches and propagates them on every DIP, nor decides the unused
input variables a full copy registers.  On the capability matrix the search
makes the same conflicts and finds the same DIPs as with full copies; only
decisions and propagations fall.

The miter's two copies still register an ``A::``/``B::`` name for every
input they share, and a primary input no gate reads has a ``dip::`` variable
in no clause.  The solver never decides such a variable; its value in the
(total) model is its saved phase, so DIPs and keys decode the same way for
every input.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..locking.base import LockingResult
from ..netlist.circuit import Circuit
from ..netlist.gates import CellType
from ..netlist.simulate import exhaustive_patterns, simulate
from ..netlist.traversal import key_cone
from ..sat.solver import ConflictBudgetExceeded, SatSolver
from ..sat.tseitin import CircuitEncoder
from ..sat.equivalence import check_equivalence
from .base import BaselineResult

__all__ = ["sat_attack"]


def sat_attack(
    result: LockingResult,
    *,
    max_iterations: int = 64,
    max_conflicts_per_call: int = 400_000,
    verify: bool = True,
) -> BaselineResult:
    """Run the oracle-guided SAT attack on a locked circuit.

    With ``verify``, the recovered key is checked with
    :func:`~repro.sat.equivalence.check_equivalence`, whose structural fast
    path folds the key bits as constants: XOR- and MUX-style key gates under
    a correct key are proven without a SAT miter.

    ``statistics`` reports the DIP count and the encoding size: the static
    key cone (``cone_gates``) and the gates encoded for it, summed over every
    DIP and both key copies (``encoded_gates``).
    """
    locked = result.locked
    oracle = result.original
    key_inputs = list(locked.key_inputs)
    primary_inputs = list(locked.inputs)
    outputs = [po for po in locked.outputs if po in oracle.outputs]
    if not key_inputs:
        return BaselineResult(
            attack="SAT",
            scheme=result.scheme,
            success=False,
            reason="circuit has no key inputs",
        )

    encoder = CircuitEncoder()
    cnf = encoder.cnf
    shared_pi = {net: cnf.var(f"dip::{net}") for net in primary_inputs}
    key_a = {net: cnf.var(f"ka::{net}") for net in key_inputs}
    key_b = {net: cnf.var(f"kb::{net}") for net in key_inputs}
    vars_a = encoder.encode(locked, prefix="A::", share_nets={**shared_pi, **key_a})
    vars_b = encoder.encode(locked, prefix="B::", share_nets={**shared_pi, **key_b})

    # Difference miter: the two keyed copies disagree on some output.  The
    # miter clause carries an activation literal so one incremental solver
    # serves both query shapes: DIP search solves under ``[act]``; the final
    # key extraction solves under ``[-act]``, which satisfies (disables) the
    # miter clause without rebuilding the formula.
    xor_vars = []
    for po in outputs:
        x = cnf.new_var()
        va, vb = vars_a[po], vars_b[po]
        cnf.add_clause([-x, va, vb])
        cnf.add_clause([-x, -va, -vb])
        cnf.add_clause([x, -va, vb])
        cnf.add_clause([x, va, -vb])
        xor_vars.append(x)
    act = cnf.new_var()
    cnf.add_clause(xor_vars + [-act])

    constraints = KeyConeConstraints(encoder, locked, outputs)
    solver = SatSolver(cnf)
    iterations = 0
    dips = 0
    encoded_gates = 0

    def fail(reason: str, iterations: int) -> BaselineResult:
        return BaselineResult(
            attack="SAT",
            scheme=result.scheme,
            success=False,
            reason=reason,
            statistics=statistics(iterations),
        )

    def statistics(iterations: int) -> Dict[str, object]:
        return {
            "iterations": iterations,
            "dips": dips,
            "cone_gates": len(constraints.cone),
            "encoded_gates": encoded_gates,
        }

    for iterations in range(1, max_iterations + 1):
        try:
            model = solver.solve(
                assumptions=[act], max_conflicts=max_conflicts_per_call
            )
        except ConflictBudgetExceeded:
            return fail(
                "SAT conflict budget exceeded while searching for a DIP", iterations
            )
        if not model.satisfiable:
            break
        dip = {net: model.value(var) for net, var in shared_pi.items()}
        dips += 1
        oracle_out = simulate(oracle, dip, outputs=outputs)
        oracle_values = {po: bool(oracle_out[po][0]) for po in outputs}
        # Constrain both keyed copies to agree with the oracle on this DIP.
        encoded_gates += constraints.add(dip, oracle_values, (key_a, key_b))
        solver.attach_new_clauses(cnf)
    else:
        return fail(
            f"iteration budget of {max_iterations} DIPs exhausted", max_iterations
        )

    # UNSAT under [act]: any key satisfying the accumulated constraints is
    # functionally correct.  Retract the miter via [-act] and solve for key
    # copy A on the same solver, keeping everything it has learned.
    final = solver.solve(assumptions=[-act])
    if not final.satisfiable:
        return fail(
            "constraint system became unsatisfiable (no consistent key)", iterations
        )
    recovered_key = {net: final.value(var) for net, var in key_a.items()}

    success = True
    reason = ""
    if verify:
        try:
            success = check_equivalence(
                locked, oracle, key_assignment=recovered_key
            ).equivalent
            reason = "" if success else "recovered key does not unlock the design"
        except Exception as exc:  # noqa: BLE001
            success = False
            reason = f"key verification failed: {exc}"
    return BaselineResult(
        attack="SAT",
        scheme=result.scheme,
        success=success,
        reason=reason,
        recovered_key=recovered_key,
        statistics=statistics(iterations),
    )


class KeyConeConstraints:
    """Oracle constraints on keyed copies of ``locked``, encoded over its key cone.

    Built once per attack on the attack's encoder: it computes the key cone
    and allocates the constant-true variable (with its unit clause) that
    every known cone input is bound to.
    """

    def __init__(
        self, encoder: CircuitEncoder, locked: Circuit, outputs: Sequence[str]
    ):
        self.encoder = encoder
        self.locked = locked
        self.outputs = list(outputs)
        self.cone = [locked.gate(name) for name in key_cone(locked)]
        cone_names = {gate.name for gate in self.cone}
        read = {net for gate in self.cone for net in gate.inputs} | set(self.outputs)
        #: Key-independent nets the fold and the output check read.
        self._known = sorted(read - cone_names - set(locked.key_inputs))
        self._zero_key = {net: False for net in locked.key_inputs}
        self.true_var = encoder.cnf.new_var()
        encoder.cnf.add_clause([self.true_var])

    def add(
        self,
        dip: Mapping[str, bool],
        oracle_values: Mapping[str, bool],
        key_copies: Sequence[Mapping[str, int]],
    ) -> int:
        """Constrain every key copy to give ``oracle_values`` on ``dip``.

        ``key_copies`` maps each key input to its CNF variable, one mapping
        per copy.  Returns the number of gates encoded, over all copies.
        """
        simulated = simulate(
            self.locked, {**dip, **self._zero_key}, outputs=self._known
        )
        value: Dict[str, bool] = {net: bool(bits[0]) for net, bits in simulated.items()}
        unresolved = []
        for gate in self.cone:
            out = _fold(gate.cell, [value.get(net) for net in gate.inputs])
            if out is None:
                unresolved.append(gate)
            else:
                value[gate.name] = out

        cnf = self.encoder.cnf
        true_var = self.true_var
        for key_vars in key_copies:
            var_of = dict(key_vars)
            for gate in unresolved:
                out_var = cnf.new_var()
                ins = [
                    var_of[net] if net in var_of else (true_var if value[net] else -true_var)
                    for net in gate.inputs
                ]
                self.encoder.encode_gate(gate, out_var, ins)
                var_of[gate.name] = out_var
            for po in self.outputs:
                if po in var_of:
                    var = var_of[po]
                    cnf.add_clause([var] if oracle_values[po] else [-var])
                elif value[po] != oracle_values[po]:
                    cnf.add_clause([])
        return len(unresolved) * len(key_copies)


#: Cell name -> (controlling input value, output inverted).
_CONTROLLING: Dict[str, Tuple[bool, bool]] = {
    **{name: (False, False) for name in ("AND", "AND2", "AND3", "AND4")},
    **{name: (False, True) for name in ("NAND", "NAND2", "NAND3", "NAND4")},
    **{name: (True, False) for name in ("OR", "OR2", "OR3", "OR4")},
    **{name: (True, True) for name in ("NOR", "NOR2", "NOR3", "NOR4")},
}
#: Cell name -> output inverted, for parity cells.
_PARITY: Dict[str, bool] = {
    **{name: False for name in ("XOR", "XOR2", "XOR3")},
    **{name: True for name in ("XNOR", "XNOR2", "XNOR3")},
}
_TRUTH_TABLES: Dict[Tuple[str, object], Tuple[bool, ...]] = {}


def _fold(cell: CellType, ins: List[Optional[bool]]) -> Optional[bool]:
    """Output of ``cell`` on partly known inputs (``None`` is unknown).

    Returns ``None`` when the unknown inputs can change the output.
    """
    name = cell.name
    if name in _CONTROLLING:
        controlling, inverted = _CONTROLLING[name]
        if controlling in ins:
            return controlling != inverted
        if None in ins:
            return None
        return controlling == inverted
    if name in _PARITY:
        if None in ins:
            return None
        return (sum(ins) % 2 == 1) != _PARITY[name]
    table = _truth_table(cell)
    index = sum(1 << i for i, bit in enumerate(ins) if bit)
    free = [1 << i for i, bit in enumerate(ins) if bit is None]
    out = table[index]
    for completion in range(1, 1 << len(free)):
        fill = sum(bit for j, bit in enumerate(free) if completion >> j & 1)
        if table[index | fill] != out:
            return None
    return out


def _truth_table(cell: CellType) -> Tuple[bool, ...]:
    """``cell``'s outputs, indexed by the input bits (input ``i`` is bit ``i``)."""
    key = (cell.name, cell.function)
    table = _TRUTH_TABLES.get(key)
    if table is None:
        columns = exhaustive_patterns(cell.arity).T
        table = _TRUTH_TABLES[key] = tuple(bool(v) for v in cell.evaluate(*columns))
    return table
