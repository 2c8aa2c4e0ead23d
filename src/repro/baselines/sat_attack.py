"""The oracle-guided SAT attack [Subramanyan et al., HOST 2015].

Included as the context baseline motivating PSLL: it breaks traditional
XOR-based locking in a handful of iterations, but Anti-SAT / SFLL force (close
to) one iteration per protected pattern, so a small iteration budget runs out
— which is exactly why the oracle-less GNNUnlock attack matters.

The attack needs an oracle; we use the original (unlocked) circuit as the
functional oracle, which the oracle-guided threat model permits.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..locking.base import LockingResult
from ..netlist.circuit import Circuit
from ..netlist.simulate import simulate
from ..sat.cnf import CNF
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
    """Run the oracle-guided SAT attack on a locked circuit."""
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

    solver = SatSolver(cnf)
    iterations = 0
    dips: List[Dict[str, bool]] = []
    for iterations in range(1, max_iterations + 1):
        try:
            model = solver.solve(
                assumptions=[act], max_conflicts=max_conflicts_per_call
            )
        except ConflictBudgetExceeded:
            return BaselineResult(
                attack="SAT",
                scheme=result.scheme,
                success=False,
                reason="SAT conflict budget exceeded while searching for a DIP",
                statistics={"iterations": iterations, "dips": len(dips)},
            )
        if not model.satisfiable:
            break
        dip = {net: model.value(var) for net, var in shared_pi.items()}
        dips.append(dip)
        oracle_out = simulate(oracle, dip, outputs=outputs)
        oracle_values = {po: bool(oracle_out[po][0]) for po in outputs}
        # Constrain both keyed copies to agree with the oracle on this DIP.
        for key_vars, prefix in ((key_a, "ca"), (key_b, "cb")):
            copy_vars = encoder.encode(
                locked,
                prefix=f"{prefix}{iterations}::",
                share_nets={
                    **{net: _constant_var(cnf, value) for net, value in dip.items()},
                    **key_vars,
                },
            )
            for po in outputs:
                var = copy_vars[po]
                cnf.add_clause([var] if oracle_values[po] else [-var])
        solver.attach_new_clauses(cnf)
    else:
        return BaselineResult(
            attack="SAT",
            scheme=result.scheme,
            success=False,
            reason=f"iteration budget of {max_iterations} DIPs exhausted",
            statistics={"iterations": max_iterations, "dips": len(dips)},
        )

    # UNSAT under [act]: any key satisfying the accumulated constraints is
    # functionally correct.  Retract the miter via [-act] and solve for key
    # copy A on the same solver, keeping everything it has learned.
    final = solver.solve(assumptions=[-act])
    if not final.satisfiable:
        return BaselineResult(
            attack="SAT",
            scheme=result.scheme,
            success=False,
            reason="constraint system became unsatisfiable (no consistent key)",
            statistics={"iterations": iterations, "dips": len(dips)},
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
        statistics={"iterations": iterations, "dips": len(dips)},
    )


def _constant_var(cnf: CNF, value: bool) -> int:
    var = cnf.new_var()
    cnf.add_clause([var] if value else [-var])
    return var
