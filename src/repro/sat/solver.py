"""A CDCL SAT solver with an incremental assumption interface.

This replaces the external SAT engines the paper's toolchain relies on
(equivalence checking with Synopsys Formality, the SAT queries inside the FALL
attack, and the classic oracle-guided SAT attack we provide as an extra
baseline).  It implements the standard conflict-driven clause-learning loop:

* two-watched-literal unit propagation,
* 1-UIP conflict analysis with clause learning,
* non-chronological backjumping,
* activity-based (VSIDS-style) decision heuristic with decay: the next
  decision is the unassigned variable of highest activity, ties broken to the
  lowest index, popped from a lazy binary heap (the order heap of Chaff and
  MiniSat) so a decision costs O(log n) instead of a scan over every variable,
* Luby-sequence restarts,
* phase saving.

It is not competitive with MiniSat, but it is exact, dependency-free and fast
enough for the miters produced by the scaled benchmark circuits used here.

Incremental use
---------------
A :class:`SatSolver` instance can be queried repeatedly.  ``solve`` accepts
*assumptions* — literals treated as decisions at the first decision levels
(the MiniSat interface) — which are retracted automatically when the call
returns, and :meth:`SatSolver.add_clause` strengthens the live formula between
calls.  Learned clauses, variable activities and saved phases survive across
calls, so a query sequence over one growing formula (the SAT attack's DIP
loop, FALL's pattern enumeration) avoids rebuilding CNF and watch lists per
query and reuses everything learned so far.  Verdicts are always identical to
a fresh solver on the same formula + assumptions; models may legitimately
differ (both are satisfying assignments).

The legacy entry points are unchanged: the module-level :func:`solve` builds a
fresh solver per call, and constructor ``assumptions`` are baked in as unit
clauses (irrevocably — use per-call assumptions for retractable ones).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import span
from .cnf import CNF

__all__ = ["ConflictBudgetExceeded", "SatResult", "SatSolver", "solve"]


class ConflictBudgetExceeded(RuntimeError):
    """A ``solve(max_conflicts=...)`` call ran out of its conflict budget.

    Budgeted callers (the SAT attack's per-DIP queries, FALL's pattern
    enumeration) catch this specific type instead of a bare ``RuntimeError``,
    so unrelated failures propagate instead of being swallowed as "budget
    exhausted".
    """

    def __init__(self, budget: int, conflicts: int):
        super().__init__(
            f"SAT conflict budget of {budget} exceeded after {conflicts} conflicts"
        )
        self.budget = budget
        self.conflicts = conflicts


@dataclass
class SatResult:
    """Outcome of a SAT query."""

    satisfiable: bool
    assignment: Dict[int, bool]
    conflicts: int
    decisions: int
    propagations: int

    def is_assigned(self, var: int) -> bool:
        """True when the variable has a value in the satisfying assignment."""
        return var in self.assignment

    def value(self, var: int) -> bool:
        """Value of a variable in the satisfying assignment.

        Raises :class:`ValueError` for a variable the model leaves free (or on
        an UNSAT result, where every variable is free) — callers decoding key
        bits must not mistake a free variable for a 0 bit.  Use
        :meth:`is_assigned` / :meth:`value_or` when a free variable is an
        expected outcome.
        """
        try:
            return self.assignment[var]
        except KeyError:
            state = "free in this model" if self.satisfiable else "unassigned (UNSAT result)"
            raise ValueError(f"variable {var} is {state}") from None

    def value_or(self, var: int, default: bool = False) -> bool:
        """Value of a variable, or ``default`` when the model leaves it free."""
        return self.assignment.get(var, default)

    def __bool__(self) -> bool:
        return self.satisfiable


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    if (1 << k) - 1 == i:
        return 1 << (k - 1)
    return _luby(i - (1 << (k - 1)) + 1)


class SatSolver:
    """Conflict-driven clause-learning solver over a :class:`CNF` formula.

    ``phase_seed`` randomises the initial decision phases, which diversifies
    the models returned by repeated enumeration queries (used by the baseline
    attacks when collecting protected-pattern samples).

    The solver snapshots the clauses of ``cnf`` at construction time; clauses
    added to the CNF object afterwards must be fed in explicitly through
    :meth:`add_clause` (or :meth:`attach_new_clauses`).
    """

    def __init__(
        self,
        cnf: CNF,
        assumptions: Sequence[int] = (),
        *,
        phase_seed: Optional[int] = None,
    ):
        self.n_vars = cnf.n_vars
        for lit in assumptions:
            self.n_vars = max(self.n_vars, abs(lit))
        self.clauses: List[List[int]] = []
        self._unsat_on_input = False
        self._pending_units: List[int] = []
        #: Number of CNF clauses already ingested (for attach_new_clauses).
        self._cnf_clauses_seen = cnf.n_clauses

        if 0 in assumptions:
            raise ValueError("literal 0 is not allowed")
        for clause in list(cnf.clauses) + [(int(l),) for l in assumptions]:
            clause = list(dict.fromkeys(clause))  # dedupe, keep order
            if len(clause) == 0:
                self._unsat_on_input = True
                continue
            if any(-lit in clause for lit in clause):
                continue  # tautology
            if len(clause) == 1:
                self._pending_units.append(clause[0])
            else:
                self.clauses.append(clause)

        size = self.n_vars + 1
        self.assignment: List[Optional[bool]] = [None] * size
        self.level: List[int] = [0] * size
        self.reason: List[Optional[int]] = [None] * size
        self.activity: List[float] = [0.0] * size
        self.phase: List[bool] = [False] * size
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.var_decay = 0.95
        #: Decision order: ``(-activity, var)`` entries with lazy deletion.
        #: Every unassigned variable has an entry keyed on its current
        #: activity; entries of assigned variables and stale keys are
        #: discarded when they reach the top.
        self._order: List[Tuple[float, int]] = []
        self._rebuild_order()
        if phase_seed is not None:
            self.set_phase_seed(phase_seed)

        self.watches: Dict[int, List[int]] = {}
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.solve_calls = 0

        for idx, clause in enumerate(self.clauses):
            self._watch(clause[0], idx)
            self._watch(clause[1], idx)

    # ------------------------------------------------------------------
    # Low-level helpers
    # ------------------------------------------------------------------
    def _watch(self, lit: int, clause_idx: int) -> None:
        self.watches.setdefault(lit, []).append(clause_idx)

    def _lit_value(self, lit: int) -> Optional[bool]:
        val = self.assignment[abs(lit)]
        if val is None:
            return None
        return val if lit > 0 else not val

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        """Assign ``lit`` true; returns False if it is already false."""
        current = self._lit_value(lit)
        if current is not None:
            return current
        var = abs(lit)
        self.assignment[var] = lit > 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    def _ensure_var(self, var: int) -> None:
        """Grow the per-variable arrays so ``var`` is addressable."""
        if var < len(self.assignment):
            self.n_vars = max(self.n_vars, var)
            return
        grow = var + 1 - len(self.assignment)
        self.assignment.extend([None] * grow)
        self.level.extend([0] * grow)
        self.reason.extend([None] * grow)
        self.activity.extend([0.0] * grow)
        self.phase.extend([False] * grow)
        for new_var in range(var + 1 - grow, var + 1):
            heapq.heappush(self._order, (-0.0, new_var))
        self.n_vars = max(self.n_vars, var)

    def set_phase_seed(self, seed: int) -> None:
        """Re-randomise the decision phases (model diversification knob).

        Enumeration loops that previously built a fresh solver per query with
        a different ``phase_seed`` call this between incremental queries to
        keep drawing diverse models.
        """
        import random

        rng = random.Random(seed)
        self.phase = [rng.random() < 0.5 for _ in range(len(self.assignment))]

    # ------------------------------------------------------------------
    # Incremental clause interface
    # ------------------------------------------------------------------
    def add_clause(self, literals: Sequence[int]) -> None:
        """Strengthen the live formula with one clause.

        Sound between ``solve`` calls: the trail is unwound to decision level
        0 first, literals already false at level 0 are dropped (they are
        permanently false) and a clause containing a literal true at level 0
        is permanently satisfied and skipped.
        """
        self._cancel_until(0)
        clause = list(dict.fromkeys(int(l) for l in literals))
        if 0 in clause:
            raise ValueError("literal 0 is not allowed")
        if not clause:
            self._unsat_on_input = True
            return
        # Register every variable before any early return, so a variable
        # met only in a dropped tautology is still decided and has a value
        # in the model, as it would had the clause been in the CNF.
        for lit in clause:
            self._ensure_var(abs(lit))
        if any(-lit in clause for lit in clause):
            return  # tautology
        reduced: List[int] = []
        for lit in clause:
            val = self._lit_value(lit)
            if val is True:
                return  # satisfied at level 0 forever
            if val is False:
                continue  # permanently false literal
            reduced.append(lit)
        if not reduced:
            self._unsat_on_input = True
            return
        if len(reduced) == 1:
            if not self._enqueue(reduced[0], None):
                self._unsat_on_input = True
            return
        idx = len(self.clauses)
        self.clauses.append(reduced)
        self._watch(reduced[0], idx)
        self._watch(reduced[1], idx)

    def attach_new_clauses(self, cnf: CNF) -> int:
        """Ingest clauses appended to ``cnf`` since the last snapshot.

        Callers that keep encoding into the CNF the solver was built from
        (the SAT attack adds oracle constraints per DIP) call this after each
        encoding burst; returns the number of clauses ingested.
        """
        fresh = cnf.clauses_from(self._cnf_clauses_seen)
        self._cnf_clauses_seen = cnf.n_clauses
        for clause in fresh:
            self.add_clause(clause)
        return len(fresh)

    # ------------------------------------------------------------------
    # Unit propagation (two watched literals)
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[int]:
        """Propagate pending assignments; returns a conflicting clause index."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            false_lit = -lit
            watching = self.watches.get(false_lit, [])
            kept: List[int] = []
            i = 0
            n = len(watching)
            while i < n:
                clause_idx = watching[i]
                i += 1
                clause = self.clauses[clause_idx]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._lit_value(first) is True:
                    kept.append(clause_idx)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watch(clause[1], clause_idx)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(clause_idx)
                if self._lit_value(first) is False:
                    kept.extend(watching[i:])
                    self.watches[false_lit] = kept
                    return clause_idx
                self._enqueue(first, clause_idx)
            self.watches[false_lit] = kept
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.n_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_order()
        elif self.assignment[var] is None:
            heapq.heappush(self._order, (-self.activity[var], var))

    def _analyze(self, conflict_idx: int) -> Tuple[List[int], int]:
        """First-UIP conflict analysis; returns (learned clause, backjump level).

        The asserting literal is placed first in the learned clause.
        """
        current_level = self._decision_level()
        learned_tail: List[int] = []
        seen = [False] * (self.n_vars + 1)
        counter = 0
        resolve_lit: Optional[int] = None
        clause: List[int] = self.clauses[conflict_idx]
        trail_idx = len(self.trail) - 1

        while True:
            for q in clause:
                if resolve_lit is not None and q == resolve_lit:
                    continue
                var = abs(q)
                if seen[var] or self.level[var] == 0:
                    continue
                seen[var] = True
                self._bump(var)
                if self.level[var] >= current_level:
                    counter += 1
                else:
                    learned_tail.append(q)
            while not seen[abs(self.trail[trail_idx])]:
                trail_idx -= 1
            resolve_lit = self.trail[trail_idx]
            var = abs(resolve_lit)
            seen[var] = False
            counter -= 1
            trail_idx -= 1
            if counter == 0:
                break
            reason_idx = self.reason[var]
            assert reason_idx is not None, "resolving on a decision before UIP"
            clause = self.clauses[reason_idx]

        learned = [-resolve_lit] + learned_tail
        if len(learned) == 1:
            return learned, 0
        back_level = max(self.level[abs(l)] for l in learned_tail)
        return learned, back_level

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------
    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self.trail_lim[level]
        order = self._order
        for lit in reversed(self.trail[limit:]):
            var = abs(lit)
            self.phase[var] = bool(self.assignment[var])
            self.assignment[var] = None
            self.reason[var] = None
            heapq.heappush(order, (-self.activity[var], var))
        del self.trail[limit:]
        del self.trail_lim[level:]
        self.qhead = min(self.qhead, len(self.trail))

    def _add_learned(self, learned: List[int]) -> None:
        """Record a learned clause and enqueue its asserting literal."""
        if len(learned) == 1:
            self._enqueue(learned[0], None)
            return
        # Watch the asserting literal and a literal from the backjump level.
        idx = len(self.clauses)
        back_level = max(self.level[abs(l)] for l in learned[1:])
        for k in range(1, len(learned)):
            if self.level[abs(learned[k])] == back_level:
                learned[1], learned[k] = learned[k], learned[1]
                break
        self.clauses.append(list(learned))
        self._watch(learned[0], idx)
        self._watch(learned[1], idx)
        self._enqueue(learned[0], idx)

    # ------------------------------------------------------------------
    # Decision heuristic
    # ------------------------------------------------------------------
    def _rebuild_order(self) -> None:
        """Re-key the decision heap on every unassigned variable."""
        self._order = [
            (-self.activity[v], v)
            for v in range(1, self.n_vars + 1)
            if self.assignment[v] is None
        ]
        heapq.heapify(self._order)

    def _pick_branch_var(self) -> Optional[int]:
        """The unassigned variable of highest activity, lowest index on ties."""
        if len(self._order) > 4 * self.n_vars:
            self._rebuild_order()
        order = self._order
        while order:
            neg_act, var = heapq.heappop(order)
            if self.assignment[var] is None and -neg_act == self.activity[var]:
                return var
        return None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        *,
        max_conflicts: Optional[int] = None,
    ) -> SatResult:
        """Run the CDCL loop to completion, optionally under assumptions.

        ``assumptions`` are literals decided (in order) at the first decision
        levels and retracted before the call returns, so the solver can be
        re-queried under different assumptions while keeping every clause it
        has learned.  Raises :class:`ConflictBudgetExceeded` if this call
        exceeds ``max_conflicts`` conflicts (the budget is per call, not per
        solver lifetime).
        """
        with span(
            "sat_solve",
            n_vars=self.n_vars,
            n_clauses=len(self.clauses),
            incremental=self.solve_calls > 0,
        ) as handle:
            result = self._solve(list(assumptions), max_conflicts)
            handle.tag(
                satisfiable=bool(result.satisfiable), conflicts=int(result.conflicts)
            )
            return result

    def _solve(
        self, assume: List[int], max_conflicts: Optional[int]
    ) -> SatResult:
        self.solve_calls += 1
        for lit in assume:
            if lit == 0:
                raise ValueError("literal 0 is not allowed as an assumption")
            self._ensure_var(abs(lit))
        self._cancel_until(0)
        if self._unsat_on_input:
            return self._result(False)
        if self._pending_units:
            for lit in self._pending_units:
                if not self._enqueue(lit, None):
                    self._unsat_on_input = True
                    return self._result(False)
            self._pending_units = []

        start_conflicts = self.conflicts
        restart_idx = 1
        restart_budget = 64 * _luby(restart_idx)
        conflicts_since_restart = 0

        while True:
            conflict_idx = self._propagate()
            if conflict_idx is not None:
                self.conflicts += 1
                conflicts_since_restart += 1
                if (
                    max_conflicts is not None
                    and self.conflicts - start_conflicts > max_conflicts
                ):
                    self._cancel_until(0)
                    raise ConflictBudgetExceeded(
                        max_conflicts, self.conflicts - start_conflicts
                    )
                if self._decision_level() == 0:
                    # Conflict independent of any decision or assumption: the
                    # formula itself is unsatisfiable, now and forever.
                    self._unsat_on_input = True
                    return self._result(False)
                learned, back_level = self._analyze(conflict_idx)
                self._cancel_until(back_level)
                self._add_learned(learned)
                self.var_inc /= self.var_decay
                continue

            if conflicts_since_restart >= restart_budget:
                conflicts_since_restart = 0
                restart_idx += 1
                restart_budget = 64 * _luby(restart_idx)
                self._cancel_until(0)
                continue

            # Decide the next unassigned assumption first (in order); fall
            # back to the activity heuristic once all assumptions hold.
            next_lit: Optional[int] = None
            while self._decision_level() < len(assume):
                lit = assume[self._decision_level()]
                val = self._lit_value(lit)
                if val is True:
                    # Already implied: open an empty level so assumption i
                    # stays pinned to decision level i+1.
                    self.trail_lim.append(len(self.trail))
                elif val is False:
                    # The formula (plus earlier assumptions) forces the
                    # negation of this assumption: UNSAT under assumptions.
                    result = self._result(False)
                    self._cancel_until(0)
                    return result
                else:
                    next_lit = lit
                    break
            if next_lit is None:
                var = self._pick_branch_var()
                if var is None:
                    result = self._result(True)
                    self._cancel_until(0)
                    return result
                next_lit = var if self.phase[var] else -var
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(next_lit, None)

    def _result(self, satisfiable: bool) -> SatResult:
        assignment: Dict[int, bool] = {}
        if satisfiable:
            assignment = {
                v: bool(self.assignment[v])
                for v in range(1, self.n_vars + 1)
                if self.assignment[v] is not None
            }
        return SatResult(
            satisfiable, assignment, self.conflicts, self.decisions,
            self.propagations,
        )


def solve(
    cnf: CNF,
    assumptions: Sequence[int] = (),
    *,
    max_conflicts: Optional[int] = None,
    phase_seed: Optional[int] = None,
) -> SatResult:
    """Solve ``cnf`` (optionally under assumption literals) with a fresh solver."""
    return SatSolver(cnf, assumptions, phase_seed=phase_seed).solve(
        max_conflicts=max_conflicts
    )
