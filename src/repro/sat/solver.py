"""A CDCL SAT solver with an incremental assumption interface.

This replaces the external SAT engines the paper's toolchain relies on
(equivalence checking with Synopsys Formality, the SAT queries inside the FALL
attack, and the classic oracle-guided SAT attack we provide as an extra
baseline).  It implements the standard conflict-driven clause-learning loop:

* two-watched-literal unit propagation over literal values kept in one list
  indexed by literal (a negative literal indexes from the end), so the watch
  loop reads a value with one index and no ``abs()``,
* 1-UIP conflict analysis with clause learning,
* non-chronological backjumping,
* activity-based (VSIDS-style) decision heuristic with decay: the next
  decision is the unassigned variable of highest activity, ties broken to the
  lowest index, popped from a lazy binary heap (the order heap of Chaff and
  MiniSat) so a decision costs O(log n) instead of a scan over every variable,
* Luby-sequence restarts,
* phase saving.

Only variables that occur in a watched clause are ever decided.  A variable
in no clause of two or more literals (an input name a Tseitin copy
registers but no gate reads, or one met only in a dropped tautology) would
propagate nothing when decided, so it takes its saved phase in the model
instead, which is the value a decision would have given it.  Models stay
total, and the search on the remaining variables is the one a solver
deciding every variable makes.

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

        A satisfying model is total: every variable the solver knows has a
        value (one that occurs in no clause has its saved phase).  Raises
        :class:`ValueError` for a variable outside the solver's range, or on
        an UNSAT result, where every variable is free — callers decoding key
        bits must not mistake a free variable for a 0 bit.  Use
        :meth:`is_assigned` / :meth:`value_or` when a free variable is an
        expected outcome.
        """
        try:
            return self.assignment[var]
        except KeyError:
            state = "outside this model" if self.satisfiable else "unassigned (UNSAT result)"
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
        #: Literal values indexed by literal: ``_lv[lit]`` is True, False or
        #: None (unassigned).  A negative literal indexes from the end, so
        #: ``_lv[v]`` and ``_lv[-v]`` are a variable's two polarities.  The
        #: capacity doubles in :meth:`_ensure_var`, which moves the negative
        #: half to the new end.
        self._lv: List[Optional[bool]] = [None] * (2 * size - 1)
        self.level: List[int] = [0] * size
        self.reason: List[Optional[int]] = [None] * size
        self.activity: List[float] = [0.0] * size
        self.phase: List[bool] = [False] * size
        #: ``_occurs[v]``: variable ``v`` occurs in a watched clause.  Only
        #: such variables are decided; any other one is reported in the
        #: model at its saved phase (deciding it would propagate nothing).
        self._occurs: List[bool] = [False] * size
        for clause in self.clauses:
            for lit in clause:
                self._occurs[abs(lit)] = True
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.var_decay = 0.95
        #: Decision order: ``(-activity, var)`` entries with lazy deletion.
        #: Every unassigned variable that occurs in a watched clause has an
        #: entry keyed on its current activity; entries of assigned
        #: variables and stale keys are discarded when they reach the top.
        self._order: List[Tuple[float, int]] = []
        #: ``_queued[v]``: the activity of ``v``'s newest heap entry, or None
        #: once that entry has been popped.  An entry equal to the one a push
        #: would add is never pushed twice.
        self._queued: List[Optional[float]] = [None] * size
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

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        """Assign ``lit`` true; returns False if it is already false."""
        lv = self._lv
        current = lv[lit]
        if current is not None:
            return current
        lv[lit] = True
        lv[-lit] = False
        var = lit if lit > 0 else -lit
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _ensure_var(self, var: int) -> None:
        """Grow the per-variable arrays so ``var`` is addressable."""
        if var <= self.n_vars:
            return
        grow = var - self.n_vars
        self.level.extend([0] * grow)
        self.reason.extend([None] * grow)
        self.activity.extend([0.0] * grow)
        self.phase.extend([False] * grow)
        self._occurs.extend([False] * grow)
        self._queued.extend([None] * grow)
        self.n_vars = var
        lv = self._lv
        cap = len(lv) // 2
        if var > cap:
            new_cap = max(var, 2 * cap)
            self._lv = lv[: cap + 1] + [None] * (2 * (new_cap - cap)) + lv[cap + 1 :]

    def set_phase_seed(self, seed: int) -> None:
        """Re-randomise the decision phases (model diversification knob).

        Enumeration loops that previously built a fresh solver per query with
        a different ``phase_seed`` call this between incremental queries to
        keep drawing diverse models.
        """
        import random

        rng = random.Random(seed)
        self.phase = [rng.random() < 0.5 for _ in range(self.n_vars + 1)]

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
        # met only in a dropped clause still has a value (its phase) in the
        # model, as it would had the clause been in the CNF.
        for lit in clause:
            self._ensure_var(abs(lit))
        if any(-lit in clause for lit in clause):
            return  # tautology
        lv = self._lv
        reduced: List[int] = []
        for lit in clause:
            val = lv[lit]
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
        occurs = self._occurs
        for lit in reduced:
            var = lit if lit > 0 else -lit
            if not occurs[var]:
                # Level 0 is all that is assigned here, and ``reduced`` holds
                # no assigned literal: the variable becomes decidable.
                occurs[var] = True
                act = self.activity[var]
                self._queued[var] = act
                heapq.heappush(self._order, (-act, var))

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
        trail = self.trail
        lv = self._lv
        clauses = self.clauses
        watches = self.watches
        level = self.level
        reason = self.reason
        decision_level = len(self.trail_lim)
        qhead = self.qhead
        start = qhead
        conflict: Optional[int] = None
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watching = watches.get(false_lit)
            if not watching:
                continue
            kept: List[int] = []
            i = 0
            n = len(watching)
            while i < n:
                clause_idx = watching[i]
                i += 1
                clause = clauses[clause_idx]
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if lv[first]:
                    kept.append(clause_idx)
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if lv[lit] is not False:
                        clause[1] = lit
                        clause[k] = false_lit
                        if lit in watches:
                            watches[lit].append(clause_idx)
                        else:
                            watches[lit] = [clause_idx]
                        break
                else:
                    kept.append(clause_idx)
                    if lv[first] is False:
                        kept.extend(watching[i:])
                        conflict = clause_idx
                        break
                    lv[first] = True
                    lv[-first] = False
                    var = first if first > 0 else -first
                    level[var] = decision_level
                    reason[var] = clause_idx
                    trail.append(first)
            watches[false_lit] = kept
            if conflict is not None:
                break
        self.propagations += qhead - start
        self.qhead = qhead
        return conflict

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _rescale_activity(self) -> None:
        """Scale every activity down by 1e-100 once one crosses 1e100."""
        activity = self.activity
        for v in range(1, self.n_vars + 1):
            activity[v] *= 1e-100
        self.var_inc *= 1e-100
        self._rebuild_order()

    def _analyze(self, conflict_idx: int) -> Tuple[List[int], int]:
        """First-UIP conflict analysis; returns (learned clause, backjump level).

        The asserting literal is placed first in the learned clause.  Every
        variable met is bumped; all of them are assigned, so none needs a
        fresh decision-heap entry (:meth:`_cancel_until` pushes one when it
        unassigns the variable).
        """
        level = self.level
        reason = self.reason
        trail = self.trail
        clauses = self.clauses
        activity = self.activity
        inc = self.var_inc
        current_level = len(self.trail_lim)
        learned_tail: List[int] = []
        back_level = 0
        seen = [False] * (self.n_vars + 1)
        counter = 0
        resolve_lit = 0
        clause: List[int] = clauses[conflict_idx]
        trail_idx = len(trail) - 1

        while True:
            for q in clause:
                if q == resolve_lit:
                    continue
                var = q if q > 0 else -q
                if seen[var]:
                    continue
                lit_level = level[var]
                if lit_level == 0:
                    continue
                seen[var] = True
                bumped = activity[var] + inc
                activity[var] = bumped
                if bumped > 1e100:
                    self._rescale_activity()
                    inc = self.var_inc
                if lit_level >= current_level:
                    counter += 1
                else:
                    learned_tail.append(q)
                    if lit_level > back_level:
                        back_level = lit_level
            lit = trail[trail_idx]
            while not seen[lit if lit > 0 else -lit]:
                trail_idx -= 1
                lit = trail[trail_idx]
            resolve_lit = lit
            var = lit if lit > 0 else -lit
            seen[var] = False
            counter -= 1
            trail_idx -= 1
            if counter == 0:
                break
            reason_idx = reason[var]
            assert reason_idx is not None, "resolving on a decision before UIP"
            clause = clauses[reason_idx]

        return [-resolve_lit] + learned_tail, back_level

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------
    def _cancel_until(self, level: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) <= level:
            return
        trail = self.trail
        limit = trail_lim[level]
        lv = self._lv
        phase = self.phase
        activity = self.activity
        occurs = self._occurs
        queued = self._queued
        order = self._order
        push = heapq.heappush
        for i in range(len(trail) - 1, limit - 1, -1):
            lit = trail[i]
            lv[lit] = None
            lv[-lit] = None
            if lit > 0:
                var = lit
                phase[var] = True
            else:
                var = -lit
                phase[var] = False
            if occurs[var]:
                act = activity[var]
                if queued[var] != act:
                    # A variable set by propagation was never popped, so its
                    # entry may still be queued at this very activity.
                    queued[var] = act
                    push(order, (-act, var))
        del trail[limit:]
        del trail_lim[level:]
        if self.qhead > limit:
            self.qhead = limit

    def _add_learned(self, learned: List[int], back_level: int) -> None:
        """Record a learned clause and enqueue its asserting literal."""
        if len(learned) == 1:
            self._enqueue(learned[0], None)
            return
        # Watch the asserting literal and a literal from the backjump level.
        level = self.level
        idx = len(self.clauses)
        for k in range(1, len(learned)):
            lit = learned[k]
            if level[lit if lit > 0 else -lit] == back_level:
                learned[1], learned[k] = lit, learned[1]
                break
        self.clauses.append(learned)
        self._watch(learned[0], idx)
        self._watch(learned[1], idx)
        self._enqueue(learned[0], idx)

    # ------------------------------------------------------------------
    # Decision heuristic
    # ------------------------------------------------------------------
    def _rebuild_order(self) -> None:
        """Re-key the decision heap on every decidable unassigned variable."""
        lv = self._lv
        activity = self.activity
        occurs = self._occurs
        queued: List[Optional[float]] = [None] * (self.n_vars + 1)
        order = []
        for v in range(1, self.n_vars + 1):
            if lv[v] is None and occurs[v]:
                queued[v] = activity[v]
                order.append((-activity[v], v))
        heapq.heapify(order)
        self._order = order
        self._queued = queued

    def _pick_branch_var(self) -> Optional[int]:
        """The unassigned variable of highest activity, lowest index on ties.

        Only variables that occur in a watched clause are candidates.
        """
        if len(self._order) > 4 * self.n_vars:
            self._rebuild_order()
        order = self._order
        lv = self._lv
        activity = self.activity
        queued = self._queued
        pop = heapq.heappop
        while order:
            neg_act, var = pop(order)
            act = -neg_act
            if queued[var] == act:
                queued[var] = None
            if lv[var] is None and act == activity[var]:
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

        lv = self._lv
        trail = self.trail
        trail_lim = self.trail_lim
        level = self.level
        reason = self.reason
        phase = self.phase
        n_assume = len(assume)
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
                if not trail_lim:
                    # Conflict independent of any decision or assumption: the
                    # formula itself is unsatisfiable, now and forever.
                    self._unsat_on_input = True
                    return self._result(False)
                learned, back_level = self._analyze(conflict_idx)
                self._cancel_until(back_level)
                self._add_learned(learned, back_level)
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
            next_lit = 0
            while len(trail_lim) < n_assume:
                lit = assume[len(trail_lim)]
                val = lv[lit]
                if val is True:
                    # Already implied: open an empty level so assumption i
                    # stays pinned to decision level i+1.
                    trail_lim.append(len(trail))
                elif val is False:
                    # The formula (plus earlier assumptions) forces the
                    # negation of this assumption: UNSAT under assumptions.
                    result = self._result(False)
                    self._cancel_until(0)
                    return result
                else:
                    next_lit = lit
                    break
            if not next_lit:
                var = self._pick_branch_var()
                if var is None:
                    result = self._result(True)
                    self._cancel_until(0)
                    return result
                next_lit = var if phase[var] else -var
            self.decisions += 1
            trail_lim.append(len(trail))
            lv[next_lit] = True
            lv[-next_lit] = False
            var = next_lit if next_lit > 0 else -next_lit
            level[var] = len(trail_lim)
            reason[var] = None
            trail.append(next_lit)

    def _result(self, satisfiable: bool) -> SatResult:
        assignment: Dict[int, bool] = {}
        if satisfiable:
            # Total model: a variable left undecided occurs in no watched
            # clause, so its saved phase satisfies the formula too.
            lv = self._lv
            phase = self.phase
            assignment = {
                v: phase[v] if lv[v] is None else lv[v]
                for v in range(1, self.n_vars + 1)
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
