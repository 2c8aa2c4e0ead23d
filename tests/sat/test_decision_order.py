"""The decision heap picks exactly the variable a linear scan would.

The solver keeps its decision order in a lazy heap.  The reference is the
definition of the heuristic: scan every variable and take the unassigned one
that occurs in a watched clause, of highest activity, the lowest index on
ties.  A variable in no watched clause is never decided: deciding it would
propagate nothing, so the model reports it at its saved phase instead.

A solver subclass runs that scan next to every heap pick and records the
sequence, over a fresh UNSAT solve, an incremental session that grows the
variable range between calls, and a solve pushed through the 1e100 activity
rescale.  The remaining tests pin what leaving clause-free variables
undecided means for models and for the search.
"""

import random

from repro.sat import CNF, SatSolver


def _watched_vars(solver):
    """Variables occurring in a clause the solver watches (learned ones too)."""
    return {abs(lit) for clause in solver.clauses for lit in clause}


class ScanCheckedSolver(SatSolver):
    """Asserts each heap pick against the linear reference scan."""

    def __init__(self, *args, **kwargs):
        self.picks = []
        super().__init__(*args, **kwargs)

    def _scan_pick(self):
        watched = _watched_vars(self)
        best_var = None
        best_act = -1.0
        for var in range(1, self.n_vars + 1):
            if (
                var in watched
                and self._lv[var] is None
                and self.activity[var] > best_act
            ):
                best_var = var
                best_act = self.activity[var]
        return best_var

    def _pick_branch_var(self):
        expected = self._scan_pick()
        picked = super()._pick_branch_var()
        assert picked == expected, (len(self.picks), picked, expected)
        assert picked is None or picked in _watched_vars(self), picked
        self.picks.append(picked)
        return picked


def _pigeonhole(n_pigeons, n_holes):
    cnf = CNF()
    var = lambda p, h: 1 + p * n_holes + h
    for p in range(n_pigeons):
        cnf.add_clause([var(p, h) for h in range(n_holes)])
    for h in range(n_holes):
        for p1 in range(n_pigeons):
            for p2 in range(p1 + 1, n_pigeons):
                cnf.add_clause([-var(p1, h), -var(p2, h)])
    return cnf


def _random_clause(rng, n_vars, width):
    variables = rng.sample(range(1, n_vars + 1), width)
    return [v if rng.random() < 0.5 else -v for v in variables]


def _random_cnf(seed, n_vars=20, n_clauses=80):
    rng = random.Random(seed)
    cnf = CNF()
    for _ in range(n_clauses):
        cnf.add_clause(_random_clause(rng, n_vars, 3))
    return cnf


def test_pigeonhole_picks_match_scan():
    solver = ScanCheckedSolver(_pigeonhole(5, 4))
    assert not solver.solve().satisfiable
    assert solver.conflicts > 0
    assert solver.picks and None not in solver.picks


def test_incremental_growth_picks_match_scan():
    rng = random.Random(7)
    n_vars = 20
    cnf = CNF()
    for _ in range(80):
        cnf.add_clause(_random_clause(rng, n_vars, 3))
    solver = ScanCheckedSolver(cnf)
    verdicts = []
    for _ in range(12):
        assumptions = _random_clause(rng, n_vars, 2)
        verdicts.append(solver.solve(assumptions=assumptions).satisfiable)
        # Grow past the current range: the new variables must join the heap.
        for fresh in range(n_vars + 1, n_vars + 4):
            solver.add_clause(_random_clause(rng, n_vars, 2) + [fresh])
        n_vars += 3
    assert solver.n_vars == n_vars
    assert solver.picks
    assert True in verdicts and False in verdicts


def test_rescale_picks_match_scan():
    solver = ScanCheckedSolver(_pigeonhole(5, 4))
    solver.var_inc = 1e99
    assert not solver.solve().satisfiable
    # The very first bumps cross 1e100, so activities were rescaled and the
    # heap rebuilt mid-search.
    assert solver.var_inc < 1e99
    assert max(solver.activity) < 1e100
    assert solver.picks


def test_clause_free_variables_are_never_picked():
    # Variables 21..30 are registered, by the CNF's range and by dropped
    # tautologies, but occur in no watched clause.
    cnf = _random_cnf(3)
    cnf.new_var()  # 21
    solver = ScanCheckedSolver(cnf)
    for var in range(22, 31):
        solver.add_clause([var, -var])
    result = solver.solve()
    assert result.satisfiable
    assert solver.n_vars == 30
    assert solver.picks
    assert not set(solver.picks) & set(range(21, 31))


def test_model_is_total_and_free_variables_take_their_phase():
    cnf = _random_cnf(5)
    for _ in range(4):
        cnf.new_var()  # 21..24, in no clause
    solver = SatSolver(cnf)
    result = solver.solve()
    assert result.satisfiable
    assert sorted(result.assignment) == list(range(1, 25))
    assert all(result.value(v) is False for v in range(21, 25))
    for clause in cnf.clauses:
        assert any(result.value(abs(l)) == (l > 0) for l in clause)

    seen = set()
    for seed in (1, 2, 3, 4):
        solver.set_phase_seed(seed)
        result = solver.solve()
        assert sorted(result.assignment) == list(range(1, 25))
        for v in range(21, 25):
            assert result.value(v) is solver.phase[v]
        seen.update(result.value(v) for v in range(21, 25))
    assert seen == {True, False}


def test_free_variable_under_an_assumption_takes_the_assumed_value():
    cnf = _random_cnf(5)
    free = cnf.new_var()
    solver = SatSolver(cnf)
    for lit in (free, -free, free):
        result = solver.solve(assumptions=[lit])
        assert result.satisfiable
        assert result.value(free) is (lit > 0)
    # The assumption is retracted, and the saved phase keeps its value.
    assert solver.solve().value(free) is True


def test_variable_becomes_decidable_once_a_clause_uses_it():
    cnf = CNF()
    cnf.add_clause([1, 2])
    late = cnf.new_var()  # 3, in no clause yet
    solver = ScanCheckedSolver(cnf)
    result = solver.solve()
    # 1 is decided at its phase (false) and propagates 2; 3 is not decided.
    assert solver.picks == [1, None]
    assert result.assignment == {1: False, 2: True, 3: False}
    solver.add_clause([late, 2])
    solver.picks.clear()
    result = solver.solve()
    assert solver.picks == [1, late, None]
    assert result.assignment == {1: False, 2: True, 3: False}


def test_extra_free_variables_leave_the_search_alone():
    for seed in range(6):
        base = _random_cnf(seed, n_vars=40, n_clauses=170)
        padded = CNF()
        padded.add_clauses(base.clauses)
        for _ in range(25):
            padded.new_var()  # registered after every formula variable
        plain = SatSolver(base)
        extended = SatSolver(padded)
        for step in range(6):
            rng = random.Random(100 * seed + step)
            assumptions = _random_clause(rng, 40, 3)
            a = plain.solve(assumptions=assumptions)
            b = extended.solve(assumptions=assumptions)
            assert a.satisfiable == b.satisfiable
            assert (a.conflicts, a.decisions, a.propagations) == (
                b.conflicts, b.decisions, b.propagations
            )
            if a.satisfiable:
                shared = {v: b.assignment[v] for v in a.assignment}
                assert shared == a.assignment
                assert all(b.value(v) is False for v in range(41, 66))
            clause = _random_clause(rng, 40, 3)
            plain.add_clause(clause)
            extended.add_clause(clause)
