"""The decision heap picks exactly the variable a linear scan would.

The solver keeps its decision order in a lazy heap.  The reference is the
definition of the heuristic: scan every variable and take the unassigned one
of highest activity, the lowest index on ties.  A solver subclass runs that
scan next to every heap pick and records the sequence, over a fresh UNSAT
solve, an incremental session that grows the variable range between calls,
and a solve pushed through the 1e100 activity rescale.
"""

import random

from repro.sat import CNF, SatSolver


class ScanCheckedSolver(SatSolver):
    """Asserts each heap pick against the linear reference scan."""

    def __init__(self, *args, **kwargs):
        self.picks = []
        super().__init__(*args, **kwargs)

    def _scan_pick(self):
        best_var = None
        best_act = -1.0
        for var in range(1, self.n_vars + 1):
            if self.assignment[var] is None and self.activity[var] > best_act:
                best_var = var
                best_act = self.activity[var]
        return best_var

    def _pick_branch_var(self):
        expected = self._scan_pick()
        picked = super()._pick_branch_var()
        assert picked == expected, (len(self.picks), picked, expected)
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
