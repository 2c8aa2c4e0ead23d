"""Unit tests for the CNF container and the CDCL solver."""

import pytest

from repro.sat import CNF, SatSolver, solve


class TestCnf:
    def test_variable_allocation(self):
        cnf = CNF()
        a = cnf.new_var("a")
        b = cnf.new_var()
        assert a == 1 and b == 2
        assert cnf.var("a") == 1
        assert cnf.var("c") == 3  # lazily created
        assert cnf.has_name("a") and not cnf.has_name("zzz")

    def test_duplicate_name_rejected(self):
        cnf = CNF()
        cnf.new_var("a")
        with pytest.raises(ValueError):
            cnf.new_var("a")

    def test_clause_bookkeeping(self):
        cnf = CNF()
        cnf.add_clauses([[1, -2], [2, 3]])
        assert cnf.n_clauses == 2
        assert cnf.n_vars == 3

    def test_zero_literal_rejected(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add_clause([1, 0])

    def test_dimacs_roundtrip(self):
        cnf = CNF()
        cnf.add_clauses([[1, -2], [-1, 2, 3]])
        text = cnf.to_dimacs()
        parsed = CNF.from_dimacs(text)
        assert parsed.clauses == cnf.clauses

    def test_extend_shifts_variables(self):
        a = CNF()
        a.add_clause([1, 2])
        b = CNF()
        b.add_clause([1, -2])
        a.extend(b)
        assert a.clauses[-1] == (3, -4)


class TestSolver:
    def test_satisfiable_simple(self):
        cnf = CNF()
        cnf.add_clauses([[1, 2], [-1, 2], [1, -2]])
        result = solve(cnf)
        assert result.satisfiable
        assert result.value(1) and result.value(2)

    def test_unsatisfiable_simple(self):
        cnf = CNF()
        cnf.add_clauses([[1], [-1]])
        assert not solve(cnf).satisfiable

    def test_empty_clause_unsat(self):
        cnf = CNF()
        cnf.add_clause([])
        assert not solve(cnf).satisfiable

    def test_empty_formula_sat(self):
        assert solve(CNF()).satisfiable

    def test_assumptions(self):
        cnf = CNF()
        cnf.add_clause([1, 2])
        assert solve(cnf, assumptions=[-1]).value(2)
        assert not solve(cnf, assumptions=[-1, -2]).satisfiable

    def test_model_satisfies_all_clauses(self):
        # Random-ish structured instance: a chain of implications plus a parity.
        cnf = CNF()
        n = 20
        for i in range(1, n):
            cnf.add_clause([-i, i + 1])
        cnf.add_clause([1])
        result = solve(cnf)
        assert result.satisfiable
        for clause in cnf.clauses:
            assert any(
                (lit > 0) == result.value(abs(lit)) for lit in clause
            ), f"clause {clause} not satisfied"

    def test_pigeonhole_unsat(self):
        # 4 pigeons in 3 holes: classic small UNSAT instance exercising learning.
        def var(p, h):
            return p * 3 + h + 1

        cnf = CNF()
        for p in range(4):
            cnf.add_clause([var(p, h) for h in range(3)])
        for h in range(3):
            for p1 in range(4):
                for p2 in range(p1 + 1, 4):
                    cnf.add_clause([-var(p1, h), -var(p2, h)])
        result = solve(cnf)
        assert not result.satisfiable
        assert result.conflicts > 0

    def test_conflict_budget(self):
        def var(p, h):
            return p * 5 + h + 1

        cnf = CNF()
        for p in range(6):
            cnf.add_clause([var(p, h) for h in range(5)])
        for h in range(5):
            for p1 in range(6):
                for p2 in range(p1 + 1, 6):
                    cnf.add_clause([-var(p1, h), -var(p2, h)])
        with pytest.raises(RuntimeError):
            SatSolver(cnf).solve(max_conflicts=3)

    def test_zero_assumption_rejected_by_constructor(self):
        cnf = CNF()
        cnf.add_clause([1, 2])
        with pytest.raises(ValueError, match="literal 0"):
            SatSolver(cnf, assumptions=[0])

    @pytest.mark.parametrize("clause", [[0], [0, 2]])
    def test_zero_literal_rejected_by_add_clause(self, clause):
        cnf = CNF()
        cnf.add_clause([1, 2])
        solver = SatSolver(cnf)
        with pytest.raises(ValueError, match="literal 0"):
            solver.add_clause(clause)
        # The rejected clause left the solver untouched.
        assert solver.trail == [] and len(solver.clauses) == 1
        assert solver.solve().satisfiable

    def test_tautology_and_duplicate_literals_handled(self):
        cnf = CNF()
        cnf.add_clause([1, -1])  # tautology
        cnf.add_clause([2, 2, 3])
        result = solve(cnf)
        assert result.satisfiable

    def test_phase_seed_changes_model(self):
        cnf = CNF()
        for v in range(1, 9):
            cnf.add_clause([v, -v + 0, v])  # trivially satisfiable free vars
        cnf.add_clause([1, 2, 3, 4, 5, 6, 7, 8])
        models = set()
        for seed in range(6):
            result = solve(cnf, phase_seed=seed)
            models.add(tuple(result.value(v) for v in range(1, 9)))
        assert len(models) > 1
