"""Incremental SAT: assumptions, clause attachment, and budget semantics.

The incremental solver must agree with a fresh solver on every verdict, for
any interleaving of assumption queries and clause additions — learned
clauses are derived from the base formula only (assumptions enter as
decisions), so retaining them across calls is sound.
"""

import random

import pytest

from repro.benchgen import RandomLogicSpec, generate_random_circuit
from repro.sat import CNF, CircuitEncoder, ConflictBudgetExceeded, SatSolver, solve


def _random_cnf(rng, n_vars=30, n_clauses=110):
    cnf = CNF()
    for _ in range(n_vars):
        cnf.new_var()
    for _ in range(n_clauses):
        width = rng.randint(2, 4)
        variables = rng.sample(range(1, n_vars + 1), width)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in variables])
    return cnf


class TestAssumptions:
    def test_sat_then_unsat_under_assumptions(self):
        cnf = CNF()
        cnf.add_clauses([[1, 2], [-1, 3]])
        solver = SatSolver(cnf)
        assert solver.solve(assumptions=[1]).satisfiable
        assert solver.solve(assumptions=[1, -3]).satisfiable is False
        # The solver survives an UNSAT-under-assumptions verdict.
        assert solver.solve(assumptions=[2]).satisfiable

    def test_assumptions_do_not_persist(self):
        cnf = CNF()
        cnf.add_clauses([[1, 2]])
        solver = SatSolver(cnf)
        assert solver.solve(assumptions=[-1, -2]).satisfiable is False
        result = solver.solve()
        assert result.satisfiable

    def test_activation_literal_retraction(self):
        # The sat-attack pattern: a clause guarded by an activation literal
        # is enforced under [act] and retracted under [-act].
        cnf = CNF()
        a, act = cnf.new_var("a"), cnf.new_var("act")
        cnf.add_clause([a, -act])  # act -> a
        cnf.add_clause([-a])
        solver = SatSolver(cnf)
        assert solver.solve(assumptions=[act]).satisfiable is False
        assert solver.solve(assumptions=[-act]).satisfiable

    def test_model_respects_assumptions(self):
        cnf = CNF()
        cnf.add_clauses([[1, 2, 3]])
        solver = SatSolver(cnf)
        result = solver.solve(assumptions=[-1, -2])
        assert result.satisfiable
        assert result.value(1) is False
        assert result.value(2) is False
        assert result.value(3) is True


class TestIncrementalVsFresh:
    @pytest.mark.parametrize("trial", range(12))
    def test_verdicts_match_fresh_solver(self, trial):
        rng = random.Random(trial)
        cnf = _random_cnf(rng)
        solver = SatSolver(cnf)
        for _query in range(8):
            assumed = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, cnf.n_vars + 1), rng.randint(0, 4))
            ]
            incremental = solver.solve(assumptions=assumed)
            fresh = solve(cnf, assumptions=assumed)
            assert incremental.satisfiable == fresh.satisfiable
            if incremental.satisfiable:
                # The model must actually satisfy formula + assumptions.
                for clause in cnf.clauses:
                    assert any(
                        incremental.value(abs(l)) == (l > 0) for l in clause
                    )
                for lit in assumed:
                    assert incremental.value(abs(lit)) == (lit > 0)
            if rng.random() < 0.5:
                # Grow the formula mid-stream and attach the tail.
                width = rng.randint(2, 3)
                variables = rng.sample(range(1, cnf.n_vars + 1), width)
                cnf.add_clause(
                    [v if rng.random() < 0.5 else -v for v in variables]
                )
                solver.attach_new_clauses(cnf)

    def test_attach_new_clauses_ingests_only_tail(self):
        cnf = CNF()
        cnf.add_clauses([[1, 2], [-1, 2]])
        solver = SatSolver(cnf)
        cnf.add_clause([-2, 3])
        cnf.add_clause([-3])
        attached = solver.attach_new_clauses(cnf)
        assert attached == 2
        assert solver.attach_new_clauses(cnf) == 0
        assert solver.solve().satisfiable is False

    def test_add_clause_extends_variable_range(self):
        cnf = CNF()
        cnf.add_clause([1, 2])
        solver = SatSolver(cnf)
        solver.add_clause([-1])
        solver.add_clause([5, -2])
        result = solver.solve()
        assert result.satisfiable
        assert result.is_assigned(5)


def _enumeration_instance():
    spec = RandomLogicSpec(
        name="enum", n_inputs=16, n_outputs=1, n_gates=1500, seed=11
    )
    circuit = generate_random_circuit(spec)
    encoder = CircuitEncoder()
    var_of = encoder.encode(circuit)
    return encoder.cnf, [var_of[net] for net in list(circuit.inputs)[:6]]


def _enumerate(cnf, block_vars, *, incremental):
    """Count projections onto ``block_vars`` by blocking each model found."""
    solver = SatSolver(cnf) if incremental else None
    count = 0
    while True:
        result = solver.solve() if incremental else solve(cnf)
        if not result.satisfiable:
            return count
        count += 1
        blocking = [-v if result.value(v) else v for v in block_vars]
        cnf.add_clause(blocking)
        if incremental:
            solver.add_clause(blocking)


class TestEnumeration:
    @pytest.mark.parametrize("incremental", [False, True], ids=["fresh", "incremental"])
    def test_circuit_projection_enumeration(self, incremental):
        # Every assignment of 6 free primary inputs extends through the
        # 1500-gate circuit formula, so exactly 2^6 projections exist and the
        # last query proves exhaustion (UNSAT).
        cnf, block_vars = _enumeration_instance()
        assert _enumerate(cnf, block_vars, incremental=incremental) == 64


class TestConflictBudget:
    def _hard_cnf(self):
        # Pigeonhole PHP(6,5): 6 pigeons into 5 holes, UNSAT and expensive.
        cnf = CNF()
        n_pigeons, n_holes = 6, 5
        var = lambda p, h: 1 + p * n_holes + h
        for p in range(n_pigeons):
            cnf.add_clause([var(p, h) for h in range(n_holes)])
        for h in range(n_holes):
            for p1 in range(n_pigeons):
                for p2 in range(p1 + 1, n_pigeons):
                    cnf.add_clause([-var(p1, h), -var(p2, h)])
        return cnf

    def test_budget_raises_typed_exception(self):
        cnf = self._hard_cnf()
        with pytest.raises(ConflictBudgetExceeded) as excinfo:
            solve(cnf, max_conflicts=10)
        assert excinfo.value.budget == 10
        assert excinfo.value.conflicts > 10
        assert isinstance(excinfo.value, RuntimeError)  # old handlers still work

    def test_budget_is_per_call_not_lifetime(self):
        cnf = self._hard_cnf()
        solver = SatSolver(cnf)
        for _ in range(3):
            with pytest.raises(ConflictBudgetExceeded):
                solver.solve(max_conflicts=10)
        # A generous per-call budget still finishes even though the solver's
        # lifetime conflict count is already past 30.
        assert solver.solve(max_conflicts=10_000_000).satisfiable is False

    def test_solver_usable_after_budget_exception(self):
        cnf = self._hard_cnf()
        solver = SatSolver(cnf)
        with pytest.raises(ConflictBudgetExceeded):
            solver.solve(max_conflicts=5)
        assert solver.solve().satisfiable is False


class TestSatResultStrictness:
    def test_value_raises_on_free_variable(self):
        cnf = CNF()
        cnf.add_clause([1])
        result = solve(cnf)
        assert result.satisfiable
        assert result.value(1) is True
        with pytest.raises(ValueError):
            result.value(999)

    def test_value_raises_on_unsat_result(self):
        cnf = CNF()
        cnf.add_clauses([[1], [-1]])
        result = solve(cnf)
        assert result.satisfiable is False
        with pytest.raises(ValueError):
            result.value(1)

    def test_is_assigned_and_value_or(self):
        cnf = CNF()
        cnf.add_clause([1])
        result = solve(cnf)
        assert result.is_assigned(1)
        assert not result.is_assigned(999)
        assert result.value_or(999, default=True) is True
