"""Property-based tests for the SAT solver and the Tseitin encoding."""

from hypothesis import example, given, settings, strategies as st

from repro.netlist import BENCH8, Circuit, exhaustive_patterns, simulate_patterns
from repro.sat import CNF, SatSolver, encode_circuit, solve


def _literal(max_var):
    return st.integers(min_value=1, max_value=max_var).flatmap(
        lambda v: st.sampled_from([v, -v])
    )


@st.composite
def random_cnf(draw):
    n_vars = draw(st.integers(min_value=2, max_value=8))
    n_clauses = draw(st.integers(min_value=1, max_value=24))
    clauses = []
    for _ in range(n_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clause = draw(st.lists(_literal(n_vars), min_size=width, max_size=width))
        clauses.append(clause)
    return n_vars, clauses


def _brute_force_sat(n_vars, clauses):
    for assignment in range(1 << n_vars):
        values = [(assignment >> i) & 1 for i in range(n_vars)]
        if all(
            any((lit > 0) == bool(values[abs(lit) - 1]) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


class TestSolverProperties:
    @given(random_cnf())
    @settings(max_examples=60, deadline=None)
    def test_solver_agrees_with_brute_force(self, instance):
        n_vars, clauses = instance
        cnf = CNF()
        for clause in clauses:
            cnf.add_clause(clause)
        expected = _brute_force_sat(n_vars, clauses)
        result = solve(cnf)
        assert result.satisfiable == expected
        if result.satisfiable:
            for clause in clauses:
                assert any((lit > 0) == result.value(abs(lit)) for lit in clause)


@st.composite
def incremental_session(draw):
    """A random CNF plus a script of ``solve`` / ``add_clause`` steps.

    Added clauses and assumptions may mention variables past every one seen
    so far, so the script exercises the solver's variable growth between
    (and inside) ``solve`` calls.
    """
    n_vars, clauses = draw(random_cnf())
    max_var = n_vars
    steps = []
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        # At most one fresh variable per step, capped so brute force stays cheap.
        reach = min(max_var + 1, 12)
        literals = draw(st.lists(_literal(reach), min_size=0, max_size=3))
        if draw(st.booleans()):
            steps.append(("solve", literals))
        elif literals:
            steps.append(("add", literals))
        max_var = max([max_var] + [abs(lit) for lit in literals])
    steps.append(("solve", []))
    return clauses, steps


class TestIncrementalAgainstBruteForce:
    @given(incremental_session())
    # Variable 2 appears only in a tautology added after construction; it
    # used to be left out of the model.
    @example(session=([[-1]], [("add", [1, 2, -1]), ("solve", [])]))
    @settings(max_examples=80, deadline=None)
    def test_every_verdict_and_model_is_right(self, session):
        clauses, steps = session
        cnf = CNF()
        for clause in clauses:
            cnf.add_clause(clause)
        solver = SatSolver(cnf)
        live = list(clauses)
        for kind, literals in steps:
            if kind == "add":
                solver.add_clause(literals)
                live.append(literals)
                continue
            units = [[lit] for lit in literals]
            n_vars = max(abs(lit) for clause in live + units for lit in clause)
            result = solver.solve(assumptions=literals)
            assert result.satisfiable == _brute_force_sat(n_vars, live + units)
            if result.satisfiable:
                for clause in live + units:
                    assert any((lit > 0) == result.value(abs(lit)) for lit in clause)


@st.composite
def random_small_circuit(draw):
    n_inputs = draw(st.integers(min_value=2, max_value=4))
    n_gates = draw(st.integers(min_value=1, max_value=8))
    circuit = Circuit("prop", BENCH8)
    nets = []
    for i in range(n_inputs):
        name = f"i{i}"
        circuit.add_input(name)
        nets.append(name)
    cells = ["AND", "OR", "XOR", "NAND", "NOR", "XNOR", "NOT", "BUF"]
    for g in range(n_gates):
        cell = draw(st.sampled_from(cells))
        arity = 1 if cell in ("NOT", "BUF") else draw(st.integers(2, 3))
        inputs = [nets[draw(st.integers(0, len(nets) - 1))] for _ in range(arity)]
        name = f"g{g}"
        circuit.add_gate(name, cell, inputs)
        nets.append(name)
    circuit.add_output(f"g{n_gates - 1}")
    return circuit


class TestEncodingProperties:
    @given(random_small_circuit())
    @settings(max_examples=40, deadline=None)
    def test_cnf_agrees_with_simulation(self, circuit):
        output = circuit.outputs[0]
        cnf, var_of = encode_circuit(circuit)
        inputs = list(circuit.all_inputs)
        patterns = exhaustive_patterns(len(inputs))
        sim = simulate_patterns(circuit, patterns, input_order=inputs, outputs=[output])
        stride = max(1, len(patterns) // 8)
        for row, expected in zip(patterns[::stride], sim[::stride, 0]):
            assumptions = [
                var_of[n] if bit else -var_of[n] for n, bit in zip(inputs, row)
            ]
            result = solve(cnf, assumptions=assumptions)
            assert result.satisfiable
            assert result.value(var_of[output]) == bool(expected)
