"""The SAT attack's key-cone DIP encoding against the full-copy encoding.

The attack adds each DIP's oracle answer as a constraint encoded over the key
inputs' fan-out only.  The reference below is the encoding it replaced: a
full copy of the locked circuit whose primary inputs are constant-pinned
variables.  Fed the same DIP sequence, both must admit the same keys after
every DIP — and both must agree with simulating every key on the DIPs.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import sat_attack
from repro.baselines.sat_attack import KeyConeConstraints
from repro.benchgen import RandomLogicSpec, generate_random_circuit
from repro.locking import LockingResult, RandomXorLocking
from repro.netlist import BENCH8, Circuit, exhaustive_patterns, key_cone, simulate
from repro.sat import CNF, CircuitEncoder, SatSolver, check_equivalence
from repro.synth import SynthesisOptions, synthesize_locked

UNSAT_REASON = "constraint system became unsatisfiable (no consistent key)"


def _attack_with_dips(result, **kwargs):
    """Run the attack; also return each (DIP, oracle answer) it constrained."""
    dips = []
    add = KeyConeConstraints.add

    def recording_add(self, dip, oracle_values, key_copies):
        dips.append((dict(dip), dict(oracle_values)))
        return add(self, dip, oracle_values, key_copies)

    with mock.patch.object(KeyConeConstraints, "add", recording_add):
        outcome = sat_attack(result, **kwargs)
    return outcome, dips


def _full_copy_constraint(encoder, locked, outputs, dip, oracle_values, key_vars, tag):
    """One DIP constraint as the full-copy encoding added it."""
    cnf = encoder.cnf
    constants = {}
    for net, value in dip.items():
        var = cnf.new_var()
        cnf.add_clause([var] if value else [-var])
        constants[net] = var
    copy = encoder.encode(locked, prefix=f"{tag}::", share_nets={**constants, **key_vars})
    for po in outputs:
        cnf.add_clause([copy[po]] if oracle_values[po] else [-copy[po]])


def _consistent_keys(solver, key_vars, key_inputs):
    keys = set()
    for bits in itertools.product((False, True), repeat=len(key_inputs)):
        assumptions = [key_vars[k] if b else -key_vars[k] for k, b in zip(key_inputs, bits)]
        if solver.solve(assumptions=assumptions).satisfiable:
            keys.add(bits)
    return keys


def _simulated_keys(locked, outputs, dips):
    """Keys (as bit tuples) whose locked circuit answers every DIP like the oracle."""
    key_inputs = list(locked.key_inputs)
    keys = exhaustive_patterns(len(key_inputs))
    agree = np.ones(len(keys), dtype=bool)
    for dip, oracle_values in dips:
        assignment = {net: np.full(len(keys), value) for net, value in dip.items()}
        assignment.update({k: keys[:, i] for i, k in enumerate(key_inputs)})
        out = simulate(locked, assignment, outputs=outputs)
        for po in outputs:
            agree &= out[po] == oracle_values[po]
    return {tuple(bool(b) for b in row) for row in keys[agree]}


def _check_against_full_copy(result, **attack_kwargs):
    """Replay the attack's DIPs into both encodings; compare after every DIP."""
    outcome, dips = _attack_with_dips(result, **attack_kwargs)
    locked = result.locked
    key_inputs = list(locked.key_inputs)
    outputs = [po for po in locked.outputs if po in result.original.outputs]

    reference = CircuitEncoder()
    ref_keys = {k: reference.cnf.var(f"k::{k}") for k in key_inputs}
    ref_solver = SatSolver(reference.cnf)
    cone = CircuitEncoder()
    cone_keys = {k: cone.cnf.var(f"k::{k}") for k in key_inputs}
    constraints = KeyConeConstraints(cone, locked, outputs)
    cone_solver = SatSolver(cone.cnf)

    consistent = None
    for i, (dip, oracle_values) in enumerate(dips):
        _full_copy_constraint(reference, locked, outputs, dip, oracle_values, ref_keys, f"c{i}")
        ref_solver.attach_new_clauses(reference.cnf)
        constraints.add(dip, oracle_values, (cone_keys,))
        cone_solver.attach_new_clauses(cone.cnf)
        consistent = _consistent_keys(cone_solver, cone_keys, key_inputs)
        assert consistent == _consistent_keys(ref_solver, ref_keys, key_inputs), i
        assert consistent == _simulated_keys(locked, outputs, dips[: i + 1]), i

    if outcome.recovered_key is not None:
        assert check_equivalence(
            locked, result.original, key_assignment=outcome.recovered_key
        ).equivalent
        if consistent is not None:
            assert tuple(outcome.recovered_key[k] for k in key_inputs) in consistent
    return outcome, dips


def test_matrix_families_admit_the_same_keys(matrix_families):
    outcomes = {}
    for scheme, result in sorted(matrix_families.items()):
        outcome, dips = _check_against_full_copy(result, max_iterations=4)
        assert dips, scheme
        outcomes[scheme] = outcome.success
    # XOR locking falls within the matrix's 4-DIP budget; the SAT-resistant
    # families exhaust it.
    assert outcomes["xor"]
    assert not outcomes["antisat"] and not outcomes["sarlock"]


@given(
    seed=st.integers(0, 10_000),
    n_inputs=st.integers(4, 10),
    n_outputs=st.integers(1, 4),
    n_gates=st.integers(10, 60),
    key_size=st.integers(1, 6),
    technology=st.sampled_from(["BENCH8", "GEN65", "GEN45"]),
)
@settings(max_examples=60, deadline=None)
def test_random_xor_locked_circuits_admit_the_same_keys(
    seed, n_inputs, n_outputs, n_gates, key_size, technology
):
    spec = RandomLogicSpec(
        name=f"dip{seed}", n_inputs=n_inputs, n_outputs=n_outputs, n_gates=n_gates,
        seed=seed,
    )
    locked = RandomXorLocking(key_size).lock(
        generate_random_circuit(spec), rng=np.random.default_rng(seed)
    )
    locked = synthesize_locked(locked, SynthesisOptions(technology=technology))
    outcome, _ = _check_against_full_copy(locked, max_iterations=16)
    if outcome.reason != "iteration budget of 16 DIPs exhausted":
        assert outcome.success, outcome.reason


# ----------------------------------------------------------------------
# Resolved outputs and the encoding-size statistics.


def _two_key_design(*, oracle_w_cell="NOT"):
    """y = AND(XOR(a, k0), b), z = OR(XNOR(c, k1), a), w = NOT(b).

    The correct key is k0=0, k1=1.  ``oracle_w_cell="BUF"`` gives an oracle
    that disagrees with the locked design on ``w``, outside the key cone.
    """
    def build(name, keyed, w_cell):
        c = Circuit(name, BENCH8)
        for net in ("a", "b", "c"):
            c.add_input(net)
        if keyed:
            c.add_key_input("k0")
            c.add_key_input("k1")
            c.add_gate("g1", "XOR", ["a", "k0"])
            c.add_gate("g2", "XNOR", ["c", "k1"])
        else:
            c.add_gate("g1", "BUF", ["a"])
            c.add_gate("g2", "BUF", ["c"])
        c.add_gate("y", "AND", ["g1", "b"])
        c.add_gate("z", "OR", ["g2", "a"])
        c.add_gate("w", w_cell, ["b"])
        for po in ("y", "z", "w"):
            c.add_output(po)
        return c

    return LockingResult(
        scheme="toy",
        original=build("oracle", False, oracle_w_cell),
        locked=build("locked", True, "NOT"),
        key={"k0": False, "k1": True},
        labels={},
        target_net="",
    )


def test_oracle_disagreement_outside_the_cone_ends_unsatisfiable():
    result = _two_key_design(oracle_w_cell="BUF")
    assert "w" not in key_cone(result.locked)
    outcome = sat_attack(result, max_iterations=8)
    assert not outcome.success
    assert outcome.reason == UNSAT_REASON
    assert outcome.recovered_key is None
    assert outcome.statistics["dips"] == 1
    assert outcome.statistics["cone_gates"] == 4
    assert 0 < outcome.statistics["encoded_gates"] <= 8


def test_dip_whose_cone_outputs_all_resolve():
    # a=1, b=0, c=0: y = AND(g1, 0) = 0 and z = OR(g2, 1) = 1 whatever the
    # key, so only g1 and g2 are encoded and no output is constrained.
    result = _two_key_design()
    locked = result.locked
    dip = {"a": True, "b": False, "c": False}
    for oracle_values, satisfiable in (
        ({"y": False, "z": True, "w": True}, True),
        ({"y": True, "z": True, "w": True}, False),
    ):
        encoder = CircuitEncoder(CNF())
        key_vars = {k: encoder.cnf.var(f"k::{k}") for k in locked.key_inputs}
        constraints = KeyConeConstraints(encoder, locked, list(locked.outputs))
        clauses_before = encoder.cnf.n_clauses
        assert constraints.add(dip, oracle_values, (key_vars,)) == 2
        added = encoder.cnf.clauses_from(clauses_before)
        # Two gates' clauses, and only the empty clause when y disagrees.
        assert [c for c in added if len(c) < 2] == ([] if satisfiable else [()])
        solver = SatSolver(encoder.cnf)
        assert len(_consistent_keys(solver, key_vars, list(locked.key_inputs))) == (
            4 if satisfiable else 0
        )


def test_statistics_report_the_encoding_size(matrix_families):
    for result in (matrix_families["xor"], matrix_families["antisat"]):
        cone = key_cone(result.locked)
        encoded = []
        add = KeyConeConstraints.add

        def recording_add(self, dip, oracle_values, key_copies):
            encoded.append(add(self, dip, oracle_values, key_copies))
            return encoded[-1]

        with mock.patch.object(KeyConeConstraints, "add", recording_add):
            outcome = sat_attack(result, max_iterations=4)
        stats = outcome.statistics
        assert stats["cone_gates"] == len(cone)
        assert stats["dips"] == len(encoded) > 0
        assert stats["encoded_gates"] == sum(encoded)
        assert all(0 < n <= 2 * len(cone) for n in encoded)


@pytest.mark.parametrize(
    "scheme, kwargs, reason",
    [
        ("antisat", {"max_iterations": 1}, "iteration budget of 1 DIPs exhausted"),
        (
            "xor",
            {"max_conflicts_per_call": 0},
            "SAT conflict budget exceeded while searching for a DIP",
        ),
    ],
)
def test_statistics_on_failure_paths(matrix_families, scheme, kwargs, reason):
    locked = matrix_families[scheme].locked
    outcome = sat_attack(matrix_families[scheme], **kwargs)
    assert not outcome.success
    assert outcome.reason == reason
    stats = outcome.statistics
    assert stats["dips"] == 1
    assert stats["cone_gates"] == len(key_cone(locked))
    assert 0 < stats["encoded_gates"] <= 2 * stats["cone_gates"]
