"""Unit tests for circuit-to-CNF encoding and equivalence checking."""

import hashlib

import numpy as np
import pytest

from repro.benchgen import RandomLogicSpec, generate_random_circuit
from repro.netlist import BENCH8, GEN65, Circuit, exhaustive_patterns, simulate_patterns
from repro.sat import (
    CNF,
    CircuitEncoder,
    check_equivalence,
    encode_circuit,
    equivalent,
    miter_cnf,
    solve,
    structurally_equivalent,
    structurally_identical,
)
from repro.sat.equivalence import EquivalenceResult


def _truth_table_matches_cnf(circuit, output):
    """Every satisfying assignment of (CNF ∧ out=1) matches the simulation."""
    cnf, var_of = encode_circuit(circuit)
    inputs = list(circuit.all_inputs)
    patterns = exhaustive_patterns(len(inputs))
    sim = simulate_patterns(circuit, patterns, input_order=inputs, outputs=[output])
    for row, expected in zip(patterns, sim[:, 0]):
        assumptions = [
            var_of[n] if bit else -var_of[n] for n, bit in zip(inputs, row)
        ]
        result = solve(cnf, assumptions=assumptions)
        assert result.satisfiable
        assert result.value(var_of[output]) == bool(expected)


class TestTseitin:
    def test_bench_cells_encoded_correctly(self, tiny_circuit):
        _truth_table_matches_cnf(tiny_circuit, "y")
        _truth_table_matches_cnf(tiny_circuit, "z")

    def test_complex_cells_encoded_via_truth_table(self):
        circuit = Circuit("complex", GEN65)
        for net in ("a", "b", "c"):
            circuit.add_input(net)
        circuit.add_gate("y", "AOI21", ["a", "b", "c"])
        circuit.add_gate("m", "MUX2", ["a", "b", "c"])
        circuit.add_output("y")
        circuit.add_output("m")
        _truth_table_matches_cnf(circuit, "y")
        _truth_table_matches_cnf(circuit, "m")

    def test_wide_xor_chain_encoding(self):
        circuit = Circuit("xors", BENCH8)
        for net in ("a", "b", "c", "d"):
            circuit.add_input(net)
        circuit.add_gate("y", "XNOR", ["a", "b", "c", "d"])
        circuit.add_output("y")
        _truth_table_matches_cnf(circuit, "y")

    def test_shared_nets_between_encodings(self, tiny_circuit):
        encoder = CircuitEncoder()
        vars_a = encoder.encode(tiny_circuit, prefix="A::")
        vars_b = encoder.encode(
            tiny_circuit, prefix="B::", share_nets={"a": vars_a["a"]}
        )
        assert vars_a["a"] == vars_b["a"]
        assert vars_a["y"] != vars_b["y"]


def _random_circuit(seed, n_gates=80):
    spec = RandomLogicSpec(
        name=f"enc{seed}", n_inputs=8, n_outputs=3, n_gates=n_gates, seed=seed
    )
    return generate_random_circuit(spec)


def _digest(cnf):
    payload = repr((cnf.clauses, sorted(cnf.names.items()), cnf.n_vars))
    return hashlib.sha256(payload.encode()).hexdigest()


def _assert_var_of_consistent(cnf, var_of, prefix="", share_nets=None):
    share_nets = share_nets or {}
    for net, var in var_of.items():
        expected = share_nets.get(net, cnf.names.get(f"{prefix}{net}"))
        assert var == expected, net


class TestEncodeGoldens:
    """Clause stream and variable numbering are pinned byte for byte.

    Solver search (decisions, conflicts, learned clauses) depends on both, so
    any change to the encoder's allocation or clause order shows up here.
    """

    def test_plain_encode_with_prefix(self):
        cnf = CNF()
        var_of = CircuitEncoder(cnf).encode(_random_circuit(3), prefix="X::")
        _assert_var_of_consistent(cnf, var_of, prefix="X::")
        assert _digest(cnf) == (
            "82e2403d440740fb5e4edf8c5305d12405815acac62dca7ba8bd483ab2052bef"
        )

    def test_miter_with_shared_inputs(self):
        circuit = _random_circuit(17)
        cnf = CNF()
        encoder = CircuitEncoder(cnf)
        left = encoder.encode(circuit, prefix="l_")
        share = {net: left[net] for net in circuit.inputs}
        right = encoder.encode(circuit, prefix="r_", share_nets=share)
        _assert_var_of_consistent(cnf, right, prefix="r_", share_nets=share)
        assert _digest(cnf) == (
            "b7b1376d5c110352a27900a99411265125bf3ec65361bcd84539160c04a62701"
        )

    def test_sat_attack_dip_copy_with_constant_shares(self):
        # The SAT attack's per-DIP shape: a keyed copy, then a copy whose
        # primary inputs are fresh constant-pinned variables and whose keys
        # are shared with the first copy.
        circuit = _random_circuit(29)
        cnf = CNF()
        encoder = CircuitEncoder(cnf)
        inputs = list(circuit.inputs)
        dip, keys = inputs[:5], inputs[5:]
        key_vars = {net: cnf.var(f"ka::{net}") for net in keys}
        dip_vars = {net: cnf.var(f"dip::{net}") for net in dip}
        encoder.encode(circuit, prefix="A::", share_nets={**dip_vars, **key_vars})
        constants = {}
        for i, net in enumerate(dip):
            var = cnf.new_var()
            cnf.add_clause([var] if i % 2 else [-var])
            constants[net] = var
        share = {**constants, **key_vars}
        copy = encoder.encode(circuit, prefix="ca1::", share_nets=share)
        _assert_var_of_consistent(cnf, copy, prefix="ca1::", share_nets=share)
        assert _digest(cnf) == (
            "fad9d8142f00f41ec67d1a8f3554e86bc37543b66af9be0e05c34328f133504f"
        )

    def test_share_var_above_high_water_mark(self):
        # A shared variable beyond n_vars grows the formula mid-encode.
        circuit = _random_circuit(23, n_gates=30)
        share = {list(circuit.inputs)[0]: 900}
        cnf = CNF()
        var_of = CircuitEncoder(cnf).encode(circuit, share_nets=dict(share))
        _assert_var_of_consistent(cnf, var_of, share_nets=share)
        assert _digest(cnf) == (
            "3bc047a496f3f2e4900fbe41fa39773e13d067730aece9fb79504372fa56eb73"
        )


class TestEquivalence:
    def test_identical_circuits_equivalent(self, tiny_circuit):
        result = check_equivalence(tiny_circuit, tiny_circuit.copy())
        assert result.equivalent
        assert result.method == "structural"

    def test_sat_method_on_identical(self, tiny_circuit):
        result = check_equivalence(tiny_circuit, tiny_circuit.copy(), method="sat")
        assert result.equivalent and result.method == "sat"

    def test_inequivalent_circuits_detected(self, tiny_circuit):
        other = tiny_circuit.copy()
        other.set_gate("y", "XNOR", ["n1", "c"])
        result = check_equivalence(tiny_circuit, other)
        assert not result.equivalent
        assert result.counterexample is not None
        # The counterexample must actually distinguish the circuits.
        from repro.netlist import simulate

        a = simulate(tiny_circuit, result.counterexample, outputs=["y"])["y"][0]
        b = simulate(other, result.counterexample, outputs=["y"])["y"][0]
        assert bool(a) != bool(b)

    def test_exhaustive_matches_sat(self, tiny_circuit):
        other = tiny_circuit.copy()
        other.set_gate("z", "NOR", ["b", "c"])  # NOT(OR) == NOR, still equivalent
        other.remove_gate("n2")
        assert check_equivalence(tiny_circuit, other, method="sat").equivalent
        assert check_equivalence(tiny_circuit, other, method="exhaustive").equivalent

    def test_key_assignment_pins_keys(self):
        locked = Circuit("locked", BENCH8)
        locked.add_input("a")
        locked.add_key_input("keyinput0")
        locked.add_gate("y", "XOR", ["a", "keyinput0"])
        locked.add_output("y")
        original = Circuit("orig", BENCH8)
        original.add_input("a")
        original.add_gate("y", "BUF", ["a"])
        original.add_output("y")
        assert check_equivalence(
            locked, original, key_assignment={"keyinput0": False}
        ).equivalent
        assert not check_equivalence(
            locked, original, key_assignment={"keyinput0": True}
        ).equivalent

    def test_interface_mismatch_rejected(self, tiny_circuit):
        other = tiny_circuit.copy()
        other.add_input("extra")
        with pytest.raises(Exception):
            check_equivalence(tiny_circuit, other, method="exhaustive")

    def test_structural_identity_and_renamed_equivalence(self, tiny_circuit):
        renamed = tiny_circuit.copy()
        renamed.rename_net("n1", "renamed_net")
        assert structurally_identical(tiny_circuit, tiny_circuit.copy())
        assert not structurally_identical(tiny_circuit, renamed)
        assert structurally_equivalent(tiny_circuit, renamed)
        assert check_equivalence(tiny_circuit, renamed).method == "structural"

    def test_structural_equivalence_is_sound(self, tiny_circuit):
        other = tiny_circuit.copy()
        other.set_gate("y", "XNOR", ["n1", "c"])
        assert not structurally_equivalent(tiny_circuit, other)

    def test_commutative_input_order_ignored(self, tiny_circuit):
        other = tiny_circuit.copy()
        other.set_gate("n1", "AND", ["b", "a"])
        assert structurally_identical(tiny_circuit, other)

    def test_equivalent_shorthand(self, tiny_circuit):
        assert equivalent(tiny_circuit, tiny_circuit.copy())

    def test_miter_cnf_structure(self, tiny_circuit):
        cnf, shared = miter_cnf(tiny_circuit, tiny_circuit.copy())
        assert set(shared) == {"a", "b", "c"}
        assert not solve(cnf).satisfiable  # identical halves -> miter UNSAT

    def test_result_bool(self):
        assert bool(EquivalenceResult(True, None, "sat"))
        assert not bool(EquivalenceResult(False, {}, "sat"))
