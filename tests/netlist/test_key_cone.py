"""``key_cone`` against the per-net fan-in walk it replaces."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.benchgen import RandomLogicSpec, generate_random_circuit
from repro.locking import RandomXorLocking
from repro.netlist import (
    BENCH8,
    Circuit,
    fanout_cone,
    has_key_input_in_fanin,
    key_cone,
)
from repro.synth import SynthesisOptions, synthesize_locked


def _nets(circuit):
    return list(circuit.all_inputs) + list(circuit.gate_names())


def _assert_cone_is_key_fed_set(circuit):
    cone = key_cone(circuit)
    assert len(cone) == len(set(cone))
    key_fed = set(cone) | set(circuit.key_inputs)
    for net in _nets(circuit):
        assert (net in key_fed) == has_key_input_in_fanin(circuit, net), net
    position = {name: i for i, name in enumerate(circuit.topological_order())}
    assert [position[name] for name in cone] == sorted(position[name] for name in cone)


def test_cone_is_union_of_key_fanouts_in_topological_order():
    c = Circuit("two_keys", BENCH8)
    for net in ("a", "b"):
        c.add_input(net)
    c.add_key_input("k0")
    c.add_key_input("k1")
    c.add_gate("p", "XOR", ["a", "k0"])
    c.add_gate("q", "AND", ["a", "b"])
    c.add_gate("r", "OR", ["q", "k1"])
    c.add_gate("s", "NAND", ["p", "r"])
    c.add_gate("t", "NOT", ["q"])
    c.add_output("s")
    c.add_output("t")
    assert key_cone(c) == ["p", "r", "s"]
    union = set()
    for ki in c.key_inputs:
        union |= fanout_cone(c, ki, include_start=False)
    assert set(key_cone(c)) == union


def test_unkeyed_circuit_has_empty_cone(tiny_circuit):
    assert key_cone(tiny_circuit) == []


def test_matrix_families(matrix_families):
    assert len(matrix_families) == 6
    for result in matrix_families.values():
        assert key_cone(result.locked)
        _assert_cone_is_key_fed_set(result.locked)
        _assert_cone_is_key_fed_set(result.original)


@given(
    seed=st.integers(0, 10_000),
    n_gates=st.integers(8, 60),
    key_size=st.integers(1, 8),
    technology=st.sampled_from(["BENCH8", "GEN65", "GEN45"]),
)
@settings(max_examples=40, deadline=None)
def test_random_locked_circuits(seed, n_gates, key_size, technology):
    spec = RandomLogicSpec(
        name=f"cone{seed}", n_inputs=6, n_outputs=3, n_gates=n_gates, seed=seed
    )
    locked = RandomXorLocking(key_size).lock(
        generate_random_circuit(spec), rng=np.random.default_rng(seed)
    )
    locked = synthesize_locked(locked, SynthesisOptions(technology=technology))
    _assert_cone_is_key_fed_set(locked.locked)
