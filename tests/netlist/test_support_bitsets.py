"""``support_bitsets`` against the per-net walk it replaces, and the O(1)
port membership of :class:`Circuit` it relies on.

The bulk helper must decode to exactly :func:`transitive_inputs` on every
net: random BENCH8 designs, all six locked families, netlists with dangling
or undeclared nets, and netlists with combinational cycles (cyclic locking
here keeps the netlist acyclic, so the cycles are closed by rewiring a gate
input to a gate of its own fan-out).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchgen import RandomLogicSpec, generate_random_circuit
from repro.locking import RandomXorLocking
from repro.netlist import (
    BENCH8,
    Circuit,
    CircuitError,
    fanout_cone,
    support_bitsets,
    transitive_inputs,
)
from repro.synth import SynthesisOptions, synthesize_locked


def _decode(circuit, bits):
    names = circuit.all_inputs
    return {names[i] for i in range(len(names)) if bits >> i & 1}


def _assert_matches_per_net_walk(circuit, extra_nets=()):
    bits = support_bitsets(circuit)
    assert set(bits) == set(circuit.gate_names()) | set(circuit.all_inputs)
    nets = list(circuit.all_inputs) + list(circuit.gate_names()) + list(extra_nets)
    n_pi = len(circuit.inputs)
    for net in nets:
        support = transitive_inputs(circuit, net)
        b = bits.get(net, 0)
        assert _decode(circuit, b) == support, net
        # The documented split into primary-input and key-input bits.
        assert _decode(circuit, b & ((1 << n_pi) - 1)) == {
            n for n in support if circuit.is_input(n)
        }
        assert _decode(circuit, (b >> n_pi) << n_pi) == {
            n for n in support if circuit.is_key_input(n)
        }


def test_cycles_share_one_support():
    c = Circuit("loops", BENCH8)
    for net in ("a", "b", "c"):
        c.add_input(net)
    c.add_key_input("k")
    c.add_gate("x", "AND", ["a", "y"])
    c.add_gate("y", "OR", ["x", "k"])
    c.add_gate("z", "XOR", ["y", "b"])
    c.add_gate("s", "BUF", ["s"])  # self-loop, no support
    c.add_gate("t", "NAND", ["s", "c", "z"])
    c.add_output("t")
    bits = support_bitsets(c)
    assert bits["x"] == bits["y"] == 0b1001  # a and k
    assert bits["z"] == 0b1011
    assert bits["s"] == 0
    assert bits["t"] == 0b1111
    _assert_matches_per_net_walk(c)


def test_dangling_and_undeclared_nets():
    c = Circuit("dangling", BENCH8)
    for net in ("a", "b"):
        c.add_input(net)
    c.add_key_input("k")
    c.add_gate("g1", "AND", ["a", "k"])
    c.add_gate("g2", "OR", ["g1", "ghost"])  # reads an undeclared net
    c.add_gate("g3", "XOR", ["g2", "b"])
    c.remove_gate("g1")  # g2 now reads a dangling net
    c.add_output("g3")
    bits = support_bitsets(c)
    assert bits["g2"] == 0
    assert bits["g3"] == 0b010
    _assert_matches_per_net_walk(c, extra_nets=("g1", "ghost"))


def _close_cycles(circuit, rng, count):
    """Rewire ``count`` gate inputs to gates of their own fan-out."""
    for _ in range(count):
        names = circuit.gate_names()
        gate = circuit.gate(names[int(rng.integers(len(names)))])
        downstream = sorted(fanout_cone(circuit, gate.name))
        sink = downstream[int(rng.integers(len(downstream)))]
        pin = int(rng.integers(len(gate.inputs)))
        inputs = list(gate.inputs)
        inputs[pin] = sink
        circuit.set_gate(gate.name, gate.cell, inputs)


def test_all_six_locked_families(matrix_families):
    assert len(matrix_families) == 6
    rng = np.random.default_rng(7)
    for scheme, result in matrix_families.items():
        _assert_matches_per_net_walk(result.locked)
        looped = result.locked.copy()
        _close_cycles(looped, rng, 5)
        with pytest.raises(CircuitError, match="cycle"):
            looped.topological_order()
        _assert_matches_per_net_walk(looped)


@given(
    seed=st.integers(0, 10_000),
    n_inputs=st.integers(2, 10),
    n_gates=st.integers(4, 60),
    key_size=st.integers(0, 6),
    n_removed=st.integers(0, 4),
    n_undeclared=st.integers(0, 3),
    n_cycles=st.integers(0, 3),
    technology=st.sampled_from(["BENCH8", "GEN65"]),
)
@settings(max_examples=60, deadline=None)
def test_random_circuits(
    seed, n_inputs, n_gates, key_size, n_removed, n_undeclared, n_cycles, technology
):
    spec = RandomLogicSpec(
        name=f"sup{seed}", n_inputs=n_inputs, n_outputs=2, n_gates=n_gates, seed=seed
    )
    rng = np.random.default_rng(seed)
    circuit = generate_random_circuit(spec)
    key_size = min(key_size, len(circuit))  # tiny designs carry few key gates
    if key_size:
        result = RandomXorLocking(key_size).lock(circuit, rng=rng)
        circuit = synthesize_locked(result, SynthesisOptions(technology=technology)).locked
    circuit = circuit.copy()
    _close_cycles(circuit, rng, n_cycles)
    names = list(circuit.gate_names())
    picks = rng.choice(len(names), size=min(n_removed, len(names) - 1), replace=False)
    removed = [names[int(i)] for i in picks]
    for name in removed:
        circuit.remove_gate(name)
    sinks = list(circuit.gate_names())
    for i in range(n_undeclared):
        gate = circuit.gate(sinks[int(rng.integers(len(sinks)))])
        circuit.set_gate(gate.name, gate.cell, (f"undeclared{i}",) + gate.inputs[1:])
    _assert_matches_per_net_walk(
        circuit, extra_nets=removed + [f"undeclared{i}" for i in range(n_undeclared)]
    )


# ---------------------------------------------------------------------------
# Port membership
# ---------------------------------------------------------------------------

def _assert_membership(circuit, probes):
    for net in probes:
        assert circuit.is_input(net) == (net in circuit.inputs), net
        assert circuit.is_key_input(net) == (net in circuit.key_inputs), net
        assert circuit.is_output(net) == (net in circuit.outputs), net
        assert circuit.net_exists(net) == (
            net in circuit.all_inputs or net in circuit.gate_names()
        ), net


def _ports_circuit():
    c = Circuit("ports", BENCH8)
    for net in ("a", "b"):
        c.add_input(net)
    c.add_key_input("k0")
    c.add_key_input("k1")
    c.add_gate("g", "XOR", ["a", "k0"])
    c.add_gate("h", "AND", ["g", "b", "k1"])
    c.add_output("h")
    c.add_output("g")
    return c


PROBES = ("a", "b", "k0", "k1", "g", "h", "a2", "k9", "g2", "h2", "x")


def test_membership_follows_port_mutators():
    c = _ports_circuit()
    _assert_membership(c, PROBES)
    c.remove_key_input("k1")
    c.remove_output("g")
    _assert_membership(c, PROBES)
    assert not c.is_key_input("k1") and not c.is_output("g")
    c.rename_net("a", "a2")
    c.rename_net("k0", "k9")
    c.rename_net("h", "h2")
    _assert_membership(c, PROBES)
    assert c.is_input("a2") and c.is_key_input("k9") and c.is_output("h2")
    assert not c.is_input("a") and not c.is_key_input("k0") and not c.is_output("h")
    c.add_input("a")
    c.add_key_input("k1")
    c.add_output("g")
    _assert_membership(c, PROBES)
    with pytest.raises(CircuitError):
        c.add_input("k9")
    with pytest.raises(CircuitError):
        c.add_output("h2")


def test_copy_has_independent_membership():
    c = _ports_circuit()
    clone = c.copy()
    clone.remove_key_input("k1")
    clone.rename_net("a", "x")
    _assert_membership(c, PROBES)
    _assert_membership(clone, PROBES)
    assert c.is_key_input("k1") and c.is_input("a") and not c.is_input("x")
    assert clone.is_input("x") and not clone.is_key_input("k1")


def test_gate_edits_leave_ports_alone():
    c = _ports_circuit()
    c.set_gate("g", "XNOR", ["b", "k0"])
    c.replace_gate_input("h", "b", "a")
    c.remove_gate("h")
    _assert_membership(c, PROBES)
    assert c.is_output("h") and not c.net_exists("h")


def test_pickle_carries_port_lists_only():
    c = _ports_circuit()
    state = c.__getstate__()
    assert set(state) == {
        "name", "library", "_inputs", "_key_inputs", "_outputs", "_gates", "_topo_cache"
    }
    _assert_membership(pickle.loads(pickle.dumps(c)), PROBES)


def test_parent_format_pickle_rebuilds_membership(monkeypatch):
    """A pickle whose state has no membership sets (the format written before
    the sets existed) must load with working O(1) membership."""
    c = _ports_circuit()
    monkeypatch.setattr(
        Circuit,
        "__getstate__",
        lambda self: {k: v for k, v in vars(self).items() if not k.endswith("_set")},
    )
    payload = pickle.dumps(c)
    monkeypatch.undo()
    assert payload == pickle.dumps(c)
    restored = pickle.loads(payload)
    _assert_membership(restored, PROBES)
    assert restored.is_output("g") and restored.is_key_input("k1")
    restored.remove_key_input("k1")
    assert not restored.is_key_input("k1")
