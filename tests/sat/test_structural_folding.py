"""The key-aware structural fast path of ``check_equivalence``.

``structurally_equivalent`` hash-conses both circuits with the pinned key
bits as constants and folds constants, buffers, inverter pairs and the
AND/OR/XOR identities.  A structural "equivalent" skips the SAT miter, so it
must never be wrong: the differential test below draws random locked
circuits in all three libraries, decorates them with buffer chains,
inverter pairs and key-gated decoy paths, and compares every structural
verdict with exhaustive simulation under the correct key, every one-bit
flip of it and random keys.  Where folding must succeed (the correct key on
a BENCH8 netlist, where every decoration is a foldable cell) the test also
requires the structural proof, so a fold rule that stops firing fails it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchgen import RandomLogicSpec, generate_random_circuit, get_benchmark
from repro.locking import RandomXorLocking
from repro.netlist import BENCH8, GEN65, Circuit
from repro.sat import check_equivalence, structurally_equivalent
from repro.synth import SynthesisOptions, synthesize_locked

DECOY_KEY = "decoykey"


def _cell(circuit, bench_name, gen_name):
    return bench_name if circuit.library is BENCH8 else gen_name


def _decorate(circuit, rng, n_edits):
    """Splice buffer chains, inverter pairs and decoy paths into gate inputs.

    A decoy path turns input ``n`` into ``OR(n, AND(d, decoykey))`` for some
    other net ``d`` that does not depend on the gate; with the decoy key
    pinned to 0 it is ``n`` again.  Returns the decorated copy.
    """
    out = circuit.copy()
    out.add_key_input(DECOY_KEY)
    order = out.topological_order()
    for edit in range(n_edits):
        position = int(rng.integers(len(order)))
        name = order[position]
        gate = out.gate(name)
        pin = int(rng.integers(len(gate.inputs)))
        net = gate.inputs[pin]
        kind = int(rng.integers(3))
        fresh = f"deco{edit}"
        if kind == 0:
            chain = int(rng.integers(1, 4))
            for step in range(chain):
                out.add_gate(f"{fresh}_{step}", "BUF", [net])
                net = f"{fresh}_{step}"
        elif kind == 1:
            inv = _cell(out, "NOT", "INV")
            out.add_gate(f"{fresh}_a", inv, [net])
            out.add_gate(f"{fresh}_b", inv, [f"{fresh}_a"])
            net = f"{fresh}_b"
        else:
            # Any input or earlier gate is a decoy source that keeps the DAG.
            sources = list(out.all_inputs[:-1]) + order[:position]
            decoy = sources[int(rng.integers(len(sources)))]
            out.add_gate(f"{fresh}_and", _cell(out, "AND", "AND2"), [decoy, DECOY_KEY])
            out.add_gate(f"{fresh}_or", _cell(out, "OR", "OR2"), [net, f"{fresh}_and"])
            net = f"{fresh}_or"
        inputs = list(gate.inputs)
        inputs[pin] = net
        out.set_gate(name, gate.cell, inputs)
    return out


def _keys_to_check(key, rng, n_random):
    names = sorted(key)
    yield "correct", dict(key)
    for name in names:
        flipped = dict(key)
        flipped[name] = not flipped[name]
        yield "flip", flipped
    for _ in range(n_random):
        bits = rng.integers(0, 2, size=len(names)).astype(bool)
        yield "random", {n: bool(b) for n, b in zip(names, bits)}


@given(
    seed=st.integers(0, 10_000),
    n_inputs=st.integers(2, 9),
    n_outputs=st.integers(1, 4),
    n_gates=st.integers(8, 50),
    key_size=st.integers(1, 6),
    n_edits=st.integers(0, 8),
    technology=st.sampled_from(["BENCH8", "GEN65", "GEN45"]),
)
@settings(max_examples=80, deadline=None)
def test_structural_verdicts_agree_with_exhaustive_simulation(
    seed, n_inputs, n_outputs, n_gates, key_size, n_edits, technology
):
    spec = RandomLogicSpec(
        name=f"fold{seed}", n_inputs=n_inputs, n_outputs=n_outputs,
        n_gates=n_gates, seed=seed,
    )
    rng = np.random.default_rng(seed)
    design = generate_random_circuit(spec)
    # Two or three inputs leave only a few gates to carry the key gates.
    key_size = min(key_size, len(design))
    result = RandomXorLocking(key_size).lock(design, rng=rng)
    result = synthesize_locked(result, SynthesisOptions(technology=technology))
    locked = _decorate(result.locked, rng, n_edits)
    for kind, key in _keys_to_check(result.key, rng, 3):
        pinned = {**key, DECOY_KEY: False}
        structural = check_equivalence(
            locked, result.original, key_assignment=pinned, method="structural"
        )
        assert structural.method == "structural"
        assert structural.equivalent == structurally_equivalent(
            locked, result.original, key_assignment=pinned
        )
        exhaustive = check_equivalence(
            locked, result.original, key_assignment=pinned, method="exhaustive"
        )
        if structural.equivalent:
            assert exhaustive.equivalent, (kind, key)
        if kind == "correct":
            assert exhaustive.equivalent
            if technology == "BENCH8":
                assert structural.equivalent
        # The decoy key set to 1 routes every decoy path in.
        if n_edits and kind == "correct":
            opened = check_equivalence(
                locked, result.original, key_assignment={**key, DECOY_KEY: True},
                method="structural",
            )
            if opened.equivalent:
                assert check_equivalence(
                    locked, result.original, key_assignment={**key, DECOY_KEY: True},
                    method="exhaustive",
                ).equivalent


def _xor_gate_circuit(cell, key_bit_name="keyinput0"):
    locked = Circuit("locked", BENCH8)
    locked.add_input("a")
    locked.add_input("b")
    locked.add_key_input(key_bit_name)
    locked.add_gate("n", "AND", ["a", "b"])
    locked.add_gate("y", cell, ["n", key_bit_name])
    locked.add_output("y")
    original = Circuit("orig", BENCH8)
    original.add_input("a")
    original.add_input("b")
    original.add_gate("y", "AND", ["b", "a"])
    original.add_output("y")
    return locked, original


@pytest.mark.parametrize("cell, correct", [("XOR", False), ("XNOR", True)])
def test_key_gate_folds_only_under_the_correct_key(cell, correct):
    locked, original = _xor_gate_circuit(cell)
    assert structurally_equivalent(
        locked, original, key_assignment={"keyinput0": correct}
    )
    assert not structurally_equivalent(
        locked, original, key_assignment={"keyinput0": not correct}
    )
    # Unpinned, the key is a free input the original does not have.
    assert not structurally_equivalent(locked, original)


def test_folding_rules():
    def single(cell, inputs):
        circuit = Circuit("c", BENCH8)
        for net in ("a", "b", "k"):
            circuit.add_input(net)
        circuit.add_gate("y", cell, inputs)
        circuit.add_output("y")
        return circuit

    def same(left, right, k):
        return structurally_equivalent(
            single(*left), single(*right), key_assignment={"k": k}
        )

    buf_a, not_a = ("BUF", ["a"]), ("NOT", ["a"])
    zero = ("XOR", ["b", "b"])
    assert same(("AND", ["a", "k"]), zero, False)
    assert same(("NOR", ["a", "k"]), zero, True)
    assert same(("AND", ["a", "k"]), buf_a, True)
    assert same(("AND", ["a", "a", "k"]), buf_a, True)
    assert same(("AND", ["a", "k"]), ("AND", ["k", "a", "k"]), True)
    assert same(("OR", ["a", "k"]), buf_a, False)
    assert same(("OR", ["a", "k"]), ("XNOR", ["b", "b"]), True)
    assert same(("XOR", ["a", "k"]), not_a, True)
    assert same(("XNOR", ["a", "k"]), not_a, False)
    assert same(("XNOR", ["a", "k", "k"]), not_a, False)
    assert same(("XNOR", ["a", "b", "k"]), ("XOR", ["b", "a"]), True)
    assert same(("NAND", ["k", "a"]), not_a, True)
    assert not same(("XOR", ["a", "k"]), not_a, False)
    assert not same(("AND", ["a", "k"]), ("AND", ["a", "b"]), True)
    assert not same(("XNOR", ["a", "b", "k"]), ("XOR", ["b", "a"]), False)


def test_complex_cells_are_hashed_but_not_folded():
    def mux(select_net):
        circuit = Circuit("m", GEN65)
        for net in ("a", "b", "k"):
            circuit.add_input(net)
        circuit.add_gate("y", "MUX2", ["a", "b", select_net])
        circuit.add_output("y")
        return circuit

    pinned = {"k": False}
    assert structurally_equivalent(mux("k"), mux("k"), key_assignment=pinned)
    buffered = Circuit("b", GEN65)
    for net in ("a", "b", "k"):
        buffered.add_input(net)
    buffered.add_gate("y", "BUF", ["a"])
    buffered.add_output("y")
    # MUX2(a, b, 0) is a, but the cell is not folded: SAT has to prove it.
    assert not structurally_equivalent(mux("k"), buffered, key_assignment=pinned)
    result = check_equivalence(mux("k"), buffered, key_assignment=pinned)
    assert result.equivalent and result.method == "sat"


@pytest.fixture(scope="module")
def c3540_xor8():
    return RandomXorLocking(8).lock(
        get_benchmark("c3540").copy(), rng=np.random.default_rng(3)
    )


def test_structural_method_uses_the_key_assignment(c3540_xor8):
    result = c3540_xor8
    proven = check_equivalence(
        result.locked, result.original, key_assignment=result.key,
        method="structural",
    )
    assert proven.equivalent and proven.method == "structural"
    wrong = dict(result.key)
    first = sorted(wrong)[0]
    wrong[first] = not wrong[first]
    refuted = check_equivalence(
        result.locked, result.original, key_assignment=wrong, method="structural"
    )
    assert not refuted.equivalent and refuted.method == "structural"
    assert not check_equivalence(
        result.locked, result.original, key_assignment=wrong
    ).equivalent


@pytest.mark.parametrize("scheme", ["xor", "cyclic"])
def test_matrix_key_verification_is_structural(matrix_families, scheme):
    result = matrix_families[scheme]
    verdict = check_equivalence(
        result.locked, result.original, key_assignment=result.key
    )
    assert verdict.equivalent
    assert verdict.method == "structural"
    assert verdict.conflicts == 0
