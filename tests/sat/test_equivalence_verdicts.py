"""Verdicts of the monolithic SAT miter on generated and locked circuits.

``check_equivalence`` has one SAT strategy: a single miter over all shared
outputs.  These tests pin what callers rely on — optimised copies are
proven equivalent, a real difference yields a counterexample that
simulation confirms, pinned keys decide the verdict of a locked circuit,
and repeating a check repeats its answer exactly.
"""

import dataclasses

import numpy as np
import pytest

from repro.benchgen import RandomLogicSpec, generate_random_circuit
from repro.locking import (
    AntiSatLocking,
    RandomXorLocking,
    SarLockLocking,
    SfllHdLocking,
    TTLockLocking,
)
from repro.netlist.simulate import simulate
from repro.sat import check_equivalence
from repro.sat.equivalence import EquivalenceResult
from repro.synth.optimize import remove_buffers, remove_double_inverters


def _random_circuit(seed, name="eqv"):
    return generate_random_circuit(
        RandomLogicSpec(name=name, n_inputs=14, n_outputs=5, n_gates=90, seed=seed)
    )


def _optimised_copy(circuit):
    copy, _ = remove_buffers(circuit)
    copy, _ = remove_double_inverters(copy)
    return copy


def _inverted_pair(seed):
    """A random circuit and a copy whose last primary output is inverted."""
    a = _random_circuit(seed)
    b = _random_circuit(seed)
    po = sorted(b.outputs)[-1]
    gate = b.gates[po]
    b.remove_gate(po)
    b.add_gate(po + "_pre", gate.cell, gate.inputs)
    b.add_gate(po, "NOT", [po + "_pre"])
    return a, b


def _assert_distinguishes(a, b, counterexample):
    outputs = sorted(set(a.outputs) & set(b.outputs))
    sim_a = simulate(a, counterexample, outputs=outputs)
    sim_b = simulate(b, counterexample, outputs=outputs)
    assert any(sim_a[po][0] != sim_b[po][0] for po in outputs)


class TestMiterVerdicts:
    @pytest.mark.parametrize("seed", [3, 7, 13, 21, 34, 55])
    def test_optimised_copy_is_equivalent(self, seed):
        a = _random_circuit(seed)
        result = check_equivalence(a, _optimised_copy(a), method="sat")
        assert result.equivalent
        assert result.counterexample is None
        assert result.method == "sat"

    @pytest.mark.parametrize("seed", [3, 7, 13, 21, 34, 55])
    def test_inverted_output_yields_a_real_counterexample(self, seed):
        a, b = _inverted_pair(seed)
        result = check_equivalence(a, b, method="sat")
        assert not result.equivalent
        assert set(result.counterexample) == set(a.inputs)
        _assert_distinguishes(a, b, result.counterexample)

    def test_repeated_checks_repeat_the_answer(self):
        a, b = _inverted_pair(14)
        first = check_equivalence(a, b, method="sat")
        second = check_equivalence(a, b, method="sat")
        assert first == second

    def test_result_carries_only_the_monolithic_fields(self):
        fields = [f.name for f in dataclasses.fields(EquivalenceResult)]
        assert fields == ["equivalent", "counterexample", "method", "conflicts"]


def _flip_one_bit(key):
    wrong = dict(key)
    first = sorted(wrong)[0]
    wrong[first] = not wrong[first]
    return wrong


class TestKeyedVerdicts:
    @pytest.fixture(scope="class")
    def base(self):
        return generate_random_circuit(
            RandomLogicSpec(name="k", n_inputs=16, n_outputs=4, n_gates=80, seed=15)
        )

    @pytest.mark.parametrize(
        "scheme",
        [
            AntiSatLocking(8),
            SarLockLocking(8),
            RandomXorLocking(8),
            TTLockLocking(8),
            SfllHdLocking(8, h=2),
        ],
        ids=lambda scheme: scheme.name,
    )
    def test_correct_key_unlocks(self, base, scheme):
        locked = scheme.lock(base, rng=np.random.default_rng(2))
        result = check_equivalence(
            locked.locked, locked.original, key_assignment=dict(locked.key),
            method="sat",
        )
        assert result.equivalent

    @pytest.mark.parametrize("correct", [True, False])
    def test_antisat_key_decides_the_verdict(self, base, correct):
        # Anti-SAT tolerates flipping *both* halves in tandem, but a
        # single-bit flip activates the flip signal.
        locked = AntiSatLocking(8).lock(base, rng=np.random.default_rng(2))
        key = dict(locked.key) if correct else _flip_one_bit(locked.key)
        result = check_equivalence(
            locked.locked, locked.original, key_assignment=key, method="sat"
        )
        assert result.equivalent is correct
        if not correct:
            # The counterexample reports the pinned key bits as pinned.
            cex = result.counterexample
            assert set(cex) == set(locked.original.inputs) | set(key)
            assert {k: cex[k] for k in key} == key
            outputs = sorted(locked.original.outputs)
            sim_locked = simulate(locked.locked, cex, outputs=outputs)
            sim_original = simulate(
                locked.original,
                {pi: cex[pi] for pi in locked.original.inputs},
                outputs=outputs,
            )
            assert any(
                sim_locked[po][0] != sim_original[po][0] for po in outputs
            )
