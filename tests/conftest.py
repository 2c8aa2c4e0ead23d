"""Shared fixtures: small circuits and locked instances used across tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchgen import RandomLogicSpec, generate_random_circuit, get_benchmark
from repro.locking import AntiSatLocking, SfllHdLocking, TTLockLocking
from repro.netlist import BENCH8, Circuit


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_circuit() -> Circuit:
    """y = (a AND b) XOR c ; z = NOT(b OR c)."""
    circuit = Circuit("tiny", BENCH8)
    for net in ("a", "b", "c"):
        circuit.add_input(net)
    circuit.add_gate("n1", "AND", ["a", "b"])
    circuit.add_gate("y", "XOR", ["n1", "c"])
    circuit.add_gate("n2", "OR", ["b", "c"])
    circuit.add_gate("z", "NOT", ["n2"])
    circuit.add_output("y")
    circuit.add_output("z")
    return circuit


@pytest.fixture
def small_random_circuit() -> Circuit:
    """A deterministic 60-gate random circuit with 24 PIs."""
    spec = RandomLogicSpec(
        name="small_rand", n_inputs=24, n_outputs=6, n_gates=60, seed=77
    )
    return generate_random_circuit(spec)


@pytest.fixture
def bench_c3540() -> Circuit:
    return get_benchmark("c3540")


@pytest.fixture
def antisat_locked(small_random_circuit, rng):
    return AntiSatLocking(8).lock(small_random_circuit, rng=rng)


@pytest.fixture
def ttlock_locked(small_random_circuit, rng):
    return TTLockLocking(8).lock(small_random_circuit, rng=rng)


@pytest.fixture
def sfll_hd2_locked(small_random_circuit, rng):
    return SfllHdLocking(8, 2).lock(small_random_circuit, rng=rng)


@pytest.fixture(scope="session")
def matrix_families():
    """Scheme name -> the c2670, K=8 instance of each capability-matrix family.

    The instances the standing matrix attacks: one locking seed, each family
    in its matrix technology (GEN65 for TTLock and SFLL-HD, BENCH8 for the
    rest).
    """
    from repro.runner import matrix_campaign

    spec = matrix_campaign(targets=("c2670",), key_sizes=(8,), attacks=("sat",))
    families = {}
    for task in spec.expand():
        (instance,) = [
            inst for inst in task.dataset.generate() if inst.benchmark == "c2670"
        ]
        families[task.dataset.scheme] = instance.result
    return families
