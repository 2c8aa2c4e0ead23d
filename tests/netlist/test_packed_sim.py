"""Property tests for the bit-parallel (packed) simulation engine.

The packed engine must be bit-identical to the dense reference on every
circuit it admits — these tests sweep random circuits, random pattern
batches, mixed scalar/vector assignments and the pack/unpack round-trip.
"""

import numpy as np
import pytest

from repro.benchgen import RandomLogicSpec, generate_random_circuit, get_benchmark
from repro.locking import AntiSatLocking, SfllHdLocking
from repro.netlist import (
    PACKED_MIN_PATTERNS,
    CircuitError,
    PackedSimulator,
    circuit_supports_packed,
    pack_bits,
    pack_rows,
    popcount,
    random_patterns,
    simulate,
    simulate_patterns,
    unpack_bits,
)


def _random_circuit(seed, n_gates=60):
    spec = RandomLogicSpec(
        name=f"pk{seed}",
        n_inputs=6 + seed % 7,
        n_outputs=1 + seed % 4,
        n_gates=n_gates,
        seed=seed,
    )
    return generate_random_circuit(spec)


class TestPackRoundTrip:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 1000])
    def test_pack_unpack_roundtrip(self, n):
        rng = np.random.default_rng(n)
        bits = rng.integers(0, 2, size=n).astype(bool)
        words = pack_bits(bits)
        assert words.dtype == np.uint64
        assert words.shape[0] == (n + 63) // 64
        assert np.array_equal(unpack_bits(words, n), bits)

    def test_pad_bits_are_zero(self):
        bits = np.ones(70, dtype=bool)
        words = pack_bits(bits)
        # Bits 70..127 of the second word must be zero padding.
        assert int(words[1]) == (1 << 6) - 1

    def test_popcount_matches_sum(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=977).astype(bool)
        assert popcount(pack_bits(bits)) == int(bits.sum())

    def test_pack_rows_matches_pack_bits(self):
        rng = np.random.default_rng(5)
        mat = rng.integers(0, 2, size=(300, 11)).astype(bool)
        # Strided columns, exactly like the simulate hot path hands them over.
        vectors = [mat[:, i] for i in range(mat.shape[1])]
        rows = pack_rows(vectors, mat.shape[0])
        for i, vec in enumerate(vectors):
            assert np.array_equal(rows[i], pack_bits(vec))

    def test_pack_bits_rejects_matrix(self):
        with pytest.raises(ValueError):
            pack_bits(np.zeros((4, 4), dtype=bool))


class TestPackedMatchesDense:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_circuits_bit_identical(self, seed):
        circuit = _random_circuit(seed)
        assert circuit_supports_packed(circuit)
        rng = np.random.default_rng(seed + 100)
        n = int(rng.integers(PACKED_MIN_PATTERNS, 700))
        patterns = random_patterns(len(circuit.all_inputs), n, rng)
        dense = simulate_patterns(circuit, patterns, engine="dense")
        packed = simulate_patterns(circuit, patterns, engine="packed")
        assert np.array_equal(dense, packed)

    def test_internal_nets_bit_identical(self):
        circuit = _random_circuit(11)
        rng = np.random.default_rng(2)
        patterns = random_patterns(len(circuit.all_inputs), 256, rng)
        assignments = {
            net: patterns[:, i] for i, net in enumerate(circuit.all_inputs)
        }
        every_net = list(circuit.gate_names())
        dense = simulate(circuit, assignments, outputs=every_net, engine="dense")
        packed = simulate(circuit, assignments, outputs=every_net, engine="packed")
        for net in every_net:
            assert np.array_equal(dense[net], packed[net]), net

    def test_mixed_scalar_vector_assignments(self, tiny_circuit):
        rng = np.random.default_rng(9)
        n = 320
        assignments = {
            "a": rng.integers(0, 2, size=n).astype(bool),
            "b": True,  # scalar broadcasts across all patterns
            "c": rng.integers(0, 2, size=n).astype(bool),
        }
        dense = simulate(tiny_circuit, assignments, engine="dense")
        packed = simulate(tiny_circuit, assignments, engine="packed")
        for net in tiny_circuit.outputs:
            assert np.array_equal(dense[net], packed[net])

    def test_benchmark_circuit_bit_identical(self):
        circuit = get_benchmark("c2670")
        patterns = random_patterns(
            len(circuit.all_inputs), 512, np.random.default_rng(4)
        )
        dense = simulate_patterns(circuit, patterns, engine="dense")
        packed = simulate_patterns(circuit, patterns, engine="packed")
        assert np.array_equal(dense, packed)

    def test_largest_profile_at_scale(self):
        # b17_C is the largest benchgen profile; 2^17 patterns spans many
        # packed words per net.
        circuit = get_benchmark("b17_C")
        patterns = random_patterns(
            len(circuit.all_inputs), 1 << 17, np.random.default_rng(1)
        )
        dense = simulate_patterns(circuit, patterns, engine="dense")
        packed = simulate_patterns(circuit, patterns, engine="packed")
        assert np.array_equal(dense, packed)


#: Pattern counts around the 64-lane word boundary, all below
#: PACKED_MIN_PATTERNS, where ``engine="auto"`` would never pick packed.
_SMALL_BATCHES = [1, 2, 63, 64, 65, 127]


def _locked_c2670(locker, seed):
    result = locker.lock(get_benchmark("c2670"), rng=np.random.default_rng(seed))
    return result.locked


class TestPackedSmallBatches:
    @pytest.mark.parametrize("n", _SMALL_BATCHES)
    @pytest.mark.parametrize("seed", range(3))
    def test_random_circuits(self, seed, n):
        circuit = _random_circuit(seed + 40)
        patterns = random_patterns(
            len(circuit.all_inputs), n, np.random.default_rng(seed)
        )
        dense = simulate_patterns(circuit, patterns, engine="dense")
        packed = simulate_patterns(circuit, patterns, engine="packed")
        assert np.array_equal(dense, packed)

    @pytest.mark.parametrize(
        "locker, seed",
        [(AntiSatLocking(16), 10), (SfllHdLocking(16, 2), 12)],
        ids=["antisat", "sfll"],
    )
    def test_locked_c2670(self, locker, seed):
        circuit = _locked_c2670(locker, seed)
        assert circuit.key_inputs
        rng = np.random.default_rng(seed)
        for n in _SMALL_BATCHES:
            patterns = random_patterns(len(circuit.all_inputs), n, rng)
            dense = simulate_patterns(circuit, patterns, engine="dense")
            packed = simulate_patterns(circuit, patterns, engine="packed")
            assert np.array_equal(dense, packed), n


class TestEngineSelection:
    def test_auto_is_identical_to_dense_above_threshold(self, tiny_circuit):
        rng = np.random.default_rng(1)
        n = PACKED_MIN_PATTERNS
        patterns = random_patterns(len(tiny_circuit.all_inputs), n, rng)
        auto = simulate_patterns(tiny_circuit, patterns)  # engine="auto"
        dense = simulate_patterns(tiny_circuit, patterns, engine="dense")
        assert np.array_equal(auto, dense)

    def test_unknown_engine_rejected(self, tiny_circuit):
        with pytest.raises(ValueError):
            simulate(tiny_circuit, {"a": 1, "b": 1, "c": 1}, engine="simd")

    def test_packed_simulator_rejects_undriven_net(self):
        circuit = _random_circuit(2)
        sim = PackedSimulator(circuit)
        patterns = random_patterns(
            len(circuit.all_inputs), 128, np.random.default_rng(0)
        )
        values = {net: patterns[:, i] for i, net in enumerate(circuit.all_inputs)}
        with pytest.raises(CircuitError):
            sim.run_dense(values, 128, outputs=["no_such_net"])
