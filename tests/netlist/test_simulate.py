"""Unit tests for logic simulation."""

import numpy as np
import pytest

from repro.netlist import (
    CircuitError,
    evaluate_output,
    exhaustive_patterns,
    random_patterns,
    simulate,
    simulate_patterns,
)


def _bits(n, seed):
    return np.random.default_rng(seed).integers(0, 2, size=n).astype(bool)


#: Input batches for the truth-table check: pattern counts on both sides of
#: a 64-bit word boundary, and scalars mixed with vectors (a scalar
#: broadcasts across every pattern).
_ASSIGNMENTS = {
    "batch-1": {"a": _bits(1, 1), "b": _bits(1, 2), "c": _bits(1, 3)},
    "batch-63": {"a": _bits(63, 1), "b": _bits(63, 2), "c": _bits(63, 3)},
    "batch-64": {"a": _bits(64, 1), "b": _bits(64, 2), "c": _bits(64, 3)},
    "batch-65": {"a": _bits(65, 1), "b": _bits(65, 2), "c": _bits(65, 3)},
    "mixed-scalar-vector": {"a": _bits(320, 9), "b": True, "c": _bits(320, 10)},
}


class TestSimulate:
    @pytest.mark.parametrize("case", sorted(_ASSIGNMENTS))
    def test_matches_truth_table(self, tiny_circuit, case):
        assignments = _ASSIGNMENTS[case]
        n = max(np.size(v) for v in assignments.values())
        a, b, c = (
            np.broadcast_to(np.asarray(assignments[net], dtype=bool), (n,))
            for net in ("a", "b", "c")
        )
        out = simulate(tiny_circuit, assignments)
        assert np.array_equal(out["y"], (a & b) ^ c)
        assert np.array_equal(out["z"], ~(b | c))

    def test_scalar_simulation(self, tiny_circuit):
        out = simulate(tiny_circuit, {"a": True, "b": True, "c": False})
        assert bool(out["y"][0]) is True  # (1&1)^0
        assert bool(out["z"][0]) is False  # ~(1|0)

    def test_vector_simulation(self, tiny_circuit):
        out = simulate(
            tiny_circuit,
            {"a": [1, 0, 1], "b": [1, 1, 0], "c": [0, 0, 1]},
        )
        assert out["y"].tolist() == [True, False, True]

    def test_internal_nets_can_be_queried(self, tiny_circuit):
        out = simulate(tiny_circuit, {"a": 1, "b": 1, "c": 1}, outputs=["n1", "n2"])
        assert bool(out["n1"][0]) and bool(out["n2"][0])

    def test_missing_assignment_raises(self, tiny_circuit):
        with pytest.raises(CircuitError):
            simulate(tiny_circuit, {"a": 1, "b": 0})

    def test_unknown_output_raises(self, tiny_circuit):
        with pytest.raises(CircuitError):
            simulate(tiny_circuit, {"a": 1, "b": 0, "c": 0}, outputs=["ghost"])

    def test_mismatched_vector_length_raises(self, tiny_circuit):
        with pytest.raises(ValueError):
            simulate(tiny_circuit, {"a": [1, 0], "b": [1, 1, 0], "c": 0})

    def test_evaluate_output(self, tiny_circuit):
        assert evaluate_output(tiny_circuit, "y", {"a": 1, "b": 1, "c": 0})


class TestPatternHelpers:
    def test_simulate_patterns_shape(self, tiny_circuit):
        patterns = random_patterns(3, 16, np.random.default_rng(0))
        out = simulate_patterns(tiny_circuit, patterns)
        assert out.shape == (16, 2)

    def test_simulate_patterns_validates_shape(self, tiny_circuit):
        with pytest.raises(ValueError):
            simulate_patterns(tiny_circuit, np.zeros((4, 7), dtype=bool))

    def test_exhaustive_patterns(self):
        patterns = exhaustive_patterns(3)
        assert patterns.shape == (8, 3)
        assert len({tuple(p) for p in patterns.tolist()}) == 8

    def test_exhaustive_patterns_limit(self):
        with pytest.raises(ValueError):
            exhaustive_patterns(25)

    def test_exhaustive_simulation_matches_truth_table(self, tiny_circuit):
        patterns = exhaustive_patterns(3)
        out = simulate_patterns(tiny_circuit, patterns, outputs=["y"])
        for row, expected in zip(patterns, out[:, 0]):
            a, b, c = row
            assert expected == ((a and b) != c)

    def test_random_patterns_deterministic_with_seed(self):
        a = random_patterns(5, 10, np.random.default_rng(3))
        b = random_patterns(5, 10, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_random_patterns_default_is_seeded(self):
        # Regression: the rng-less default once drew from an unseeded
        # generator, silently breaking the bit-identical-replay contract.
        a = random_patterns(7, 33)
        b = random_patterns(7, 33)
        assert np.array_equal(a, b)
        assert np.array_equal(a, random_patterns(7, 33, np.random.default_rng(0)))
