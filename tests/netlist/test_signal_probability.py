"""Unit tests for signal probability estimation."""

import numpy as np
import pytest

from repro.netlist import (
    BENCH8,
    Circuit,
    CircuitError,
    estimate_probabilities_independent,
    estimate_probabilities_simulation,
    signal_probability_skew,
)


@pytest.fixture
def skewed() -> Circuit:
    """y = a AND b AND c AND d has P(y=1) = 1/16."""
    c = Circuit("skewed", BENCH8)
    for net in ("a", "b", "c", "d"):
        c.add_input(net)
    c.add_gate("y", "AND", ["a", "b", "c", "d"])
    c.add_gate("yb", "NOT", ["y"])
    c.add_output("y")
    c.add_output("yb")
    return c


class TestIndependentPropagation:
    def test_and_probability(self, skewed):
        probs = estimate_probabilities_independent(skewed)
        assert probs["y"] == pytest.approx(1 / 16)
        assert probs["yb"] == pytest.approx(15 / 16)

    def test_inputs_are_half(self, skewed):
        probs = estimate_probabilities_independent(skewed)
        assert probs["a"] == 0.5

    def test_xor_probability(self, tiny_circuit):
        probs = estimate_probabilities_independent(tiny_circuit)
        # y = (a&b) ^ c with independent inputs: P = 0.25*0.5 + 0.75*0.5 = 0.5
        assert probs["y"] == pytest.approx(0.5)

    def test_skew_helper(self):
        assert signal_probability_skew(1.0) == pytest.approx(0.5)
        assert signal_probability_skew(0.0) == pytest.approx(-0.5)
        assert signal_probability_skew(0.5) == pytest.approx(0.0)


class TestSimulationEstimate:
    def test_matches_independent_on_tree_circuit(self, skewed):
        sim = estimate_probabilities_simulation(
            skewed, n_patterns=4096, rng=np.random.default_rng(0)
        )
        exact = estimate_probabilities_independent(skewed)
        assert sim["y"] == pytest.approx(exact["y"], abs=0.03)

    def test_key_assignment_pins_keys(self):
        c = Circuit("k", BENCH8)
        c.add_input("a")
        c.add_key_input("keyinput0")
        c.add_gate("y", "AND", ["a", "keyinput0"])
        c.add_output("y")
        probs = estimate_probabilities_simulation(
            c, n_patterns=512, key_assignment={"keyinput0": False}
        )
        assert probs["y"] == 0.0

    def test_misspelled_key_net_raises(self):
        # Regression: a typo'd key net used to be silently ignored, turning a
        # pinned-key estimate into a random-key one.
        c = Circuit("k", BENCH8)
        c.add_input("a")
        c.add_key_input("keyinput0")
        c.add_gate("y", "AND", ["a", "keyinput0"])
        c.add_output("y")
        with pytest.raises(CircuitError):
            estimate_probabilities_simulation(
                c, n_patterns=64, key_assignment={"keyinput_0": False}
            )
