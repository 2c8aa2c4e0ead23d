"""Signal probability and skew analysis.

The SPS (signal probability skew) baseline attack on Anti-SAT looks for an AND
gate whose two fan-in nets have strongly *opposite* probability skews; the
Anti-SAT output Y is highly skewed towards 0 by construction.  Two estimators
are provided:

* :func:`estimate_probabilities_simulation` — Monte-Carlo simulation (exact in
  the limit, cheap for the circuit sizes we use), and
* :func:`estimate_probabilities_independent` — the classic COP-style
  propagation that assumes net independence, which is what removal attacks use
  in practice because it needs no simulation vectors.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from .circuit import Circuit, CircuitError
from .simulate import random_patterns, simulate

__all__ = [
    "estimate_probabilities_simulation",
    "estimate_probabilities_independent",
    "signal_probability_skew",
]


def estimate_probabilities_simulation(
    circuit: Circuit,
    *,
    n_patterns: int = 2048,
    rng: Optional[np.random.Generator] = None,
    key_assignment: Optional[Mapping[str, bool]] = None,
) -> Dict[str, float]:
    """Estimate P(net = 1) for every net via random simulation.

    Key inputs are randomised unless ``key_assignment`` pins them; a
    ``key_assignment`` naming a net that is not one of the circuit's key
    inputs raises :class:`~repro.netlist.circuit.CircuitError` — a misspelled
    key net must not silently degrade into a random-key simulation.
    """
    rng = rng or np.random.default_rng(0)
    if key_assignment:
        unknown = set(key_assignment) - set(circuit.key_inputs)
        if unknown:
            raise CircuitError(
                f"key_assignment names nets that are not key inputs: "
                f"{sorted(unknown)[:5]}"
            )
    all_inputs = circuit.all_inputs
    patterns = random_patterns(len(all_inputs), n_patterns, rng)
    assignments: Dict[str, np.ndarray] = {
        net: patterns[:, i] for i, net in enumerate(all_inputs)
    }
    if key_assignment:
        for net, value in key_assignment.items():
            assignments[net] = np.full(n_patterns, bool(value))
    every_net = list(circuit.gate_names())

    probs: Dict[str, float] = {}
    values = simulate(circuit, assignments, outputs=every_net)
    for net in all_inputs:
        probs[net] = float(assignments[net].mean())
    for net in every_net:
        probs[net] = float(values[net].mean())
    return probs


def estimate_probabilities_independent(circuit: Circuit) -> Dict[str, float]:
    """Propagate signal probabilities assuming all gate inputs are independent.

    PIs and KIs are assumed uniform (p = 0.5).  Each cell's output probability
    is computed exactly from its truth table under the independence assumption.
    """
    probs: Dict[str, float] = {}
    for net in circuit.all_inputs:
        probs[net] = 0.5
    gates = circuit.gates
    for name in circuit.topological_order():
        gate = gates[name]
        in_probs = [probs[n] for n in gate.inputs]
        probs[name] = _cell_output_probability(gate, in_probs)
    return probs


def _cell_output_probability(gate, in_probs) -> float:
    """Exact P(out=1) for one cell given independent input probabilities."""
    k = len(in_probs)
    if k > 16:
        # Extremely wide variadic gate: fall back to AND/OR-style closed forms.
        name = gate.cell.name
        prod = float(np.prod(in_probs))
        prod_zero = float(np.prod([1.0 - p for p in in_probs]))
        if name in ("AND",):
            return prod
        if name in ("NAND",):
            return 1.0 - prod
        if name in ("OR",):
            return 1.0 - prod_zero
        if name in ("NOR",):
            return prod_zero
        # XOR/XNOR of many independent p=? inputs: use the parity recurrence.
        p_odd = 0.0
        for p in in_probs:
            p_odd = p_odd * (1.0 - p) + (1.0 - p_odd) * p
        return p_odd if name == "XOR" else 1.0 - p_odd
    total = 0.0
    for assignment in range(1 << k):
        bits = [(assignment >> i) & 1 for i in range(k)]
        weight = 1.0
        for bit, p in zip(bits, in_probs):
            weight *= p if bit else (1.0 - p)
        if weight == 0.0:
            continue
        out = bool(gate.cell.evaluate(*[np.array(bool(b)) for b in bits]))
        if out:
            total += weight
    return total


def signal_probability_skew(probability: float) -> float:
    """SPS skew of a net: s = P(net=1) - 0.5, in [-0.5, 0.5]."""
    return probability - 0.5
