"""Vectorised logic simulation of combinational netlists.

Each net is evaluated as a numpy bool vector with one entry per pattern,
gate by gate in topological order.

In the attack pipeline the oracle-guided SAT attack simulates each
distinguishing input pattern twice: on the original circuit to query its
"oracle", and on the locked circuit to fix every key-independent net before
it encodes the key cone.  Cyclic locking simulates a 32-pattern signature
block.  SPS uses COP-style probability propagation and FALL uses SAT, so
neither simulates.  The other callers are the opt-in ``method="exhaustive"``
equivalence check and
:func:`~repro.netlist.signal_probability.estimate_probabilities_simulation`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from .circuit import Circuit, CircuitError

__all__ = [
    "simulate",
    "simulate_patterns",
    "random_patterns",
    "exhaustive_patterns",
    "evaluate_output",
]


def _as_bool_array(value, n_patterns: int) -> np.ndarray:
    arr = np.asarray(value, dtype=bool)
    if arr.ndim == 0:
        arr = np.full(n_patterns, bool(arr))
    if arr.shape != (n_patterns,):
        raise ValueError(f"input vector has shape {arr.shape}, expected ({n_patterns},)")
    return arr


def simulate(
    circuit: Circuit,
    assignments: Mapping[str, object],
    *,
    outputs: Optional[Sequence[str]] = None,
) -> Dict[str, np.ndarray]:
    """Simulate the circuit on one or more input patterns.

    Parameters
    ----------
    circuit:
        The netlist to simulate.
    assignments:
        Mapping from every PI and KI name to either a scalar bool or a
        length-``n`` boolean vector (all vectors must share the same length).
    outputs:
        Net names to report.  Defaults to the circuit's primary outputs.

    Returns
    -------
    dict
        Mapping from requested net name to a boolean numpy vector.
    """
    required = set(circuit.inputs) | set(circuit.key_inputs)
    missing = required - set(assignments)
    if missing:
        raise CircuitError(f"missing input assignments: {sorted(missing)[:5]}")

    n_patterns = 1
    for value in assignments.values():
        arr = np.asarray(value)
        if arr.ndim == 1:
            n_patterns = max(n_patterns, arr.shape[0])

    values: Dict[str, np.ndarray] = {}
    for net in required:
        values[net] = _as_bool_array(assignments[net], n_patterns)

    wanted = tuple(outputs) if outputs is not None else circuit.outputs

    gates = circuit.gates
    for name in circuit.topological_order():
        gate = gates[name]
        operands = [values[net] for net in gate.inputs]
        values[name] = gate.cell.evaluate(*operands)

    result: Dict[str, np.ndarray] = {}
    for net in wanted:
        if net not in values:
            raise CircuitError(f"requested net {net} is not driven")
        result[net] = values[net]
    return result


def simulate_patterns(
    circuit: Circuit,
    patterns: np.ndarray,
    *,
    input_order: Optional[Sequence[str]] = None,
    outputs: Optional[Sequence[str]] = None,
) -> np.ndarray:
    """Simulate a dense pattern matrix.

    ``patterns`` is ``(n_patterns, n_inputs)`` where columns follow
    ``input_order`` (default: ``circuit.all_inputs``, i.e. PIs then KIs).
    Returns ``(n_patterns, n_outputs)`` with columns following ``outputs``
    (default: primary outputs).
    """
    order = tuple(input_order) if input_order is not None else circuit.all_inputs
    patterns = np.asarray(patterns, dtype=bool)
    if patterns.ndim != 2 or patterns.shape[1] != len(order):
        raise ValueError(
            f"patterns must be (n, {len(order)}), got {patterns.shape}"
        )
    assignments = {net: patterns[:, i] for i, net in enumerate(order)}
    wanted = tuple(outputs) if outputs is not None else circuit.outputs
    result = simulate(circuit, assignments, outputs=wanted)
    return np.column_stack([result[net] for net in wanted])


def random_patterns(
    n_inputs: int, n_patterns: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Uniform random boolean pattern matrix of shape (n_patterns, n_inputs).

    Without an explicit ``rng`` the stream comes from a **fixed** seed: this
    codebase's contract is bit-identical replay, and an unseeded default
    generator here was a silent determinism trap — two "identical" runs would
    disagree through no fault of the caller.  Pass your own generator to
    draw from a campaign-derived seed.
    """
    rng = rng or np.random.default_rng(0)
    return rng.integers(0, 2, size=(n_patterns, n_inputs), dtype=np.int8).astype(bool)


def exhaustive_patterns(n_inputs: int) -> np.ndarray:
    """All ``2**n_inputs`` patterns (n_inputs must be small)."""
    if n_inputs > 20:
        raise ValueError(f"refusing to enumerate 2**{n_inputs} patterns")
    count = 1 << n_inputs
    idx = np.arange(count, dtype=np.int64)
    cols = [(idx >> bit) & 1 for bit in range(n_inputs)]
    return np.column_stack(cols).astype(bool)


def evaluate_output(
    circuit: Circuit,
    output: str,
    assignments: Mapping[str, object],
) -> bool:
    """Evaluate a single output for a single scalar assignment."""
    result = simulate(circuit, assignments, outputs=[output])
    return bool(result[output][0])
