"""Vectorised logic simulation of combinational netlists.

Simulation is used by the oracle-guided SAT attack (to query the "oracle"),
by the equivalence-checking fallback, by the signal-probability analysis
backing the SPS baseline, and by the FALL unateness analysis.

Two engines sit behind one API:

* the **dense** engine evaluates each net as a numpy bool vector (one byte
  per pattern), and
* the **packed** engine (:mod:`repro.netlist.packed_sim`) evaluates 64
  patterns per ``uint64`` word, cutting memory traffic 8x per gate.

``engine="auto"`` (the default) picks packed once a call simulates at least
:data:`PACKED_MIN_PATTERNS` patterns on a circuit whose cells are all proven
packed-safe, and is bit-identical to the dense engine in every case.  The
dense engine stays as the test reference and as the path for circuits with
cells that are not packed-safe; pass ``engine="dense"``/``"packed"`` to pin
one.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from .circuit import Circuit, CircuitError
from .packed_sim import PackedSimulator, circuit_supports_packed

__all__ = [
    "PACKED_MIN_PATTERNS",
    "simulate",
    "simulate_patterns",
    "random_patterns",
    "exhaustive_patterns",
    "evaluate_output",
]

#: Pattern-count threshold at which ``engine="auto"`` switches to the packed
#: engine.  Below this the per-gate numpy-call overhead dominates either way
#: and the dense engine's simpler pack-free path wins.
PACKED_MIN_PATTERNS = 128


def _as_bool_array(value, n_patterns: int) -> np.ndarray:
    arr = np.asarray(value, dtype=bool)
    if arr.ndim == 0:
        arr = np.full(n_patterns, bool(arr))
    if arr.shape != (n_patterns,):
        raise ValueError(f"input vector has shape {arr.shape}, expected ({n_patterns},)")
    return arr


def _resolve_engine(engine: str, circuit: Circuit, n_patterns: int) -> str:
    """Resolve an ``engine`` request to ``"packed"`` or ``"dense"``."""
    if engine == "auto":
        if n_patterns >= PACKED_MIN_PATTERNS and circuit_supports_packed(circuit):
            return "packed"
        return "dense"
    if engine == "packed":
        if not circuit_supports_packed(circuit):
            raise CircuitError(
                f"circuit {circuit.name} uses cells that are not packed-safe"
            )
        return "packed"
    if engine == "dense":
        return "dense"
    raise ValueError(f"unknown simulation engine {engine!r}")


def simulate(
    circuit: Circuit,
    assignments: Mapping[str, object],
    *,
    outputs: Optional[Sequence[str]] = None,
    engine: str = "auto",
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
    engine:
        ``"auto"`` (default), ``"packed"`` or ``"dense"``.  The engines are
        bit-identical; ``auto`` picks packed for wide pattern batches on
        packed-safe circuits.

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

    if _resolve_engine(engine, circuit, n_patterns) == "packed":
        return PackedSimulator(circuit).run_dense(values, n_patterns, wanted)

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
    engine: str = "auto",
) -> np.ndarray:
    """Simulate a dense pattern matrix.

    ``patterns`` is ``(n_patterns, n_inputs)`` where columns follow
    ``input_order`` (default: ``circuit.all_inputs``, i.e. PIs then KIs).
    Returns ``(n_patterns, n_outputs)`` with columns following ``outputs``
    (default: primary outputs).  ``engine`` selects the simulation engine as
    in :func:`simulate`.
    """
    order = tuple(input_order) if input_order is not None else circuit.all_inputs
    patterns = np.asarray(patterns, dtype=bool)
    if patterns.ndim != 2 or patterns.shape[1] != len(order):
        raise ValueError(
            f"patterns must be (n, {len(order)}), got {patterns.shape}"
        )
    assignments = {net: patterns[:, i] for i, net in enumerate(order)}
    wanted = tuple(outputs) if outputs is not None else circuit.outputs
    result = simulate(circuit, assignments, outputs=wanted, engine=engine)
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
