"""Deterministic random-logic generator.

The paper evaluates on ISCAS-85 and ITC-99 benchmark netlists which we cannot
redistribute here (offline environment).  This module generates synthetic
combinational circuits with the structural properties the attack actually
depends on:

* a realistic mix of gate types (AND/NAND/OR/NOR dominated, some XOR/XNOR,
  inverters and buffers),
* locality of connections (gates mostly read recently created nets) with
  reconvergent fan-out,
* wide primary-input interfaces (logic locking consumes PIs),
* occasional NOR-tree / AND-tree reduction structures, which the paper calls
  out as the design structures most easily confused with SFLL perturb logic.

Generation is fully deterministic given the seed, so datasets are reproducible
across runs and machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..netlist.circuit import Circuit
from ..netlist.gates import BENCH8, CellLibrary

__all__ = ["RandomLogicSpec", "generate_random_circuit", "add_reduction_tree"]


# Relative frequency of each bench-style gate family in generated designs.
_GATE_WEIGHTS = {
    "NAND": 0.24,
    "NOR": 0.16,
    "AND": 0.18,
    "OR": 0.14,
    "NOT": 0.12,
    "XOR": 0.07,
    "XNOR": 0.05,
    "BUF": 0.04,
}


@dataclass(frozen=True)
class RandomLogicSpec:
    """Parameters of a synthetic benchmark circuit."""

    name: str
    n_inputs: int
    n_outputs: int
    n_gates: int
    seed: int
    n_reduction_trees: int = 2
    reduction_tree_width: int = 6
    max_fanin: int = 4

    def __post_init__(self) -> None:
        if self.n_inputs < 2:
            raise ValueError("need at least 2 primary inputs")
        if self.n_outputs < 1:
            raise ValueError("need at least 1 primary output")
        if self.n_gates < self.n_outputs:
            raise ValueError("need at least as many gates as outputs")


def generate_random_circuit(
    spec: RandomLogicSpec, *, library: CellLibrary = BENCH8
) -> Circuit:
    """Generate a deterministic pseudo-random combinational circuit.

    The returned circuit is always in the :data:`~repro.netlist.gates.BENCH8`
    vocabulary (variadic gates); use :func:`repro.synth.technology_map` to
    re-express it in a standard-cell-like library.
    """
    if library is not BENCH8:
        raise ValueError(
            "generate_random_circuit emits BENCH8 netlists; use "
            "repro.synth.technology_map for other libraries"
        )
    rng = np.random.default_rng(spec.seed)
    circuit = Circuit(spec.name, BENCH8)

    inputs = [f"G{i}" for i in range(spec.n_inputs)]
    for net in inputs:
        circuit.add_input(net)

    gate_names = list(_GATE_WEIGHTS)
    gate_probs = np.array([_GATE_WEIGHTS[g] for g in gate_names])
    gate_probs = gate_probs / gate_probs.sum()

    available: List[str] = list(inputs)
    created: List[str] = []

    # Reserve the reduction trees' gates.  Each tree is clamped to the
    # primary inputs that exist, and a w-input tree takes w - 1 gates (a
    # width-1 tree is one BUF).
    tree_width = min(spec.reduction_tree_width, spec.n_inputs)
    tree_budget = spec.n_reduction_trees * max(tree_width - 1, 1)
    body_gates = max(spec.n_gates - tree_budget, spec.n_outputs)

    for idx in range(body_gates):
        cell = str(rng.choice(gate_names, p=gate_probs))
        if cell in ("NOT", "BUF"):
            fanin = 1
        else:
            fanin = int(rng.integers(2, spec.max_fanin + 1))
        net_name = f"n{idx}"
        chosen = _pick_inputs(rng, available, fanin, n_primary=spec.n_inputs)
        circuit.add_gate(net_name, cell, chosen)
        available.append(net_name)
        created.append(net_name)

    # Insert reduction trees (NOR-tree-like structures over primary inputs).
    for t in range(spec.n_reduction_trees):
        root = add_reduction_tree(
            circuit,
            rng=rng,
            width=spec.reduction_tree_width,
            prefix=f"rt{t}",
            cell="NOR" if t % 2 == 0 else "AND",
        )
        created.append(root)
        available.append(root)

    # Primary outputs: prefer sink gates (no fanout yet) so little logic is dead.
    fanout = circuit.fanout_map()
    sinks = [n for n in created if n not in fanout]
    rng.shuffle(sinks)
    outputs: List[str] = []
    for net in sinks:
        if len(outputs) >= spec.n_outputs:
            break
        outputs.append(net)
    remaining = [n for n in reversed(created) if n not in outputs]
    for net in remaining:
        if len(outputs) >= spec.n_outputs:
            break
        outputs.append(net)
    for net in outputs:
        circuit.add_output(net)
    return circuit


def _pick_inputs(
    rng: np.random.Generator,
    available: Sequence[str],
    fanin: int,
    *,
    n_primary: int,
) -> List[str]:
    """Pick ``fanin`` distinct source nets with a locality bias.

    Recent nets are preferred (geometric-ish bias towards the end of
    ``available``) but primary inputs stay reachable throughout, giving
    shallow, wide circuits similar to the ISCAS/ITC profiles.  A fan-in
    larger than ``available`` is clamped to it (the first gates of a design
    with fewer primary inputs than ``max_fanin``).
    """
    n = len(available)
    fanin = min(fanin, n)
    chosen: List[str] = []
    attempts = 0
    while len(chosen) < fanin and attempts < 50 * fanin:
        attempts += 1
        if n <= n_primary or rng.random() < 0.35:
            idx = int(rng.integers(0, min(n_primary, n)))
        else:
            # Bias towards recently created nets (locality).
            offset = int(rng.geometric(p=0.15))
            idx = max(n - offset, 0)
        net = available[idx]
        if net not in chosen:
            chosen.append(net)
    while len(chosen) < fanin:
        for net in reversed(available):
            if net not in chosen:
                chosen.append(net)
                break
    return chosen


def add_reduction_tree(
    circuit: Circuit,
    *,
    rng: np.random.Generator,
    width: int,
    prefix: str,
    cell: str = "NOR",
) -> str:
    """Add a ``cell``-tree reducing ``width`` random primary inputs.

    Returns the name of the tree root.  These mimic the NOR-tree structures in
    the original benchmarks that the paper reports as the main source of GNN
    misclassifications (design nodes mistaken for perturb nodes).
    """
    inputs = list(circuit.inputs)
    width = min(width, len(inputs))
    picks = [inputs[int(i)] for i in rng.choice(len(inputs), size=width, replace=False)]
    layer = picks
    level = 0
    while len(layer) > 1:
        next_layer: List[str] = []
        for i in range(0, len(layer) - 1, 2):
            name = circuit.fresh_net_name(f"{prefix}_l{level}_{i // 2}")
            circuit.add_gate(name, cell, [layer[i], layer[i + 1]])
            next_layer.append(name)
        if len(layer) % 2 == 1:
            next_layer.append(layer[-1])
        layer = next_layer
        level += 1
    root = layer[0]
    if root in picks:
        # Degenerate width-1 tree: buffer the input so the root is a gate.
        name = circuit.fresh_net_name(f"{prefix}_buf")
        circuit.add_gate(name, "BUF", [root])
        root = name
    return root
