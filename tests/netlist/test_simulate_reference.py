"""Cross-checks of the vectorised simulator against a per-pattern reference.

The reference below evaluates one pattern at a time with plain Python bools
and its own table of cell functions, written from the cell definitions
rather than imported from :mod:`repro.netlist.gates`.  Agreement therefore
checks both the numpy cell functions of every library and the batch
evaluation in :func:`~repro.netlist.simulate`.
"""

from functools import reduce
from operator import xor

import numpy as np
import pytest

from repro.benchgen import RandomLogicSpec, generate_random_circuit, get_benchmark
from repro.locking import AntiSatLocking, SfllHdLocking
from repro.netlist import (
    BENCH8,
    GEN45,
    GEN65,
    Circuit,
    estimate_probabilities_simulation,
    exhaustive_patterns,
    random_patterns,
    simulate,
    simulate_patterns,
)
from repro.synth import SynthesisOptions, synthesize

_LIBRARIES = {lib.name: lib for lib in (BENCH8, GEN45, GEN65)}


def _parity(xs):
    return reduce(xor, xs)


#: Cell name -> function of a tuple of Python bools.  Shared names (BUF,
#: NAND2, ...) mean the same function in every library.
_REFERENCE = {
    "AND": all,
    "NAND": lambda xs: not all(xs),
    "OR": any,
    "NOR": lambda xs: not any(xs),
    "XOR": _parity,
    "XNOR": lambda xs: not _parity(xs),
    "NOT": lambda xs: not xs[0],
    "INV": lambda xs: not xs[0],
    "BUF": lambda xs: xs[0],
    "AOI21": lambda xs: not ((xs[0] and xs[1]) or xs[2]),
    "AOI22": lambda xs: not ((xs[0] and xs[1]) or (xs[2] and xs[3])),
    "OAI21": lambda xs: not ((xs[0] or xs[1]) and xs[2]),
    "OAI22": lambda xs: not ((xs[0] or xs[1]) and (xs[2] or xs[3])),
    "AOI211": lambda xs: not ((xs[0] and xs[1]) or xs[2] or xs[3]),
    "OAI211": lambda xs: not ((xs[0] or xs[1]) and xs[2] and xs[3]),
    "AOI221": lambda xs: not ((xs[0] and xs[1]) or (xs[2] and xs[3]) or xs[4]),
    "OAI221": lambda xs: not ((xs[0] or xs[1]) and (xs[2] or xs[3]) and xs[4]),
    "MUX2": lambda xs: xs[1] if xs[2] else xs[0],
    "MAJ3": lambda xs: sum(xs) >= 2,
    "NAND2B": lambda xs: xs[0] or not xs[1],
}
for _width in (2, 3, 4):
    for _base in ("AND", "NAND", "OR", "NOR", "XOR", "XNOR"):
        _REFERENCE[f"{_base}{_width}"] = _REFERENCE[_base]


def _reference_values(circuit, row):
    """Every net's value for one input pattern (``row`` follows all_inputs)."""
    values = {net: bool(bit) for net, bit in zip(circuit.all_inputs, row)}
    gates = circuit.gates
    for name in circuit.topological_order():
        gate = gates[name]
        operands = tuple(values[net] for net in gate.inputs)
        values[name] = bool(_REFERENCE[gate.cell_name](operands))
    return values


def _reference_patterns(circuit, patterns, outputs=None):
    wanted = tuple(outputs) if outputs is not None else circuit.outputs
    rows = []
    for row in patterns:
        values = _reference_values(circuit, row)
        rows.append([values[net] for net in wanted])
    return np.array(rows, dtype=bool).reshape(len(patterns), len(wanted))


def _random_circuit(seed, n_gates=60):
    spec = RandomLogicSpec(
        name=f"ref{seed}",
        n_inputs=6 + seed % 7,
        n_outputs=1 + seed % 4,
        n_gates=n_gates,
        seed=seed,
    )
    return generate_random_circuit(spec)


def _library_cells():
    return [
        pytest.param(lib_name, cell.name, id=f"{lib_name}-{cell.name}")
        for lib_name, lib in sorted(_LIBRARIES.items())
        for cell in lib
    ]


class TestCellsMatchReference:
    @pytest.mark.parametrize("lib_name, cell_name", _library_cells())
    def test_cell_truth_table(self, lib_name, cell_name):
        library = _LIBRARIES[lib_name]
        cell = library[cell_name]
        # Variadic bench gates are checked at three pins, wide enough to
        # tell parity from any other symmetric function.
        arity = cell.arity if cell.arity is not None else 3
        circuit = Circuit(f"one_{cell_name}", library)
        pins = [f"i{k}" for k in range(arity)]
        for pin in pins:
            circuit.add_input(pin)
        circuit.add_gate("y", cell_name, pins)
        circuit.add_output("y")
        patterns = exhaustive_patterns(arity)
        assert np.array_equal(
            simulate_patterns(circuit, patterns),
            _reference_patterns(circuit, patterns),
        )


class TestRandomCircuitsMatchReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_bench8_circuits(self, seed):
        circuit = _random_circuit(seed)
        rng = np.random.default_rng(seed + 100)
        n = int(rng.integers(1, 300))
        patterns = random_patterns(len(circuit.all_inputs), n, rng)
        assert np.array_equal(
            simulate_patterns(circuit, patterns),
            _reference_patterns(circuit, patterns),
        )

    @pytest.mark.parametrize("technology", ["GEN45", "GEN65"])
    @pytest.mark.parametrize("seed", range(4))
    def test_mapped_circuits(self, seed, technology):
        # Mapped circuits are built from fixed-arity cells (INV, AND3, OR4,
        # ...) that a BENCH8 circuit never contains; complex cells that
        # mapping rarely picks are covered cell by cell above.
        circuit, _ = synthesize(
            _random_circuit(seed + 20),
            SynthesisOptions(technology=technology, effort="high"),
        )
        assert circuit.library is _LIBRARIES[technology]
        patterns = random_patterns(
            len(circuit.all_inputs), 200, np.random.default_rng(seed)
        )
        assert np.array_equal(
            simulate_patterns(circuit, patterns),
            _reference_patterns(circuit, patterns),
        )

    def test_internal_nets(self):
        circuit = _random_circuit(11)
        patterns = random_patterns(
            len(circuit.all_inputs), 96, np.random.default_rng(2)
        )
        assignments = {
            net: patterns[:, i] for i, net in enumerate(circuit.all_inputs)
        }
        every_net = list(circuit.gate_names())
        got = simulate(circuit, assignments, outputs=every_net)
        expected = _reference_patterns(circuit, patterns, outputs=every_net)
        for col, net in enumerate(every_net):
            assert np.array_equal(got[net], expected[:, col]), net

    def test_benchmark_circuit(self):
        circuit = get_benchmark("c2670")
        patterns = random_patterns(
            len(circuit.all_inputs), 64, np.random.default_rng(4)
        )
        assert np.array_equal(
            simulate_patterns(circuit, patterns),
            _reference_patterns(circuit, patterns),
        )


class TestLockedCircuitsMatchReference:
    @pytest.mark.parametrize(
        "locker, seed",
        [(AntiSatLocking(16), 10), (SfllHdLocking(16, 2), 12)],
        ids=["antisat", "sfll"],
    )
    def test_locked_c2670(self, locker, seed):
        # Key inputs are simulated like any other input: random key bits
        # per pattern, columns after the primary inputs.
        result = locker.lock(get_benchmark("c2670"), rng=np.random.default_rng(seed))
        circuit = result.locked
        assert circuit.key_inputs
        patterns = random_patterns(
            len(circuit.all_inputs), 32, np.random.default_rng(seed)
        )
        assert np.array_equal(
            simulate_patterns(circuit, patterns),
            _reference_patterns(circuit, patterns),
        )


class TestSimulationEstimate:
    def test_estimate_is_the_reference_mean(self):
        circuit = _random_circuit(5)
        n = 256
        probs = estimate_probabilities_simulation(
            circuit, n_patterns=n, rng=np.random.default_rng(7)
        )
        # The estimate draws its patterns exactly like random_patterns does.
        patterns = random_patterns(len(circuit.all_inputs), n, np.random.default_rng(7))
        nets = list(circuit.all_inputs) + list(circuit.gate_names())
        expected = _reference_patterns(circuit, patterns, outputs=nets).mean(axis=0)
        assert probs == {net: float(p) for net, p in zip(nets, expected)}
