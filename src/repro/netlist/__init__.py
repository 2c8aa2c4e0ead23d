"""Gate-level netlist substrate: cells, circuits, I/O, simulation, analysis."""

from .gates import BENCH8, GEN45, GEN65, CellLibrary, CellType, get_library
from .circuit import Circuit, CircuitError, Gate
from .bench_io import parse_bench, parse_bench_file, write_bench, write_bench_file
from .verilog_io import (
    parse_verilog,
    parse_verilog_file,
    write_verilog,
    write_verilog_file,
)
from .simulate import (
    evaluate_output,
    exhaustive_patterns,
    random_patterns,
    simulate,
    simulate_patterns,
)
from .signal_probability import (
    estimate_probabilities_independent,
    estimate_probabilities_simulation,
    signal_probability_skew,
)
from .traversal import (
    fanin_cone,
    fanout_cone,
    gate_levels,
    has_key_input_in_fanin,
    key_cone,
    key_inputs_in_fanin,
    output_cone,
    primary_inputs_in_fanin,
    support_bitsets,
    transitive_inputs,
)
from .validate import ValidationReport, check_circuit, validate_circuit
from .stats import CircuitStats, cell_histogram, circuit_stats

__all__ = [
    "BENCH8",
    "GEN45",
    "GEN65",
    "CellLibrary",
    "CellType",
    "get_library",
    "Circuit",
    "CircuitError",
    "Gate",
    "parse_bench",
    "parse_bench_file",
    "write_bench",
    "write_bench_file",
    "parse_verilog",
    "parse_verilog_file",
    "write_verilog",
    "write_verilog_file",
    "simulate",
    "simulate_patterns",
    "random_patterns",
    "exhaustive_patterns",
    "evaluate_output",
    "estimate_probabilities_simulation",
    "estimate_probabilities_independent",
    "signal_probability_skew",
    "fanin_cone",
    "fanout_cone",
    "transitive_inputs",
    "support_bitsets",
    "primary_inputs_in_fanin",
    "key_cone",
    "key_inputs_in_fanin",
    "has_key_input_in_fanin",
    "gate_levels",
    "output_cone",
    "validate_circuit",
    "check_circuit",
    "ValidationReport",
    "CircuitStats",
    "circuit_stats",
    "cell_histogram",
]
