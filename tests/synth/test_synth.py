"""Unit tests for the synthesis substrate (decompose, optimise, techmap, flow)."""

import numpy as np
import pytest

from repro.locking import DESIGN, SfllHdLocking
from repro.netlist import BENCH8, GEN45, GEN65, Circuit, cell_histogram, validate_circuit
from repro.sat import check_equivalence
from repro.synth import (
    MAPPABLE_LIBRARIES,
    SynthesisOptions,
    compose_name_maps,
    decompose_to_primitives,
    remove_buffers,
    remove_dead_gates,
    remove_double_inverters,
    synthesize,
    synthesize_locked,
    technology_map,
)


@pytest.fixture
def wide_circuit() -> Circuit:
    c = Circuit("wide", BENCH8)
    for i in range(6):
        c.add_input(f"x{i}")
    c.add_gate("w", "NAND", [f"x{i}" for i in range(6)])
    c.add_gate("v", "XOR", ["x0", "x1", "x2"])
    c.add_gate("y", "OR", ["w", "v"])
    c.add_output("y")
    return c


class TestDecompose:
    def test_max_two_inputs_after_decomposition(self, wide_circuit):
        out, name_map = decompose_to_primitives(wide_circuit)
        assert all(len(g.inputs) <= 2 for g in out)
        assert validate_circuit(out).ok

    def test_function_preserved(self, wide_circuit):
        out, _ = decompose_to_primitives(wide_circuit)
        assert check_equivalence(wide_circuit, out).equivalent

    def test_name_map_points_to_source_gates(self, wide_circuit):
        out, name_map = decompose_to_primitives(wide_circuit)
        assert set(name_map.values()) <= set(wide_circuit.gate_names())
        assert all(name in out.gates for name in name_map)

    def test_root_keeps_original_name(self, wide_circuit):
        out, _ = decompose_to_primitives(wide_circuit)
        assert out.has_gate("w") and out.has_gate("y")


class TestOptimise:
    def test_remove_buffers(self):
        c = Circuit("buf", BENCH8)
        c.add_input("a")
        c.add_gate("b1", "BUF", ["a"])
        c.add_gate("y", "NOT", ["b1"])
        c.add_output("y")
        out, _ = remove_buffers(c)
        assert not out.has_gate("b1")
        assert check_equivalence(c, out).equivalent

    def test_remove_buffers_deep_chain(self):
        c = Circuit("chain", BENCH8)
        c.add_input("a")
        c.add_input("b")
        prev = "a"
        for i in range(50):
            c.add_gate(f"b{i}", "BUF", [prev])
            prev = f"b{i}"
        c.add_gate("y", "AND", [prev, "b"])
        c.add_output("y")
        out, name_map = remove_buffers(c)
        assert out.gate_names() == ("y",)
        assert out.gate("y").inputs == ("a", "b")
        assert name_map == {"y": "y"}
        assert check_equivalence(c, out).equivalent

    def test_buffer_driving_po_kept(self):
        c = Circuit("buf", BENCH8)
        c.add_input("a")
        c.add_gate("y", "BUF", ["a"])
        c.add_output("y")
        out, _ = remove_buffers(c)
        assert out.has_gate("y")

    def test_remove_double_inverters(self):
        c = Circuit("inv", BENCH8)
        c.add_input("a")
        c.add_gate("n1", "NOT", ["a"])
        c.add_gate("n2", "NOT", ["n1"])
        c.add_gate("y", "AND", ["n2", "a"])
        c.add_output("y")
        out, _ = remove_double_inverters(c)
        assert "a" in out.gate("y").inputs
        assert check_equivalence(c, out).equivalent

    def test_remove_dead_gates(self, tiny_circuit):
        tiny_circuit.add_gate("dead", "AND", ["a", "b"])
        out, _ = remove_dead_gates(tiny_circuit)
        assert not out.has_gate("dead")
        assert check_equivalence(tiny_circuit, out).equivalent

    def test_remove_dead_gates_keep_set(self, tiny_circuit):
        tiny_circuit.add_gate("dead", "AND", ["a", "b"])
        out, _ = remove_dead_gates(tiny_circuit, keep={"dead"})
        assert out.has_gate("dead")

    def test_compose_name_maps(self):
        first = {"b": "a"}
        second = {"c": "b", "d": "x"}
        assert compose_name_maps(first, second) == {"c": "a", "d": "x"}


class TestTechmap:
    @pytest.mark.parametrize("library", [GEN65, GEN45])
    def test_mapping_preserves_function(self, wide_circuit, library):
        decomposed, _ = decompose_to_primitives(wide_circuit)
        mapped, name_map = technology_map(decomposed, library)
        assert mapped.library is library
        assert validate_circuit(mapped).ok
        assert check_equivalence(wide_circuit, mapped).equivalent
        assert set(name_map.values()) <= set(decomposed.gate_names())

    def test_low_effort_is_rename_only(self, wide_circuit):
        decomposed, _ = decompose_to_primitives(wide_circuit)
        mapped, _ = technology_map(decomposed, GEN65, effort="low")
        assert len(mapped) == len(decomposed)

    def test_high_effort_uses_demorgan(self, bench_c3540):
        low, _ = synthesize(bench_c3540, SynthesisOptions(technology="GEN65", effort="low"))
        high, _ = synthesize(bench_c3540, SynthesisOptions(technology="GEN65", effort="high"))
        assert cell_histogram(high) != cell_histogram(low)
        assert check_equivalence(low, high).equivalent

    def test_merge_produces_complex_or_wide_cells(self):
        c = Circuit("aoi", BENCH8)
        for net in ("a", "b", "d", "e"):
            c.add_input(net)
        c.add_gate("and1", "AND", ["a", "b"])
        c.add_gate("and2", "AND", ["d", "e"])
        c.add_gate("y", "NOR", ["and1", "and2"])
        c.add_output("y")
        mapped, _ = technology_map(c, GEN65)
        assert "AOI22" in cell_histogram(mapped)
        assert check_equivalence(c, mapped).equivalent

    def test_merge_respects_groups(self):
        c = Circuit("aoi", BENCH8)
        for net in ("a", "b", "d"):
            c.add_input(net)
        c.add_gate("and1", "AND", ["a", "b"])
        c.add_gate("y", "NOR", ["and1", "d"])
        c.add_output("y")
        merged, _ = technology_map(c, GEN65)
        separate, _ = technology_map(
            c, GEN65, merge_groups={"and1": "design", "y": "protection"}
        )
        assert "AOI21" in cell_histogram(merged)
        assert "AOI21" not in cell_histogram(separate)

    def test_bench8_target_rejected(self, wide_circuit):
        from repro.netlist import CircuitError

        with pytest.raises(CircuitError):
            technology_map(wide_circuit, BENCH8)

    def test_effort_validation(self, wide_circuit):
        decomposed, _ = decompose_to_primitives(wide_circuit)
        with pytest.raises(ValueError):
            technology_map(decomposed, GEN65, effort="extreme")


class TestFlow:
    def test_bench8_flow_is_identity(self, bench_c3540):
        mapped, name_map = synthesize(bench_c3540, SynthesisOptions(technology="BENCH8"))
        assert len(mapped) == len(bench_c3540)
        assert all(k == v for k, v in name_map.items())

    @pytest.mark.parametrize("technology", MAPPABLE_LIBRARIES)
    def test_full_flow_preserves_function(self, bench_c3540, technology):
        mapped, _ = synthesize(bench_c3540, SynthesisOptions(technology=technology))
        assert check_equivalence(bench_c3540, mapped).equivalent

    def test_feature_length_matches_paper(self, bench_c3540):
        mapped65, _ = synthesize(bench_c3540, SynthesisOptions(technology="GEN65"))
        mapped45, _ = synthesize(bench_c3540, SynthesisOptions(technology="GEN45"))
        assert mapped65.library.feature_length == 34
        assert mapped45.library.feature_length == 18

    def test_synthesize_locked_keeps_labels_and_function(self, bench_c3540, rng):
        result = SfllHdLocking(8, 2).lock(bench_c3540, rng=rng)
        mapped = synthesize_locked(result, SynthesisOptions(technology="GEN65"))
        assert set(mapped.labels) == set(mapped.locked.gate_names())
        assert set(mapped.labels.values()) == set(result.labels.values())
        assert check_equivalence(
            mapped.locked, mapped.original, key_assignment=mapped.key
        ).equivalent

    def test_synthesize_locked_never_mixes_design_and_protection(self, bench_c3540, rng):
        result = SfllHdLocking(8, 2).lock(bench_c3540, rng=rng)
        mapped = synthesize_locked(result, SynthesisOptions(technology="GEN65"))
        protection = {g for g, lab in mapped.labels.items() if lab != DESIGN}
        n_protection_before = len(result.protection_gates())
        # Mapping may merge protection gates together but never across the
        # design boundary, so the count can only shrink w.r.t. the BENCH8 form.
        assert 0 < len(protection) <= n_protection_before
