"""Differential test of the tech-mapping merge pass against a reference.

``_reference_merge_pass`` is the straightforward form of the merge pass: it
looks gates up through a fresh ``Circuit.gates`` copy and rebuilds the fanout
map after every merge, so every fanout count it reads is exact by
construction.  The shipped pass builds the fanout map once; these tests
check that it maps every circuit to the same netlist and name map, and that
it really does build the map only once.
"""

import numpy as np
import pytest

from repro.benchgen import RandomLogicSpec, generate_random_circuit, get_benchmark
from repro.netlist import GEN45, GEN65, Circuit
from repro.synth import decompose_to_primitives, technology_map
from repro.synth import techmap
from repro.synth.techmap import _ComplexPlaceholder


def _reference_merge_pass(work, library, groups, name_map):
    fanout = work.fanout_map()

    def single_fanout(net):
        return len(fanout.get(net, ())) == 1 and not work.is_output(net)

    def same_group(a, b):
        return groups.get(a, groups.get(name_map.get(a, a))) == groups.get(
            b, groups.get(name_map.get(b, b))
        )

    for name in list(work.topological_order()):
        gate = work.gates.get(name)
        if gate is None:
            continue
        cell = gate.cell.name
        ins = list(gate.inputs)

        if cell in ("AND", "OR") and len(ins) == 2:
            wide3 = f"{'AND' if cell == 'AND' else 'OR'}3"
            wide4 = f"{'AND' if cell == 'AND' else 'OR'}4"
            for idx, src in enumerate(ins):
                inner = work.gates.get(src)
                if (
                    inner is not None
                    and inner.cell.name == cell
                    and len(inner.inputs) == 2
                    and single_fanout(src)
                    and same_group(name, src)
                    and wide3 in library
                ):
                    other = ins[1 - idx]
                    work.set_gate(name, cell, list(inner.inputs) + [other])
                    work.remove_gate(src)
                    name_map.pop(src, None)
                    fanout = work.fanout_map()
                    break
            gate = work.gate(name)
            ins = list(gate.inputs)
            if len(ins) == 3 and wide4 in library:
                for idx, src in enumerate(ins):
                    inner = work.gates.get(src)
                    if (
                        inner is not None
                        and inner.cell.name == cell
                        and len(inner.inputs) == 2
                        and single_fanout(src)
                        and same_group(name, src)
                    ):
                        others = [x for j, x in enumerate(ins) if j != idx]
                        work.set_gate(name, cell, list(inner.inputs) + others)
                        work.remove_gate(src)
                        name_map.pop(src, None)
                        fanout = work.fanout_map()
                        break
            continue

        if cell == "NOT":
            src = ins[0]
            inner = work.gates.get(src)
            if (
                inner is not None
                and inner.cell.name in ("AND", "OR")
                and 2 <= len(inner.inputs) <= 3
                and single_fanout(src)
                and same_group(name, src)
            ):
                inverted = "NAND" if inner.cell.name == "AND" else "NOR"
                wide_ok = len(inner.inputs) == 2 or (
                    f"{inverted}{len(inner.inputs)}" in library
                )
                if wide_ok:
                    work.set_gate(name, inverted, inner.inputs)
                    work.remove_gate(src)
                    name_map.pop(src, None)
                    fanout = work.fanout_map()
            continue

        if cell in ("NOR", "NAND") and len(ins) == 2:
            inner_cell = "AND" if cell == "NOR" else "OR"
            complex2 = "AOI22" if cell == "NOR" else "OAI22"
            complex1 = "AOI21" if cell == "NOR" else "OAI21"
            inner_gates = []
            for src in ins:
                inner = work.gates.get(src)
                if (
                    inner is not None
                    and inner.cell.name == inner_cell
                    and len(inner.inputs) == 2
                    and single_fanout(src)
                    and same_group(name, src)
                ):
                    inner_gates.append(inner)
                else:
                    inner_gates.append(None)
            if inner_gates[0] is not None and inner_gates[1] is not None and complex2 in library:
                new_inputs = list(inner_gates[0].inputs) + list(inner_gates[1].inputs)
                work.set_gate(name, _ComplexPlaceholder(complex2), new_inputs)
                for src in ins:
                    work.remove_gate(src)
                    name_map.pop(src, None)
                fanout = work.fanout_map()
            elif inner_gates[0] is not None and complex1 in library:
                new_inputs = list(inner_gates[0].inputs) + [ins[1]]
                work.set_gate(name, _ComplexPlaceholder(complex1), new_inputs)
                work.remove_gate(ins[0])
                name_map.pop(ins[0], None)
                fanout = work.fanout_map()
            elif inner_gates[1] is not None and complex1 in library:
                new_inputs = list(inner_gates[1].inputs) + [ins[0]]
                work.set_gate(name, _ComplexPlaceholder(complex1), new_inputs)
                work.remove_gate(ins[1])
                name_map.pop(ins[1], None)
                fanout = work.fanout_map()
            continue


def _snapshot(circuit):
    return (
        [(g.name, g.cell.name, g.inputs) for g in circuit],
        circuit.outputs,
    )


def _circuits():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        spec = RandomLogicSpec(
            name=f"rand{seed}",
            n_inputs=int(rng.integers(8, 24)),
            n_outputs=int(rng.integers(2, 8)),
            n_gates=int(rng.integers(40, 240)),
            seed=1000 + seed,
        )
        yield f"rand{seed}", generate_random_circuit(spec)
    yield "c3540", get_benchmark("c3540")


CIRCUITS = list(_circuits())


@pytest.mark.parametrize(
    "circuit", [c for _, c in CIRCUITS], ids=[name for name, _ in CIRCUITS]
)
def test_merge_pass_matches_reference(circuit, monkeypatch):
    decomposed, _ = decompose_to_primitives(circuit)
    rng = np.random.default_rng(len(decomposed))
    partition = {
        name: str(rng.choice(["design", "protection"]))
        for name in decomposed.gate_names()
    }
    for library in (GEN45, GEN65):
        for effort in ("medium", "high"):
            for groups in (None, partition):
                mapped, name_map = technology_map(
                    decomposed, library, merge_groups=groups, effort=effort
                )
                with monkeypatch.context() as patch:
                    patch.setattr(techmap, "_merge_pass", _reference_merge_pass)
                    expected, expected_map = technology_map(
                        decomposed, library, merge_groups=groups, effort=effort
                    )
                assert _snapshot(mapped) == _snapshot(expected)
                assert name_map == expected_map


def test_merge_pass_builds_fanout_once_and_never_copies_gates(monkeypatch):
    counts = {"inside": False, "fanout_map": 0, "gates": 0}
    real_fanout_map = Circuit.fanout_map
    real_gates = Circuit.gates
    real_merge_pass = techmap._merge_pass

    def fanout_map(self):
        counts["fanout_map"] += counts["inside"]
        return real_fanout_map(self)

    def gates(self):
        counts["gates"] += counts["inside"]
        return real_gates.fget(self)

    def merge_pass(work, *args):
        counts["inside"] = True
        try:
            real_merge_pass(work, *args)
        finally:
            counts["inside"] = False
        counts["gates_after"] = len(work)

    monkeypatch.setattr(Circuit, "fanout_map", fanout_map)
    monkeypatch.setattr(Circuit, "gates", property(gates))
    monkeypatch.setattr(techmap, "_merge_pass", merge_pass)

    circuit, _ = decompose_to_primitives(get_benchmark("c3540"))
    technology_map(circuit, GEN65)
    # The pass did merge something, so the guard is not vacuous.
    assert counts["gates_after"] < len(circuit)
    assert counts["fanout_map"] == 1
    assert counts["gates"] == 0
