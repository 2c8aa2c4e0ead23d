"""Unit tests for the synthetic benchmark generators."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.benchgen import (
    ALL_PROFILES,
    ISCAS85_PROFILES,
    ITC99_PROFILES,
    RandomLogicSpec,
    add_reduction_tree,
    available_benchmarks,
    benchmark_profile,
    generate_random_circuit,
    get_benchmark,
    iscas85_benchmarks,
    itc99_benchmarks,
)
from repro.netlist import BENCH8, validate_circuit


class TestRandomLogic:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RandomLogicSpec("x", n_inputs=1, n_outputs=1, n_gates=10, seed=0)
        with pytest.raises(ValueError):
            RandomLogicSpec("x", n_inputs=4, n_outputs=0, n_gates=10, seed=0)
        with pytest.raises(ValueError):
            RandomLogicSpec("x", n_inputs=4, n_outputs=5, n_gates=2, seed=0)

    def test_generated_circuit_is_valid(self):
        spec = RandomLogicSpec("t", n_inputs=16, n_outputs=4, n_gates=80, seed=3)
        circuit = generate_random_circuit(spec)
        assert validate_circuit(circuit).ok
        assert len(circuit.outputs) == 4
        assert len(circuit.inputs) == 16

    def test_determinism(self):
        spec = RandomLogicSpec("t", n_inputs=16, n_outputs=4, n_gates=80, seed=3)
        a = generate_random_circuit(spec)
        b = generate_random_circuit(spec)
        assert a.gates.keys() == b.gates.keys()
        assert all(a.gate(n).inputs == b.gate(n).inputs for n in a.gate_names())

    def test_different_seeds_differ(self):
        spec_a = RandomLogicSpec("t", n_inputs=16, n_outputs=4, n_gates=80, seed=3)
        spec_b = RandomLogicSpec("t", n_inputs=16, n_outputs=4, n_gates=80, seed=4)
        a = generate_random_circuit(spec_a)
        b = generate_random_circuit(spec_b)
        assert any(
            a.gate(n).inputs != b.gate(n).inputs
            for n in a.gate_names()
            if b.has_gate(n)
        )

    @pytest.mark.parametrize("n_inputs", [2, 3])
    def test_fewer_inputs_than_max_fanin(self, n_inputs):
        """The first gates may ask for more distinct nets than exist (the
        default ``max_fanin`` is 4); their fan-in is clamped to the nets
        available.  Generation runs in a child interpreter so that the pick
        loop spinning forever fails on the timeout instead of hanging."""
        code = textwrap.dedent(
            f"""
            import json
            from repro.benchgen import RandomLogicSpec, generate_random_circuit
            from repro.netlist import validate_circuit
            for seed in range(20):
                spec = RandomLogicSpec(
                    "tiny", n_inputs={n_inputs}, n_outputs=2, n_gates=12, seed=seed
                )
                circuit = generate_random_circuit(spec)
                assert validate_circuit(circuit).ok, seed
                first = circuit.gate(circuit.gate_names()[0])
                print(json.dumps([len(first.inputs), len(set(first.inputs))]))
            """
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        try:
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, timeout=60,
            )
        except subprocess.TimeoutExpired:
            pytest.fail(f"generate_random_circuit(n_inputs={n_inputs}) did not return")
        assert proc.returncode == 0, proc.stderr
        for line in proc.stdout.splitlines():
            fanin, distinct = json.loads(line)
            assert fanin == distinct <= n_inputs

    @pytest.mark.parametrize(
        "n_inputs, n_outputs, n_gates, width",
        [
            (2, 1, 8, 6),  # the tree budget once took 10 of these 8 gates
            (2, 2, 12, 6),
            (3, 2, 12, 6),
            (5, 1, 20, 6),
            (2, 1, 6, 3),
            (4, 1, 10, 1),
            (16, 4, 80, 6),
        ],
    )
    def test_gate_count_is_honoured(self, n_inputs, n_outputs, n_gates, width):
        """Reduction trees are clamped to the primary inputs that exist,
        and their gate budget is reserved at that clamped width."""
        for seed in range(3):
            spec = RandomLogicSpec(
                "t",
                n_inputs=n_inputs,
                n_outputs=n_outputs,
                n_gates=n_gates,
                seed=seed,
                reduction_tree_width=width,
            )
            circuit = generate_random_circuit(spec)
            assert validate_circuit(circuit).ok
            assert len(circuit.gate_names()) == n_gates

    def test_only_bench8_supported(self):
        from repro.netlist import GEN65

        spec = RandomLogicSpec("t", n_inputs=8, n_outputs=2, n_gates=20, seed=1)
        with pytest.raises(ValueError):
            generate_random_circuit(spec, library=GEN65)

    def test_reduction_tree(self, tiny_circuit):
        rng = np.random.default_rng(0)
        root = add_reduction_tree(
            tiny_circuit, rng=rng, width=3, prefix="rt", cell="NOR"
        )
        assert tiny_circuit.has_gate(root)
        assert validate_circuit(tiny_circuit).ok


class TestRegistry:
    def test_profiles_cover_paper_benchmarks(self):
        for name in ("c2670", "c3540", "c5315", "c7552"):
            assert name in ISCAS85_PROFILES
        for name in ("b14_C", "b15_C", "b17_C", "b20_C", "b21_C", "b22_C"):
            assert name in ITC99_PROFILES

    def test_available_benchmarks_filtering(self):
        assert set(available_benchmarks("ISCAS-85")) == set(ISCAS85_PROFILES)
        assert set(available_benchmarks("ITC-99")) == set(ITC99_PROFILES)
        assert set(available_benchmarks()) == set(ALL_PROFILES)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            benchmark_profile("c9999")
        with pytest.raises(KeyError):
            get_benchmark("c9999")

    def test_get_benchmark_returns_fresh_copy(self):
        a = get_benchmark("c3540")
        b = get_benchmark("c3540")
        a.remove_gate(next(iter(a.gate_names())))
        assert len(b) == len(get_benchmark("c3540"))

    def test_benchmarks_are_valid_and_bench8(self):
        for name in ("c2670", "b14_C"):
            circuit = get_benchmark(name)
            assert circuit.library is BENCH8
            assert validate_circuit(circuit).ok

    def test_c3540_has_few_inputs(self):
        # The paper skips K=64 for c3540 because of its limited PI count; the
        # synthetic stand-in preserves that property.
        assert len(get_benchmark("c3540").inputs) < 64

    def test_itc_supports_large_keys(self):
        for name in ITC99_PROFILES:
            assert len(get_benchmark(name).inputs) >= 128

    def test_relative_sizes_preserved(self):
        sizes = {name: len(get_benchmark(name)) for name in ISCAS85_PROFILES}
        assert sizes["c7552"] > sizes["c2670"]

    def test_size_scale_changes_gate_count(self):
        small = get_benchmark("c7552", size_scale=0.03)
        large = get_benchmark("c7552", size_scale=0.09)
        assert len(small) < len(large)

    def test_suite_helpers(self):
        assert set(iscas85_benchmarks()) == set(ISCAS85_PROFILES)
        assert set(itc99_benchmarks()) == set(ITC99_PROFILES)
