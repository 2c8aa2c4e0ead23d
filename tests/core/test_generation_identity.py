"""Pin the content of generated locked datasets.

Every campaign, matrix sweep and paper-table harness starts from
``DatasetSpec.generate()``: lock the benchmarks, then synthesise them onto the
target library.  A change that is meant to leave that output alone (a faster
tech-mapping pass, say) must keep these digests exactly; one that changes the
generated netlists on purpose re-pins them and says so.

The digest is taken over canonical JSON (not pickle bytes, which differ
between Python versions): for each instance, the locked and original gates
in netlist order, the I/O and key-input lists, the labels and the key.
"""

import hashlib
import json

import pytest

from repro.runner.campaign import DatasetSpec


def _circuit_payload(circuit):
    return {
        "inputs": list(circuit.inputs),
        "key_inputs": list(circuit.key_inputs),
        "outputs": list(circuit.outputs),
        "gates": [
            [gate.name, gate.cell.name, list(gate.inputs)] for gate in circuit
        ],
    }


def dataset_digest(instances):
    payload = [
        {
            "name": inst.name,
            "technology": inst.technology,
            "locked": _circuit_payload(inst.result.locked),
            "original": _circuit_payload(inst.result.original),
            "labels": inst.result.labels,
            "key": inst.result.key,
        }
        for inst in instances
    ]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


PINNED = [
    (
        DatasetSpec(
            scheme="antisat",
            suite="ISCAS-85",
            benchmarks=("c2670", "c3540"),
            key_sizes=(8,),
            technology="GEN65",
        ),
        "653595f3571b0bc7cdb1a3ed18c0e8233ceaaea7b99eb521270998d554244f59",
    ),
    (
        DatasetSpec(
            scheme="sfll",
            suite="ISCAS-85",
            benchmarks=("c2670",),
            key_sizes=(8,),
            h=2,
            technology="GEN65",
        ),
        "19b975a73abea085c55b1dd03b6963bcf193f86fb0b66fdc77167251ed3b842f",
    ),
    (
        DatasetSpec(
            scheme="ttlock",
            suite="ISCAS-85",
            benchmarks=("c3540",),
            key_sizes=(8,),
            technology="GEN45",
            seed=5,
        ),
        "d9687c3dd4040cd98e9e7dd192c3f5d0e3c2ca8e778549c3b6996ca4420d6fc3",
    ),
    (
        DatasetSpec(
            scheme="cyclic",
            suite="ISCAS-85",
            benchmarks=("c2670",),
            key_sizes=(8,),
        ),
        "77b1ed8f800503948be8d2e3fe560eb306cacd8dc1122fe313ef902db6e33173",
    ),
    (
        DatasetSpec(
            scheme="antisat",
            suite="ISCAS-85",
            benchmarks=("c5315",),
            key_sizes=(8,),
            technology="GEN45",
            synthesis_effort="high",
            seed=3,
        ),
        "4c51f992d65b12f1aecd4205ed2c6ea6af1d85e35ae0c9968b84b77afad06a43",
    ),
]


@pytest.mark.parametrize(
    "spec, expected",
    PINNED,
    ids=[f"{spec.scheme}-{spec.technology}-{spec.synthesis_effort}" for spec, _ in PINNED],
)
def test_generated_dataset_content_is_pinned(spec, expected):
    assert dataset_digest(spec.generate()) == expected
