"""A loaded artifact is read-only.

The artifact cache decodes each file once per process and hands every
later hit the same object, so a task that changed what it loaded would
change every later task in the process.  This runs every task kind warm
over one memoised dataset and model, then checks both still equal a fresh
decode of their files.
"""

import dataclasses
import hashlib
import pickle

import numpy as np

from repro.runner import ArtifactCache, execute_task
from repro.runner.campaign import BASELINE_ATTACKS

from test_dataset_artifact import assert_same_dataset


def weights_digest(model) -> str:
    digest = hashlib.sha256()
    for weight in model.get_weights():
        digest.update(f"{weight.shape}{weight.dtype.str}".encode())
        digest.update(np.ascontiguousarray(weight).tobytes())
    return digest.hexdigest()


def assert_same_circuit(left, right) -> None:
    assert left.name == right.name
    assert left.inputs == right.inputs
    assert left.key_inputs == right.key_inputs
    assert left.outputs == right.outputs
    assert dict(left.gate_view()) == dict(right.gate_view())


def assert_same_instances(left, right) -> None:
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert (a.benchmark, a.key_size, a.h, a.copy_index) == (
            b.benchmark, b.key_size, b.h, b.copy_index,
        )
        assert_same_circuit(a.result.original, b.result.original)
        assert_same_circuit(a.result.locked, b.result.locked)
        assert a.result.key == b.result.key
        assert a.result.labels == b.result.labels
        assert a.result.target_net == b.result.target_net
        assert a.result.protected_inputs == b.result.protected_inputs
        assert a.result.parameters == b.result.parameters


def test_tasks_leave_the_memoised_artifacts_unchanged(tiny_campaign, tmp_path):
    spec = dataclasses.replace(
        tiny_campaign,
        # BENCH8 SFLL-HD with h=5 of 16 key bits: SFLL-HD-Unlocked succeeds,
        # FALL and SAT run their SAT calls, SPS scores every gate.
        schemes=("sfll:5@BENCH8",),
        targets=("c2670",),
        key_size_groups=((16,),),
        attacks=("gnnunlock", "dataset-summary", *sorted(BASELINE_ATTACKS)),
        attack_params={"sat": {"max_iterations": 4}},
    )
    tasks = spec.expand()
    assert {t.attack for t in tasks} == {
        "gnnunlock", "dataset-summary", *BASELINE_ATTACKS,
    }
    gnn_task = next(t for t in tasks if t.attack == "gnnunlock")
    cold = execute_task(gnn_task, str(tmp_path))
    assert cold.ok, cold.error

    cache = ArtifactCache(tmp_path)
    dataset_key = gnn_task.dataset.fingerprint()
    model_key = gnn_task.model_fingerprint()
    dataset = cache.get("dataset", dataset_key)
    model, history = cache.get("model", model_key)
    digest = weights_digest(model)

    for task in tasks:
        result = execute_task(task, str(tmp_path))
        assert result.ok, (task.attack, result.error)
        assert result.cache_events["dataset"] == "hit"
    # The tasks above ran on these very objects.
    assert cache.get("dataset", dataset_key) is dataset
    assert cache.get("model", model_key)[0] is model

    fresh = pickle.loads(cache.path_for("dataset", dataset_key).read_bytes())
    assert_same_dataset(dataset, fresh)
    assert_same_instances(dataset.instances, fresh.instances)
    for graph, fresh_graph in zip(dataset.graphs, fresh.graphs):
        assert graph.nodes == fresh_graph.nodes
        assert_same_circuit(graph.circuit, fresh_graph.circuit)

    fresh_model, fresh_history = pickle.loads(
        cache.path_for("model", model_key).read_bytes()
    )
    assert weights_digest(model) == digest == weights_digest(fresh_model)
    assert history == fresh_history
