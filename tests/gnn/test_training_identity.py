"""Pin the trained GNN models bit for bit.

Every attack cell trains a GraphSAGE classifier on GraphSAINT mini-batches.
A change to the training loop that is meant to be a pure speed-up (how a
batch operator is built, how Adam updates its moments) must keep these
digests exactly; one that changes training on purpose re-pins them and says
so.

Two digests per case: one over the trained weights (shape, dtype and raw
bytes of every parameter array) and one over the canonical JSON of the
:class:`TrainingHistory` fields that training decides (``loss``,
``val_accuracy``, ``best_epoch``, ``epochs_run``).  JSON floats are written
with ``repr``, which round-trips exactly.

Float sums in BLAS can depend on its thread count (full-batch training
differs in the last bits between one and several OpenBLAS threads), so all
six cases train in one child interpreter with OpenBLAS, OpenMP and MKL
pinned to one thread: the same numbers are checked on every host.
"""

import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.attack import train_attack_model
from repro.gnn import GnnConfig, GraphData, train_node_classifier
from repro.runner import matrix_campaign, profile_config

MATRIX_SEED = 201


def weights_digest(model):
    digest = hashlib.sha256()
    for weight in model.get_weights():
        digest.update(f"{weight.shape}{weight.dtype.str}".encode())
        digest.update(np.ascontiguousarray(weight).tobytes())
    return digest.hexdigest()


def history_digest(history):
    payload = {
        "loss": [float(x) for x in history.loss],
        "val_accuracy": [float(x) for x in history.val_accuracy],
        "best_epoch": history.best_epoch,
        "epochs_run": history.epochs_run,
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _matrix_task(scheme):
    """The c2670 GNNUnlock task of the seed-201 quick-profile matrix."""
    config = dataclasses.replace(profile_config("quick"), seed=MATRIX_SEED)
    spec = matrix_campaign(
        targets=("c2670",),
        key_sizes=(8,),
        schemes=(scheme,),
        attacks=("gnnunlock",),
        config=config,
    )
    (task,) = spec.expand()
    return task, task.dataset.build(task.dataset.generate())


def _train_matrix_task(scheme, **gnn_overrides):
    task, dataset = _matrix_task(scheme)
    config = dataclasses.replace(
        task.config, gnn=dataclasses.replace(task.config.gnn, **gnn_overrides)
    )
    model, history, _ = train_attack_model(
        dataset,
        task.target_benchmark,
        config=config,
        validation_benchmark=task.validation_benchmark,
    )
    return model, history


def _weighted_graph(n=240, isolated=20, seed=3, feature_dim=6):
    """Random graph with ``isolated`` edgeless nodes and weight-2.0 edges.

    Every edge is listed twice in the COO input, and the CSR conversion sums
    duplicates, so the adjacency is weighted rather than binary.
    """
    rng = np.random.default_rng(seed)
    labels = np.array([0] * (n // 2) + [1] * (n - n // 2))
    features = rng.normal(size=(n, feature_dim)) + labels[:, None] * 2.0
    rows, cols = [], []
    for i in range(isolated, n):
        for _ in range(3):
            j = int(rng.integers(isolated, n))
            rows += [i, j, i, j]
            cols += [j, i, j, i]
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    assert (adj.data >= 2.0).all()
    split = rng.random(n)
    return GraphData(
        adjacency=adj,
        features=features,
        labels=labels,
        train_mask=split < 0.6,
        val_mask=(split >= 0.6) & (split < 0.8),
        test_mask=split >= 0.8,
    )


def _train_weighted_graph():
    config = GnnConfig(
        n_features=6, n_classes=2, hidden_dim=12, epochs=30,
        root_nodes=60, eval_every=5, seed=0,
    )
    return train_node_classifier(
        _weighted_graph(), config, rng=np.random.default_rng(5)
    )


CASES = {
    "antisat": lambda: _train_matrix_task("antisat"),
    "sfll": lambda: _train_matrix_task("sfll:2"),
    "antisat-full-batch": lambda: _train_matrix_task("antisat", sampler="full"),
    "antisat-weight-decay": lambda: _train_matrix_task(
        "antisat", weight_decay=1e-3
    ),
    "antisat-unweighted-classes": lambda: _train_matrix_task(
        "antisat", class_weighting=False
    ),
    "weighted-random-graph": _train_weighted_graph,
}

PINNED = {
    "antisat": (
        "3eff27bfe269c1a0304db67e432f77ef18f095abf4b7db18aafae075d488fae7",
        "d752e64cbaf4eacbdd2d46f30553e2325043acf826d86b3c2c2d59a40246969d",
    ),  # 45 epochs, best at 15
    "antisat-full-batch": (
        "7011963f127a7c7580fd7a0f1257ac726c30adbb7b53b2cd3d6f5260c04b0fe7",
        "48aec25b4f875748af707c2c20922436e415e5a2b4e2e6376654aa92945aeacc",
    ),  # 50 epochs, best at 20; one-thread BLAS digest
    "antisat-unweighted-classes": (
        "49e71443dbea76c96bf342c7ffc84c70028c8c3271f66f4608ec72d5f37d2353",
        "8f9c2700db091c5d480b431d97344a75d762de5cd2bef9ecf73124df30ba6191",
    ),  # 60 epochs, best at 30
    "antisat-weight-decay": (
        "a0764edff7a7efde76ca538e8a9e190419f6b56f16d8efa2ab6e9979b062467f",
        "0c588022b3490b27fbf9802761aca8894f86cea1d896d84b981e92f3cda284a8",
    ),  # 45 epochs, best at 15
    "sfll": (
        "a811c4d7e28432aab11fe29f9eaacff153f52647b116a5aa649c6f329ece40f6",
        "ad32729648d63282229514ae0e62bf347f51ed441c4864e22d3038bfd09ba2d3",
    ),  # 60 epochs, best at 55
    "weighted-random-graph": (
        "4400b9b2da8ffe7e151076be715bd13e870ddd18f5c77f5ffc1ea52fafbea37d",
        "7e7e4a1fe9bd176f9a797f2e341808b89e986fab0a074b1cda882ebde28335da",
    ),  # 30 epochs, best at 20
}


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _case_digests():
    """(weights digest, history digest) of every case, in this process."""
    digests = {}
    for case in sorted(CASES):
        model, history = CASES[case]()
        digests[case] = [weights_digest(model), history_digest(history)]
    return digests


@pytest.fixture(scope="module")
def single_thread_digests():
    """Every case's digests, trained in a child with BLAS at one thread."""
    import repro

    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", sorted(CASES))
def test_trained_model_is_pinned(case, single_thread_digests):
    assert tuple(single_thread_digests[case]) == PINNED[case]


if __name__ == "__main__":
    print(json.dumps(_case_digests()))
