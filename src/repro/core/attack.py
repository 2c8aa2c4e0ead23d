"""The end-to-end GNNUnlock attack (Fig. 3a).

Given a dataset of locked benchmarks, attacking one design means:

1. build the leave-one-design-out split (the attacked design is only tested),
2. train the GraphSAGE node classifier on the training graphs with GraphSAINT
   random-walk sampling, selecting the best model on the validation graphs,
3. predict a class for every gate of the attacked design (forwarding only
   the nodes the model reads for them, see :func:`attack_design`),
4. rectify the predictions with the connectivity-based post-processing,
5. remove the identified protection logic and repair the netlist,
6. verify the recovered design against the original (the paper uses Synopsys
   Formality; we use structural hashing + SAT).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..gnn.data import receptive_field
from ..gnn.model import GnnConfig, GraphSageClassifier
from ..gnn.trainer import TrainingHistory, train_node_classifier
from ..netlist.circuit import Circuit
from ..sat.equivalence import check_equivalence
from .config import AttackConfig
from .dataset import LockedInstance, NodeDataset
from .labeling import classes_to_labels
from .metrics import ClassificationReport, classification_report
from .postprocess import postprocess_predictions
from .removal import remove_protection_logic
from .splits import leave_one_design_out

__all__ = [
    "InstanceOutcome",
    "AttackOutcome",
    "GnnUnlockAttack",
    "train_attack_model",
    "attack_design",
]


@dataclass
class InstanceOutcome:
    """Attack result for one locked instance of the target benchmark."""

    instance: LockedInstance
    gnn_report: ClassificationReport
    post_report: ClassificationReport
    removal_success: bool
    recovered: Optional[Circuit] = None
    removal_error: Optional[str] = None
    post_classes: Optional[np.ndarray] = None

    @property
    def name(self) -> str:
        return self.instance.name


@dataclass
class AttackOutcome:
    """Attack result for one target benchmark (all its locked instances)."""

    target_benchmark: str
    validation_benchmark: str
    scheme: str
    instances: List[InstanceOutcome]
    gnn_report: ClassificationReport
    post_report: ClassificationReport
    history: TrainingHistory
    train_nodes: int
    val_nodes: int
    test_nodes: int
    attack_time_s: float

    @property
    def gnn_accuracy(self) -> float:
        return self.gnn_report.accuracy

    @property
    def post_accuracy(self) -> float:
        return self.post_report.accuracy

    @property
    def removal_success_rate(self) -> float:
        if not self.instances:
            return 0.0
        return float(np.mean([o.removal_success for o in self.instances]))

    @property
    def n_misclassified(self) -> int:
        return self.gnn_report.n_misclassified


def _class_names_of(dataset: NodeDataset) -> tuple:
    return tuple(sorted(dataset.class_map, key=dataset.class_map.get))


def _resolve_gnn_config(dataset: NodeDataset, config: AttackConfig) -> GnnConfig:
    base = config.gnn
    return GnnConfig(
        **{
            **base.__dict__,
            "n_features": dataset.n_features,
            "n_classes": dataset.n_classes,
        }
    )


def train_attack_model(
    dataset: NodeDataset,
    target_benchmark: str,
    *,
    config: Optional[AttackConfig] = None,
    validation_benchmark: Optional[str] = None,
):
    """Steps 1-2 of the attack: split the dataset and train the classifier.

    Returns ``(model, history, split)``.  Separated from :func:`attack_design`
    so campaign runners can cache the trained model and re-enter the attack
    at the prediction stage.
    """
    config = config if config is not None else AttackConfig()
    split = leave_one_design_out(
        dataset, target_benchmark, validation_benchmark=validation_benchmark
    )
    graph_data = dataset.to_graph_data(split.train, split.val, split.test)
    gnn_config = _resolve_gnn_config(dataset, config)
    model, history = train_node_classifier(
        graph_data, gnn_config, rng=np.random.default_rng(gnn_config.seed)
    )
    return model, history, split


def attack_design(
    dataset: NodeDataset,
    target_benchmark: str,
    *,
    config: Optional[AttackConfig] = None,
    validation_benchmark: Optional[str] = None,
    verify_removal: bool = True,
    apply_postprocessing: bool = True,
    model: Optional[GraphSageClassifier] = None,
    history: Optional[TrainingHistory] = None,
) -> AttackOutcome:
    """Task-level entry point: attack one benchmark of a dataset.

    This is the unit of work a campaign runner schedules.  Passing a
    pre-trained ``model`` (with its ``history``) skips training and re-enters
    the attack at the prediction stage — the split is recomputed
    deterministically, so a cached model produces an outcome identical to the
    run that trained it.

    Prediction forwards only the receptive field of the attacked design's
    nodes (:func:`~repro.gnn.data.receptive_field`): the model's output at a
    node depends on its ``model.aggregation_layers``-hop neighbourhood
    alone, and the dataset's blocks share no edges, so the field is the
    design itself.  Its probabilities may differ from a whole-graph
    forward's in the last bit only, far below the usual margin between the
    top two classes, so the predicted classes are the same.
    """
    start = time.perf_counter()
    config = config if config is not None else AttackConfig()
    class_names = _class_names_of(dataset)
    if model is None:
        model, history, split = train_attack_model(
            dataset,
            target_benchmark,
            config=config,
            validation_benchmark=validation_benchmark,
        )
    else:
        if history is None:
            history = TrainingHistory()
        split = leave_one_design_out(
            dataset, target_benchmark, validation_benchmark=validation_benchmark
        )
    # Only the target's entries of ``predictions`` are read.
    scored = np.flatnonzero(split.test)
    field, adj_norm = receptive_field(
        dataset.adjacency, scored, model.aggregation_layers
    )
    predictions = np.full(dataset.n_nodes, -1, dtype=np.int64)
    predictions[scored] = model.predict(dataset.features[field], adj_norm)[
        np.searchsorted(field, scored)
    ]

    instance_outcomes: List[InstanceOutcome] = []
    all_true: List[np.ndarray] = []
    all_gnn_pred: List[np.ndarray] = []
    all_post_pred: List[np.ndarray] = []
    for idx in dataset.instances_of_benchmark(target_benchmark):
        outcome = _attack_instance(
            dataset,
            class_names,
            idx,
            predictions,
            verify_removal=verify_removal,
            apply_postprocessing=apply_postprocessing,
        )
        instance_outcomes.append(outcome)
        nodes = dataset.nodes_of_instance(idx)
        all_true.append(dataset.labels[nodes])
        all_gnn_pred.append(predictions[nodes])
        post_classes = (
            outcome.post_classes
            if outcome.post_classes is not None
            else predictions[nodes]
        )
        all_post_pred.append(post_classes)

    true_concat = np.concatenate(all_true)
    gnn_concat = np.concatenate(all_gnn_pred)
    post_concat = np.concatenate(all_post_pred)
    gnn_report = classification_report(true_concat, gnn_concat, class_names)
    post_report = classification_report(true_concat, post_concat, class_names)

    counts = split.counts()
    return AttackOutcome(
        target_benchmark=target_benchmark,
        validation_benchmark=split.validation_benchmark,
        scheme=dataset.instances[0].result.scheme,
        instances=instance_outcomes,
        gnn_report=gnn_report,
        post_report=post_report,
        history=history,
        train_nodes=counts["train"],
        val_nodes=counts["val"],
        test_nodes=counts["test"],
        attack_time_s=time.perf_counter() - start,
    )


class GnnUnlockAttack:
    """Run GNNUnlock against designs of a :class:`NodeDataset`."""

    def __init__(
        self,
        dataset: NodeDataset,
        *,
        config: Optional[AttackConfig] = None,
    ):
        self.dataset = dataset
        self.config = config if config is not None else AttackConfig()
        self._class_names = _class_names_of(dataset)

    # ------------------------------------------------------------------
    def attack(
        self,
        target_benchmark: str,
        *,
        validation_benchmark: Optional[str] = None,
        verify_removal: bool = True,
        apply_postprocessing: bool = True,
    ) -> AttackOutcome:
        """Attack one benchmark with leave-one-design-out training."""
        return attack_design(
            self.dataset,
            target_benchmark,
            config=self.config,
            validation_benchmark=validation_benchmark,
            verify_removal=verify_removal,
            apply_postprocessing=apply_postprocessing,
        )

    def attack_all(self, **kwargs) -> Dict[str, AttackOutcome]:
        """Attack every benchmark in the dataset, one at a time."""
        outcomes: Dict[str, AttackOutcome] = {}
        for benchmark in self.dataset.benchmarks():
            outcomes[benchmark] = self.attack(benchmark, **kwargs)
        return outcomes


def _attack_instance(
    dataset: NodeDataset,
    class_names: Sequence[str],
    instance_idx: int,
    predictions: np.ndarray,
    *,
    verify_removal: bool,
    apply_postprocessing: bool,
) -> InstanceOutcome:
    instance = dataset.instances[instance_idx]
    nodes = dataset.nodes_of_instance(instance_idx)
    graph = dataset.graphs[instance_idx]
    circuit = instance.result.locked

    true_classes = dataset.labels[nodes]
    predicted_classes = predictions[nodes]
    gnn_report = classification_report(true_classes, predicted_classes, class_names)

    predicted_labels = dict(
        zip(graph.nodes, classes_to_labels(predicted_classes, dataset.class_map))
    )
    if apply_postprocessing:
        final_labels = postprocess_predictions(
            circuit, predicted_labels, dataset.class_map
        )
    else:
        final_labels = dict(predicted_labels)
    final_classes = np.array(
        [dataset.class_map[final_labels[node]] for node in graph.nodes]
    )
    post_report = classification_report(true_classes, final_classes, class_names)

    recovered: Optional[Circuit] = None
    removal_error: Optional[str] = None
    removal_success = False
    if verify_removal:
        try:
            recovered = remove_protection_logic(circuit, final_labels)
            equivalence = check_equivalence(
                recovered, instance.result.original, method="auto"
            )
            removal_success = bool(equivalence.equivalent)
        except Exception as exc:  # noqa: BLE001 - an attack failure is a result
            removal_error = str(exc)
            removal_success = False

    return InstanceOutcome(
        instance=instance,
        gnn_report=gnn_report,
        post_report=post_report,
        removal_success=removal_success,
        recovered=recovered,
        removal_error=removal_error,
        post_classes=final_classes,
    )
