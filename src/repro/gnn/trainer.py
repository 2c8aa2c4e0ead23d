"""Training loop for the GNNUnlock node classifier.

Training follows the paper's protocol: GraphSAINT random-walk mini-batches
(or full-batch gradient descent for small graphs), Adam, dropout, and
model selection on the validation split — "the model with the best
performance on the validation set is used to evaluate the test set accuracy".

:class:`TrainingHistory` records how long the training step spent building
mini-batches (``sample_wait_s``): the random walks plus the batch's
normalised adjacency, which the sampler builds with the batch.

Validation forwards only the validation nodes' receptive field (see
:func:`~repro.gnn.data.receptive_field`), built once per trainer: the
model's output at a node reads nothing beyond its 2-hop neighbourhood, so
this scores the validation nodes as a whole-graph forward does (the
probabilities may move in the last bit, the argmax does not).  The
whole-graph operator is built only for full-batch training.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..obs import span
from .data import GraphData, receptive_field
from .model import GnnConfig, GraphSageClassifier, cross_entropy_loss
from .optim import Adam
from .sampler import RandomWalkSampler, SampledSubgraph

__all__ = ["TrainingHistory", "Trainer", "train_node_classifier"]


@dataclass
class TrainingHistory:
    """Per-epoch metrics recorded during training."""

    loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)
    best_val_accuracy: float = 0.0
    best_epoch: int = -1
    epochs_run: int = 0
    train_time_s: float = 0.0
    #: Total seconds the training step spent on mini-batch construction,
    #: building each batch's normalised adjacency included.
    sample_wait_s: float = 0.0


class Trainer:
    """Trains a :class:`GraphSageClassifier` on a :class:`GraphData` dataset."""

    def __init__(
        self,
        model: GraphSageClassifier,
        graph: GraphData,
        *,
        config: Optional[GnnConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.model = model
        self.graph = graph
        self.config = config if config is not None else model.config
        self.rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        self.optimizer = Adam(
            model.parameters,
            learning_rate=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.history = TrainingHistory()
        self._class_weights = self._compute_class_weights()
        self._sampler: Optional[RandomWalkSampler] = None
        self._full_adj_norm = None
        if self.config.sampler == "random_walk" and graph.train_mask.sum() > 0:
            self._sampler = RandomWalkSampler(
                graph,
                n_roots=self.config.root_nodes,
                walk_length=self.config.walk_length,
                rng=self.rng,
            )
        else:
            self._full_adj_norm = graph.normalized_adjacency()
        self._val_nodes = np.flatnonzero(graph.val_mask)
        val_field, self._val_adj_norm = receptive_field(
            graph.adjacency, self._val_nodes, model.aggregation_layers
        )
        self._val_features = graph.features[val_field]
        self._val_rows = np.searchsorted(val_field, self._val_nodes)

    # ------------------------------------------------------------------
    def _compute_class_weights(self) -> np.ndarray:
        n_classes = self.config.n_classes
        if not self.config.class_weighting:
            return np.ones(n_classes)
        train_labels = self.graph.labels[self.graph.train_mask.astype(bool)]
        counts = np.bincount(train_labels, minlength=n_classes).astype(float)
        counts[counts == 0] = 1.0
        weights = counts.sum() / (n_classes * counts)
        return weights

    # ------------------------------------------------------------------
    def _next_batch(self) -> SampledSubgraph:
        waited = time.perf_counter()
        batch = self._sampler.sample()
        self.history.sample_wait_s += time.perf_counter() - waited
        return batch

    def _train_step(self) -> float:
        graph = self.graph
        if self._sampler is not None:
            batch = self._next_batch()
            nodes = batch.node_indices
            adj_norm = batch.adj_norm
            features, labels = graph.features[nodes], graph.labels[nodes]
            mask = graph.train_mask[nodes].astype(bool)
            node_weights = batch.loss_weights
        else:
            adj_norm = self._full_adj_norm
            features, labels = graph.features, graph.labels
            mask = graph.train_mask.astype(bool)
            node_weights = np.ones(graph.n_nodes)

        probs = self.model.forward(features, adj_norm, training=True)
        sample_weight = np.zeros(len(labels))
        sample_weight[mask] = node_weights[mask] * self._class_weights[labels[mask]]
        loss, grad = cross_entropy_loss(probs, labels, sample_weight=sample_weight)
        self.model.backward(grad)
        self.optimizer.step(self.model.gradients)
        return loss

    def evaluate(self) -> float:
        """Accuracy of the current model on the validation nodes.

        Forwards the validation nodes' receptive field only.
        """
        if not self._val_nodes.size:
            return 0.0
        predictions = self.model.predict(self._val_features, self._val_adj_norm)[
            self._val_rows
        ]
        return float((predictions == self.graph.labels[self._val_nodes]).mean())

    # ------------------------------------------------------------------
    def fit(self) -> TrainingHistory:
        """Run training with validation-based model selection."""
        config = self.config
        best_weights = self.model.get_weights()
        best_val = -1.0
        epochs_without_improvement = 0
        start = time.perf_counter()
        with span("train", epochs=config.epochs) as train_handle:
            for epoch in range(config.epochs):
                wait_before = self.history.sample_wait_s
                with span("train_epoch", epoch=epoch + 1) as epoch_handle:
                    loss = self._train_step()
                    # Absorb the existing sample_wait_s accounting: each
                    # epoch span carries its own share of the wait.
                    epoch_handle.tag(
                        loss=float(loss),
                        sample_wait_s=round(
                            self.history.sample_wait_s - wait_before, 6
                        ),
                    )
                self.history.loss.append(loss)
                self.history.epochs_run = epoch + 1

                if (
                    (epoch + 1) % config.eval_every == 0
                    or epoch == config.epochs - 1
                ):
                    val_acc = self.evaluate()
                    self.history.val_accuracy.append(val_acc)
                    if val_acc > best_val:
                        best_val = val_acc
                        best_weights = self.model.get_weights()
                        self.history.best_val_accuracy = val_acc
                        self.history.best_epoch = epoch + 1
                        epochs_without_improvement = 0
                    else:
                        epochs_without_improvement += config.eval_every
                    if epochs_without_improvement >= config.patience:
                        break
            train_handle.tag(
                epochs_run=self.history.epochs_run,
                sample_wait_s=round(self.history.sample_wait_s, 6),
            )

        self.model.set_weights(best_weights)
        self.history.train_time_s = time.perf_counter() - start
        return self.history


def train_node_classifier(
    graph: GraphData,
    config: Optional[GnnConfig] = None,
    *,
    rng: Optional[np.random.Generator] = None,
) -> tuple[GraphSageClassifier, TrainingHistory]:
    """Build, train and return a node classifier for ``graph``."""
    if config is None:
        config = GnnConfig(n_features=graph.n_features, n_classes=graph.n_classes)
    elif config.n_features != graph.n_features or config.n_classes < graph.n_classes:
        config = GnnConfig(
            **{
                **config.__dict__,
                "n_features": graph.n_features,
                "n_classes": max(config.n_classes, graph.n_classes),
            }
        )
    model = GraphSageClassifier(config)
    trainer = Trainer(model, graph, config=config, rng=rng)
    history = trainer.fit()
    return model, history
