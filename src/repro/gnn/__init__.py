"""From-scratch GraphSAGE / GraphSAINT implementation (numpy only)."""

from .data import (
    GraphData,
    normalize_adjacency,
    normalize_induced_adjacency,
    receptive_field,
)
from .layers import DenseLayer, Dropout, GraphSageLayer, glorot
from .model import GnnConfig, GraphSageClassifier, cross_entropy_loss, softmax
from .optim import Adam
from .sampler import RandomWalkSampler, SampledSubgraph, batched_random_walk
from .trainer import Trainer, TrainingHistory, train_node_classifier

__all__ = [
    "GraphData",
    "normalize_adjacency",
    "normalize_induced_adjacency",
    "receptive_field",
    "DenseLayer",
    "Dropout",
    "GraphSageLayer",
    "glorot",
    "GnnConfig",
    "GraphSageClassifier",
    "cross_entropy_loss",
    "softmax",
    "Adam",
    "RandomWalkSampler",
    "SampledSubgraph",
    "batched_random_walk",
    "Trainer",
    "TrainingHistory",
    "train_node_classifier",
]
