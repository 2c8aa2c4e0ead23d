"""Dataset assembly: locked circuits -> one block-diagonal GNN dataset.

A :class:`LockedInstance` is one locked benchmark (with ground truth); a
:class:`NodeDataset` stacks many instances into the block-diagonal adjacency /
feature matrix / label vector consumed by the GNN, keeping track of which node
belongs to which instance so leave-one-design-out splits and per-design
metrics remain possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..gnn.data import GraphData
from ..locking import SCHEMES
from ..locking.base import LockingResult
from .features import extract_features
from .graph import CircuitGraph, block_diagonal, circuit_to_graph
from .labeling import labels_to_classes

__all__ = ["LockedInstance", "NodeDataset", "build_dataset"]


@dataclass
class LockedInstance:
    """One locked benchmark plus the metadata needed for reporting."""

    benchmark: str
    suite: str
    result: LockingResult
    key_size: int
    h: Optional[int] = None
    technology: str = "BENCH8"
    copy_index: int = 0

    @property
    def name(self) -> str:
        h_part = f"_h{self.h}" if self.h is not None else ""
        return (
            f"{self.benchmark}_{self.result.scheme.replace('-', '').lower()}"
            f"_k{self.key_size}{h_part}_c{self.copy_index}"
        )


@dataclass
class NodeDataset:
    """Block-diagonal dataset over many locked instances."""

    instances: List[LockedInstance]
    graphs: List[CircuitGraph]
    features: np.ndarray
    labels: np.ndarray
    adjacency: sp.csr_matrix
    node_names: List[str]
    instance_index: np.ndarray  # per-node index into ``instances``
    class_map: Dict[str, int]

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_map)

    def nodes_of_instance(self, index: int) -> np.ndarray:
        """Global node indices belonging to instance ``index``."""
        return np.flatnonzero(self.instance_index == index)

    def instances_of_benchmark(self, benchmark: str) -> List[int]:
        return [
            i for i, inst in enumerate(self.instances) if inst.benchmark == benchmark
        ]

    def benchmarks(self) -> List[str]:
        seen: List[str] = []
        for inst in self.instances:
            if inst.benchmark not in seen:
                seen.append(inst.benchmark)
        return seen

    def to_graph_data(
        self,
        train_mask: np.ndarray,
        val_mask: np.ndarray,
        test_mask: np.ndarray,
    ) -> GraphData:
        """Package the dataset with masks for the GNN trainer."""
        return GraphData(
            adjacency=self.adjacency,
            features=self.features,
            labels=self.labels,
            train_mask=np.asarray(train_mask, dtype=bool),
            val_mask=np.asarray(val_mask, dtype=bool),
            test_mask=np.asarray(test_mask, dtype=bool),
            node_names=self.node_names,
            graph_ids=self.instance_index,
        )

    def summary(self) -> Dict[str, object]:
        """Table III-style dataset summary."""
        return {
            "#Circuits": len(self.instances),
            "#Nodes": int(self.n_nodes),
            "#Classes": self.n_classes,
            "|f|": int(self.n_features),
        }


def build_dataset(instances: Sequence[LockedInstance]) -> NodeDataset:
    """Assemble locked instances into one GNN dataset.

    All instances must use the same locking family (same class map) and the
    same cell library (same feature length).
    """
    if not instances:
        raise ValueError("cannot build a dataset from zero instances")
    class_map = dict(SCHEMES.get(instances[0].result.scheme).class_map)
    for inst in instances:
        if SCHEMES.get(inst.result.scheme).class_map != class_map:
            raise ValueError(
                "all instances in a dataset must share the same classification "
                f"task; got {inst.result.scheme} vs {instances[0].result.scheme}"
            )

    graphs: List[CircuitGraph] = []
    feature_blocks: List[np.ndarray] = []
    label_blocks: List[np.ndarray] = []
    node_names: List[str] = []
    instance_index_parts: List[np.ndarray] = []

    for idx, inst in enumerate(instances):
        circuit = inst.result.locked
        graph = circuit_to_graph(circuit)
        graphs.append(graph)
        feature_blocks.append(extract_features(circuit, graph))
        label_blocks.append(labels_to_classes(inst.result, graph, class_map))
        node_names.extend(f"{inst.name}::{node}" for node in graph.nodes)
        instance_index_parts.append(np.full(graph.n_nodes, idx, dtype=np.int64))

    features = np.vstack(feature_blocks)
    if len({block.shape[1] for block in feature_blocks}) != 1:
        raise ValueError("instances use different cell libraries (|f| mismatch)")
    return NodeDataset(
        instances=list(instances),
        graphs=graphs,
        features=features,
        labels=np.concatenate(label_blocks),
        adjacency=block_diagonal(graphs),
        node_names=node_names,
        instance_index=np.concatenate(instance_index_parts),
        class_map=class_map,
    )
