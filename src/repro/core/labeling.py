"""Node labelling: ground-truth classes per locking scheme.

For Anti-SAT the classification is binary (design vs. Anti-SAT block); for
TTLock / SFLL-HD it is ternary (design, restore, perturb), as in Table III.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..locking.base import ANTISAT, DESIGN, PERTURB, RESTORE, LockingResult
from .graph import CircuitGraph

__all__ = [
    "ANTISAT_CLASSES",
    "SFLL_CLASSES",
    "labels_to_classes",
    "classes_to_labels",
]

#: Binary classification for Anti-SAT: 0 = design node, 1 = Anti-SAT node.
ANTISAT_CLASSES: Dict[str, int] = {DESIGN: 0, ANTISAT: 1}

#: Ternary classification for TTLock / SFLL-HD:
#: 0 = design node, 1 = restore node, 2 = perturb node.
SFLL_CLASSES: Dict[str, int] = {DESIGN: 0, RESTORE: 1, PERTURB: 2}


def labels_to_classes(
    result: LockingResult, graph: CircuitGraph, class_map: Dict[str, int]
) -> np.ndarray:
    """Integer class per graph node, following the graph's node ordering."""
    classes = np.zeros(graph.n_nodes, dtype=np.int64)
    for i, name in enumerate(graph.nodes):
        label = result.labels.get(name, DESIGN)
        if label not in class_map:
            raise ValueError(
                f"gate {name} has label {label!r} which the class map "
                f"{sorted(class_map)} does not cover"
            )
        classes[i] = class_map[label]
    return classes


def classes_to_labels(
    classes: Sequence[int], class_map: Dict[str, int]
) -> List[str]:
    """Map integer classes back to label strings (inverse of the class map)."""
    inverse = {v: k for k, v in class_map.items()}
    return [inverse[int(c)] for c in classes]
