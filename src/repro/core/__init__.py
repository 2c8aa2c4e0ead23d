"""GNNUnlock core: the paper's primary contribution."""

from .config import AttackConfig
from .graph import CircuitGraph, block_diagonal, circuit_to_graph
from .features import extract_features, feature_names
from .labeling import (
    ANTISAT_CLASSES,
    SFLL_CLASSES,
    classes_to_labels,
    labels_to_classes,
)
from .dataset import LockedInstance, NodeDataset, build_dataset
from .splits import SplitMasks, leave_one_design_out
from .generation import (
    generate_dataset,
    generate_instances,
    suite_benchmarks,
    suite_key_sizes,
)
from .metrics import ClassificationReport, ClassMetrics, classification_report
from .postprocess import postprocess_antisat, postprocess_predictions, postprocess_sfll
from .removal import RemovalError, remove_protection_logic
from .attack import (
    AttackOutcome,
    GnnUnlockAttack,
    InstanceOutcome,
    attack_design,
    train_attack_model,
)
from .reporting import format_percent, format_report_row, format_table

__all__ = [
    "AttackConfig",
    "CircuitGraph",
    "circuit_to_graph",
    "block_diagonal",
    "extract_features",
    "feature_names",
    "ANTISAT_CLASSES",
    "SFLL_CLASSES",
    "classes_to_labels",
    "labels_to_classes",
    "LockedInstance",
    "NodeDataset",
    "build_dataset",
    "SplitMasks",
    "leave_one_design_out",
    "generate_dataset",
    "generate_instances",
    "suite_benchmarks",
    "suite_key_sizes",
    "ClassificationReport",
    "ClassMetrics",
    "classification_report",
    "postprocess_antisat",
    "postprocess_sfll",
    "postprocess_predictions",
    "RemovalError",
    "remove_protection_logic",
    "AttackOutcome",
    "GnnUnlockAttack",
    "InstanceOutcome",
    "attack_design",
    "train_attack_model",
    "format_table",
    "format_percent",
    "format_report_row",
]
