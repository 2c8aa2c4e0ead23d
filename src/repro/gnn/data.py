"""Graph data container shared by the GNN layers, sampler and trainer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "GraphData",
    "normalize_adjacency",
    "normalize_induced_adjacency",
    "receptive_field",
]


def _row_entries(
    indptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Storage positions of every entry of ``rows``, row by row in storage
    order, and each row's entry count."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    offsets = np.cumsum(counts) - counts
    return np.arange(counts.sum()) + np.repeat(starts - offsets, counts), counts


def normalize_induced_adjacency(
    adjacency: sp.csr_matrix, nodes: np.ndarray
) -> sp.csr_matrix:
    """Row-normalised adjacency of the subgraph induced by ``nodes``.

    Row and column ``k`` of the result stand for node ``nodes[k]``; ``nodes``
    must not repeat.  ``adjacency`` holds positive weights and no column
    twice in a row (as any CSR built from COO input).  One numpy gather over
    the CSR arrays builds the result, equal bit for bit to
    ``sp.diags(inv) @ adjacency[nodes][:, nodes]``: degrees are summed as
    ``csr.sum(axis=1)`` sums them, each value is ``inv[row] * a_ij``, and
    each row stores its entries in *reverse* order, as the sparse product
    emits them.  The order matters because ``operator @ x`` sums in storage
    order.

    Isolated nodes get an all-zero row, so their neighbourhood mean is the
    zero vector — matching GraphSAGE's behaviour for empty neighbourhoods.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    m = nodes.size
    position = np.full(adjacency.shape[0], -1, dtype=np.int64)
    position[nodes] = np.arange(m)
    # Every entry of the selected rows, row by row in storage order; keep
    # those whose column is selected too.
    entries, counts = _row_entries(adjacency.indptr, nodes)
    rows = np.repeat(np.arange(m), counts)
    cols = position[adjacency.indices[entries]]
    inside = cols >= 0
    rows, cols = rows[inside], cols[inside]
    values = adjacency.data[entries[inside]].astype(np.float64, copy=False)

    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    # ``csr.sum(axis=1)`` reduces each non-empty row with ``np.add.reduceat``.
    nonempty = np.flatnonzero(np.diff(indptr))
    degrees = np.zeros(m)
    degrees[nonempty] = np.add.reduceat(values, indptr[nonempty])
    positive = degrees > 0
    inv = np.zeros(m)
    inv[positive] = 1.0 / degrees[positive]
    reverse = (indptr[:-1] + indptr[1:] - 1)[rows] - np.arange(rows.size)
    values = inv[rows] * values
    return sp.csr_matrix((values[reverse], cols[reverse], indptr), shape=(m, m))


def normalize_adjacency(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Row-normalise a whole adjacency matrix (mean aggregation operator)."""
    adjacency = sp.csr_matrix(adjacency)
    return normalize_induced_adjacency(adjacency, np.arange(adjacency.shape[0]))


def receptive_field(
    adjacency: sp.csr_matrix, nodes: np.ndarray, hops: int
) -> Tuple[np.ndarray, sp.csr_matrix]:
    """What a ``hops``-layer GraphSAGE network reads to score ``nodes``.

    Returns the sorted node indices within ``hops`` steps of ``nodes`` (the
    receptive field) and the :func:`normalize_induced_adjacency` operator of
    the subgraph they induce.  Forwarding the field's features through that
    operator scores ``nodes`` as a forward over the whole graph does.
    Aggregation layer ``k`` (from 1) needs to be right only at the nodes
    within ``hops - k`` steps of ``nodes``.  Each of them is closer than
    ``hops``, so all its neighbours are in the field and its operator row
    holds the whole graph's values in the whole graph's storage order.
    That holds whether or not ``nodes`` is a closed component.  The dense
    products run over fewer rows, so a probability may differ from the
    whole-graph forward's in the last bit.

    The breadth-first search expands one frontier per hop with one CSR
    gather.
    """
    reached = np.zeros(adjacency.shape[0], dtype=bool)
    reached[nodes] = True
    frontier = np.flatnonzero(reached)
    for _ in range(hops):
        entries, _ = _row_entries(adjacency.indptr, frontier)
        fresh = np.zeros_like(reached)
        fresh[adjacency.indices[entries]] = True
        fresh &= ~reached
        if not fresh.any():
            break
        reached |= fresh
        frontier = np.flatnonzero(fresh)
    field = np.flatnonzero(reached)
    return field, normalize_induced_adjacency(adjacency, field)


@dataclass
class GraphData:
    """An attributed graph with node labels and train/validation/test masks.

    ``adjacency`` is the undirected (symmetric) adjacency over all nodes of a
    dataset — typically the block-diagonal composition of many locked-circuit
    graphs, as described in Section IV-B of the paper.
    """

    adjacency: sp.csr_matrix
    features: np.ndarray
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    node_names: Sequence[str] = field(default_factory=list)
    graph_ids: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = self.features.shape[0]
        self.adjacency = sp.csr_matrix(self.adjacency)
        if self.adjacency.shape != (n, n):
            raise ValueError(
                f"adjacency shape {self.adjacency.shape} does not match "
                f"{n} feature rows"
            )
        for name in ("labels", "train_mask", "val_mask", "test_mask"):
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise ValueError(f"{name} has {arr.shape[0]} entries, expected {n}")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.features = np.asarray(self.features, dtype=np.float64)

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def normalized_adjacency(self) -> sp.csr_matrix:
        return normalize_adjacency(self.adjacency)
