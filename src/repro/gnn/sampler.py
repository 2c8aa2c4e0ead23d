"""GraphSAINT-style random-walk mini-batch sampling.

GraphSAINT builds each training mini-batch by sampling a subgraph of the full
training graph and running a complete GNN on it, which keeps the cost per
step independent of the full graph size.  The paper uses the random-walk
sampler with 3000 root nodes and walk length 2.

We implement the random-walk sampler plus the loss-normalisation coefficients:
node ``v``'s loss weight is ``1 / (#subgraphs containing v / #subgraphs)``
estimated from a pre-sampling phase, so frequently sampled nodes do not
dominate the loss (Section 3.2 of the GraphSAINT paper, simplified to node
normalisation).

Walks step through the CSR adjacency in batch: one vectorised
``rng.integers`` call per level replaces the historical per-node Python loop
while consuming the *identical* PCG64 stream (numpy draws array-bounded
integers element by element from the same bit generator), so results are
bit-for-bit what the loop produced.

A batch carries its nodes and their row-normalised induced adjacency, built
here by one CSR gather, so the trainer's ``sample_wait_s`` counts that too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..obs import span
from .data import GraphData, normalize_induced_adjacency

__all__ = ["RandomWalkSampler", "SampledSubgraph", "batched_random_walk"]


def batched_random_walk(
    indptr: np.ndarray,
    indices: np.ndarray,
    roots: np.ndarray,
    walk_length: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Visited node set of simultaneous random walks over a CSR adjacency.

    All walks advance one level per ``rng.integers`` call; walkers on nodes
    with no outgoing edges stay put (and consume no randomness, matching the
    historical per-node loop's stream exactly).  Returns the sorted unique
    union of every visited node, as ``int64``.
    """
    current = np.asarray(roots, dtype=np.int64)
    visited = np.zeros(indptr.size - 1, dtype=bool)
    visited[current] = True
    for _ in range(walk_length):
        starts = indptr[current]
        ends = indptr[current + 1]
        next_nodes = current.copy()
        movable = ends > starts
        if movable.any():
            draws = rng.integers(starts[movable], ends[movable])
            next_nodes[movable] = indices[draws]
        current = next_nodes
        visited[current] = True
    return np.flatnonzero(visited)


@dataclass
class SampledSubgraph:
    """One GraphSAINT mini-batch: sorted node indices, the row-normalised
    adjacency of the subgraph they induce, and per-node loss weights."""

    node_indices: np.ndarray
    adj_norm: sp.csr_matrix
    loss_weights: np.ndarray


class RandomWalkSampler:
    """Random-walk subgraph sampler over the training portion of a graph."""

    def __init__(
        self,
        graph: GraphData,
        *,
        n_roots: int = 3000,
        walk_length: int = 2,
        n_norm_samples: int = 20,
        rng: Optional[np.random.Generator] = None,
    ):
        if n_roots < 1:
            raise ValueError("n_roots must be positive")
        if walk_length < 1:
            raise ValueError("walk_length must be positive")
        self.graph = graph
        self.n_roots = n_roots
        self.walk_length = walk_length
        self.rng = rng if rng is not None else np.random.default_rng()
        self.adjacency = sp.csr_matrix(graph.adjacency)
        self.train_nodes = np.flatnonzero(graph.train_mask)
        if self.train_nodes.size == 0:
            raise ValueError("graph has no training nodes to sample from")
        self._inclusion_counts = np.zeros(graph.n_nodes)
        self._norm_samples = 0
        self._estimate_normalisation(n_norm_samples)

    # ------------------------------------------------------------------
    def _walk_nodes(self) -> np.ndarray:
        """Run random walks from sampled roots; return the visited node set."""
        n_roots = min(self.n_roots, self.train_nodes.size)
        roots = self.rng.choice(self.train_nodes, size=n_roots, replace=True)
        return batched_random_walk(
            self.adjacency.indptr,
            self.adjacency.indices,
            roots,
            self.walk_length,
            self.rng,
        )

    def _estimate_normalisation(self, n_samples: int) -> None:
        with span("sampling", phase="normalisation", n_samples=n_samples):
            for _ in range(n_samples):
                nodes = self._walk_nodes()
                self._inclusion_counts[nodes] += 1
                self._norm_samples += 1

    # ------------------------------------------------------------------
    def sample(self) -> SampledSubgraph:
        """Draw one mini-batch: walk, then build its aggregation operator."""
        with span("sampling", phase="batch") as handle:
            nodes = self._walk_nodes()
            self._inclusion_counts[nodes] += 1
            self._norm_samples += 1
            adj_norm = normalize_induced_adjacency(self.adjacency, nodes)
            probs = self._inclusion_counts[nodes] / max(self._norm_samples, 1)
            probs = np.clip(probs, 1e-3, None)
            weights = 1.0 / probs
            weights = weights / weights.mean()
            handle.tag(n_nodes=int(nodes.size))
            return SampledSubgraph(nodes, adj_norm, weights)
