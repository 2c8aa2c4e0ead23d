"""The one-gather batch operator against the sparse-product path it replaced.

``normalize_induced_adjacency(adj, nodes)`` must equal
``sp.diags(inv) @ csr(adj[nodes][:, nodes])`` array for array: the same
``indptr``, the same ``indices`` (each row stored in reverse order, as the
product emits it) and the same ``data``.  ``adj_norm @ x`` sums in storage
order, so anything less moves the trained weights.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.gnn import GraphData, normalize_adjacency, normalize_induced_adjacency

WEIGHTS = (1.0, 1.0, 1.0, 0.5, 0.1, 3.7)


def reference_operator(adjacency, nodes):
    """The per-batch path before the gather: induced subgraph, then
    ``sp.diags(inv) @ adj`` on it."""
    sub = sp.csr_matrix(adjacency[nodes][:, nodes], dtype=np.float64)
    degrees = np.asarray(sub.sum(axis=1)).ravel()
    inv = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv[nonzero] = 1.0 / degrees[nonzero]
    return sp.diags(inv) @ sub


def assert_same_arrays(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


@st.composite
def graphs(draw):
    """A symmetric CSR adjacency with isolated nodes and duplicate edges.

    Nodes below ``isolated`` have no edges.  An edge drawn twice sums to a
    heavier entry; some edges carry non-integer weights, so degree sums are
    inexact and their order shows.  Half the graphs store each row's entries
    in a random order.
    """
    n = draw(st.integers(min_value=1, max_value=30))
    isolated = draw(st.integers(min_value=0, max_value=n))
    pairs = []
    if isolated < n:
        node = st.integers(min_value=isolated, max_value=n - 1)
        pairs = draw(
            st.lists(st.tuples(node, node, st.sampled_from(WEIGHTS)), max_size=90)
        )
    rows = [i for i, j, _ in pairs] + [j for i, j, _ in pairs]
    cols = [j for i, j, _ in pairs] + [i for i, j, _ in pairs]
    weights = [w for _, _, w in pairs] * 2
    adj = sp.csr_matrix((weights, (rows, cols)), shape=(n, n))
    if draw(st.booleans()):
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng = np.random.default_rng(seed)
        order = np.concatenate(
            [
                adj.indptr[r] + rng.permutation(adj.indptr[r + 1] - adj.indptr[r])
                for r in range(n)
            ]
        )
        adj = sp.csr_matrix(
            (adj.data[order], adj.indices[order], adj.indptr), shape=(n, n)
        )
    return adj


@st.composite
def graph_and_selection(draw):
    adj = draw(graphs())
    n = adj.shape[0]
    kind = draw(st.sampled_from(["any", "sorted", "all", "single"]))
    if kind == "all":
        nodes = list(range(n))
    elif kind == "single":
        nodes = [draw(st.integers(min_value=0, max_value=n - 1))]
    else:
        nodes = draw(
            st.lists(st.integers(min_value=0, max_value=n - 1), unique=True)
        )
        if kind == "sorted":
            nodes.sort()
    return adj, np.array(nodes, dtype=np.int64)


@given(graph_and_selection())
@settings(max_examples=300, deadline=None)
def test_gather_equals_sparse_product(case):
    adj, nodes = case
    got = normalize_induced_adjacency(adj, nodes)
    if nodes.size:
        assert_same_arrays(got, reference_operator(adj, nodes))
    else:
        assert got.shape == (0, 0) and got.nnz == 0


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_whole_graph_normalisation_is_the_gather(adj):
    n = adj.shape[0]
    want = reference_operator(adj, np.arange(n))
    assert_same_arrays(normalize_adjacency(adj), want)
    assert_same_arrays(normalize_induced_adjacency(adj, np.arange(n)), want)


def _weighted_ring(n):
    rows = list(range(n)) * 2
    cols = [(i + 1) % n for i in range(n)] + [(i - 1) % n for i in range(n)]
    weights = [2.0] * n + [1.0] * n
    return sp.csr_matrix((weights, (rows, cols)), shape=(n, n))


def test_empty_selection():
    got = normalize_induced_adjacency(_weighted_ring(6), np.array([], dtype=np.int64))
    assert got.shape == (0, 0)
    assert got.nnz == 0


def test_single_node_has_an_empty_row():
    got = normalize_induced_adjacency(_weighted_ring(6), np.array([3]))
    assert got.shape == (1, 1)
    assert got.nnz == 0


def test_rows_are_stored_in_reverse_order():
    adj = _weighted_ring(6)
    nodes = np.array([4, 0, 5, 1])
    got = normalize_induced_adjacency(adj, nodes)
    assert_same_arrays(got, reference_operator(adj, nodes))
    # Node 0's input row stores node 1 (weight 2), then node 5 (weight 1).
    # The operator stores them reversed: node 5 (position 2), then node 1
    # (position 3).
    row = slice(got.indptr[1], got.indptr[2])
    assert list(got.indices[row]) == [2, 3]
    assert list(got.data[row]) == [1.0 / 3.0, 2.0 / 3.0]


def test_selection_shape_and_labels():
    # Taken over from the deleted ``GraphData.subgraph`` test: the batch
    # operator is square over the selection, and the trainer reads the
    # batch's labels from the full graph through the same node indices.
    rng = np.random.default_rng(0)
    n = 40
    labels = np.array([0] * 20 + [1] * 20)
    data = GraphData(
        adjacency=_weighted_ring(n),
        features=rng.normal(size=(n, 3)),
        labels=labels,
        train_mask=np.ones(n, bool),
        val_mask=np.zeros(n, bool),
        test_mask=np.zeros(n, bool),
    )
    nodes = np.arange(10)
    got = normalize_induced_adjacency(data.adjacency, nodes)
    assert got.shape == (10, 10)
    assert np.array_equal(data.labels[nodes], labels[:10])
    sums = np.asarray(got.sum(axis=1)).ravel()
    assert sums == pytest.approx(np.ones(10))
