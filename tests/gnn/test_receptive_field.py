"""The restricted forward against the whole-graph forward it replaced.

A GraphSAGE network with two aggregation layers reads a node's 2-hop
neighbourhood and nothing else, so forwarding
``receptive_field(adjacency, nodes, 2)`` must score ``nodes`` as a forward
over the whole graph does: the same predicted class, and probabilities equal
to the last bits (the dense products run over fewer rows).
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from test_induced_adjacency import graph_and_selection
from test_training_identity import (
    _matrix_task,
    _train_matrix_task,
    _train_weighted_graph,
    _weighted_graph,
)

from repro.core.splits import leave_one_design_out
from repro.gnn import (
    GnnConfig,
    GraphSageClassifier,
    Trainer,
    normalize_adjacency,
    receptive_field,
)


def reference_field(adjacency, nodes, hops):
    """Nodes within ``hops`` steps of ``nodes``, by dense reachability."""
    linked = adjacency.toarray() != 0
    reached = np.zeros(adjacency.shape[0], dtype=bool)
    reached[nodes] = True
    for _ in range(hops):
        reached = reached | linked[reached].any(axis=0)
    return np.flatnonzero(reached)


def assert_scores_like_whole_graph(model, features, adjacency, nodes):
    """Score ``nodes`` both ways; return the receptive field."""
    field, adj_norm = receptive_field(adjacency, nodes, model.aggregation_layers)
    rows = np.searchsorted(field, nodes)
    whole_adj_norm = normalize_adjacency(adjacency)
    whole = model.forward(features, whole_adj_norm)[nodes]
    restricted = model.forward(features[field], adj_norm)[rows]
    np.testing.assert_allclose(restricted, whole, rtol=0, atol=1e-12)
    assert np.array_equal(
        model.predict(features[field], adj_norm)[rows],
        model.predict(features, whole_adj_norm)[nodes],
    )
    return field


def test_left_out_design_is_closed():
    """Leave-one-design-out: the test and validation designs are their own
    receptive fields, since the dataset's blocks share no edges."""
    task, dataset = _matrix_task("antisat")
    model, _ = _train_matrix_task("antisat")
    split = leave_one_design_out(
        dataset, task.target_benchmark,
        validation_benchmark=task.validation_benchmark,
    )
    for mask in (split.test, split.val):
        nodes = np.flatnonzero(mask)
        field = assert_scores_like_whole_graph(
            model, dataset.features, dataset.adjacency, nodes
        )
        assert np.array_equal(field, nodes)


def test_open_validation_set_reads_two_hops():
    """Validation nodes spread over one connected graph: the field must
    grow two hops, and one hop is not enough."""
    graph = _weighted_graph()
    model, _ = _train_weighted_graph()
    nodes = np.flatnonzero(graph.val_mask)
    field = assert_scores_like_whole_graph(
        model, graph.features, graph.adjacency, nodes
    )
    assert np.array_equal(field, reference_field(graph.adjacency, nodes, 2))
    one_hop = reference_field(graph.adjacency, nodes, 1)
    assert nodes.size < one_hop.size < field.size < graph.n_nodes

    trainer = Trainer(model, graph, rng=np.random.default_rng(0))
    whole = model.predict(graph.features, normalize_adjacency(graph.adjacency))
    want = (whole[nodes] == graph.labels[nodes]).mean()
    assert trainer.evaluate() == want


def test_field_covering_the_whole_graph():
    """A path of five nodes scored from its middle: the field is every
    node and its operator is the whole graph's, array for array."""
    n = 5
    rows = list(range(n - 1)) + list(range(1, n))
    cols = list(range(1, n)) + list(range(n - 1))
    weights = [1.0, 2.0, 0.5, 3.0] * 2
    adjacency = sp.csr_matrix((weights, (rows, cols)), shape=(n, n))
    features = np.random.default_rng(4).normal(size=(n, 3))
    model = GraphSageClassifier(GnnConfig(n_features=3, n_classes=3, hidden_dim=8))
    field = assert_scores_like_whole_graph(model, features, adjacency, np.array([2]))
    assert np.array_equal(field, np.arange(n))
    _, adj_norm = receptive_field(adjacency, np.array([2]), 2)
    whole = normalize_adjacency(adjacency)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(adj_norm, name), getattr(whole, name))


@given(graph_and_selection(), st.integers(min_value=0, max_value=3))
@settings(max_examples=200, deadline=None)
def test_inner_rows_equal_the_whole_graph(case, hops):
    """The field is every node within ``hops`` steps, and the row of a node
    closer than ``hops`` holds the whole graph's columns and values in the
    whole graph's storage order."""
    adjacency, nodes = case
    field, adj_norm = receptive_field(adjacency, nodes, hops)
    assert np.array_equal(field, reference_field(adjacency, nodes, hops))
    whole = normalize_adjacency(adjacency)
    inner = reference_field(adjacency, nodes, hops - 1) if hops else []
    for node in inner:
        k = np.searchsorted(field, node)
        got = slice(adj_norm.indptr[k], adj_norm.indptr[k + 1])
        want = slice(whole.indptr[node], whole.indptr[node + 1])
        assert np.array_equal(field[adj_norm.indices[got]], whole.indices[want])
        assert np.array_equal(adj_norm.data[got], whole.data[want])
