"""Unit tests for GraphData, the GraphSAINT sampler and the trainer."""

from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gnn import (
    GnnConfig,
    GraphData,
    RandomWalkSampler,
    Trainer,
    GraphSageClassifier,
    normalize_adjacency,
    train_node_classifier,
)


def _two_cluster_graph(n=200, seed=0, feature_dim=6):
    rng = np.random.default_rng(seed)
    labels = np.array([0] * (n // 2) + [1] * (n - n // 2))
    features = rng.normal(size=(n, feature_dim)) + labels[:, None] * 2.0
    rows, cols = [], []
    for i in range(n):
        for _ in range(3):
            same = rng.random() < 0.9
            base = 0 if (labels[i] == 0) == same else n // 2
            j = int(rng.integers(0, n // 2)) + base
            rows += [i, j]
            cols += [j, i]
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    adj.data[:] = 1
    split = rng.random(n)
    data = GraphData(
        adjacency=adj,
        features=features,
        labels=labels,
        train_mask=split < 0.6,
        val_mask=(split >= 0.6) & (split < 0.8),
        test_mask=split >= 0.8,
    )
    return data


class TestGraphData:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GraphData(
                adjacency=sp.eye(3, format="csr"),
                features=np.zeros((4, 2)),
                labels=np.zeros(4, dtype=int),
                train_mask=np.ones(4, bool),
                val_mask=np.zeros(4, bool),
                test_mask=np.zeros(4, bool),
            )
        with pytest.raises(ValueError):
            GraphData(
                adjacency=sp.eye(4, format="csr"),
                features=np.zeros((4, 2)),
                labels=np.zeros(3, dtype=int),
                train_mask=np.ones(4, bool),
                val_mask=np.zeros(4, bool),
                test_mask=np.zeros(4, bool),
            )

    def test_properties(self):
        data = _two_cluster_graph(50)
        assert data.n_nodes == 50
        assert data.n_features == 6
        assert data.n_classes == 2

    def test_normalized_adjacency_rows(self):
        data = _two_cluster_graph(30)
        norm = data.normalized_adjacency()
        sums = np.asarray(norm.sum(axis=1)).ravel()
        nonzero = np.asarray(data.adjacency.sum(axis=1)).ravel() > 0
        assert np.allclose(sums[nonzero], 1.0)

    def test_isolated_node_handled(self):
        adj = sp.csr_matrix((3, 3))
        norm = normalize_adjacency(adj)
        assert norm.nnz == 0


class TestSampler:
    def test_sampled_subgraph_contains_training_nodes(self):
        data = _two_cluster_graph(100)
        sampler = RandomWalkSampler(
            data, n_roots=20, walk_length=2, rng=np.random.default_rng(0)
        )
        batch = sampler.sample()
        n = batch.node_indices.size
        assert n > 0
        assert n <= data.n_nodes
        assert batch.adj_norm.shape == (n, n)
        assert batch.loss_weights.shape == (n,)
        assert (batch.loss_weights > 0).all()

    def test_loss_weights_normalised(self):
        data = _two_cluster_graph(100)
        sampler = RandomWalkSampler(
            data, n_roots=30, walk_length=2, rng=np.random.default_rng(1)
        )
        batch = sampler.sample()
        assert batch.loss_weights.mean() == pytest.approx(1.0)

    def test_parameter_validation(self):
        data = _two_cluster_graph(20)
        with pytest.raises(ValueError):
            RandomWalkSampler(data, n_roots=0)
        with pytest.raises(ValueError):
            RandomWalkSampler(data, walk_length=0)

    def test_requires_training_nodes(self):
        data = _two_cluster_graph(20)
        data.train_mask[:] = False
        with pytest.raises(ValueError):
            RandomWalkSampler(data)


def _random_graph(n, seed, isolate_first=0, feature_dim=6):
    """Random graph whose first ``isolate_first`` nodes have no edges."""
    rng = np.random.default_rng(seed)
    labels = np.array([0] * (n // 2) + [1] * (n - n // 2))
    features = rng.normal(size=(n, feature_dim)) + labels[:, None] * 2.0
    rows, cols = [], []
    for i in range(isolate_first, n):
        for _ in range(3):
            j = int(rng.integers(isolate_first, n))
            rows += [i, j]
            cols += [j, i]
    adj = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    adj.data[:] = 1
    split = rng.random(n)
    return GraphData(
        adjacency=adj,
        features=features,
        labels=labels,
        train_mask=split < 0.6,
        val_mask=(split >= 0.6) & (split < 0.8),
        test_mask=split >= 0.8,
    )


def _reference_walk(adjacency, train_nodes, n_roots, walk_length, rng):
    """The pre-vectorisation per-node loop that ``_walk_nodes`` replaced."""
    n_roots = min(n_roots, train_nodes.size)
    roots = rng.choice(train_nodes, size=n_roots, replace=True)
    visited = set(int(r) for r in roots)
    indptr, indices = adjacency.indptr, adjacency.indices
    current = roots.copy()
    for _ in range(walk_length):
        next_nodes = []
        for node in current:
            start, end = indptr[node], indptr[node + 1]
            if end > start:
                nxt = int(indices[rng.integers(start, end)])
            else:
                nxt = int(node)
            next_nodes.append(nxt)
            visited.add(nxt)
        current = np.array(next_nodes)
    return np.array(sorted(visited))


class TestRandomStreamStability:
    """The vectorised walk consumes the reference loop's RNG stream exactly,
    so training results -- and the golden tables -- never move."""

    def test_vectorised_walk_matches_reference_loop(self):
        data = _random_graph(300, seed=2, isolate_first=25)
        sampler = RandomWalkSampler(
            data, n_roots=80, walk_length=3, rng=np.random.default_rng(0)
        )
        rng_new = np.random.default_rng(1234)
        rng_ref = np.random.default_rng(1234)
        for _ in range(25):
            sampler.rng = rng_new
            got = sampler._walk_nodes()
            want = _reference_walk(
                sampler.adjacency, sampler.train_nodes, 80, 3, rng_ref
            )
            assert np.array_equal(got, want)
            # identical draws => identical generator state going forward
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    def test_walk_keeps_integer_dtype_with_empty_neighbourhoods(self):
        # Isolated training nodes exercise the dead-end branch that used to
        # be able to produce float/object arrays via np.array(list-of-ints).
        data = _random_graph(60, seed=4, isolate_first=60)  # no edges at all
        sampler = RandomWalkSampler(
            data, n_roots=10, walk_length=2, rng=np.random.default_rng(1)
        )
        nodes = sampler._walk_nodes()
        assert nodes.dtype == np.int64
        assert nodes.size > 0
        batch = sampler.sample()
        assert batch.node_indices.dtype == np.int64
        n = batch.node_indices.size
        assert batch.adj_norm.shape == (n, n)
        assert batch.adj_norm.nnz == 0


class TestSerialDeterminism:
    """One RNG stream: the same generator seed gives the same run."""

    def test_normalisation_counts_are_integral(self):
        data = _two_cluster_graph(120, seed=5)
        sampler = RandomWalkSampler(
            data, n_roots=30, walk_length=2, rng=np.random.default_rng(3)
        )
        assert sampler._norm_samples == 20
        counts = sampler._inclusion_counts
        assert np.array_equal(counts, counts.astype(int))
        assert counts.max() <= sampler._norm_samples
        assert counts[data.train_mask].sum() > 0

    def test_normalisation_follows_the_generator_seed(self):
        data = _two_cluster_graph(200, seed=6)

        def counts(seed):
            return RandomWalkSampler(
                data, n_roots=50, walk_length=2, rng=np.random.default_rng(seed)
            )._inclusion_counts

        assert np.array_equal(counts(11), counts(11))
        assert not np.array_equal(counts(11), counts(12))

    def test_training_history_is_reproducible(self):
        data = _two_cluster_graph(240, seed=7)
        config = GnnConfig(
            n_features=6, n_classes=2, hidden_dim=12, epochs=20,
            root_nodes=50, eval_every=5, seed=0,
        )
        runs = []
        for _ in range(2):
            model, history = train_node_classifier(
                data, config, rng=np.random.default_rng(5)
            )
            runs.append(
                (
                    history.loss,
                    history.val_accuracy,
                    history.best_epoch,
                    [w.tobytes() for w in model.get_weights()],
                )
            )
        assert runs[0] == runs[1]
        assert len(runs[0][0]) == 20

    def test_sample_wait_is_accounted_inline(self):
        data = _two_cluster_graph(240, seed=8)
        config = GnnConfig(
            n_features=6, n_classes=2, hidden_dim=12, epochs=15,
            root_nodes=50, eval_every=5, seed=0,
        )
        _, history = train_node_classifier(
            data, config, rng=np.random.default_rng(9)
        )
        # Batches are drawn inline, so the wait is sampling time itself:
        # positive, and a part of the training time.
        assert 0.0 < history.sample_wait_s <= history.train_time_s


class TestTrainer:
    def test_training_learns_two_clusters(self):
        data = _two_cluster_graph(300, seed=3)
        config = GnnConfig(
            n_features=6, n_classes=2, hidden_dim=16, epochs=60,
            root_nodes=80, eval_every=5, seed=0,
        )
        model, history = train_node_classifier(data, config)
        accuracy = (
            model.predict(data.features, data.normalized_adjacency())[data.test_mask]
            == data.labels[data.test_mask]
        ).mean()
        assert accuracy > 0.9
        assert history.best_val_accuracy > 0.9
        assert history.epochs_run <= config.epochs
        assert history.train_time_s > 0

    def test_full_batch_mode(self):
        data = _two_cluster_graph(120, seed=4)
        config = GnnConfig(
            n_features=6, n_classes=2, hidden_dim=8, epochs=30,
            sampler="full", eval_every=5, seed=0,
        )
        model, history = train_node_classifier(data, config)
        assert history.epochs_run > 0

    def test_early_stopping(self):
        data = _two_cluster_graph(120, seed=5)
        config = GnnConfig(
            n_features=6, n_classes=2, hidden_dim=8, epochs=500,
            patience=10, eval_every=5, root_nodes=50, seed=0,
        )
        _, history = train_node_classifier(data, config)
        assert history.epochs_run < 500

    def test_config_adjusted_to_graph(self):
        data = _two_cluster_graph(80, seed=6)
        config = GnnConfig(n_features=99, n_classes=1, hidden_dim=8, epochs=10,
                           root_nodes=30, eval_every=5)
        model, _ = train_node_classifier(data, config)
        assert model.config.n_features == data.n_features
        assert model.config.n_classes == data.n_classes

    def test_class_weights_balanced(self):
        data = _two_cluster_graph(100, seed=7)
        # Make class 1 rare in training.
        data.train_mask[data.labels == 1] &= np.random.default_rng(0).random(
            (data.labels == 1).sum()
        ) < 0.2
        config = GnnConfig(n_features=6, n_classes=2, hidden_dim=8, epochs=5,
                           root_nodes=30, eval_every=5)
        model = GraphSageClassifier(config)
        trainer = Trainer(model, data, config=config)
        weights = trainer._compute_class_weights()
        assert weights[1] > weights[0]


class TestBatchConstruction:
    """Each random-walk step builds one sparse operator and one transpose."""

    def test_step_builds_no_graph_and_transposes_once(self, monkeypatch):
        data = _two_cluster_graph(200, seed=9)
        config = GnnConfig(
            n_features=6, n_classes=2, hidden_dim=8, epochs=12, patience=100,
            root_nodes=40, eval_every=5, seed=0,
        )
        trainer = Trainer(
            GraphSageClassifier(config), data, config=config,
            rng=np.random.default_rng(0),
        )
        calls = Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            GraphData, "__init__", counted("GraphData", GraphData.__init__)
        )
        monkeypatch.setattr(sp, "diags", counted("diags", sp.diags))
        monkeypatch.setattr(
            sp.csr_matrix, "transpose",
            counted("transpose", sp.csr_matrix.transpose),
        )
        history = trainer.fit()
        assert history.epochs_run == 12
        assert calls["GraphData"] == 0
        assert calls["diags"] == 0
        assert 0 < calls["transpose"] <= history.epochs_run
