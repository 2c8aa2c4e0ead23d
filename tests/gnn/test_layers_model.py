"""Unit tests for GNN layers, model, loss and optimiser (incl. gradient checks)."""

import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gnn import (
    Adam,
    DenseLayer,
    Dropout,
    GnnConfig,
    GraphSageClassifier,
    GraphSageLayer,
    cross_entropy_loss,
    glorot,
    normalize_adjacency,
    softmax,
)
from repro.gnn import layers as layers_module


def _ring_adjacency(n):
    rows = list(range(n)) + list(range(n))
    cols = [(i + 1) % n for i in range(n)] + [(i - 1) % n for i in range(n)]
    return sp.csr_matrix((np.ones(2 * n), (rows, cols)), shape=(n, n))


class TestPrimitives:
    def test_glorot_shape_and_scale(self):
        w = glorot(np.random.default_rng(0), 100, 50)
        assert w.shape == (100, 50)
        assert abs(w.mean()) < 0.02
        assert np.abs(w).max() <= np.sqrt(6.0 / 150)

    def test_softmax_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(0).normal(size=(7, 3)) * 10)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_cross_entropy_perfect_prediction(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, grad = cross_entropy_loss(probs, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_cross_entropy_weighting(self):
        probs = np.array([[0.9, 0.1], [0.1, 0.9]])
        labels = np.array([1, 1])
        loss_unweighted, _ = cross_entropy_loss(probs, labels)
        loss_weighted, _ = cross_entropy_loss(
            probs, labels, sample_weight=np.array([1.0, 0.0])
        )
        assert loss_weighted > loss_unweighted

    def test_cross_entropy_empty(self):
        loss, grad = cross_entropy_loss(np.zeros((0, 2)), np.zeros(0, dtype=int))
        assert loss == 0.0 and grad.shape == (0, 2)

    def test_dropout_train_vs_eval(self):
        x = np.ones((100, 20))
        drop = Dropout(0.5, np.random.default_rng(0))
        assert np.array_equal(drop.forward(x, training=False), x)
        dropped = drop.forward(x, training=True)
        assert (dropped == 0).any()
        assert dropped.mean() == pytest.approx(1.0, abs=0.15)

    def test_dropout_rate_validated(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_adam_reduces_quadratic(self):
        param = np.array([5.0, -3.0])
        opt = Adam([param], learning_rate=0.1)
        for _ in range(200):
            opt.step([2 * param])
        assert np.abs(param).max() < 0.1

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_adam_matches_out_of_place_update(self, weight_decay):
        # The in-place update keeps the out-of-place expression's
        # floating-point order, so trained weights stay bit-identical.
        rng = np.random.default_rng(4)
        shapes = [(6, 4), (4,)]
        params = [rng.normal(size=shape) for shape in shapes]
        expected = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = Adam(params, learning_rate=lr, weight_decay=weight_decay)
        for t in range(1, 51):
            grads = [rng.normal(size=shape) for shape in shapes]
            before = [g.copy() for g in grads]
            opt.step(grads)
            for g, g0 in zip(grads, before):
                assert np.array_equal(g, g0)
            for i, (param, grad) in enumerate(zip(expected, grads)):
                if weight_decay:
                    grad = grad + weight_decay * param
                m[i] = beta1 * m[i] + (1 - beta1) * grad
                v[i] = beta2 * v[i] + (1 - beta2) * (grad * grad)
                m_hat = m[i] / (1 - beta1 ** t)
                v_hat = v[i] / (1 - beta2 ** t)
                param -= lr * m_hat / (np.sqrt(v_hat) + eps)
        for param, want in zip(params, expected):
            assert np.array_equal(param, want)

    def test_adam_gradient_count_checked(self):
        param = np.zeros(3)
        opt = Adam([param])
        with pytest.raises(ValueError):
            opt.step([np.zeros(3), np.zeros(3)])


class TestGradients:
    def _numeric_grad(self, f, param, eps=1e-6):
        grad = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = param[idx]
            param[idx] = original + eps
            plus = f()
            param[idx] = original - eps
            minus = f()
            param[idx] = original
            grad[idx] = (plus - minus) / (2 * eps)
            it.iternext()
        return grad

    def test_dense_layer_gradient(self):
        rng = np.random.default_rng(0)
        layer = DenseLayer(4, 3, activation="relu", rng=rng)
        x = rng.normal(size=(6, 4))
        target = rng.normal(size=(6, 3))

        def loss():
            out = layer.forward(x)
            return 0.5 * float(((out - target) ** 2).sum())

        out = layer.forward(x)
        layer.backward(out - target)
        numeric = self._numeric_grad(loss, layer.weight)
        assert np.allclose(layer.grad_weight, numeric, atol=1e-4)

    def test_sage_layer_gradient(self):
        rng = np.random.default_rng(1)
        layer = GraphSageLayer(3, 2, activation="relu", rng=rng)
        adj = normalize_adjacency(_ring_adjacency(5))
        x = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 2))

        def loss():
            out = layer.forward(x, adj)
            return 0.5 * float(((out - target) ** 2).sum())

        out = layer.forward(x, adj)
        layer.backward(out - target)
        numeric = self._numeric_grad(loss, layer.weight)
        assert np.allclose(layer.grad_weight, numeric, atol=1e-4)

    def test_full_model_gradient(self):
        config = GnnConfig(n_features=3, n_classes=2, hidden_dim=4, dropout=0.0, seed=2)
        model = GraphSageClassifier(config)
        rng = np.random.default_rng(2)
        adj = normalize_adjacency(_ring_adjacency(6))
        x = rng.normal(size=(6, 3))
        labels = np.array([0, 1, 0, 1, 0, 1])

        def loss():
            probs = model.forward(x, adj)
            return cross_entropy_loss(probs, labels)[0]

        probs = model.forward(x, adj, training=True)
        _, grad = cross_entropy_loss(probs, labels)
        model.backward(grad)
        numeric = self._numeric_grad(loss, model.output_layer.weight)
        assert np.allclose(model.output_layer.grad_weight, numeric, atol=1e-4)


class TestModel:
    def test_architecture_dimensions_follow_table2(self):
        config = GnnConfig(n_features=13, n_classes=2, hidden_dim=512)
        model = GraphSageClassifier(config)
        assert model.input_layer.weight.shape == (13, 512)
        assert model.sage1.weight.shape == (1024, 512)
        assert model.sage2.weight.shape == (1024, 512)
        assert model.output_layer.weight.shape == (512, 2)
        described = config.describe()
        assert described["Hidden Layer 1"] == "[1024, 512]"
        assert described["Aggregation"] == "Mean with concatenation"

    def test_forward_returns_probabilities(self):
        config = GnnConfig(n_features=5, n_classes=3, hidden_dim=8)
        model = GraphSageClassifier(config)
        adj = normalize_adjacency(_ring_adjacency(10))
        probs = model.forward(np.random.default_rng(0).normal(size=(10, 5)), adj)
        assert probs.shape == (10, 3)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_weight_roundtrip(self):
        config = GnnConfig(n_features=5, n_classes=2, hidden_dim=8)
        model = GraphSageClassifier(config)
        weights = model.get_weights()
        for param in model.parameters:
            param += 1.0
        model.set_weights(weights)
        assert all(np.array_equal(a, b) for a, b in zip(model.get_weights(), weights))
        with pytest.raises(ValueError):
            model.set_weights(weights[:-1])

    def test_predict_keeps_no_activations(self):
        model, x, adj = _stepped_model()
        model.predict(x, adj)
        assert all(layer._cache == {} for layer in model._layers)

    def test_seed_reproducibility(self):
        config = GnnConfig(n_features=5, n_classes=2, hidden_dim=8, seed=9)
        a = GraphSageClassifier(config)
        b = GraphSageClassifier(config)
        assert np.array_equal(a.input_layer.weight, b.input_layer.weight)


def _stepped_model(n=2000):
    """A model right after one full-graph training step: every layer holds
    its activations and gradients, every dropout its mask."""
    model = GraphSageClassifier(GnnConfig(n_features=5, n_classes=2, hidden_dim=8, seed=4))
    rng = np.random.default_rng(4)
    adj = normalize_adjacency(_ring_adjacency(n))
    x = rng.normal(size=(n, 5))
    probs = model.forward(x, adj, training=True)
    _, grad = cross_entropy_loss(probs, rng.integers(0, 2, n))
    model.backward(grad)
    return model, x, adj


def _parameter_bytes(model):
    return sum(p.nbytes for p in model.parameters)


class TestPickling:
    def test_pickle_carries_no_scratch_state(self):
        model, _, _ = _stepped_model()
        # The scratch of this 2000-node step is about 1 MB.
        assert len(pickle.dumps(model)) < _parameter_bytes(model) + 8192

    def test_round_trip_predicts_identically(self):
        model, x, adj = _stepped_model()
        clone = pickle.loads(pickle.dumps(model))
        for layer in clone._layers:
            assert layer._cache == {} and not hasattr(layer, "grad_weight")
        assert all(d._mask is None for d in clone.dropouts)
        for a, b in zip(clone.get_weights(), model.get_weights()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(clone.forward(x, adj), model.forward(x, adj))
        # The clone trains on: a step refills the scratch state.
        probs = clone.forward(x, adj, training=True)
        clone.backward(cross_entropy_loss(probs, np.zeros(len(x), dtype=int))[1])
        assert clone.sage2.grad_weight.shape == clone.sage2.weight.shape

    def test_pickle_with_scratch_state_still_loads(self, monkeypatch):
        model, x, adj = _stepped_model()
        # Pickle as before layers pickled their parameters only.
        monkeypatch.delattr(layers_module._ParametricLayer, "__getstate__")
        monkeypatch.delattr(Dropout, "__getstate__")
        old = pickle.dumps(model)
        monkeypatch.undo()
        assert len(old) > 10 * _parameter_bytes(model)
        clone = pickle.loads(old)
        for layer in clone._layers:
            assert layer._cache == {} and not hasattr(layer, "grad_weight")
        np.testing.assert_array_equal(clone.predict(x, adj), model.predict(x, adj))
        assert len(pickle.dumps(clone)) < _parameter_bytes(model) + 8192
