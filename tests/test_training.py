"""Gradient correctness and end-to-end training behavior."""

import numpy as np
import pytest

from relwalk import (
    TrainConfig,
    TrainingError,
    accuracy,
    batch_loss,
    batch_loss_grads,
    init_model,
    numeric_gradients,
    train,
)
from relwalk.datasets import gen_ba2motif, gen_infection
from relwalk.graphs import Graph, forward, modified_adjacency


def tiny_dataset(seed, n=6, m=5, task="graph"):
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(n):
        a = (rng.random((m, m)) < 0.5).astype(float)
        a = np.maximum(a, a.T)
        np.fill_diagonal(a, 0.0)
        feats = rng.random((m, 3))
        label = i % 2 if task == "graph" else rng.integers(0, 2, size=m)
        graphs.append(Graph(modified_adjacency(a), feats, label))
    return graphs


# -- gradients ---------------------------------------------------------------------


@pytest.mark.parametrize("task", ["graph", "node"])
def test_analytic_gradients_match_finite_differences(task):
    for seed in range(10):
        graphs = tiny_dataset(seed, task=task)
        model = init_model([3, 4, 2], 2, task=task, seed=seed)
        _, analytic, _ = batch_loss_grads(model, graphs)
        numeric = numeric_gradients(model, graphs)
        for a, n in zip(analytic, numeric):
            np.testing.assert_allclose(a, n, rtol=1e-4, atol=1e-7)


def test_gin_gradients_match_finite_differences():
    graphs = tiny_dataset(0)
    model = init_model([3, 4, 2], 2, seed=0, gin=True)
    _, analytic, _ = batch_loss_grads(model, graphs)
    numeric = numeric_gradients(model, graphs)
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=1e-4, atol=1e-7)


@pytest.mark.parametrize("task", ["graph", "node"])
@pytest.mark.parametrize("steps", [1, 2, 4])
def test_backward_pass_applies_the_adjoint_below_every_step_but_the_first(
        task, steps, monkeypatch):
    # the gradient of the first step's input reaches no parameter, so an
    # L-step GCN applies Lambda only between its steps: L - 1 times a graph
    calls = []
    adjoint = Graph.aggregate_adjoint
    monkeypatch.setattr(Graph, "aggregate_adjoint",
                        lambda self, g: calls.append(g.shape) or adjoint(self, g))
    graphs = tiny_dataset(0, n=3, task=task)
    batch_loss_grads(init_model([3] + [4] * steps, 2, task=task, seed=0), graphs)
    assert len(calls) == (steps - 1) * len(graphs)


def test_dead_relu_unit_gets_zero_gradient():
    # first-layer unit 1 has a negative incoming column and positive inputs,
    # so it never activates and its weights receive no gradient
    from relwalk.graphs import GnnModel, LayerSpec, ReadoutSpec

    graphs = [Graph(np.eye(2), np.ones((2, 1)), 0)]
    model = GnnModel(
        (LayerSpec(np.array([[1.0, -1.0]])), LayerSpec(np.array([[1.0], [1.0]]))),
        ReadoutSpec(task="graph", head=np.array([[1.0, -1.0]])),
    )
    acts = forward(model, graphs[0])
    assert np.all(acts.hidden[1][:, 1] == 0.0)
    _, grads, _ = batch_loss_grads(model, graphs)
    assert np.all(grads[0][:, 1] == 0.0)
    assert np.any(grads[0][:, 0] != 0.0)


def test_loss_scale_linearity_of_gradients():
    # duplicating every sample doubles the summed loss and leaves the
    # per-sample average gradient unchanged
    graphs = tiny_dataset(2)
    model = init_model([3, 4, 2], 2, seed=2)
    loss1, grads1, _ = batch_loss_grads(model, graphs)
    loss2, grads2, _ = batch_loss_grads(model, graphs + graphs)
    assert loss2 == pytest.approx(loss1)
    for g1, g2 in zip(grads1, grads2):
        np.testing.assert_allclose(g1, g2, atol=1e-12)


# -- configuration -----------------------------------------------------------------


def test_decay_schedule_starts_at_base_lr():
    config = TrainConfig(epochs=100, lr=1e-5)
    assert config.lr_at(0) == pytest.approx(1e-5)
    assert config.lr_at(100) == pytest.approx(5e-6)
    constant = TrainConfig(epochs=100, lr=1e-5, lr_schedule="constant")
    assert constant.lr_at(99) == 1e-5


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0, lr=0.1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=10, lr=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=10, lr=0.1, lr_schedule="cosine")


# -- end-to-end training -------------------------------------------------------------


def test_single_sample_memorization():
    graphs = tiny_dataset(3, n=1)
    model = init_model([3, 4, 2], 2, seed=3)
    result = train(model, graphs, TrainConfig(epochs=200, lr=0.1))
    assert accuracy(result.model, graphs) == 1.0


def test_training_is_deterministic():
    graphs = tiny_dataset(4)
    runs = []
    for _ in range(2):
        model = init_model([3, 4, 2], 2, seed=4)
        result = train(model, graphs, TrainConfig(epochs=50, lr=0.05))
        runs.append(result.model)
    for a, b in zip(runs[0].layers, runs[1].layers):
        assert np.array_equal(a.weight, b.weight)


def test_training_reduces_loss():
    graphs = tiny_dataset(5)
    model = init_model([3, 4, 2], 2, seed=5)
    result = train(model, graphs, TrainConfig(epochs=300, lr=0.05))
    assert batch_loss(result.model, graphs) < batch_loss(model, graphs)


def test_divergence_aborts_with_diagnostics():
    graphs = tiny_dataset(6)
    model = init_model([3, 4, 2], 2, seed=6)
    with pytest.raises(TrainingError, match="epoch"):
        train(model, graphs, TrainConfig(epochs=500, lr=1e200))


def test_motif_classification_reaches_high_accuracy():
    tr = gen_ba2motif(100, seed=2, normalize=True, feature_mode="degree")
    te = gen_ba2motif(40, seed=1002, normalize=True, feature_mode="degree")
    model = init_model([5, 4, 4, 4], 2, seed=2)
    result = train(model, tr, TrainConfig(epochs=500, lr=0.05))
    assert accuracy(result.model, te) >= 0.95


def test_node_task_accuracy_on_infection_scenario():
    scenario = gen_infection(60, steps=3, lam=0.6, carrier_frac=0.05, seed=0)
    g = Graph(
        modified_adjacency(
            scenario.graph.adjacency - np.eye(60), normalize=True),
        scenario.graph.features,
        scenario.labels.astype(int),
    )
    model = init_model([2, 8, 8, 8], 2, task="node", seed=0)
    result = train(model, [g], TrainConfig(epochs=800, lr=0.2))
    assert accuracy(result.model, [g]) >= 0.75
