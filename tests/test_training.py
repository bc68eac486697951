"""Gradient correctness and end-to-end training behavior."""

import numpy as np
import pytest

from relwalk import (
    TrainConfig,
    TrainingError,
    accuracy,
    batch_loss_grads,
    init_model,
    numeric_gradients,
    train,
)
from relwalk.datasets import gen_ba2motif, gen_infection
from relwalk import graphs as graphs_module
from relwalk.graphs import (Graph, degree_normalized, forward, graph_from_dict, graph_to_dict,
                            modified_adjacency)
from relwalk.training import Batch, GraphGroup

from helpers import reference_train


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


def edge_list(graphs):
    """The graphs through their JSON edge-list form: built from CSR arrays."""
    return [graph_from_dict(graph_to_dict(g)) for g in graphs]


def batch_of(form, task):
    """Six or more graphs: all matrix-built, all edge-list, or a mix of both
    forms and of three node counts, interleaved (three groups: both forms
    of one node count share one)."""
    if form == "matrix":
        return tiny_dataset(0, task=task)
    if form == "edges":
        return edge_list(tiny_dataset(1, task=task))
    parts = [tiny_dataset(2, n=3, task=task), tiny_dataset(3, n=3, m=7, task=task),
             edge_list(tiny_dataset(4, n=3, task=task)), tiny_dataset(5, n=2, m=1, task=task)]
    return [g for group in zip(*parts) for g in group] + parts[0][2:]


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
    # L-step GCN applies Lambda only between its steps: L - 1 stacked
    # products a pass, whatever the batch size
    calls = []
    adjoint = GraphGroup.aggregate_adjoint
    monkeypatch.setattr(GraphGroup, "aggregate_adjoint",
                        lambda self, g: calls.append(g.shape) or adjoint(self, g))
    for n in (1, 5):
        calls.clear()
        graphs = tiny_dataset(0, n=n, task=task)
        batch_loss_grads(init_model([3] + [4] * steps, 2, task=task, seed=0), graphs)
        assert len(calls) == steps - 1
        assert all(shape[0] == n for shape in calls)


@pytest.mark.parametrize("form", ["matrix", "edges", "mixed"])
@pytest.mark.parametrize("gin", [False, True])
@pytest.mark.parametrize("task", ["graph", "node"])
def test_training_equals_the_per_graph_reference_bit_for_bit(form, gin, task):
    graphs = batch_of(form, task)
    model = init_model([3, 4, 4], 2, task=task, seed=7, gin=gin)
    config = TrainConfig(epochs=40, lr=0.1)
    result = train(model, graphs, config)
    weights, losses, accuracies = reference_train(model, graphs, config)
    trained = [s.weight for s in result.model.steps] + [result.model.readout.head]
    assert all(np.array_equal(a, b) for a, b in zip(trained, weights))
    assert result.losses == losses
    assert result.accuracies == accuracies
    assert losses[-1] < losses[0]


@pytest.mark.parametrize("task", ["graph", "node"])
def test_training_on_block_diagonal_groups_equals_the_reference(task, monkeypatch):
    # above DENSE_NODES a group's Lambda is one block-diagonal CSR graph,
    # and each graph's own products are segment sums; the 1-node graphs
    # stay dense
    monkeypatch.setattr(graphs_module, "DENSE_NODES", 4)
    graphs = batch_of("mixed", task)
    model = init_model([3, 4, 4], 2, task=task, seed=7)
    batch = Batch(model, graphs)
    assert sorted(isinstance(group.lam, Graph) for group in batch.groups) == [False, True, True]
    config = TrainConfig(epochs=40, lr=0.1)
    result = train(model, graphs, config)
    weights, losses, accuracies = reference_train(model, graphs, config)
    trained = [s.weight for s in result.model.steps] + [result.model.readout.head]
    assert all(np.array_equal(a, b) for a, b in zip(trained, weights))
    assert result.losses == losses
    assert result.accuracies == accuracies


@pytest.mark.parametrize("gin", [False, True])
@pytest.mark.parametrize("task", ["graph", "node"])
def test_batch_logits_equal_forward_per_graph(task, gin):
    graphs = batch_of("mixed", task)
    model = init_model([3, 4, 4], 2, task=task, seed=1, gin=gin)
    batch = Batch(model, graphs)
    assert len(batch.groups) == 3
    weights = [s.weight for s in model.steps] + [model.readout.head]
    seen = []
    for group in batch.groups:
        logits = group.forward(weights).logits
        for i, pos in enumerate(group.positions):
            assert np.array_equal(logits[i], forward(model, graphs[pos]).logits)
            seen.append(pos)
    assert sorted(seen) == list(range(len(graphs)))


@pytest.mark.parametrize("task", ["graph", "node"])
@pytest.mark.parametrize("label", [-1, 2])
def test_label_outside_the_classes_is_refused(task, label):
    graphs = tiny_dataset(0, task=task)
    graphs[0].label = label if task == "graph" else np.full(5, label)
    with pytest.raises(ValueError, match="labels"):
        batch_loss_grads(init_model([3, 4, 2], 2, task=task, seed=0), graphs)


@pytest.mark.parametrize("dims, classes", [([3, 0, 0], 2), ([3, 4, 0], 2), ([0, 4], 2),
                                           ([3, 4], 0)])
def test_init_model_refuses_dimensions_below_one(dims, classes):
    with pytest.raises(ValueError, match="dimension"):
        init_model(dims, classes)


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
    assert batch_loss_grads(result.model, graphs)[0] < batch_loss_grads(model, graphs)[0]


def test_divergence_aborts_with_diagnostics():
    graphs = tiny_dataset(6)
    model = init_model([3, 4, 2], 2, seed=6)
    with pytest.raises(TrainingError, match="epoch"):
        train(model, graphs, TrainConfig(epochs=500, lr=1e200))


def test_divergence_in_the_last_epoch_aborts():
    # one step overflows the weights; no later loss is computed to see it
    graphs = gen_ba2motif(10, seed=0, feature_mode="degree")
    model = init_model([5, 8, 8, 8], 2, seed=0)
    with pytest.raises(TrainingError, match="non-finite weights after epoch 0"):
        train(model, graphs, TrainConfig(epochs=1, lr=1e308))


def test_motif_classification_reaches_high_accuracy():
    tr = gen_ba2motif(100, seed=2, normalize=True, feature_mode="degree")
    te = gen_ba2motif(40, seed=1002, normalize=True, feature_mode="degree")
    model = init_model([5, 4, 4, 4], 2, seed=2)
    result = train(model, tr, TrainConfig(epochs=500, lr=0.05))
    assert accuracy(result.model, te) >= 0.95


def test_node_task_accuracy_on_infection_scenario():
    scenario = gen_infection(60, steps=3, lam=0.6, carrier_frac=0.05, seed=0)
    g = degree_normalized(scenario.graph)
    model = init_model([2, 8, 8, 8], 2, task="node", seed=0)
    result = train(model, [g], TrainConfig(epochs=800, lr=0.2))
    assert accuracy(result.model, [g]) >= 0.75
