"""Plain full-batch gradient-descent training for the GNN models.

Softmax cross-entropy loss, Glorot-uniform initialization, learning rate
decayed as base / (1 + epoch / epochs).  The ReLU subgradient at zero is
taken as zero.  Gradients are fully analytic; `numeric_gradients` gives a
finite-difference reference for testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, GnnModel, LayerSpec, ReadoutSpec, forward


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss or weights)."""


@dataclass
class TrainConfig:
    epochs: int = 500
    lr: float = 0.05
    lr_schedule: str = "decay"    # "decay": lr/(1 + epoch/epochs); "constant"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.lr_schedule not in ("decay", "constant"):
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")

    def lr_at(self, epoch: int) -> float:
        if self.lr_schedule == "constant":
            return self.lr
        return self.lr / (1.0 + epoch / self.epochs)


@dataclass
class TrainResult:
    model: GnnModel
    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.losses[-1]

    @property
    def final_accuracy(self) -> float:
        return self.accuracies[-1]


def glorot(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def init_model(
    dims: list[int],
    num_classes: int,
    task: str = "graph",
    seed: int = 0,
    gin: bool = False,
) -> GnnModel:
    """Random model with feature dims [in, h1, ..., hk] and a linear head.

    gin=True gives every block a second node-local MLP weight of the same
    output dimension.
    """
    rng = np.random.default_rng(seed)
    layers = []
    for a, b in zip(dims, dims[1:]):
        hidden = glorot((b, b), rng) if gin else None
        layers.append(LayerSpec(glorot((a, b), rng), hidden_weight=hidden))
    head = glorot((dims[-1], num_classes), rng)
    return GnnModel(tuple(layers), ReadoutSpec(task=task, head=head))


def _weights(model: GnnModel) -> list[np.ndarray]:
    """Flat parameter list: one entry per propagation step, then the head."""
    return [s.weight for s in model.steps] + [model.readout.head]


def _rebuild(model: GnnModel, weights: list[np.ndarray]) -> GnnModel:
    layers = []
    pos = 0
    for layer in model.layers:
        w = weights[pos]
        pos += 1
        w2 = None
        if layer.hidden_weight is not None:
            w2 = weights[pos]
            pos += 1
        layers.append(LayerSpec(w, hidden_weight=w2))
    return GnnModel(tuple(layers), ReadoutSpec(model.readout.task, weights[-1]))


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _labels_array(graph: Graph) -> np.ndarray:
    return np.asarray(graph.label).astype(int).reshape(-1)


def _graph_loss_grads(model: GnnModel, graph: Graph):
    """Loss and per-parameter gradients for one graph (or one node-task graph).

    Node-task graphs average the cross entropy over all nodes, using
    graph.label as the per-node class vector.
    """
    acts = forward(model, graph)
    steps = model.steps
    head = model.readout.head

    if model.readout.task == "graph":
        probs = _softmax(acts.logits)
        label = int(graph.label)
        loss = -np.log(max(probs[label], 1e-300))
        dlogits = probs.copy()
        dlogits[label] -= 1.0
        d_head = np.outer(acts.pooled, dlogits)
        dh = head @ dlogits     # the same for every node: broadcast over the rows
    else:
        labels = _labels_array(graph)
        probs = _softmax(acts.logits)
        m = graph.num_nodes
        picked = probs[np.arange(m), labels]
        loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
        dlogits = probs.copy()
        dlogits[np.arange(m), labels] -= 1.0
        dlogits /= m
        d_head = acts.hidden[-1].T @ dlogits
        dh = dlogits @ head.T

    d_steps = [None] * len(steps)
    for s in range(len(steps) - 1, -1, -1):
        mask = acts.hidden[s + 1] > 0
        dpre = dh * mask
        z = acts.aggregated[s]
        d_steps[s] = z.T @ dpre
        if s == 0:
            break       # no parameter lies below the first step
        dz = dpre @ steps[s].weight.T
        # z = Lambda^T h, so dh = Lambda dz
        dh = graph.aggregate_adjoint(dz) if steps[s].uses_adjacency else dz
    return float(loss), d_steps + [d_head], acts


def _correct(model: GnnModel, graph: Graph, logits: np.ndarray) -> tuple[int, int]:
    """Correct predictions and their number: one per graph, or one per node."""
    if model.readout.task == "graph":
        return int(np.argmax(logits) == int(graph.label)), 1
    return int((np.argmax(logits, axis=1) == _labels_array(graph)).sum()), graph.num_nodes


def batch_loss_grads(model: GnnModel, graphs: list[Graph]):
    """Mean loss and gradients over a batch, plus the accuracy."""
    total_loss = 0.0
    grads = [np.zeros_like(w) for w in _weights(model)]
    correct = 0
    count = 0
    for g in graphs:
        loss, g_grads, acts = _graph_loss_grads(model, g)
        total_loss += loss
        for acc, d in zip(grads, g_grads):
            acc += d
        hits, total = _correct(model, g, acts.logits)
        correct += hits
        count += total
    n = len(graphs)
    return total_loss / n, [d / n for d in grads], correct / count


def batch_loss(model: GnnModel, graphs: list[Graph]) -> float:
    loss, _, _ = batch_loss_grads(model, graphs)
    return loss


def numeric_gradients(model: GnnModel, graphs: list[Graph], h: float = 1e-6):
    """Central finite differences of the batch loss, parameter by parameter."""
    weights = [w.copy() for w in _weights(model)]
    grads = []
    for idx, w in enumerate(weights):
        g = np.zeros_like(w)
        for pos in np.ndindex(*w.shape):
            orig = w[pos]
            w[pos] = orig + h
            hi = batch_loss(_rebuild(model, weights), graphs)
            w[pos] = orig - h
            lo = batch_loss(_rebuild(model, weights), graphs)
            w[pos] = orig
            g[pos] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def train(model: GnnModel, graphs: list[Graph], config: TrainConfig) -> TrainResult:
    """Full-batch gradient descent; raises TrainingError on divergence."""
    weights = [w.copy() for w in _weights(model)]
    result = TrainResult(model)
    for epoch in range(config.epochs):
        current = _rebuild(model, weights)
        loss, grads, acc = batch_loss_grads(current, graphs)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at epoch {epoch}")
        lr = config.lr_at(epoch)
        for w, g in zip(weights, grads):
            w -= lr * g
        result.losses.append(loss)
        result.accuracies.append(acc)
    result.model = _rebuild(model, weights)
    return result


def accuracy(model: GnnModel, graphs: list[Graph]) -> float:
    counts = [_correct(model, g, forward(model, g).logits) for g in graphs]
    return sum(hits for hits, _ in counts) / sum(total for _, total in counts)
