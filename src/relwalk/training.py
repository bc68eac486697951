"""Plain full-batch gradient-descent training for the GNN models.

Softmax cross-entropy loss, Glorot-uniform initialization, learning rate
decayed as base / (1 + epoch / epochs).  The ReLU subgradient at zero is
taken as zero.  Gradients are fully analytic.  A `Batch` stacks the
training graphs once, in groups of one node count, so each epoch runs
graphs.forward once per group, then one backward pass, with the same bits
as a pass per graph.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, field

import numpy as np

from .graphs import (Graph, GnnModel, LayerSpec, ReadoutSpec, ShapeError, dense_products,
                     forward)


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss or weights)."""


@dataclass
class TrainConfig:
    epochs: int = 500
    lr: float = 0.05
    # train never reads it: full-batch descent from a given model draws
    # nothing at random.  It stays while perfbench's workloads pass seed=.
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")

    def lr_at(self, epoch: int) -> float:
        """The decayed learning rate lr / (1 + epoch / epochs)."""
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
    if min(dims, default=0) < 1 or num_classes < 1:
        raise ValueError(f"every dimension must be >= 1, got dims {dims} and "
                         f"{num_classes} classes")
    rng = np.random.default_rng(seed)
    layers = []
    for a, b in zip(dims, dims[1:]):
        hidden = glorot((b, b), rng) if gin else None
        layers.append(LayerSpec(glorot((a, b), rng), hidden_weight=hidden))
    head = glorot((dims[-1], num_classes), rng)
    return GnnModel(tuple(layers), ReadoutSpec(task=task, head=head))


def _weights(model: GnnModel) -> list[np.ndarray]:
    """Parameter list: one entry per propagation step, then the head."""
    return [s.weight for s in model.steps] + [model.readout.head]


def _views(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """flat's last axis cut into views shaped like the arrays of like, in
    order: (..., P) into (..., *like[k].shape)."""
    offsets = np.cumsum([w.size for w in like])[:-1]
    return [part.reshape(flat.shape[:-1] + w.shape)
            for part, w in zip(np.split(flat, offsets, axis=-1), like)]


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
    # the max class by class (a max is exact in any order): numpy reduces a
    # short last axis row by row, which costs more than the rest of this
    top = logits[..., 0]
    for c in range(1, logits.shape[-1]):
        top = np.maximum(top, logits[..., c])
    e = np.exp(logits - top[..., None])
    return e / e.sum(axis=-1, keepdims=True)


class GraphGroup:
    """The graphs of a batch that share a node count M, stacked once: node
    rows as (B, M, N) arrays, which forward runs on as it runs on a Graph.

    Lambda follows the node count as a graph's products do
    (dense_products): at or below DENSE_NODES a (B, M, M) stack, each
    graph densified into its own slice (Graph.densify_into, no per-graph
    copy), so numpy's stacked matmul makes each graph's own BLAS call;
    above it each graph multiplies with its own Graph.aggregate and
    aggregate_adjoint.  Each product keeps the per-graph operation of a
    forward pass, so a pass gives every graph the same bits as forward on
    it alone.
    """

    def __init__(self, model: GnnModel, graphs: list[Graph], positions: list[int]):
        self.positions = np.asarray(positions)
        self.features = np.stack([g.features for g in graphs])
        b, m, _ = self.features.shape
        self.graphs = graphs
        self.lam = None
        if dense_products(m):
            self.lam = np.zeros((b, m, m))
            for lam, g in zip(self.lam, graphs):
                g.densify_into(lam)
        # every model's first step mixes over Lambda, and its input is fixed
        self.first = self._product(self.features, adjoint=False)
        shape = () if model.readout.task == "graph" else (m,)
        labels = []
        for pos, g in zip(positions, graphs):
            label = np.asarray(g.label)
            if label.dtype.kind not in "biu" or label.shape != shape:
                raise ValueError(f"graphs[{pos}]: a {model.readout.task}-task label must "
                                 f"hold integers or booleans of shape {shape}, "
                                 f"got {reprlib.repr(g.label)}")
            labels.append(label.astype(int))
        self.labels = np.stack(labels)
        if np.any((self.labels < 0) | (self.labels >= model.num_classes)):
            raise ValueError(f"labels must lie in 0..{model.num_classes - 1}")
        # where each label's logit sits in the flattened logits
        self.label_index = np.arange(self.labels.size) * model.num_classes + self.labels.ravel()

    def _product(self, h: np.ndarray, adjoint: bool) -> np.ndarray:
        if self.lam is None:
            product = Graph.aggregate_adjoint if adjoint else Graph.aggregate
            return np.stack([product(g, x) for g, x in zip(self.graphs, h)])
        return np.matmul(self.lam if adjoint else self.lam.transpose(0, 2, 1), h)

    def aggregate(self, h: np.ndarray) -> np.ndarray:
        """Lambda^T h for every graph; for the features it is computed once."""
        return self.first if h is self.features else self._product(h, adjoint=False)

    def aggregate_adjoint(self, g: np.ndarray) -> np.ndarray:
        """Lambda g for every graph, the adjoint of aggregate."""
        return self._product(g, adjoint=True)

    def hits(self, logits: np.ndarray) -> int:
        """Correct predictions: one per graph, or one per node."""
        return int((logits.argmax(axis=-1) == self.labels).sum())

    def loss_grads(self, model: GnnModel, losses: np.ndarray,
                   per_graph: list[np.ndarray]) -> int:
        """One forward and backward pass.  Writes each graph's loss into
        losses and its gradients into per_graph at the graph's position in
        the batch, and returns the number of correct predictions.

        Node-task graphs average the cross entropy over their nodes.
        """
        acts = forward(model, self)
        pos = self.positions
        steps = model.steps
        head = model.readout.head
        dlogits = _softmax(acts.logits)
        flat = dlogits.reshape(-1)
        picked = flat[self.label_index].reshape(self.labels.shape)
        flat[self.label_index] -= 1.0
        if model.readout.task == "graph":
            losses[pos] = -np.log(np.maximum(picked, 1e-300))
            per_graph[-1][pos] = acts.pooled[:, :, None] * dlogits[:, None, :]
            # one gemv per graph, as head @ dlogits; the same for every node
            dh = np.matmul(head, dlogits[:, :, None]).reshape(pos.size, 1, -1)
        else:
            m = self.features.shape[1]
            losses[pos] = -np.log(np.maximum(picked, 1e-300)).mean(axis=1)
            dlogits /= m
            per_graph[-1][pos] = np.matmul(acts.hidden[-1].transpose(0, 2, 1), dlogits)
            dh = np.matmul(dlogits, head.T)

        for s in range(len(steps) - 1, -1, -1):
            dpre = dh * (acts.hidden[s + 1] > 0)
            per_graph[s][pos] = np.matmul(acts.aggregated[s].transpose(0, 2, 1), dpre)
            if s == 0:
                break       # no parameter lies below the first step
            dz = np.matmul(dpre, steps[s].weight.T)
            # z = Lambda^T h, so dh = Lambda dz
            dh = self.aggregate_adjoint(dz) if steps[s].uses_adjacency else dz
        return self.hits(acts.logits)


class Batch:
    """The graphs of a training set, grouped by node count and stacked
    once, for any number of passes over changing weights."""

    def __init__(self, model: GnnModel, graphs: list[Graph]):
        if not graphs:
            raise ValueError("a batch needs at least one graph")
        for g in graphs:
            if g.features.shape[1] != model.in_dim:
                raise ShapeError(f"graph features dim {g.features.shape[1]} "
                                 f"!= model input {model.in_dim}")
        keys: dict[int, list[int]] = {}
        for i, g in enumerate(graphs):
            keys.setdefault(g.num_nodes, []).append(i)
        self.groups = [GraphGroup(model, [graphs[i] for i in idx], idx)
                       for idx in keys.values()]
        self.size = len(graphs)
        self.predictions = (self.size if model.readout.task == "graph"
                            else sum(g.num_nodes for g in graphs))
        # each pass's per-graph losses and flat gradients, in list order
        like = _weights(model)
        self.losses = np.empty(self.size)
        self.per_graph = np.empty((self.size, sum(w.size for w in like)))
        self.per_graph_views = _views(self.per_graph, like)

    def loss_grads(self, model: GnnModel, grad: np.ndarray) -> tuple[float, float]:
        """Mean loss and accuracy of one pass; writes the mean gradient into
        grad, all weights' flat one after another."""
        hits = sum(group.loss_grads(model, self.losses, self.per_graph_views)
                   for group in self.groups)
        # adds the graphs one at a time in list order, like grad += one graph's
        np.add.reduce(self.per_graph, axis=0, out=grad)
        grad /= self.size
        total = 0.0
        for loss in self.losses.tolist():
            total += loss       # in list order: sum() compensates from Python 3.12
        return total / self.size, hits / self.predictions


def train(model: GnnModel, graphs: list[Graph], config: TrainConfig) -> TrainResult:
    """Full-batch gradient descent; raises TrainingError on divergence.

    The weights live in one flat buffer, updated in place, and the
    returned model is built once over views of it; one stacked pass over
    the batch per epoch gives its loss and gradients.
    """
    batch = Batch(model, graphs)
    start = _weights(model)
    flat = np.concatenate([w.ravel() for w in start])
    grad = np.empty_like(flat)
    result = TrainResult(_rebuild(model, _views(flat, start)))
    # an overflow ends in a non-finite loss or weight, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            loss, acc = batch.loss_grads(result.model, grad)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            flat -= config.lr_at(epoch) * grad
            result.losses.append(loss)
            result.accuracies.append(acc)
    # a non-finite weight stays non-finite, so one check covers every epoch
    if not np.all(np.isfinite(flat)):
        raise TrainingError(f"non-finite weights after epoch {config.epochs - 1}")
    return result


def accuracy(model: GnnModel, graphs: list[Graph]) -> float:
    batch = Batch(model, graphs)
    hits = sum(group.hits(forward(model, group).logits) for group in batch.groups)
    return hits / batch.predictions
