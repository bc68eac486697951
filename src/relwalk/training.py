"""Plain full-batch gradient-descent training for the GNN models.

Softmax cross-entropy loss, Glorot-uniform initialization, learning rate
decayed as base / (1 + epoch / epochs).  The ReLU subgradient at zero is
taken as zero.  Gradients are fully analytic; `numeric_gradients` gives a
finite-difference reference for testing.  A `Batch` stacks the training
graphs once, so each epoch is one forward and backward pass over the
whole batch, with the same bits as a pass per graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import (Activations, Graph, GnnModel, LayerSpec, ReadoutSpec, ShapeError,
                     dense_products)


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss or weights)."""


@dataclass
class TrainConfig:
    epochs: int = 500
    lr: float = 0.05
    lr_schedule: str = "decay"    # "decay": lr/(1 + epoch/epochs); "constant"
    # train never reads it: full-batch descent from a given model draws
    # nothing at random.  It stays while perfbench's workloads pass seed=.
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


def _block_diagonal(graphs: list[Graph], features: np.ndarray) -> Graph:
    """One CSR graph holding the graphs' Lambdas on its diagonal, in order."""
    indptr, indices, data = [np.zeros(1, dtype=np.intp)], [], []
    nodes = edges = 0
    for g in graphs:
        ptr, idx, values = g.csr
        indptr.append(ptr[1:] + edges)
        indices.append(idx + nodes)
        data.append(values)
        nodes += g.num_nodes
        edges += idx.size
    return Graph.from_csr(np.concatenate(indptr), np.concatenate(indices),
                          np.concatenate(data), features)


class GraphGroup:
    """The graphs of a batch that share a node count M, stacked once: node
    rows as (B, M, N) arrays.

    Lambda follows the node count as a graph's products do
    (dense_products): a (B, M, M) stack scattered from each graph's CSR
    arrays, so numpy's stacked matmul makes each graph's own BLAS call, or
    one block-diagonal CSR graph, whose segment sum adds each node's edges
    in the same order as the graph's own.  Each product keeps the per-graph
    operation of a forward pass, so a pass gives every graph the same bits
    as forward on it alone.
    """

    def __init__(self, model: GnnModel, graphs: list[Graph], positions: list[int]):
        self.task = model.readout.task
        self.mixes = [s.uses_adjacency for s in model.steps]
        self.positions = np.asarray(positions)
        self.features = np.stack([g.features for g in graphs])
        b, m, n = self.features.shape
        if dense_products(m):
            self.lam = np.zeros((b, m, m))
            for lam, g in zip(self.lam, graphs):
                lam[g.edge_index] = g.csr[2]
        else:
            self.lam = _block_diagonal(graphs, self.features.reshape(b * m, n))
        # every model's first step mixes over Lambda, and its input is fixed
        self.first = self.aggregate(self.features)
        if self.task == "graph":
            self.labels = np.array([int(g.label) for g in graphs])
        else:
            labels = [np.asarray(g.label).astype(int).reshape(-1) for g in graphs]
            if any(lab.shape != (m,) for lab in labels):
                raise ShapeError(f"a node-task graph needs one label per node ({m})")
            self.labels = np.stack(labels)
        if np.any((self.labels < 0) | (self.labels >= model.num_classes)):
            raise ValueError(f"labels must lie in 0..{model.num_classes - 1}")
        # where each label's logit sits in the flattened logits
        self.label_index = np.arange(self.labels.size) * model.num_classes + self.labels.ravel()

    def aggregate(self, h: np.ndarray) -> np.ndarray:
        """Lambda^T h for every graph."""
        if isinstance(self.lam, Graph):
            return self.lam.aggregate(h.reshape(-1, h.shape[2])).reshape(h.shape)
        return np.matmul(self.lam.transpose(0, 2, 1), h)

    def aggregate_adjoint(self, g: np.ndarray) -> np.ndarray:
        """Lambda g for every graph, the adjoint of aggregate."""
        if isinstance(self.lam, Graph):
            return self.lam.aggregate_adjoint(g.reshape(-1, g.shape[2])).reshape(g.shape)
        return np.matmul(self.lam, g)

    def forward(self, weights: list[np.ndarray]) -> Activations:
        """Stacked forward pass: logits[i] is forward(model, graph i).logits."""
        h = self.features
        hidden, aggregated = [h], []
        for s, (w, mixes) in enumerate(zip(weights, self.mixes)):
            z = self.first if s == 0 else self.aggregate(h) if mixes else h
            h = np.maximum(np.matmul(z, w), 0.0)
            aggregated.append(z)
            hidden.append(h)
        head = weights[-1]
        if self.task == "graph":
            pooled = h.sum(axis=1)
            # one gemv per graph, as pooled @ head; a (B, N) gemm rounds differently
            logits = np.matmul(pooled[:, None, :], head)[:, 0]
            return Activations(tuple(hidden), tuple(aggregated), pooled, logits)
        return Activations(tuple(hidden), tuple(aggregated), None, np.matmul(h, head))

    def hits(self, logits: np.ndarray) -> int:
        """Correct predictions: one per graph, or one per node."""
        return int((logits.argmax(axis=-1) == self.labels).sum())

    def loss_grads(self, weights: list[np.ndarray], losses: np.ndarray,
                   per_graph: list[np.ndarray]) -> int:
        """One forward and backward pass.  Writes each graph's loss into
        losses and its gradients into per_graph at the graph's position in
        the batch, and returns the number of correct predictions.

        Node-task graphs average the cross entropy over their nodes.
        """
        acts = self.forward(weights)
        pos = self.positions
        head = weights[-1]
        dlogits = _softmax(acts.logits)
        flat = dlogits.reshape(-1)
        picked = flat[self.label_index].reshape(self.labels.shape)
        flat[self.label_index] -= 1.0
        if self.task == "graph":
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

        for s in range(len(weights) - 2, -1, -1):
            dpre = dh * (acts.hidden[s + 1] > 0)
            per_graph[s][pos] = np.matmul(acts.aggregated[s].transpose(0, 2, 1), dpre)
            if s == 0:
                break       # no parameter lies below the first step
            dz = np.matmul(dpre, weights[s].T)
            # z = Lambda^T h, so dh = Lambda dz
            dh = self.aggregate_adjoint(dz) if self.mixes[s] else dz
        return self.hits(acts.logits)


class Batch:
    """The graphs of a training set, grouped by node count and stacked
    once, for any number of passes over changing weights."""

    def __init__(self, model: GnnModel, graphs: list[Graph]):
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

    def loss_grads(self, weights: list[np.ndarray], grad: np.ndarray) -> tuple[float, float]:
        """Mean loss and accuracy of one pass; writes the mean gradient into
        grad, all weights' flat one after another."""
        hits = sum(group.loss_grads(weights, self.losses, self.per_graph_views)
                   for group in self.groups)
        # adds the graphs one at a time in list order, like grad += one graph's
        np.add.reduce(self.per_graph, axis=0, out=grad)
        grad /= self.size
        total = 0.0
        for loss in self.losses.tolist():
            total += loss       # in list order: sum() compensates from Python 3.12
        return total / self.size, hits / self.predictions


def batch_loss_grads(model: GnnModel, graphs: list[Graph]):
    """Mean loss and gradients over a batch, plus the accuracy."""
    weights = _weights(model)
    grad = np.empty(sum(w.size for w in weights))
    loss, acc = Batch(model, graphs).loss_grads(weights, grad)
    return loss, _views(grad, weights), acc


def numeric_gradients(model: GnnModel, graphs: list[Graph], h: float = 1e-6):
    """Central finite differences of the batch loss, parameter by parameter."""
    batch = Batch(model, graphs)
    weights = [w.copy() for w in _weights(model)]
    unused = np.empty(sum(w.size for w in weights))
    grads = []
    for w in weights:
        g = np.zeros_like(w)
        for pos in np.ndindex(*w.shape):
            orig = w[pos]
            w[pos] = orig + h
            hi, _ = batch.loss_grads(weights, unused)
            w[pos] = orig - h
            lo, _ = batch.loss_grads(weights, unused)
            w[pos] = orig
            g[pos] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


def train(model: GnnModel, graphs: list[Graph], config: TrainConfig) -> TrainResult:
    """Full-batch gradient descent; raises TrainingError on divergence.

    The weights live in one flat buffer, updated in place; one stacked
    pass over the batch per epoch gives its loss and gradients.
    """
    batch = Batch(model, graphs)
    start = _weights(model)
    flat = np.concatenate([w.ravel() for w in start])
    grad = np.empty_like(flat)
    weights = _views(flat, start)
    result = TrainResult(model)
    # an overflow ends in a non-finite loss or weight, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            loss, acc = batch.loss_grads(weights, grad)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            flat -= config.lr_at(epoch) * grad
            result.losses.append(loss)
            result.accuracies.append(acc)
    # a non-finite weight stays non-finite, so one check covers every epoch
    if not np.all(np.isfinite(flat)):
        raise TrainingError(f"non-finite weights after epoch {config.epochs - 1}")
    result.model = _rebuild(model, weights)
    return result


def accuracy(model: GnnModel, graphs: list[Graph]) -> float:
    batch = Batch(model, graphs)
    weights = _weights(model)
    hits = sum(group.hits(group.forward(weights).logits) for group in batch.groups)
    return hits / batch.predictions
