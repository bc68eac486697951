"""Shared test utilities: random instance builders, the hand-built and
dense reference stacks, a per-graph reference trainer, the trainer's
batch gradients with their finite-difference reference, the infection
scenario's Monte-Carlo oracle, and tie-aware top-K list comparison.

Mathematically tied walks are common (symmetric motifs, activation and
denominator cancellations).  The enumeration oracle and the message
passing searches accumulate their float products in different orders, so
tied relevances can differ in the last few ulps and the lexicographic
tie-break sees them as distinct.  Top-K lists are therefore compared per
value-tie group: values must agree within tolerance position by
position, and the walks inside each group must form the same set (the
group cut at the list boundary is checked by inclusion).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from relwalk import (
    GammaSchedule,
    Graph,
    GnnModel,
    InfectionScenario,
    LayerSpec,
    PropagationStack,
    ReadoutSpec,
    build_propagation,
    dense_tensor,
    forward,
    init_model,
    predicted_target,
    random_graph,
)
from relwalk.datasets import _simulate_si
from relwalk.propagation import EPS_STAB
from relwalk.training import Batch, _rebuild, _views, _weights


def random_instance(
    m: int = 6,
    dims: tuple[int, ...] = (3, 3, 3, 3),
    seed: int = 0,
    gamma: float = 1.0,
    task: str = "graph",
    target: int | None = None,
    edge_prob: float = 0.6,
    schedule: GammaSchedule | None = None,
    positive_weights: bool = False,
    weighted: bool = False,
):
    """Seeded random GCN + graph + propagation stack for search tests.

    Weights and features are shifted positive-ward so the network is not
    dead and relevances carry both signs.  weighted scales Lambda's
    entries with scale_edges; weights and features stay the same.
    """
    rng = np.random.default_rng(seed)
    graph = random_graph(m, dims[0], edge_prob, rng)
    if weighted:
        graph = Graph(scale_edges(graph.adjacency, seed), graph.features, graph.label)

    def weight(shape):
        w = rng.normal(size=shape) * 0.8 + 0.3
        return np.abs(w) if positive_weights else w

    layers = tuple(
        LayerSpec(weight((dims[i], dims[i + 1]))) for i in range(len(dims) - 1)
    )
    model = GnnModel(layers, ReadoutSpec(task=task))
    acts = forward(model, graph)
    if schedule is None:
        schedule = GammaSchedule.constant(gamma, model.num_steps)
    if target is None:
        target = predicted_target(model, acts) if task == "graph" else 0
    stack = build_propagation(model, graph, acts, schedule, target)
    return model, graph, acts, stack


def scale_edges(adjacency, seed):
    """adjacency with each entry scaled by a seeded factor in [0.5, 1.5):
    the same edges, but a Lambda whose values are not all 1."""
    return adjacency * np.random.default_rng(seed).uniform(0.5, 1.5, adjacency.shape)


def stack_from_factors(lambdas, hidden, wups, output_relevance):
    """PropagationStack built by hand from its factors, independently of
    build_propagation: lams[l] is Graph(Lam^(l), H^(l)), read off the
    dense matrix; the inverse denominators are the guarded
    1 / ((Lam^T H) W_up)."""
    inverse = []
    for lam, h, w in zip(lambdas, hidden, wups):
        den = (lam.T @ h) @ w
        with np.errstate(divide="ignore", over="ignore"):
            inverse.append(np.where(np.abs(den) >= EPS_STAB, 1.0 / den, 0.0))
    return PropagationStack([Graph(lam, h) for lam, h in zip(lambdas, hidden)],
                            hidden, wups, inverse, output_relevance)


def dense_slices(stack):
    """Shallow copy of stack whose slice and entry read the dense oracle
    tensors (dense_tensor) instead of the factors: the reference side of
    the factorized/dense parity tests."""
    tensors = [dense_tensor(stack, l) for l in range(stack.num_steps)]
    dense = copy.copy(stack)
    dense.slice = lambda l, m, mp: tensors[l][m, :, mp, :]
    dense.entry = lambda l, m, n, mp, np_: float(tensors[l][m, n, mp, np_])
    return dense


def headed_instance(adjacency, seed, weighted=False, dims=(3, 3, 3, 3)):
    """Random GCN with a linear head, so R^(L) carries both signs.
    weighted scales the adjacency's entries with scale_edges."""
    rng = np.random.default_rng(seed)
    if weighted:
        adjacency = scale_edges(adjacency, seed)
    graph = Graph(adjacency, rng.random((len(adjacency), dims[0])) + 0.1, 0)
    model = init_model(list(dims), 2, seed=seed)
    acts = forward(model, graph)
    return build_propagation(model, graph, acts,
                             GammaSchedule.constant(1.0, model.num_steps),
                             predicted_target(model, acts))


def sink_adjacency():
    """Directed, no self loops: 2 is a sink (its row of Lambda is empty) and
    3 only leads to 2, so in a three-step walk 2 can only be the last node
    and 3 the one before it."""
    adjacency = np.zeros((4, 4))
    for a, b in [(0, 1), (1, 0), (1, 3), (3, 2)]:
        adjacency[a, b] = 1.0
    return adjacency


def reference_loss_grads(model, graphs):
    """Mean loss, gradients (one per step, then the head) and accuracy of
    a batch, one graph at a time on forward and Graph.aggregate_adjoint:
    the reference for the trainer's stacked pass, which must match it bit
    for bit.  Losses and gradients are summed in list order."""
    head = model.readout.head
    total = 0.0
    grads = [np.zeros_like(s.weight) for s in model.steps] + [np.zeros_like(head)]
    correct = count = 0
    for graph in graphs:
        acts = forward(model, graph)
        e = np.exp(acts.logits - acts.logits.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        dlogits = probs.copy()
        if model.readout.task == "graph":
            label = int(graph.label)
            loss = -np.log(max(probs[label], 1e-300))
            dlogits[label] -= 1.0
            d_head = np.outer(acts.pooled, dlogits)
            dh = head @ dlogits
            correct += int(np.argmax(acts.logits) == label)
            count += 1
        else:
            labels = np.asarray(graph.label).astype(int)
            m = graph.num_nodes
            loss = -np.log(np.maximum(probs[np.arange(m), labels], 1e-300)).mean()
            dlogits[np.arange(m), labels] -= 1.0
            dlogits /= m
            d_head = acts.hidden[-1].T @ dlogits
            dh = dlogits @ head.T
            correct += int((np.argmax(acts.logits, axis=1) == labels).sum())
            count += m
        d_steps = [None] * model.num_steps
        for s in range(model.num_steps - 1, -1, -1):
            dpre = dh * (acts.hidden[s + 1] > 0)
            d_steps[s] = acts.aggregated[s].T @ dpre
            if s > 0:
                dz = dpre @ model.steps[s].weight.T
                dh = graph.aggregate_adjoint(dz) if model.steps[s].uses_adjacency else dz
        total += float(loss)
        for acc, d in zip(grads, d_steps + [d_head]):
            acc += d
    n = len(graphs)
    return total / n, [d / n for d in grads], correct / count


def reference_train(model, graphs, config):
    """(weights, losses, accuracies) of train's gradient descent, with
    reference_loss_grads for every epoch; weights one per step, then the
    head."""
    weights = [s.weight.copy() for s in model.steps] + [model.readout.head.copy()]
    losses, accuracies = [], []
    for epoch in range(config.epochs):
        it = iter(weights)
        layers = tuple(LayerSpec(next(it), None if layer.hidden_weight is None else next(it))
                       for layer in model.layers)
        current = GnnModel(layers, ReadoutSpec(model.readout.task, weights[-1]))
        loss, grads, acc = reference_loss_grads(current, graphs)
        lr = config.lr_at(epoch)
        for w, g in zip(weights, grads):
            w -= lr * g
        losses.append(loss)
        accuracies.append(acc)
    return weights, losses, accuracies


def batch_loss_grads(model, graphs):
    """Mean loss, gradients (one per step, then the head) and accuracy of
    one stacked pass of the trainer's Batch."""
    like = _weights(model)
    grad = np.empty(sum(w.size for w in like))
    loss, acc = Batch(model, graphs).loss_grads(model, grad)
    return loss, _views(grad, like), acc


def numeric_gradients(model, graphs, h: float = 1e-6):
    """Central finite differences of the batch loss, parameter by parameter."""
    batch = Batch(model, graphs)
    weights = [w.copy() for w in _weights(model)]
    # perturbing a weight in place perturbs this model's weight
    perturbed = _rebuild(model, weights)
    unused = np.empty(sum(w.size for w in weights))
    grads = []
    for w in weights:
        g = np.zeros_like(w)
        for pos in np.ndindex(*w.shape):
            orig = w[pos]
            w[pos] = orig + h
            hi, _ = batch.loss_grads(perturbed, unused)
            w[pos] = orig - h
            lo, _ = batch.loss_grads(perturbed, unused)
            w[pos] = orig
            g[pos] = (hi - lo) / (2 * h)
        grads.append(g)
    return grads


@dataclass
class OracleEstimate:
    """Monte-Carlo infection and chain probabilities from Q re-simulations."""

    infection_prob: np.ndarray            # x(m) / Q per node
    chain_prob: dict[tuple[int, ...], float]
    q: int


def oracle_estimate(scenario: InfectionScenario, q: int, seed: int = 1) -> OracleEstimate:
    """Re-simulate q times on the scenario's fixed graph and carriers.

    Each replicate derives its own seed deterministically from `seed`.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    # the nonzeros of Lambda - I, read off the CSR arrays: a unit self-loop
    # (added by the Lambda modification) drops out, a listed [i, i] stays
    graph = scenario.graph
    rows, cols = graph.edge_index
    keep = graph.csr[2] != (rows == cols)
    rows, cols = rows[keep], cols[keep]
    out_neighbors = np.split(cols, np.searchsorted(rows, np.arange(1, graph.num_nodes)))
    x = np.zeros(graph.num_nodes)
    y: dict[tuple[int, ...], int] = {}
    root = np.random.SeedSequence(seed)
    for child in root.spawn(q):
        rng = np.random.default_rng(child)
        infected, chains = _simulate_si(
            out_neighbors, scenario.carriers, scenario.lam, scenario.steps, rng
        )
        x += infected
        for chain in chains.values():
            key = tuple(chain)
            y[key] = y.get(key, 0) + 1
    return OracleEstimate(x / q, {c: cnt / q for c, cnt in y.items()}, q)


def tie_groups(walks, tol: float, key=lambda w: abs(w.relevance)):
    """Split a descending-sorted walk list into runs of equal-within-tol values."""
    groups = []
    for w in walks:
        if groups and abs(key(w) - key(groups[-1][0])) <= tol:
            groups[-1].append(w)
        else:
            groups.append([w])
    return groups


def assert_topk_equivalent(found, expected, tol=1e-10, absolute=True):
    """found and expected are top-K lists of ScoredWalk, same length.

    Checks per-position value agreement (signed and in magnitude),
    distinctness, and per-tie-group set equality.  The final group is cut
    by the K boundary, so set equality cannot be demanded there; since
    both lists report exact per-walk relevances, the per-position value
    check already certifies every boundary member belongs to the tie.
    """
    assert len(found) == len(expected), (len(found), len(expected))
    key = (lambda w: abs(w.relevance)) if absolute else (lambda w: w.relevance)
    for f, e in zip(found, expected):
        assert abs(key(f) - key(e)) <= tol, (f, e)
        # signed values must agree too, not only magnitudes
        assert abs(f.relevance - e.relevance) <= tol, (f, e)
    assert len({(w.nodes, w.neurons) for w in found}) == len(found), "duplicate walks"
    fg = tie_groups(found, tol, key)
    eg = tie_groups(expected, tol, key)
    assert [len(g) for g in fg] == [len(g) for g in eg]
    for i, (group_f, group_e) in enumerate(zip(fg[:-1], eg[:-1])):
        ids_f = {(w.nodes, w.neurons) for w in group_f}
        ids_e = {(w.nodes, w.neurons) for w in group_e}
        assert ids_f == ids_e, (i, ids_f ^ ids_e)
