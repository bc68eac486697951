"""Ground-truth walk relevances and exhaustive top-K enumeration.

This is the brute-force reference every fast search is tested against:
straight-line products over the transition tensors, depth-first
enumeration of the full walk space, full sort.  Kept deliberately
simple and independent of the message-passing code paths.  The dense
transition tensors live only here (dense_tensor, over each step's
Graph.adjacency); the propagation stack itself stays factorized and
holds Lambda only at its edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import BudgetError, ParameterError, PropagationStack

DEFAULT_ENUM_BUDGET = 10 ** 8


@dataclass(frozen=True)
class ScoredWalk:
    """A node sequence (optionally refined by neurons) with its relevance."""

    nodes: tuple[int, ...]
    relevance: float
    neurons: tuple[int, ...] | None = None

    def to_record(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "neurons": None if self.neurons is None else list(self.neurons),
            "relevance": self.relevance,
        }


def dense_tensor(stack: PropagationStack, l: int) -> np.ndarray:
    """Full 4-index tensor T^(l), shape (M, N_l, M, N_{l+1}), by one dense
    einsum over the stack's factors: O(M^2 N_l N_{l+1}) time and memory."""
    num = np.einsum("ma,mn,nb->mnab", stack.lams[l].adjacency, stack.hidden[l], stack.wups[l])
    return num * stack.inverse_denominators[l][None, None, :, :]


def _check_indices(stack: PropagationStack, nodes, neurons=None) -> None:
    if len(nodes) != stack.num_steps + 1:
        raise ParameterError(
            f"walk length {len(nodes)} != {stack.num_steps + 1}"
        )
    m = stack.num_nodes
    if any(not 0 <= v < m for v in nodes):
        raise ParameterError(f"node index out of range in {nodes}")
    if neurons is not None:
        dims = stack.dims
        if len(neurons) != len(nodes):
            raise ParameterError("neuron sequence length must match node sequence")
        if any(not 0 <= n < dims[l] for l, n in enumerate(neurons)):
            raise ParameterError(f"neuron index out of range in {neurons}")


def neuron_walk_relevance(stack: PropagationStack, nodes, neurons) -> float:
    """Signed relevance of one neuron-level walk: product of T entries times r."""
    _check_indices(stack, nodes, neurons)
    value = 1.0
    for l in range(stack.num_steps):
        value *= stack.entry(l, nodes[l], neurons[l], nodes[l + 1], neurons[l + 1])
        if value == 0.0:
            return 0.0
    return value * stack.output_relevance[nodes[-1], neurons[-1]]


def node_walk_relevance(stack: PropagationStack, nodes) -> float:
    """Signed relevance of one node-level walk: matrix-chain product summed over neurons."""
    _check_indices(stack, nodes)
    v = stack.output_relevance[nodes[-1]].copy()
    for l in range(stack.num_steps - 1, -1, -1):
        v = stack.slice(l, nodes[l], nodes[l + 1]) @ v
    return float(v.sum())


def exhaustive_topk_node(
    stack: PropagationStack,
    k: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> list[ScoredWalk]:
    """Enumerate every node-level walk, score it exactly, return the top k
    by signed relevance.

    Depth-first over m_0 outermost; ties resolved lexicographically on the
    node sequence.
    """
    m = stack.num_nodes
    total = m ** (stack.num_steps + 1)
    if total > budget:
        raise BudgetError(f"{total} node walks exceed enumeration budget {budget}")
    steps = stack.num_steps
    prefix = [0] * (steps + 1)
    relevances = np.empty(total)
    pos = 0

    # last-step contraction precomputed once: V[m, n, m'] = sum_n' T[m,n,m',n'] r[m',n']
    last = dense_tensor(stack, steps - 1)
    v_last = np.einsum("anbm,bm->anb", last, stack.output_relevance)

    def walk_step(l: int, u: np.ndarray | None):
        # u is the running row vector of the prefix, None once it is all zero
        nonlocal pos
        if l == steps:
            relevances[pos:pos + m] = 0.0 if u is None else u @ v_last[prefix[l - 1]]
            pos += m
            return
        for ml in range(m):
            prefix[l] = ml
            nxt = None
            if u is not None:
                nxt = u @ stack.slice(l - 1, prefix[l - 1], ml)
                if not nxt.any():
                    nxt = None
            walk_step(l + 1, nxt)

    # the running row vector starts as all-ones over N^(0) (sums over n_0)
    ones = np.ones(stack.dims[0])
    for m0 in range(m):
        prefix[0] = m0
        walk_step(1, ones)

    order = np.argsort(-relevances, kind="stable")[:k]
    out = []
    for flat in order:
        nodes = []
        rest = int(flat)
        for _ in range(steps + 1):
            rest, ml = divmod(rest, m)
            nodes.append(ml)
        nodes.reverse()
        out.append(ScoredWalk(tuple(nodes), float(relevances[flat])))
    return out


def exhaustive_topk_neuron(
    stack: PropagationStack,
    k: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> list[ScoredWalk]:
    """Enumerate every neuron-level walk and return the top k by absolute
    relevance (the order EMP-neu extracts in).

    Ties resolved lexicographically on the interleaved (m, n) sequence.
    """
    m = stack.num_nodes
    dims = stack.dims
    total = 1
    for d in dims:
        total *= m * d
    if total > budget:
        raise BudgetError(f"{total} neuron walks exceed enumeration budget {budget}")
    steps = stack.num_steps

    # Outer-product expansion: acc holds the partial product for every
    # (m_0, n_0, ..., m_l, n_l) prefix, flattened to m * dims[l] per layer.
    sizes = [m * d for d in dims]
    acc = np.ones(sizes[0])
    for l in range(steps):
        a = dense_tensor(stack, l).reshape(sizes[l], sizes[l + 1])
        acc = acc[..., None] * a.reshape((1,) * l + (sizes[l], sizes[l + 1]))
    acc = acc * stack.output_relevance.reshape(sizes[-1])
    flat = acc.reshape(-1)

    order = np.argsort(-np.abs(flat), kind="stable")[:k]
    out = []
    for idx in order:
        pairs = []
        rest = int(idx)
        for l in range(steps, -1, -1):
            rest, p = divmod(rest, sizes[l])
            pairs.append(divmod(p, dims[l]))
        pairs.reverse()
        nodes = tuple(p[0] for p in pairs)
        neurons = tuple(p[1] for p in pairs)
        out.append(ScoredWalk(nodes, float(flat[idx]), neurons))
    return out
