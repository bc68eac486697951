"""Approximate top-K node-level walk search by averaging (AMP-ave).

A walk is a node sequence m_0 .. m_L with Lambda^(l)[m_l, m_{l+1}] != 0
at every step; any other sequence has relevance exactly 0 and is never
returned.  The search further keeps only walks that end on the support
of R^(L), the nodes whose output relevance row is nonzero (on a node
task, the target alone): a walk ending anywhere else has relevance
exactly 0 too.  The node-level argmax marginalizes over neurons, which
breaks the max-product decomposition; the averaging approximation picks,
at each layer, the edge continuation maximizing the neuron-marginalized
step objective.  The messages start from the signed output relevance
R^(L) and no absolute values are applied anywhere, so the greedy
completions chase large positive relevance, the same sign as the walks
the search keeps, and each message is the exact relevance vector of its
completion.  Reported relevances are always exact node-level values of
the returned walks.  The top-K walks come from the splitting engine
shared with EMP-neu (splitting.py), which ranks each subset by the exact
relevance of its representative and reports the same counters.

The step objective factorizes over {Lambda, H, Wup}, the propagation
stack's only representation, so no dense transition tensor is ever
built, which is what makes the search feasible at large graph sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .oracle import ScoredWalk, node_walk_relevance
from .propagation import PropagationStack
from .splitting import SplitResult, split_topk

# entries masked at once when re-running a row argmax over edges only; on
# graphs where many rows need it, whole-row copies raise peak memory (by
# 25 MiB on a 4000-node graph with ~1,200 such rows per step)
_MASK_BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class NodeMessageTable:
    """Signed node-level messages, edge-restricted argmax steps, and per-step
    objective matrices.

    step[l] maps each node at layer l to its chosen node at layer l + 1:
    the first maximizer of objective[l] over the continuations m' with
    Lambda^(l)[m, m'] != 0 whose own completion follows edges.
    objective[l][m, m'] is the neuron-marginalized step value from node m
    at layer l to m' at l + 1 (unmasked).  mu[l] has shape (M, N_l):
    mu[l][m] is the exact relevance vector of the greedy completion
    backtracked from node m at layer l, so mu[0][m].sum() is the exact
    relevance of the walk backtracked from m.  scaled[l] is mu[l + 1]
    times the guarded inverse denominators of step l, the factor that
    step l applies to it.  complete[l][m] says whether the completion
    from m at layer l follows edges and ends on R^(L)'s support (False
    only where no such continuation exists; mu[l][m] is then 0).
    complete[-1] is that support itself: the nodes whose row of R^(L) is
    nonzero, so the last node of every completion carries relevance.
    """

    mu: tuple[np.ndarray, ...]
    step: tuple[np.ndarray, ...]
    objective: tuple[np.ndarray, ...]
    scaled: tuple[np.ndarray, ...]
    complete: tuple[np.ndarray, ...]


def step_objective_matrix(stack: PropagationStack, l: int, mu_next: np.ndarray) -> np.ndarray:
    """All-pairs step objective sum_{n_l, n_{l+1}} T^(l)[m,:,m',:] mu_next[m'].

    Computed from the factorized pieces; equal to contracting the dense
    tensor of oracle.dense_tensor.
    """
    q = mu_next * stack.inverse_denominators[l]  # (M, N_{l+1})
    return stack.lambdas[l] * ((stack.hidden[l] @ stack.wups[l]) @ q.T)


def _edge_argmax(obj: np.ndarray, lam: np.ndarray, complete_next: np.ndarray) -> np.ndarray:
    """First maximizer of each row of obj over the continuations m' with
    lam[m, m'] != 0 and complete_next[m'].

    The plain row argmax stands wherever it lands on such a continuation;
    only the remaining rows are recomputed, a block of rows at a time, so
    no M x M mask is built.  On an all-zero row the first allowed
    continuation is the first maximizer, so only rows holding a nonzero
    value are re-run with the rest masked out.
    """
    chosen = np.argmax(obj, axis=1)
    rows = np.flatnonzero((lam[np.arange(len(chosen)), chosen] == 0)
                          | ~complete_next[chosen])
    block = max(1, _MASK_BLOCK_ENTRIES // len(chosen))
    for start in range(0, rows.size, block):
        sel = rows[start:start + block]
        allowed = (lam[sel] != 0) & complete_next
        values = obj[sel]
        live = values.any(axis=1)
        fixed = np.argmax(allowed, axis=1)
        if live.any():
            fixed[live] = np.argmax(np.where(allowed[live], values[live], -np.inf), axis=1)
        chosen[sel] = fixed
    return chosen


def build_node_message_table(stack: PropagationStack) -> NodeMessageTable:
    rows = np.arange(stack.num_nodes)
    mu = [None] * (stack.num_steps + 1)
    step = [None] * stack.num_steps
    objective = [None] * stack.num_steps
    scaled = [None] * stack.num_steps
    complete = [None] * (stack.num_steps + 1)
    mu[-1] = stack.output_relevance
    complete[-1] = np.any(stack.output_relevance != 0, axis=1)
    for l in range(stack.num_steps - 1, -1, -1):
        objective[l] = step_objective_matrix(stack, l, mu[l + 1])
        lam = stack.lambdas[l]
        step[l] = chosen = _edge_argmax(objective[l], lam, complete[l + 1])
        lam_sel = lam[rows, chosen]
        complete[l] = (lam_sel != 0) & complete[l + 1][chosen]
        scaled[l] = mu[l + 1] * stack.inverse_denominators[l]   # (M, N_{l+1})
        wq = scaled[l] @ stack.wups[l].T            # (M, N_l)
        mu[l] = lam_sel[:, None] * stack.hidden[l] * wq[chosen]
    return NodeMessageTable(tuple(mu), tuple(step), tuple(objective), tuple(scaled),
                            tuple(complete))


def _backtrack(table: NodeMessageTable, layer: int, node: int) -> list[int]:
    nodes = [node]
    for l in range(layer, len(table.step)):
        node = int(table.step[l][node])
        nodes.append(node)
    return nodes


def amp_ave_basic(stack: PropagationStack) -> ScoredWalk | None:
    """Approximately most relevant node-level walk (exact reported relevance).

    This is the representative of the whole walk space, so it equals the
    first extraction of amp_ave_topk.
    """
    table = build_node_message_table(stack)
    if not np.any(table.mu[0].sum(axis=1) != 0):
        return None
    relevance, nodes, _ = _constrained_best(stack, table, (), frozenset())
    return ScoredWalk(nodes, relevance)


def _constrained_best(stack: PropagationStack, table: NodeMessageTable,
                      prefix: tuple[int, ...], excluded: frozenset[int],
                      ) -> tuple[float, tuple[int, ...] | None, int]:
    """Representative walk of a subset: for every allowed node at the free
    position, complete the walk greedily along the message-table argmax
    steps, score each completion exactly, and keep the best.

    Returns (exact relevance, walk or None, candidates scanned).  Allowed
    nodes are those not excluded, reached from the last prefix node by an
    edge (Lambda != 0), and with a completion that follows edges and ends
    on R^(L)'s support, so every representative is such a walk; the walk
    is None once the subset holds none.  Scoring all free-position
    candidates (rather than only the single surrogate-argmax one) keeps
    the approximate search from burying high-relevance walks behind weak
    representatives.
    """
    i = len(prefix)
    allowed = table.complete[i]
    if i == 0:
        scores = table.mu[0].sum(axis=1)
    else:
        # fold the prefix chain into a single row vector, then score all
        # candidates at the free position in one vectorized step
        row = np.ones(stack.dims[0])
        for l in range(i - 1):
            row = row @ stack.slice(l, prefix[l], prefix[l + 1])
        p = prefix[-1]
        contrib = (row * stack.hidden[i - 1][p]) @ stack.wups[i - 1]  # (N_i,)
        lam = stack.lambdas[i - 1][p]
        scores = lam * (table.scaled[i - 1] @ contrib)
        allowed = allowed & (lam != 0)
    scores = np.where(allowed, scores, -np.inf)
    if excluded:
        scores[list(excluded)] = -np.inf
    j = int(np.argmax(scores))
    if scores[j] == -np.inf:
        return 0.0, None, scores.shape[0]
    nodes = prefix + tuple(_backtrack(table, i, j))
    return node_walk_relevance(stack, nodes), nodes, scores.shape[0]


def amp_ave_topk(
    stack: PropagationStack,
    k: int,
    max_k_tilde: int | None = None,
) -> SplitResult:
    """Top-k positive node-level walks via splitting search.

    Subset bests are ranked by their exact recomputed relevance; K-tilde
    grows one extraction at a time until k positive walks are collected,
    max_k_tilde extractions are made, or the search space runs out.  Only
    walks that follow edges (Lambda != 0 at every step) and end on R^(L)'s
    support are extracted, so k_tilde never exceeds their number, and
    exhausted means that every such walk was extracted; every walk outside
    that space has relevance exactly 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    table = build_node_message_table(stack)
    return split_topk(partial(_constrained_best, stack, table), ScoredWalk, k, max_k_tilde)


def walks_to_edge_scores(walks: list[ScoredWalk]) -> dict[tuple[int, int], float]:
    """Edge score = highest relevance among walks traversing the edge."""
    if not walks:
        raise ValueError("walks must be nonempty")
    scores: dict[tuple[int, int], float] = {}
    for w in walks:
        for a, b in zip(w.nodes, w.nodes[1:]):
            edge = (a, b)
            if edge not in scores or w.relevance > scores[edge]:
                scores[edge] = w.relevance
    return scores
