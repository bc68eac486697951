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
completion.  So a candidate's score, its folded prefix times the message
of its completion, is its walk's relevance (a product of per-step
transitions summed over neurons) and is reported as such.  The search
supplies only these candidate scores (candidate_scores); the splitting
engine shared with EMP-neu (splitting.py) picks each subset's walk,
ranks it by that relevance and reports the same counters.

The step objective factorizes over {Lambda, H, Wup}, the propagation
stack's only representation, and is maximized along each step's edge
list (stack.lams[l].edge_index) with EMP-neu's reduction
(propagation.segment_first_max), so a step costs O(E N + M N^2) time
and no dense transition tensor or M x M objective is ever built.  A
subset after a prefix scores only the successors of the prefix's last
node, read from the step's CSR rows (Graph.out_edges) as EMP-neu reads
them.

The table keeps only what the search reads: per step the scaled message,
the argmax steps and the completeness mask, plus one score per root
node.  A message is built in place in the rows it gathers and lives only
until the step before it has scaled it, so a build holds O(1) M x N
arrays beyond the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .oracle import ScoredWalk
from .propagation import PropagationStack, edge_segments, segment_first_max
from .splitting import SplitResult, split_topk


# Edges per block of the step objective: a block's (EDGE_BLOCK, N) float64
# buffer is 256 KiB at N = 16, so it stays in cache and no E x N array is
# ever gathered.
EDGE_BLOCK = 2048


@dataclass(frozen=True)
class NodeMessageTable:
    """Signed node-level messages and edge-restricted argmax steps.

    step[l] maps each node at layer l to its chosen node at layer l + 1:
    the first maximizer of the neuron-marginalized step objective
        Lambda^(l)[m, m'] (H^(l) W_up^(l))[m] . scaled[l][m']
    over the continuations m' with Lambda^(l)[m, m'] != 0 whose own
    completion follows edges (0 where m has none).  The objective is
    scored on those edges only, one step at a time, and never stored.
    The message mu[l], of shape (M, N_l), is the exact relevance vector of
    the greedy completion backtracked from each node at layer l (mu[L] is
    R^(L)); the table keeps no message, only what the search reads of one.
    scaled[l] is mu[l + 1] times the guarded inverse denominators of step
    l, the factor that step l applies to it: a prefix folded to a node at
    layer l, stepped into scaled[l], scores each next node m' by the exact
    relevance of its walk (candidate_scores).  root[m] is mu[0][m] summed
    over neurons, the exact relevance of the walk backtracked from m, which
    scores the candidates at the root.  complete[l][m] says whether the
    completion from m at layer l follows edges and ends on R^(L)'s support
    (False only where no such continuation exists; mu[l][m] is then 0).
    complete[-1] is that support itself: the nodes whose row of R^(L) is
    nonzero, so the last node of every completion carries relevance.
    Every array is (M,) or (M, N_l).
    """

    # perfbench's traced ampave.objective_bytes sums `table.objective`; no
    # table stores an objective, so it reads 0 until the benchmark drops it.
    objective = ()

    step: tuple[np.ndarray, ...]
    scaled: tuple[np.ndarray, ...]
    complete: tuple[np.ndarray, ...]
    root: np.ndarray


def edge_objective(stack: PropagationStack, l: int, scaled: np.ndarray,
                   rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Step objective sum_{n_l, n_{l+1}} T^(l)[m, :, m', :] mu_next[m'] at
    the edges (m, m') = (rows, cols), where Lambda^(l) holds values, from
    scaled = mu_next times the guarded inverse denominators of step l:
    O(E N) after one O(M N^2) product.  Equal to contracting the dense
    tensor of oracle.dense_tensor.  The rows of hw and scaled are gathered
    EDGE_BLOCK edges at a time into two reused buffers, so no E x N array
    is built.
    """
    hw = stack.hidden[l] @ stack.wups[l]                        # (M, N_{l+1})
    out = np.empty(rows.size)
    size = min(rows.size, EDGE_BLOCK)
    left, right = np.empty((size, hw.shape[1])), np.empty((size, hw.shape[1]))
    for a in range(0, rows.size, EDGE_BLOCK):
        b = min(a + EDGE_BLOCK, rows.size)
        hw.take(rows[a:b], axis=0, out=left[:b - a], mode="clip")
        scaled.take(cols[a:b], axis=0, out=right[:b - a], mode="clip")
        np.einsum("ej,ej->e", left[:b - a], right[:b - a], out=out[a:b])
    out *= values
    return out


def build_node_message_table(stack: PropagationStack) -> NodeMessageTable:
    """Backward greedy messages along the edge list, O(E N + M N^2) per step.

    Each message mu[l] lives only until step l - 1 has scaled it.
    """
    m = stack.num_nodes
    step = [None] * stack.num_steps
    scaled = [None] * stack.num_steps
    complete = [None] * (stack.num_steps + 1)
    mu = stack.output_relevance
    complete[-1] = np.any(mu != 0, axis=1)
    for l in range(stack.num_steps - 1, -1, -1):
        scaled[l] = mu * stack.inverse_denominators[l]          # (M, N_{l+1})
        del mu
        rows, cols = stack.lams[l].edge_index
        values = stack.lams[l].csr[2]
        keep = complete[l + 1][cols]
        if not keep.all():
            rows, cols, values = rows[keep], cols[keep], values[keep]
        heads, starts, segment = edge_segments(rows)
        _, first = segment_first_max(edge_objective(stack, l, scaled[l], rows, cols, values),
                                     starts, segment)
        step[l] = np.zeros(m, dtype=np.intp)
        step[l][heads] = cols[first]
        complete[l] = np.zeros(m, dtype=bool)
        complete[l][heads] = True
        lam_sel = np.zeros(m)
        lam_sel[heads] = values[first]
        # mu[l] = (lam_sel H^(l)) * (scaled[l] W_up^T)[step], built in the gathered
        # rows; grouping the three factors otherwise changes the bits
        mu = (scaled[l] @ stack.wups[l].T).take(step[l], axis=0)     # (M, N_l)
        mu *= lam_sel[:, None] * stack.hidden[l]
    return NodeMessageTable(tuple(step), tuple(scaled), tuple(complete), mu.sum(axis=1))


def candidate_scores(stack: PropagationStack, table: NodeMessageTable, prefix: tuple[int, ...]
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """Relevance of every candidate node at the free position, completed
    greedily along the message-table argmax steps and scored from the
    folded prefix and table.scaled, with scale 1.0.

    After a prefix the candidates are the successors of its last node
    (Lambda != 0) whose completion follows edges and ends on R^(L)'s
    support (Graph.out_edges, kept where table.complete), so a subset
    costs O(out-degree N) beyond its fold; at the root they are all
    nodes, and those whose completion does not score -inf.  So every
    representative is such a walk.  Scoring all free-position candidates
    (rather than only the single surrogate-argmax one) keeps the
    approximate search from burying high-relevance walks behind weak
    representatives.
    """
    i = len(prefix)
    if i == 0:
        return np.arange(stack.num_nodes), np.where(table.complete[0], table.root, -np.inf), 1.0
    # fold the prefix chain into a single row vector, then score the
    # successors of its last node in one vectorized step
    row = np.ones(stack.hidden[0].shape[1])
    for l in range(i - 1):
        row = row @ stack.slice(l, prefix[l], prefix[l + 1])
    p = prefix[-1]
    contrib = (row * stack.hidden[i - 1][p]) @ stack.wups[i - 1]  # (N_i,)
    cols, lam = stack.lams[i - 1].out_edges(p)
    keep = table.complete[i][cols]
    cols, lam = cols[keep], lam[keep]
    return cols, lam * (table.scaled[i - 1][cols] @ contrib), 1.0


def amp_ave_topk(
    stack: PropagationStack,
    k: int,
    max_k_tilde: int | None = None,
) -> SplitResult:
    """Top-k positive node-level walks via splitting search.

    Subset bests are ranked by the relevance that chose them; K-tilde
    grows one extraction at a time until k positive walks are collected,
    max_k_tilde extractions are made, or the search space runs out.  Only
    walks that follow edges (Lambda != 0 at every step) and end on R^(L)'s
    support are extracted, so k_tilde never exceeds their number, and
    exhausted means that every such walk was extracted; every walk outside
    that space has relevance exactly 0.
    """
    table = build_node_message_table(stack)
    return split_topk(partial(candidate_scores, stack, table), table.step,
                      ScoredWalk, k, max_k_tilde)

