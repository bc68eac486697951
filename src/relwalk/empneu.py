"""Exact top-K neuron-level walk search (EMP-neu).

Max-product message passing on absolute transition values finds the
single most absolute-relevant neuron-level walk; the shared splitting
engine (splitting.py) then extracts the top-K-tilde walks one at a time,
picking the best walk of each subset from the scores that
candidate_scores reads off the message tables.  Walks are flat (m, n)
pair tuples.  Signed relevances of returned walks are always recomputed
from the transition entries, never from the absolute messages.  The
result carries the engine's counters (k_tilde, negatives_skipped,
subsets_created, argmax_ops, exhausted) and the extraction list as
`absolute`.  A subset whose best absolute value is 0 holds only
zero-relevance walks and counts as empty, so no zero walk is ever
extracted, and exhausted means every walk with nonzero relevance was.
The messages and scores read Lambda^(l) from the step's Graph
(stack.lams[l]): its edge list for the max over successors, and its
rows (out_edges) for a subset's candidates and for the argmax steps.
The table takes maxima only and keeps the root message and one scaled
message per step; a search computes the argmax steps a node at a time,
the first time a traceback reads one (argmax_steps), and keeps them
until it ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .oracle import ScoredWalk, neuron_walk_relevance
from .propagation import PropagationStack, edge_segments
from .splitting import SplitResult, split_topk

# Edges per block of the max over successors: a block's (EDGE_BLOCK, N_l)
# gather is 256 KiB at N_l = 16, and no E x N_l array is built.
EDGE_BLOCK = 2048


@dataclass(frozen=True)
class MessageTable:
    """Backward max-product messages, kept as far as a search reads them.

    mu holds only the root message mu[0], of shape (M * N_0,): the best
    absolute continuation value from each (m, n) pair at layer 0.
    factors[l] is the scaled message mu[l + 1] * |1 / den^(l)| of shape
    (M, N_{l+1}), with the stack's guarded inverse denominators; with
    |Lambda|, |H| and |W_up| of the stack it gives any row or entry of
    |T^(l)| * mu[l + 1] on demand, so no dense |T^(l)| is ever built, and
    the argmax steps are computed from it a node at a time as a search
    reads them (argmax_steps).
    """

    mu: tuple[np.ndarray, ...]
    factors: tuple[np.ndarray, ...]

    @property
    def step(self) -> tuple:
        """No step array is kept (see argmax_steps); empty, so that
        perfbench's traced byte count still sums factors + mu + step."""
        return ()


def build_message_table(stack: PropagationStack) -> MessageTable:
    """Max-product messages from the factorized pieces.

    All factors are non-negative after abs, so for step l with
    nu = mu[l + 1] * |1 / den|:
        G[m', n] = max_{n'} |W_up[n, n']| nu[m', n']
        mu[l][m, n] = |H[m, n]| max_{m'} |Lambda[m, m']| G[m', n]
    G takes one (M, N_l) maximum per n', and the max over m' only runs
    along the E edges (Lambda[m, m'] != 0), as a reduction over each
    row's edges, so a step costs O(E N_l + M N_l N_{l+1}).  Only maxima
    are taken here: a max is exact, so the messages do not depend on
    which maximizer a search later picks.
    """
    m = stack.num_nodes
    factors = [None] * stack.num_steps
    mu = np.abs(stack.output_relevance)
    for l in range(stack.num_steps - 1, -1, -1):
        nu = np.abs(stack.inverse_denominators[l])
        nu *= mu
        factors[l] = nu
        w = np.abs(stack.wups[l])
        g = np.zeros((m, w.shape[0]))
        for j in range(w.shape[1]):
            np.maximum(g, w[:, j] * nu[:, j, None], out=g)
        rows, cols = stack.lams[l].edge_index
        heads, starts, _ = edge_segments(rows)
        weights = np.abs(stack.lams[l].csr[2])[:, None]
        mu = np.zeros_like(g)
        # whole rows of about EDGE_BLOCK edges at a time (a row longer than
        # that leaves empty blocks): no E x N_l array
        bounds = np.append(starts, rows.size)
        cuts = np.searchsorted(starts, np.arange(0, rows.size, EDGE_BLOCK)).tolist()
        for k0, k1 in zip(cuts, cuts[1:] + [starts.size]):
            a, b = bounds[k0], bounds[k1]
            scored = g[cols[a:b]]
            scored *= weights[a:b]
            mu[heads[k0:k1]] = np.maximum.reduceat(scored, starts[k0:k1] - a)
        mu *= np.abs(stack.hidden[l])
    return MessageTable((mu.reshape(-1),), tuple(factors))


class _Steps(dict):
    """The argmax steps of layer l, flat pair -> flat pair at layer l + 1,
    filled a node at a time as they are read.

    The step of (m, n) is the first n' for each successor m' of
    |T^(l)[m, n, m', n']| * mu[l + 1], then the first successor in column
    order.  The first read of a pair of m computes the steps of all N_l
    pairs of m from m's out-edges and factors[l] (|H[m, n]| scales a whole
    row, so it is left out).  Steps are read only where mu[l] is nonzero:
    every traceback starts there, and a step keeps to it.
    """

    def __init__(self, stack: PropagationStack, table: MessageTable, l: int):
        super().__init__()
        self.lam = stack.lams[l]
        self.w = np.abs(stack.wups[l])
        self.factor = table.factors[l]
        self.n_l, self.n_next = self.w.shape

    def __missing__(self, pair: int) -> int:
        m = pair // self.n_l
        cols, lam = self.lam.out_edges(m)
        inner_scored = self.w * self.factor[cols][:, None, :]     # (deg, N_l, N_{l+1})
        inner = np.argmax(inner_scored, axis=2)
        scored = inner_scored.max(axis=2)
        scored *= np.abs(lam)[:, None]
        outer = np.argmax(scored, axis=0)
        chosen = cols[outer] * self.n_next + inner[outer, np.arange(self.n_l)]
        self.update(zip(range(m * self.n_l, (m + 1) * self.n_l), chosen.tolist()))
        return self[pair]


def argmax_steps(stack: PropagationStack, table: MessageTable) -> tuple[_Steps, ...]:
    """The step mappings of one search, one per layer: pair -> the next
    pair of its best continuation, computed on first read and kept."""
    return tuple(_Steps(stack, table, l) for l in range(stack.num_steps))


def _prefix_factor(stack: PropagationStack, prefix: tuple[int, ...]) -> float:
    dims = stack.dims
    value = 1.0
    for l in range(len(prefix) - 1):
        m, n = divmod(prefix[l], dims[l])
        mp, np_ = divmod(prefix[l + 1], dims[l + 1])
        value *= abs(stack.entry(l, m, n, mp, np_))
    return value


def _scored_row(stack: PropagationStack, table: MessageTable, l: int, pair: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """|T^(l)[m, n, m', :]| * mu[l + 1] for pair = (m, n) and the successors
    m' of m: the flat (m', n') pairs, ascending, and their values."""
    dims = stack.dims
    n_next = dims[l + 1]
    m, n = divmod(pair, dims[l])
    cols, lam = stack.lams[l].out_edges(m)
    w = np.abs(stack.wups[l][n])
    row = abs(stack.hidden[l][m, n]) * (np.abs(lam)[:, None]
                                        * (w[None, :] * table.factors[l][cols]))
    return (cols[:, None] * n_next + np.arange(n_next)).reshape(-1), row.reshape(-1)


def candidate_scores(stack: PropagationStack, table: MessageTable, prefix: tuple[int, ...]
                     ) -> tuple[np.ndarray, np.ndarray, float]:
    """Best absolute continuation value of every candidate pair at layer
    len(prefix) after the flat-pair prefix, and the prefix's absolute
    factor as scale.

    After a prefix the candidates are the pairs on the successors of its
    last node, so a subset costs O(out-degree N) beyond its prefix
    factor; at the root they are all pairs.  Maximization happens only at
    the free layer; everything downstream is read from the argmax step
    mappings.  The max-product is exact, so a value of 0 means every walk
    through that pair has relevance 0: it scores -inf, and a subset left
    with none counts as empty.
    """
    if prefix:
        values, row = _scored_row(stack, table, len(prefix) - 1, prefix[-1])
    else:
        values, row = np.arange(table.mu[0].size), table.mu[0]
    return values, np.where(row == 0, -np.inf, row), _prefix_factor(stack, prefix)


def _pairs_to_walk(stack: PropagationStack, pairs: tuple[int, ...]) -> ScoredWalk:
    dims = stack.dims
    nodes, neurons = [], []
    for l, p in enumerate(pairs):
        ml, nl = divmod(p, dims[l])
        nodes.append(ml)
        neurons.append(nl)
    rel = neuron_walk_relevance(stack, nodes, neurons)
    return ScoredWalk(tuple(nodes), rel, tuple(neurons))


@dataclass
class TopKResult(SplitResult):
    @property
    def absolute(self) -> list[ScoredWalk]:
        """The full top-K-tilde list, by non-increasing |relevance|."""
        return self.extracted


def emp_neu_topk(
    stack: PropagationStack,
    k: int,
    max_k_tilde: int | None = None,
) -> TopKResult:
    """Grow the top-K-tilde absolute list until k positive walks are found.

    Only walks with nonzero relevance are extracted, so exhausted=True
    means every such walk was extracted.  A dead network (R^(L) all zero)
    has none and returns no walk.
    """
    table = build_message_table(stack)
    return split_topk(partial(candidate_scores, stack, table), argmax_steps(stack, table),
                      lambda pairs, _: _pairs_to_walk(stack, pairs),
                      k, max_k_tilde, result_type=TopKResult)
