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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .oracle import ScoredWalk, neuron_walk_relevance
from .propagation import PropagationStack, edge_segments, segment_first_max
from .splitting import SplitResult, split_topk


@dataclass(frozen=True)
class MessageTable:
    """Backward max-product messages and argmax step mappings.

    mu[l] has shape (M * N_l,): the best absolute continuation value from
    each (m, n) pair at layer l.  step[l] maps each flat pair at layer l
    to the chosen flat pair at layer l + 1 (length num_steps list): the
    first maximizer in flat (m', n') order wherever mu[l] is nonzero.
    factors[l] is the scaled message mu[l + 1] * |1 / den^(l)| of shape
    (M, N_{l+1}), with the stack's guarded inverse denominators; with
    |Lambda|, |H| and |W_up| of the stack it gives any row or entry of
    |T^(l)| * mu[l + 1] on demand, so no dense |T^(l)| is ever built.
    """

    mu: tuple[np.ndarray, ...]
    step: tuple[np.ndarray, ...]
    factors: tuple[np.ndarray, ...]


def build_message_table(stack: PropagationStack) -> MessageTable:
    """Max-product messages from the factorized pieces.

    All factors are non-negative after abs, so for step l with
    nu = mu[l + 1] * |1 / den|:
        G[m', n] = max_{n'} |W_up[n, n']| nu[m', n']
        mu[l][m, n] = |H[m, n]| max_{m'} |Lambda[m, m']| G[m', n]
    The max over m' only runs along the E edges (Lambda[m, m'] != 0), as
    a segment reduction over each row's edges, so a step costs
    O(E N_l + M N_l N_{l+1}).  Keeping the first maximizer at both stages
    gives the first flat (m', n') maximizer: within a row the edges come
    in column order, and where the best value is 0 (or a row has no edge)
    m' = 0, the first maximizer of the all-zero dense row.
    """
    m = stack.num_nodes
    dims = stack.dims
    sizes = [m * d for d in dims]
    mu = [None] * (stack.num_steps + 1)
    step = [None] * stack.num_steps
    factors = [None] * stack.num_steps
    mu[-1] = np.abs(stack.output_relevance).reshape(sizes[-1])
    for l in range(stack.num_steps - 1, -1, -1):
        n_l, n_next = dims[l], dims[l + 1]
        nu = np.abs(stack.inverse_denominators[l])
        nu *= mu[l + 1].reshape(m, n_next)
        factors[l] = nu
        rows, cols = stack.edges[l]
        heads, starts, segment = edge_segments(rows)
        weights = np.abs(stack.edge_values[l])
        best = np.zeros((m, n_l))           # becomes mu[l]
        chosen = np.empty((m, n_l), dtype=np.intp)      # becomes step[l]
        at_zero = np.empty(n_l, dtype=np.intp)      # where best is 0, m' = 0
        # one n at a time, written straight into the table's own arrays, so
        # no temporary holds more than M N_{l+1} or E values
        for n, w in enumerate(np.abs(stack.wups[l])):
            inner_scored = w[None, :] * nu                                # (M', N_l+1)
            inner = np.argmax(inner_scored, axis=1)                       # (M',)
            g = inner_scored[np.arange(m), inner]
            best[heads, n], first = segment_first_max(g[cols] * weights, starts, segment)
            outer = cols[first]
            chosen[heads, n] = outer * n_next + inner[outer]
            at_zero[n] = inner[0]
        np.copyto(chosen, at_zero, where=best == 0)
        best *= np.abs(stack.hidden[l])
        mu[l] = best.reshape(sizes[l])
        step[l] = chosen.reshape(sizes[l])
    return MessageTable(tuple(mu), tuple(step), tuple(factors))


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
    cols, lam = stack.out_edges(l, m)
    w = np.abs(stack.wups[l][n])
    row = abs(stack.hidden[l][m, n]) * (np.abs(lam)[:, None]
                                        * (w[None, :] * table.factors[l][cols]))
    return (cols[:, None] * n_next + np.arange(n_next)).reshape(-1), row.reshape(-1)


def candidate_scores(stack: PropagationStack, table: MessageTable, prefix: tuple[int, ...]
                     ) -> tuple[np.ndarray | None, np.ndarray, float]:
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
        values, row = None, table.mu[0]
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
    return split_topk(partial(candidate_scores, stack, table), table.step,
                      lambda pairs, _: _pairs_to_walk(stack, pairs),
                      k, max_k_tilde, result_type=TopKResult)
