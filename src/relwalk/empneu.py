"""Exact top-K neuron-level walk search (EMP-neu).

Max-product message passing on absolute transition values finds the
single most absolute-relevant neuron-level walk; the shared splitting
engine (splitting.py) then extracts the top-K-tilde walks one at a time,
asking constrained_max for the best walk of each subset, which reuses
the message tables.  Walks are flat (m, n) pair tuples.  Signed
relevances of returned walks are always recomputed from the transition
entries, never from the absolute messages.  The result carries the
engine's counters (k_tilde, negatives_skipped, subsets_created,
argmax_ops, exhausted) and the extraction list as `absolute`.  A subset
whose best absolute value is 0 holds only zero-relevance walks and
counts as empty, so no zero walk is ever extracted, and exhausted
means every walk with nonzero relevance was.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .oracle import ScoredWalk, neuron_walk_relevance
from .propagation import PropagationStack, first_max_over_edges
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
    sizes: tuple[int, ...]
    stack: PropagationStack


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
        nu = mu[l + 1].reshape(m, n_next) * np.abs(stack.inverse_denominators[l])
        factors[l] = nu
        inner_scored = np.abs(stack.wups[l])[None, :, :] * nu[:, None, :]  # (M', N_l, N_l+1)
        inner = np.argmax(inner_scored, axis=2)                           # (M', N_l)
        g = np.take_along_axis(inner_scored, inner[:, :, None], axis=2)[:, :, 0]
        outer = np.zeros((m, n_l), dtype=np.intp)
        best = np.zeros((m, n_l))
        rows, cols = stack.edges[l]
        scored = np.abs(stack.lambdas[l][rows, cols])[:, None] * g[cols]  # (E, N_l)
        heads, row_best, first = first_max_over_edges(rows, scored)
        best[heads] = row_best
        outer[heads] = cols[first]
        outer[best == 0] = 0
        mu[l] = (np.abs(stack.hidden[l]) * best).reshape(sizes[l])
        step[l] = (outer * n_next + inner[outer, np.arange(n_l)]).reshape(sizes[l])
    return MessageTable(tuple(mu), tuple(step), tuple(factors), tuple(sizes), stack)


def _backtrack(table: MessageTable, layer: int, pair: int) -> list[int]:
    pairs = [pair]
    for l in range(layer, len(table.step)):
        pair = int(table.step[l][pair])
        pairs.append(pair)
    return pairs


def _prefix_factor(table: MessageTable, prefix: tuple[int, ...]) -> float:
    stack = table.stack
    dims = stack.dims
    value = 1.0
    for l in range(len(prefix) - 1):
        m, n = divmod(prefix[l], dims[l])
        mp, np_ = divmod(prefix[l + 1], dims[l + 1])
        value *= abs(stack.entry(l, m, n, mp, np_))
    return value


def _scored_row(table: MessageTable, l: int, pair: int) -> np.ndarray:
    """|T^(l)[m, n, :, :]| * mu[l + 1] for pair = (m, n), flat over (m', n')."""
    stack = table.stack
    m, n = divmod(pair, stack.dims[l])
    lam = np.abs(stack.lambdas[l][m])
    w = np.abs(stack.wups[l][n])
    row = abs(stack.hidden[l][m, n]) * (lam[:, None] * (w[None, :] * table.factors[l]))
    return row.reshape(-1)


def constrained_max(
    table: MessageTable,
    prefix: tuple[int, ...],
    excluded: frozenset[int],
) -> tuple[float, tuple[int, ...] | None, int]:
    """Best absolute walk among those starting with the flat-pair prefix
    and avoiding the excluded pairs at layer len(prefix).

    Returns (|relevance|, walk or None, candidates scanned).
    Maximization happens only at the free layer; everything downstream
    is read from the argmax step mappings.  The max-product is exact, so
    a best value of 0 means every walk left in the subset has relevance
    0: the subset then counts as empty (walk None).
    """
    i = len(prefix)
    if i == 0:
        candidates = table.mu[0].copy()
    else:
        candidates = _scored_row(table, i - 1, prefix[-1])
    if excluded:
        candidates[list(excluded)] = -np.inf
    j = int(np.argmax(candidates))
    if candidates[j] <= 0:
        return 0.0, None, candidates.shape[0]
    factor = _prefix_factor(table, prefix) if i else 1.0
    walk = prefix + tuple(_backtrack(table, i, j))
    return float(factor * candidates[j]), walk, candidates.shape[0]


def _pairs_to_walk(stack: PropagationStack, pairs: tuple[int, ...]) -> ScoredWalk:
    dims = stack.dims
    nodes, neurons = [], []
    for l, p in enumerate(pairs):
        ml, nl = divmod(p, dims[l])
        nodes.append(ml)
        neurons.append(nl)
    rel = neuron_walk_relevance(stack, nodes, neurons)
    return ScoredWalk(tuple(nodes), rel, tuple(neurons))


def emp_neu_basic(stack: PropagationStack) -> ScoredWalk | None:
    """The neuron-level walk with the highest absolute relevance, or None
    if every walk has relevance 0; the first extraction of emp_neu_topk."""
    table = build_message_table(stack)
    _, pairs, _ = constrained_max(table, (), frozenset())
    return None if pairs is None else _pairs_to_walk(stack, pairs)


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
    if k < 1:
        raise ValueError("k must be >= 1")
    table = build_message_table(stack)
    return split_topk(partial(constrained_max, table),
                      lambda pairs, _: _pairs_to_walk(stack, pairs),
                      k, max_k_tilde, result_type=TopKResult)
