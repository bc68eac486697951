"""Exact top-K neuron-level walk search (EMP-neu).

Max-product message passing on absolute transition values finds the
single most absolute-relevant neuron-level walk; Nilsson-style search
space splitting then extracts the top-K-tilde walks one at a time,
reusing the message tables.  Signed relevances of returned walks are
always recomputed from the transition entries, never from the absolute
messages.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .oracle import ScoredWalk, neuron_walk_relevance
from .propagation import PropagationStack


# entries of one (rows, M, N_l) block of the max-product over m'; a whole
# step fits in one block at M=200, N_l=16 (640k entries, 8 MiB)
_BLOCK_ENTRIES = 1 << 20


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
    at O(M N_l N_{l+1} + M^2 N_l) per step.  Keeping the first maximizer
    at both stages gives the first flat (m', n') maximizer.
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
        outer = np.empty((m, n_l), dtype=np.intp)
        best = np.empty((m, n_l))
        lam = stack.lambdas[l]
        block = max(1, _BLOCK_ENTRIES // (m * n_l))
        for start in range(0, m, block):
            rows = slice(start, start + block)
            scored = np.abs(lam[rows])[:, :, None] * g[None, :, :]           # (B, M', N_l)
            outer[rows] = np.argmax(scored, axis=1)
            best[rows] = np.take_along_axis(scored, outer[rows][:, None, :], axis=1)[:, 0, :]
        mu[l] = (np.abs(stack.hidden[l]) * best).reshape(sizes[l])
        step[l] = (outer * n_next + inner[outer, np.arange(n_l)]).reshape(sizes[l])
    return MessageTable(tuple(mu), tuple(step), tuple(factors), tuple(sizes), stack)


@dataclass
class SearchSubset:
    """Walks sharing a fixed pair prefix and excluding given pairs at the free layer.

    prefix holds flat (m, n) pair indices for layers 0 .. len(prefix)-1;
    the exclusion applies at layer len(prefix).
    """

    prefix: tuple[int, ...]
    excluded: frozenset[int]
    best: tuple[int, ...] | None = None      # full flat-pair walk
    best_abs: float = 0.0
    prefix_factor: float = 1.0
    stats: dict = field(default_factory=dict)


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
    subset: SearchSubset,
    counters: dict | None = None,
) -> None:
    """Fill subset.best with the best absolute walk inside the subset.

    Maximization happens only at the subset's free layer; everything
    downstream is read from the argmax step mappings.
    """
    i = len(subset.prefix)
    if i == 0:
        candidates = table.mu[0].copy()
    else:
        candidates = _scored_row(table, i - 1, subset.prefix[-1])
    if counters is not None:
        counters["argmax_ops"] = counters.get("argmax_ops", 0) + candidates.shape[0]
    if subset.excluded:
        candidates[list(subset.excluded)] = -np.inf
    j = int(np.argmax(candidates))
    if candidates[j] == -np.inf:
        subset.best = None
        return
    subset.prefix_factor = _prefix_factor(table, subset.prefix) if i else 1.0
    subset.best = tuple(subset.prefix) + tuple(_backtrack(table, i, j))
    subset.best_abs = float(subset.prefix_factor * candidates[j])


def _pairs_to_walk(stack: PropagationStack, pairs: tuple[int, ...]) -> ScoredWalk:
    dims = stack.dims
    nodes, neurons = [], []
    for l, p in enumerate(pairs):
        ml, nl = divmod(p, dims[l])
        nodes.append(ml)
        neurons.append(nl)
    rel = neuron_walk_relevance(stack, nodes, neurons)
    return ScoredWalk(tuple(nodes), rel, tuple(neurons))


def _walk_key(pairs: tuple[int, ...], dims) -> tuple[int, ...]:
    key = []
    for l, p in enumerate(pairs):
        key.extend(divmod(p, dims[l]))
    return tuple(key)


def emp_neu_basic(stack: PropagationStack) -> ScoredWalk | None:
    """The neuron-level walk with the highest absolute relevance, or None
    if the network is fully dead (all messages zero)."""
    table = build_message_table(stack)
    if not np.any(table.mu[0] > 0):
        return None
    start = int(np.argmax(table.mu[0]))
    pairs = tuple(_backtrack(table, 0, start))
    return _pairs_to_walk(stack, pairs)


@dataclass
class TopKResult:
    positive: list[ScoredWalk]            # the K requested positive walks, descending
    absolute: list[ScoredWalk]            # full top-K-tilde absolute list, in extraction order
    k_tilde: int
    exhausted: bool
    subsets_created: int
    argmax_ops: int

    @property
    def positive_ratio(self) -> float:
        return len(self.positive) / self.k_tilde if self.k_tilde else 0.0

    def summary(self) -> dict:
        return {
            "k": len(self.positive),
            "k_tilde": self.k_tilde,
            "subsets_created": self.subsets_created,
            "exhausted": self.exhausted,
        }


def emp_neu_topk(
    stack: PropagationStack,
    k: int,
    max_k_tilde: int | None = None,
) -> TopKResult:
    """Grow the top-K-tilde absolute list until k positive walks are found.

    Returns partial results with exhausted=True when the walk space (or
    max_k_tilde) runs out first.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    table = build_message_table(stack)
    dims = stack.dims
    counters = {"argmax_ops": 0}
    m_total = stack.num_nodes
    space_size = 1
    for d in dims:
        space_size *= m_total * d

    absolute: list[ScoredWalk] = []
    positive: list[ScoredWalk] = []
    subsets_created = 0
    heap: list = []

    if not np.any(table.mu[0] > 0) and np.all(np.abs(stack.output_relevance) == 0):
        return TopKResult([], [], 0, True, 0, 0)

    root = SearchSubset(prefix=(), excluded=frozenset())
    constrained_max(table, root, counters)
    counter = 0  # FIFO disambiguator; never reached because keys include the walk
    if root.best is not None:
        heapq.heappush(heap, (-root.best_abs, _walk_key(root.best, dims), counter, root))
        counter += 1
        subsets_created += 1

    while heap and len(positive) < k and len(absolute) < space_size:
        if max_k_tilde is not None and len(absolute) >= max_k_tilde:
            break
        _, _, _, subset = heapq.heappop(heap)
        found = subset.best
        scored = _pairs_to_walk(stack, found)
        absolute.append(scored)
        if scored.relevance > 0:
            positive.append(scored)
        # split subset \ {found}: child j fixes found through layer j-1
        i = len(subset.prefix)
        for j in range(i, len(found)):
            if j == i:
                excluded = subset.excluded | {found[j]}
            else:
                excluded = frozenset({found[j]})
            child = SearchSubset(prefix=tuple(found[:j]), excluded=excluded)
            constrained_max(table, child, counters)
            subsets_created += 1
            if child.best is not None:
                heapq.heappush(
                    heap, (-child.best_abs, _walk_key(child.best, dims), counter, child)
                )
                counter += 1

    exhausted = len(positive) < k
    return TopKResult(
        positive=positive,
        absolute=absolute,
        k_tilde=len(absolute),
        exhausted=exhausted,
        subsets_created=subsets_created,
        argmax_ops=counters["argmax_ops"],
    )
