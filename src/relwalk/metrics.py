"""Evaluation metrics: precision/recall against the oracle, transition
column similarity, infection chain recall, edge recall over the edge
ranking that walks induce, and a timing benchmark harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .oracle import ScoredWalk
from .propagation import PropagationStack


@dataclass(frozen=True)
class PRPoint:
    k: int
    k_star: int
    precision: float
    recall: float


def precision_recall(
    approx: list[ScoredWalk],
    oracle: list[ScoredWalk],
    ks: list[int],
    k_stars: list[int],
) -> list[PRPoint]:
    """Precision TP/K and recall TP/K* of approximate walks vs oracle walks.

    Intersection is on node sequences.  The oracle list must already be
    sorted (descending relevance, lexicographic node ties), so the K*
    boundary cut is deterministic.
    """
    if min(ks + k_stars) < 1:
        raise ValueError(f"K and K* must be >= 1, got ks={ks} k_stars={k_stars}")
    if max(k_stars) > len(oracle):
        raise ValueError(f"oracle list shorter than max K* = {max(k_stars)}")
    points = []
    for k_star in k_stars:
        true_set = {w.nodes for w in oracle[:k_star]}
        for k in ks:
            found = {w.nodes for w in approx[:k]}
            tp = len(found & true_set)
            points.append(PRPoint(k, k_star, tp / k, tp / k_star))
    return points


@dataclass
class SimilarityHistogram:
    """Cosine similarities of transition columns against their slice mean."""

    similarities: np.ndarray
    zero_columns: int              # excluded all-zero columns
    degenerate_slices: int         # slices whose mean column is zero

    @property
    def mean(self) -> float:
        return float(self.similarities.mean()) if self.similarities.size else float("nan")

    def histogram(self, bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
        return np.histogram(self.similarities, bins=bins, range=(-1.0, 1.0))


def column_similarity_histogram(stack: PropagationStack) -> SimilarityHistogram:
    """Pool, over all steps and nonzero-adjacency node pairs, the cosine of
    every nonzero slice column against the slice's average column.

    All-zero columns are skipped; slices with a zero mean column are
    excluded entirely and counted separately.
    """
    sims = []
    zero_cols = 0
    degenerate = 0
    for l in range(stack.num_steps):
        for m, mp in zip(*stack.lams[l].edge_index):
            t = stack.slice(l, int(m), int(mp))
            avg = t.mean(axis=1)
            avg_norm = np.linalg.norm(avg)
            col_norms = np.linalg.norm(t, axis=0)
            nonzero = col_norms > 0
            zero_cols += int((~nonzero).sum())
            if avg_norm == 0:
                degenerate += 1
                continue
            if not np.any(nonzero):
                continue
            cos = (avg @ t[:, nonzero]) / (avg_norm * col_norms[nonzero])
            sims.append(cos)
    out = np.concatenate(sims) if sims else np.empty(0)
    return SimilarityHistogram(out, zero_cols, degenerate)


def pad_chain(chain: list[int], length: int) -> tuple[int, ...]:
    """Extend a chain to the given walk length by repeating the terminal node."""
    if len(chain) > length:
        raise ValueError(f"chain {chain} longer than walk length {length}")
    return tuple(chain) + (chain[-1],) * (length - len(chain))


def _is_subsequence(short: tuple[int, ...], long: tuple[int, ...]) -> bool:
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


@dataclass
class ChainRecall:
    padded: float                   # chain padded with terminal self-steps
    subsequence: float              # chain appears as a subsequence
    targets: int


def infection_chain_recall(
    walks_per_target: dict[int, list[ScoredWalk]],
    chains: dict[int, list[int]],
    k: int,
    walk_length: int,
) -> ChainRecall:
    """Fraction of targets whose ground-truth chain is among the top-k walks.

    Two matching conventions are reported: exact match after padding the
    chain with terminal self-steps, and subsequence containment.  A chain
    of more than walk_length nodes fits in no walk either way, so its
    target counts as a miss in both.
    """
    hit_pad = 0
    hit_sub = 0
    targets = 0
    for target, walks in walks_per_target.items():
        chain = chains.get(target)
        if chain is None:
            continue
        targets += 1
        if len(chain) > walk_length:
            continue
        top = [w.nodes for w in walks[:k]]
        padded = pad_chain(chain, walk_length)
        if padded in top:
            hit_pad += 1
        if any(_is_subsequence(tuple(chain), nodes) for nodes in top):
            hit_sub += 1
    if targets == 0:
        return ChainRecall(0.0, 0.0, 0)
    return ChainRecall(hit_pad / targets, hit_sub / targets, targets)


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


def edge_recall(
    edge_scores: dict[tuple[int, int], float],
    true_edges: set[tuple[int, int]],
) -> list[float]:
    """Recall of the ground-truth edge set among the top-c ranked edges, at
    every cutoff c = 1 .. the number of ranked edges: entry c - 1 is
    cutoff c.

    Undirected comparison: (i, j) and (j, i) count as the same edge, scored
    by the higher of the two, and self-loops are not ranked, so the curve
    has one entry per undirected non-loop edge.  Ties rank by edge.
    """
    if not true_edges:
        raise ValueError("true_edges must be nonempty")
    canon_scores: dict[tuple[int, int], float] = {}
    for (i, j), s in edge_scores.items():
        key = (min(i, j), max(i, j))
        if key[0] == key[1]:
            continue
        if key not in canon_scores or s > canon_scores[key]:
            canon_scores[key] = s
    canon_true = {(min(i, j), max(i, j)) for i, j in true_edges}
    ranked = sorted(canon_scores, key=lambda e: (-canon_scores[e], e))
    return [hits / len(canon_true) for hits in accumulate(e in canon_true for e in ranked)]


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------


def time_callable(fn, repetitions: int = 5) -> tuple[float, float]:
    """Median and variance of wall-clock seconds over the given repetitions."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    arr = np.asarray(times)
    return float(np.median(arr)), float(arr.var())

