"""Evaluation metrics: precision/recall against the oracle, transition
column similarity, infection chain recall, edge recall, and a timing
benchmark harness.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

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
    if max(k_stars) > len(oracle):
        raise ValueError(f"oracle list shorter than max K* = {max(k_stars)}")
    points = []
    for k_star in k_stars:
        true_set = {w.nodes for w in oracle[:k_star]}
        for k in ks:
            found = {w.nodes for w in approx[:k]}
            tp = len(found & true_set)
            points.append(PRPoint(k, k_star, tp / k if k else 0.0, tp / k_star))
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
        for m, mp in zip(*stack.edges[l]):
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
    chain with terminal self-steps, and subsequence containment.
    """
    hit_pad = 0
    hit_sub = 0
    targets = 0
    for target, walks in walks_per_target.items():
        chain = chains.get(target)
        if chain is None:
            continue
        targets += 1
        top = [w.nodes for w in walks[:k]]
        padded = pad_chain(chain, walk_length)
        if padded in top:
            hit_pad += 1
        if any(_is_subsequence(tuple(chain), nodes) for nodes in top):
            hit_sub += 1
    if targets == 0:
        return ChainRecall(0.0, 0.0, 0)
    return ChainRecall(hit_pad / targets, hit_sub / targets, targets)


def edge_recall(
    edge_scores: dict[tuple[int, int], float],
    true_edges: set[tuple[int, int]],
    top_e: int,
) -> float:
    """Recall of the ground-truth edge set among the top-scoring edges.

    Undirected comparison: (i, j) and (j, i) count as the same edge.
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
    ranked = sorted(canon_scores, key=lambda e: (-canon_scores[e], e))[:top_e]
    return len(set(ranked) & canon_true) / len(canon_true)


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------


@dataclass
class BenchRow:
    method: str
    m: int
    l: int
    k: int
    seconds: float                 # median over repetitions
    repetitions: int
    variance: float
    estimated: bool = False        # extrapolated from partial computation

    def as_record(self) -> dict:
        return {
            "method": self.method,
            "M": self.m,
            "L": self.l,
            "K": self.k,
            "seconds": self.seconds,
            "repetitions": self.repetitions,
            "variance": self.variance,
            "estimated": "estimated from partial computation" if self.estimated else "",
        }


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


def bench_rows_to_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf,
        fieldnames=["method", "M", "L", "K", "seconds", "repetitions", "variance", "estimated"],
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(row.as_record())
    return buf.getvalue()
