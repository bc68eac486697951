"""Search-space splitting (Lawler 1972; Nilsson, Stat. Comput. 1998)
shared by both walk searches.

A subset of the walk space is a prefix, fixing positions 0 .. i-1, and
a set of values excluded at the free position i.  A search supplies only
scores(prefix) -> (values, scores, scale): the ascending candidate
values at the free position (every value at the root; after a prefix,
the successors of its last value), a fresh array of one score per
candidate (-inf where no walk continues) and the prefix's factor.
Every other value holds no walk.  pick takes a subset's representative:
its first non-excluded maximizer, completed through the search's argmax
steps and ranked by scale times its score (None once the subset holds
no walk).
Live subsets wait in a heap keyed by (-priority, walk).  Popping the
best one extracts its walk and splits the rest of the subset into at
most L + 1 children: child j fixes the walk through position j - 1 and
excludes its value at position j (the first child also keeps the
subset's exclusions).  The live subsets and the extracted walks
therefore partition the walk space: live subsets are disjoint, so their
walks never tie in the key, and the heap runs empty exactly when every
walk has been extracted.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .oracle import ScoredWalk

Walk = tuple[int, ...]
Scorer = Callable[[Walk], tuple[np.ndarray, np.ndarray, float]]


@dataclass
class SplitResult:
    """Walks and work counters of one splitting search, the same for both searches."""

    positive: list[ScoredWalk]        # the positive extractions, in extraction order
    extracted: list[ScoredWalk]       # top-K-tilde in extraction order
    exhausted: bool                   # the walk space ran out: every walk was extracted
    subsets_created: int
    argmax_ops: int                   # candidates scored, summed over subsets

    @property
    def k_tilde(self) -> int:
        return len(self.extracted)

    @property
    def negatives_skipped(self) -> int:
        return self.k_tilde - len(self.positive)

    @property
    def positive_ratio(self) -> float:
        return len(self.positive) / self.k_tilde if self.k_tilde else 0.0

    def summary(self) -> dict:
        return {
            "k": len(self.positive),
            "k_tilde": self.k_tilde,
            "negatives_skipped": self.negatives_skipped,
            "subsets_created": self.subsets_created,
            "argmax_ops": self.argmax_ops,
            "exhausted": self.exhausted,
        }


def _backtrack(step: Sequence, layer: int, start: int) -> list[int]:
    """start and its greedy completion through the last layer, read from a
    message table's argmax step mappings (AMP-ave nodes, EMP-neu pairs)."""
    path = [start]
    for l in range(layer, len(step)):
        start = int(step[l][start])
        path.append(start)
    return path


def pick(values: np.ndarray, scores: np.ndarray, scale: float, step: Sequence,
         prefix: Walk, excluded: frozenset) -> tuple[float, Walk] | None:
    """(scale * best score, walk) of a subset, or None if it holds no walk.

    Sets the scores of the excluded values to -inf in scores (a fresh
    array) and takes the first maximizer, so ties go to the lowest value;
    scale stays outside the argmax.  Every excluded value is among the
    candidates: it was an extracted walk's value after the same prefix.
    """
    if excluded:
        scores[np.searchsorted(values, list(excluded))] = -np.inf
    j = int(np.argmax(scores))
    if scores[j] == -np.inf:
        return None
    return scale * float(scores[j]), prefix + tuple(_backtrack(step, len(prefix), int(values[j])))


class Splitter:
    """The live subsets of one search, best first.

    subsets_created counts the root only when it holds a walk, and every
    child, empty or not.
    """

    def __init__(self, scores: Scorer, step: Sequence):
        self.scores = scores
        self.step = step
        self.heap: list = []
        self.argmax_ops = 0
        self.subsets_created = int(self._push((), frozenset()))

    def _push(self, prefix: Walk, excluded: frozenset) -> bool:
        values, scores, scale = self.scores(prefix)
        self.argmax_ops += scores.size
        best = pick(values, scores, scale, self.step, prefix, excluded)
        if best is not None:
            heapq.heappush(self.heap, (-best[0], best[1], prefix, excluded))
        return best is not None

    @property
    def live(self) -> list[tuple[Walk, frozenset]]:
        """(prefix, excluded) of every live subset."""
        return [(prefix, excluded) for _, _, prefix, excluded in self.heap]

    def pop(self) -> tuple[Walk, float]:
        """Extract the best live subset's walk and split off the rest of it."""
        negated, walk, prefix, excluded = heapq.heappop(self.heap)
        i = len(prefix)
        for j in range(i, len(walk)):
            self._push(walk[:j], excluded | {walk[j]} if j == i else frozenset({walk[j]}))
            self.subsets_created += 1
        return walk, -negated


def split_topk(
    scores: Scorer,
    step: Sequence,
    score: Callable[[Walk, float], ScoredWalk],
    k: int,
    max_k_tilde: int | None = None,
    result_type: type[SplitResult] = SplitResult,
) -> SplitResult:
    """Extract walks best first until k of them score positive, max_k_tilde
    walks are extracted, or the walk space runs out.

    score(walk, priority) gives the reported ScoredWalk of an extraction.
    k and max_k_tilde (None: no cap) below 1 are refused (ValueError).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_k_tilde is not None and max_k_tilde < 1:
        raise ValueError("max_k_tilde must be >= 1")
    splitter = Splitter(scores, step)
    extracted: list[ScoredWalk] = []
    positive: list[ScoredWalk] = []
    while splitter.heap and len(positive) < k:
        if max_k_tilde is not None and len(extracted) >= max_k_tilde:
            break
        scored = score(*splitter.pop())
        extracted.append(scored)
        if scored.relevance > 0:
            positive.append(scored)
    return result_type(
        positive=positive,
        extracted=extracted,
        exhausted=not splitter.heap,
        subsets_created=splitter.subsets_created,
        argmax_ops=splitter.argmax_ops,
    )
