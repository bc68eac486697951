"""The splitting engine on hand-made scores, with no search behind it."""

import numpy as np
import pytest

from relwalk import ScoredWalk, Splitter, pick, split_topk

INF = np.inf
# completion of a value at position 0 through position 1
STEP = (np.array([2, 0, 1, 1]),)


def test_pick_takes_first_maximizer_under_exact_ties():
    scores = np.array([1.0, 3.0, -INF, 3.0])
    assert pick(np.arange(4), scores, 1.0, STEP, (), frozenset()) == (3.0, (1, 0))


def test_pick_skips_excluded_values():
    scores = np.array([1.0, 3.0, -INF, 3.0])
    assert pick(np.arange(4), scores.copy(), 1.0, STEP, (), frozenset({1})) == (3.0, (3, 1))
    assert pick(np.arange(4), scores.copy(), 1.0, STEP, (), frozenset({1, 3})) == (1.0, (0, 2))


def test_pick_none_when_only_minus_inf_is_left():
    scores = np.array([1.0, -INF, -INF, 3.0])
    assert pick(np.arange(4), scores, 1.0, STEP, (), frozenset({0, 3})) is None
    assert pick(np.arange(4), np.full(4, -INF), 1.0, STEP, (), frozenset()) is None


def test_pick_completes_after_the_prefix():
    # a prefix fixes position 0; the free value is the last position
    scores = np.array([0.5, -INF, 2.0, 2.0])
    assert pick(np.arange(4), scores, 1.0, STEP, (3,), frozenset()) == (2.0, (3, 2))


def test_pick_scale_stays_outside_the_argmax():
    # scaled by the smallest subnormal, both scores round to the same
    # value; unscaled, the second is larger by one ulp and must win
    scores = np.array([1.0, np.nextafter(1.0, 2.0)])
    tiny = 5e-324
    assert tiny * scores[0] == tiny * scores[1]
    value, walk = pick(np.arange(2), scores, tiny, (np.array([0, 0]),), (), frozenset())
    assert walk == (1, 0)
    assert value == tiny * scores[1]
    # a zero scale reports 0 for the same walk, never a -inf product
    assert pick(np.arange(2), np.array([-INF, 2.0]), 0.0, (np.array([0, 0]),), (), frozenset()) \
        == (0.0, (1, 0))


class CountingScorer:
    """Fixed scores per prefix over walks of length 2 on values 0 .. 3,
    consistent with STEP; records the size of every array it returns."""

    TABLE = {
        (): np.array([4.0, 3.0, -INF, 1.0]),
        (0,): np.array([-INF, -INF, 4.0, -INF]),   # only the completion 0 -> 2
        (1,): np.array([3.0, 2.0, -INF, -INF]),
        (3,): np.array([-INF, 1.0, -INF, 0.5]),
    }

    def __init__(self):
        self.sizes = []

    def __call__(self, prefix):
        scores = self.TABLE[prefix].copy()
        self.sizes.append(scores.size)
        return np.arange(scores.size), scores, 1.0


def test_argmax_ops_counts_every_scorer_call_empty_subsets_included():
    scorer = CountingScorer()
    result = split_topk(scorer, STEP,
                        lambda walk, priority: ScoredWalk(walk, priority), k=100)
    walks = [w.nodes for w in result.extracted]
    assert walks == [(0, 2), (1, 0), (1, 1), (3, 1), (3, 3)]
    assert [w.relevance for w in result.extracted] == [4.0, 3.0, 2.0, 1.0, 0.5]
    assert result.exhausted
    # the root and 8 children, 4 of them empty: (0,) without 2, (1,)
    # without 0 and 1, () without 0, 1 and 3, (3,) without 1 and 3
    assert len(scorer.sizes) == 9
    assert result.argmax_ops == sum(scorer.sizes)
    assert result.subsets_created == len(scorer.sizes)


def test_splitter_root_without_walk_is_empty():
    scorer = lambda prefix: (np.arange(3), np.full(3, -INF), 1.0)
    splitter = Splitter(scorer, (np.zeros(3, dtype=int),))
    assert splitter.heap == []
    assert splitter.subsets_created == 0
    assert splitter.argmax_ops == 3


@pytest.mark.parametrize("k", [0, -1])
def test_split_topk_rejects_k_below_one(k):
    with pytest.raises(ValueError):
        split_topk(CountingScorer(), STEP, lambda walk, p: ScoredWalk(walk, p), k)


@pytest.mark.parametrize("cap", [0, -1])
def test_split_topk_rejects_max_k_tilde_below_one(cap):
    # such a cap used to return no walk with exhausted=False
    with pytest.raises(ValueError, match="max_k_tilde"):
        split_topk(CountingScorer(), STEP, lambda walk, p: ScoredWalk(walk, p), 1, cap)
