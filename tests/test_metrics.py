"""Evaluation metrics: precision/recall, column similarity, chain recall,
edge scores and edge recall, and the timing harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relwalk import (
    ScoredWalk,
    column_similarity_histogram,
    edge_recall,
    infection_chain_recall,
    pad_chain,
    precision_recall,
    time_callable,
    walks_to_edge_scores,
)
from relwalk.metrics import _is_subsequence

from helpers import random_instance, stack_from_factors


def walks(*node_seqs, start=1.0):
    return [ScoredWalk(tuple(nodes), start - 0.01 * i)
            for i, nodes in enumerate(node_seqs)]


# -- precision / recall --------------------------------------------------------------


def test_perfect_agreement_gives_unit_precision_and_recall():
    oracle = walks((0, 1), (1, 2), (2, 0))
    points = precision_recall(oracle, oracle, ks=[3], k_stars=[3])
    assert points[0].precision == 1.0 and points[0].recall == 1.0


def test_hand_computed_overlap():
    oracle = walks((0, 0), (1, 1), (2, 2), (3, 3))
    approx = walks((1, 1), (9, 9), (3, 3), (8, 8))
    (pt,) = precision_recall(approx, oracle, ks=[4], k_stars=[4])
    assert pt.precision == pytest.approx(0.5)
    assert pt.recall == pytest.approx(0.5)
    (pt,) = precision_recall(approx, oracle, ks=[2], k_stars=[4])
    assert pt.precision == pytest.approx(0.5)   # (1,1) of the first two
    assert pt.recall == pytest.approx(0.25)


def test_recall_monotone_in_k_for_fixed_k_star():
    rng = np.random.default_rng(0)
    oracle = walks(*[tuple(rng.integers(0, 5, size=3)) for _ in range(20)])
    approx = walks(*[tuple(rng.integers(0, 5, size=3)) for _ in range(20)])
    ks = list(range(1, 21))
    points = precision_recall(approx, oracle, ks=ks, k_stars=[10])
    recalls = [p.recall for p in sorted(points, key=lambda p: p.k)]
    assert all(a <= b for a, b in zip(recalls, recalls[1:]))


@pytest.mark.parametrize("ks,k_stars", [([0], [1]), ([1, -1], [1]), ([1], [0]), ([1], [2, -2])])
def test_k_or_k_star_below_one_rejected(ks, k_stars):
    oracle = walks((0, 1), (1, 2))
    with pytest.raises(ValueError, match="K and K"):
        precision_recall(oracle, oracle, ks=ks, k_stars=k_stars)


def test_short_oracle_rejected():
    oracle = walks((0, 1))
    with pytest.raises(ValueError, match="oracle"):
        precision_recall(oracle, oracle, ks=[1], k_stars=[5])


# -- transition column similarity ----------------------------------------------------


def test_identical_columns_similarity_one():
    # all-ones W_up: column n' of slice (m, m') is Lambda[m, m'] H[m] / den[m', n'],
    # and den[m', n'] does not depend on n', so every column is the same
    rng = np.random.default_rng(3)
    lam = (rng.random((4, 4)) < 0.6) + np.eye(4)
    stack = stack_from_factors([lam, lam], [rng.random((4, 3)) + 0.1 for _ in range(2)],
                               [np.ones((3, 3))] * 2, np.ones((4, 3)))
    hist = column_similarity_histogram(stack)
    assert hist.similarities.size > 0
    np.testing.assert_allclose(hist.similarities, 1.0, atol=1e-12)
    assert hist.mean == pytest.approx(1.0)


def test_zero_mean_slice_excluded_and_counted():
    # den = column sums of H W_up = [1, -1], so slice (0, 0) has the
    # columns [1, 0] and [-1, 0], which cancel exactly (mean column = 0)
    stack = stack_from_factors([np.ones((2, 2))], [np.eye(2)],
                               [np.array([[1.0, 1.0], [0.0, -2.0]])], np.ones((2, 2)))
    np.testing.assert_array_equal(stack.slice(0, 0, 0), [[1.0, -1.0], [0.0, 0.0]])
    hist = column_similarity_histogram(stack)
    assert hist.degenerate_slices >= 1


def test_histogram_mass_equals_included_columns():
    *_, stack = random_instance(m=5, dims=(3, 3, 3, 3), seed=5)
    hist = column_similarity_histogram(stack)
    counts, _ = hist.histogram(bins=20)
    assert counts.sum() == hist.similarities.size
    assert np.all(np.abs(hist.similarities) <= 1.0 + 1e-12)


def test_all_zero_columns_are_skipped():
    # a zeroed column of W_up gives a zero denominator, so that column of
    # every slice is zeroed
    rng = np.random.default_rng(6)
    w = rng.normal(size=(2, 2))
    w[:, 0] = 0.0
    stack = stack_from_factors([np.ones((3, 3))], [rng.random((3, 2)) + 0.1], [w],
                               np.ones((3, 2)))
    assert not stack.slice(0, 0, 0)[:, 0].any()
    hist = column_similarity_histogram(stack)
    assert hist.zero_columns >= 1


# -- chain padding and recall --------------------------------------------------------


def test_pad_chain_repeats_terminal_node():
    assert pad_chain([3, 5], 4) == (3, 5, 5, 5)
    assert pad_chain([1, 2, 3, 4], 4) == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        pad_chain([1, 2, 3], 2)


def test_subsequence_matching():
    assert _is_subsequence((1, 3), (1, 2, 3, 4))
    assert _is_subsequence((1, 2, 3), (1, 2, 3))
    assert not _is_subsequence((3, 1), (1, 2, 3))


def test_chain_recall_one_when_all_chains_returned():
    chains = {2: [0, 1, 2], 3: [0, 3]}
    per_target = {
        2: walks((0, 1, 2)),
        3: walks((0, 3, 3)),
    }
    recall = infection_chain_recall(per_target, chains, k=5, walk_length=3)
    assert recall.padded == 1.0
    assert recall.subsequence == 1.0
    assert recall.targets == 2


def test_chain_recall_zero_at_k_zero():
    chains = {2: [0, 1, 2]}
    per_target = {2: walks((0, 1, 2))}
    recall = infection_chain_recall(per_target, chains, k=0, walk_length=3)
    assert recall.padded == 0.0 and recall.subsequence == 0.0


def test_chain_recall_counts_only_targets_with_chains():
    chains = {2: [0, 1, 2]}
    per_target = {2: walks((9, 9, 9)), 7: walks((0, 1, 2))}
    recall = infection_chain_recall(per_target, chains, k=1, walk_length=3)
    assert recall.targets == 1
    assert recall.padded == 0.0


def test_subsequence_convention_is_weaker_than_padded():
    # (0, 2) occurs inside (0, 1, 2) as a subsequence but not padded
    chains = {2: [0, 2]}
    per_target = {2: walks((0, 1, 2))}
    recall = infection_chain_recall(per_target, chains, k=1, walk_length=3)
    assert recall.padded == 0.0
    assert recall.subsequence == 1.0


def test_chain_longer_than_the_walk_is_a_miss_in_both_conventions():
    # a walk of 3 nodes holds a 4-node chain neither padded nor as a
    # subsequence; the other target still counts as a hit
    chains = {4: [0, 1, 2, 4], 3: [0, 3]}
    per_target = {4: walks((0, 1, 2)), 3: walks((0, 3, 3))}
    recall = infection_chain_recall(per_target, chains, k=5, walk_length=3)
    assert recall.targets == 2
    assert recall.padded == 0.5
    assert recall.subsequence == 0.5


# -- edge scores and edge recall ----------------------------------------------------


def test_edge_scores_single_walk():
    scores = walks_to_edge_scores([ScoredWalk((0, 1, 2), 0.5)])
    assert scores == {(0, 1): 0.5, (1, 2): 0.5}


def test_edge_scores_max_rule():
    walks = [ScoredWalk((0, 1, 1), 0.2), ScoredWalk((0, 1, 2), 0.7)]
    scores = walks_to_edge_scores(walks)
    assert scores[(0, 1)] == 0.7


def test_edge_scores_empty_input_rejected():
    with pytest.raises(ValueError):
        walks_to_edge_scores([])


def test_edge_recall_direction_insensitive():
    scores = {(1, 0): 3.0, (2, 3): 2.0, (4, 5): 1.0}
    assert edge_recall(scores, {(0, 1), (3, 2)}) == [0.5, 1.0, 1.0]
    assert edge_recall(scores, {(0, 1), (4, 5)}) == [0.5, 0.5, 1.0]


def test_edge_recall_ignores_self_loops():
    # one cutoff per ranked edge: the self-loop and the second direction
    # of (1, 2) add none
    scores = {(0, 0): 10.0, (1, 2): 1.0, (2, 1): 0.5}
    assert edge_recall(scores, {(1, 2)}) == [1.0]


def test_edge_recall_requires_true_edges():
    with pytest.raises(ValueError):
        edge_recall({(0, 1): 1.0}, set())


@given(st.integers(1, 9))
@settings(deadline=None, max_examples=20)
def test_edge_recall_monotone_in_top_e(top_e):
    rng = np.random.default_rng(7)
    scores = {(int(i), int(j)): float(rng.random())
              for i in range(5) for j in range(i + 1, 5)}
    curve = edge_recall(scores, {(0, 1), (2, 3)})
    assert len(curve) == len(scores)
    assert curve[top_e - 1] <= curve[top_e]


@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       st.sampled_from([0.5, 1.0, 2.0]), min_size=1),
       st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1))
@settings(deadline=None, max_examples=50)
def test_edge_recall_curve_is_the_recall_at_each_cutoff(scores, true_edges):
    # reference: rank the undirected edges afresh at every cutoff, each
    # scored by its best direction, self-loops left out, ties by edge; one
    # cutoff per ranked edge
    best = {}
    for (i, j), s in scores.items():
        if i != j:
            key = (min(i, j), max(i, j))
            best[key] = max(s, best.get(key, s))
    truth = {(min(i, j), max(i, j)) for i, j in true_edges}
    ranked = sorted(best, key=lambda e: (-best[e], e))
    assert edge_recall(scores, true_edges) == [
        len(set(ranked[:cutoff]) & truth) / len(truth) for cutoff in range(1, len(ranked) + 1)]


# -- timing harness ------------------------------------------------------------------


def test_time_callable_reports_median_and_variance():
    median, variance = time_callable(lambda: None, repetitions=5)
    assert median >= 0.0 and variance >= 0.0
    with pytest.raises(ValueError):
        time_callable(lambda: None, repetitions=0)

