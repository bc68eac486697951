"""Approximate node-level top-K search: step objectives, degeneracy, splitting."""

from functools import partial

import numpy as np
import pytest

from relwalk import (
    GammaSchedule,
    GnnModel,
    Graph,
    LayerSpec,
    ReadoutSpec,
    Splitter,
    amp_ave_basic,
    amp_ave_topk,
    build_node_message_table,
    build_propagation,
    dense_tensor,
    exhaustive_topk_node,
    forward,
    modified_adjacency,
    node_walk_relevance,
    step_objective_matrix,
    walks_to_edge_scores,
)
from relwalk.oracle import ScoredWalk
from helpers import dense_slices, headed_instance, random_instance, sink_adjacency


# -- step objective --------------------------------------------------------------


def test_step_objective_matrix_matches_tensor_contraction():
    for seed in range(5):
        _, _, _, stack = random_instance(seed=seed)
        for l in range(stack.num_steps):
            mu_next = np.abs(np.random.default_rng(seed + l).normal(
                size=(stack.num_nodes, stack.dims[l + 1])))
            via_factorized = step_objective_matrix(stack, l, mu_next)
            via_tensor = np.einsum("anbm,bm->ab", dense_tensor(stack, l), mu_next)
            np.testing.assert_allclose(via_factorized, via_tensor, atol=1e-9)


# -- single best walk -------------------------------------------------------------


def test_basic_single_node_graph():
    graph = Graph(np.array([[1.0]]), np.array([[0.4]]))
    model = GnnModel((LayerSpec(np.array([[1.0]])),), ReadoutSpec(task="graph"))
    acts = forward(model, graph)
    stack = build_propagation(model, graph, acts, GammaSchedule.constant(0.0, 1), 0)
    walk = amp_ave_basic(stack)
    assert walk.nodes == (0, 0)
    assert walk.relevance == pytest.approx(0.4)


def test_basic_exact_in_degenerate_neuron_space():
    # single-neuron layers make the column average the column itself
    for seed in range(20):
        _, _, _, stack = random_instance(m=5, dims=(1, 1, 1, 1), seed=seed,
                                         positive_weights=True)
        assert np.all(stack.output_relevance >= 0)
        found = amp_ave_basic(stack)
        expected = exhaustive_topk_node(stack, 1)[0]
        assert found.relevance == pytest.approx(expected.relevance, abs=1e-12)


def test_basic_dead_network_returns_none():
    graph = Graph(np.array([[1.0]]), np.array([[1.0]]))
    model = GnnModel((LayerSpec(np.array([[-1.0]])),), ReadoutSpec(task="graph"))
    acts = forward(model, graph)
    stack = build_propagation(model, graph, acts, GammaSchedule.constant(0.0, 1), 0)
    assert amp_ave_basic(stack) is None


def test_basic_reported_relevance_is_exact():
    for seed in range(10):
        _, _, _, stack = random_instance(seed=seed)
        walk = amp_ave_basic(stack)
        assert walk.relevance == pytest.approx(
            node_walk_relevance(stack, walk.nodes), abs=1e-12)


def test_basic_near_top_on_positive_instances():
    # on instances whose transition entries are mostly positive, the
    # averaged argmax should land in the oracle's top ranks most of the time
    hits = 0
    for seed in range(10):
        _, _, _, stack = random_instance(
            m=8, seed=seed, schedule=GammaSchedule.linear_decay(3.0, 3),
            positive_weights=True)
        walk = amp_ave_basic(stack)
        third = exhaustive_topk_node(stack, 3)[-1].relevance
        hits += walk.relevance >= third - 1e-10
    assert hits >= 9


# -- top-K search -----------------------------------------------------------------


def test_topk_k1_equals_basic_when_positive():
    for seed in range(10):
        _, _, _, stack = random_instance(seed=seed)
        basic = amp_ave_basic(stack)
        if basic.relevance <= 0:
            continue
        result = amp_ave_topk(stack, 1)
        assert result.positive[0] == basic


def test_topk_degenerate_exactness():
    # criterion rehearsal: single-neuron layers, nonnegative relevance
    for seed in range(10):
        _, _, _, stack = random_instance(m=4, dims=(1, 1, 1), seed=seed,
                                         positive_weights=True)
        result = amp_ave_topk(stack, 10)
        expected = [w for w in exhaustive_topk_node(stack, 4 ** 3)
                    if w.relevance > 0][:10]
        assert len(result.positive) == len(expected)
        for f, e in zip(result.positive, expected):
            assert f.relevance == pytest.approx(e.relevance, abs=1e-12)


def test_topk_reported_relevances_exact_and_positive_descending():
    _, _, _, stack = random_instance(seed=7)
    result = amp_ave_topk(stack, 15)
    values = [w.relevance for w in result.positive]
    assert all(v > 0 for v in values)
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12
    for w in result.extracted:
        assert w.relevance == pytest.approx(
            node_walk_relevance(stack, w.nodes), abs=1e-12)


def test_topk_factorized_matches_materialized():
    # reference: the same stack with slices and entries read from the dense
    # oracle tensors
    for seed in range(20):
        _, _, _, s_fac = random_instance(seed=seed)
        s_mat = dense_slices(s_fac)
        r_mat = amp_ave_topk(s_mat, 8)
        r_fac = amp_ave_topk(s_fac, 8)
        assert [w.nodes for w in r_mat.positive] == [w.nodes for w in r_fac.positive]
        for a, b in zip(r_mat.positive, r_fac.positive):
            assert a.relevance == pytest.approx(b.relevance, abs=1e-9)


def test_topk_subset_count_bound():
    _, _, _, stack = random_instance(seed=4)
    result = amp_ave_topk(stack, 20)
    assert result.subsets_created <= result.k_tilde * (stack.num_steps + 1) + 1


def test_topk_exhaustion_on_tiny_space():
    _, _, _, stack = random_instance(m=2, dims=(2, 2), seed=0, edge_prob=1.0)
    result = amp_ave_topk(stack, 100)
    assert result.exhausted
    assert result.k_tilde <= 4


def test_topk_summary_fields():
    _, _, _, stack = random_instance(seed=5)
    result = amp_ave_topk(stack, 5)
    summary = result.summary()
    assert summary["k"] == len(result.positive)
    assert summary["negatives_skipped"] == result.k_tilde - len(result.positive)


def test_topk_rejects_bad_k():
    _, _, _, stack = random_instance(seed=0)
    with pytest.raises(ValueError):
        amp_ave_topk(stack, 0)


def test_splitting_partitions_node_walk_space():
    from relwalk.ampave import _constrained_best

    _, _, _, stack = random_instance(m=3, dims=(2, 2, 2), seed=1, edge_prob=1.0)
    table = build_node_message_table(stack)
    space = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    splitter = Splitter(partial(_constrained_best, stack, table))
    extracted = []
    for k_tilde in range(1, 20):
        found, _ = splitter.pop()
        extracted.append(found)
        covered = {w: 0 for w in space}
        for w in extracted:
            covered[w] += 1
        for prefix, excluded in splitter.live:
            for w in space:
                if w[:len(prefix)] == prefix and w[len(prefix)] not in excluded:
                    covered[w] += 1
        assert all(c == 1 for c in covered.values()), k_tilde
        assert len(splitter.live) <= k_tilde * stack.num_steps + 1


# -- walks follow edges; messages are signed ----------------------------------------


def follows_edges(stack, nodes):
    return all(stack.lambdas[l][nodes[l], nodes[l + 1]] != 0
               for l in range(stack.num_steps))


def ends_on_support(stack, nodes):
    return bool(stack.output_relevance[nodes[-1]].any())


def edge_following_walks(stack):
    everything = exhaustive_topk_node(stack, stack.num_nodes ** (stack.num_steps + 1))
    return sorted(w.nodes for w in everything if follows_edges(stack, w.nodes))


def support_walks(stack):
    """Edge-following walks that end on R^(L)'s support: the search space."""
    return [w for w in edge_following_walks(stack) if ends_on_support(stack, w)]


@pytest.mark.parametrize("stabilize", [False, True])
def test_messages_are_exact_relevances_of_greedy_completions(stabilize):
    signed = 0
    for seed in range(10):
        a = (np.random.default_rng(seed).random((6, 6)) < 0.5).astype(float)
        stack = headed_instance(modified_adjacency(np.maximum(a, a.T)), seed,
                                stabilize=stabilize)
        signed += bool(np.any(stack.output_relevance < 0))
        table = build_node_message_table(stack)
        for m in range(stack.num_nodes):
            nodes = [m]
            for l in range(stack.num_steps):
                nodes.append(int(table.step[l][nodes[-1]]))
            assert table.mu[0][m].sum() == pytest.approx(
                node_walk_relevance(stack, nodes), rel=1e-9, abs=1e-12)
    assert signed >= 5


def test_topk_extracts_only_edge_following_walks():
    dead = live = 0
    for seed in range(10):
        _, _, _, stack = random_instance(m=8, seed=seed, edge_prob=0.3)
        result = amp_ave_topk(stack, 10, max_k_tilde=500)
        if not stack.output_relevance.any():
            # no walk ends on R^(L)'s support, so the search space is empty
            dead += 1
            assert not result.extracted and result.exhausted
            continue
        live += 1
        assert result.extracted
        for w in result.extracted:
            assert follows_edges(stack, w.nodes), w
            assert ends_on_support(stack, w.nodes), w
    assert dead > 0 and live > 0


def test_topk_exhausts_exactly_the_edge_following_walks():
    _, _, _, stack = random_instance(m=4, dims=(2, 2, 2), seed=3, edge_prob=0.3)
    walks = edge_following_walks(stack)
    assert len(walks) < 4 ** 3
    result = amp_ave_topk(stack, 4 ** 3)
    assert result.exhausted
    assert sorted(w.nodes for w in result.extracted) == walks


def test_uncapped_topk_extracts_exactly_the_support_walks():
    # on a node task R^(L) is zero outside the target row, so only walks
    # ending on the target can carry relevance; the search sweeps those
    # and nothing else
    for seed in range(10):
        _, _, _, stack = random_instance(m=5, dims=(2, 2, 2, 2), seed=seed,
                                         edge_prob=0.5, task="node", target=seed % 5)
        total = stack.num_nodes ** (stack.num_steps + 1)
        oracle = {w.nodes: w.relevance for w in exhaustive_topk_node(stack, total)}
        walks = support_walks(stack)
        assert len(walks) < len(edge_following_walks(stack))
        result = amp_ave_topk(stack, total + 1)
        assert result.exhausted
        assert sorted(w.nodes for w in result.extracted) == walks
        for w in result.extracted:
            assert w.relevance == pytest.approx(oracle[w.nodes], rel=1e-9, abs=1e-12)
        # every walk left out has relevance exactly 0
        assert all(oracle[w] == 0 for w in set(oracle) - set(walks))


def test_edge_argmax_in_row_blocks_matches_one_block(monkeypatch):
    from relwalk import ampave

    # headed models give signed objective rows, so the plain argmax often
    # lands off the search space on rows that hold nonzero values, which
    # is what the masked refit (the blocked path) redoes
    refit = 0
    for seed in range(5):
        a = (np.random.default_rng(seed).random((8, 8)) < 0.3).astype(float)
        stack = headed_instance(modified_adjacency(np.maximum(a, a.T)), seed)
        whole = build_node_message_table(stack)
        monkeypatch.setattr(ampave, "_MASK_BLOCK_ENTRIES", 8)
        blocked = build_node_message_table(stack)
        monkeypatch.undo()
        for obj, a, b in zip(whole.objective, whole.step, blocked.step):
            refit += int(np.sum((np.argmax(obj, axis=1) != a) & obj.any(axis=1)))
            np.testing.assert_array_equal(a, b)
    assert refit > 0


def test_edge_argmax_on_node_task_equals_fully_masked_argmax():
    # R^(L) is zero outside the target row, so many objective rows are all
    # zero; their first allowed continuation is the first maximizer
    zero_rows = 0
    for seed in range(10):
        _, _, _, stack = random_instance(m=8, seed=seed, edge_prob=0.3, task="node",
                                         target=seed % 8)
        table = build_node_message_table(stack)
        for l in range(stack.num_steps):
            obj = table.objective[l]
            allowed = (stack.lambdas[l] != 0) & table.complete[l + 1][None, :]
            masked = np.argmax(np.where(allowed, obj, -np.inf), axis=1)
            np.testing.assert_array_equal(table.step[l], masked)
            zero_rows += int(np.sum(~obj.any(axis=1) & ~allowed[:, 0]))
    assert zero_rows > 0


def test_completions_avoid_dead_ends():
    for seed in range(5):
        stack = headed_instance(sink_adjacency(), seed, dims=(2, 2, 2, 2))
        walks = support_walks(stack)
        basic = amp_ave_basic(stack)
        assert basic is None or follows_edges(stack, basic.nodes)
        result = amp_ave_topk(stack, len(walks) + 1)
        assert sorted(w.nodes for w in result.extracted) == walks


# -- edge scores -------------------------------------------------------------------


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
