"""Approximate node-level top-K search: step objectives, degeneracy, splitting."""

from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relwalk import (
    GammaSchedule,
    GnnModel,
    Graph,
    LayerSpec,
    ReadoutSpec,
    Splitter,
    amp_ave_topk,
    build_node_message_table,
    build_propagation,
    dense_tensor,
    exhaustive_topk_node,
    forward,
    modified_adjacency,
    node_walk_relevance,
    walks_to_edge_scores,
)
from relwalk.ampave import candidate_scores, edge_objective
from relwalk.graphs import EDGE_BLOCK
from relwalk.oracle import ScoredWalk, dense_lambda
from helpers import (dense_slices, headed_instance, random_instance, sink_adjacency,
                     stack_from_factors)


# -- step objective --------------------------------------------------------------


def dense_objective(stack, l, mu_next):
    """All-pairs step objective from the dense oracle tensor."""
    return np.einsum("anbm,bm->ab", dense_tensor(stack, l), mu_next)


def test_edge_objective_matches_tensor_contraction():
    for seed in range(5):
        _, _, _, stack = random_instance(seed=seed, edge_prob=0.5)
        for l in range(stack.num_steps):
            mu_next = np.random.default_rng(seed + l).normal(
                size=(stack.num_nodes, stack.dims[l + 1]))
            rows, cols = stack.edges[l]
            via_edges = edge_objective(stack, l, mu_next * stack.inverse_denominators[l],
                                       rows, cols, stack.edge_values[l])
            via_tensor = dense_objective(stack, l, mu_next)
            np.testing.assert_allclose(via_edges, via_tensor[rows, cols], atol=1e-9)
            # the objective off the edge list is exactly 0
            off = np.ones_like(via_tensor, dtype=bool)
            off[rows, cols] = False
            assert not via_tensor[off].any()


@pytest.mark.parametrize("n", [1, 16])
@pytest.mark.parametrize("edges", [0, 1, EDGE_BLOCK - 1, EDGE_BLOCK, EDGE_BLOCK + 1,
                                   2 * EDGE_BLOCK, 5 * EDGE_BLOCK + 3])
def test_blocked_edge_objective_equals_one_whole_edge_list_einsum(edges, n):
    rng = np.random.default_rng(edges + n)
    m = 3000
    stack = SimpleNamespace(hidden=[rng.normal(size=(m, n + 1))],
                            wups=[rng.normal(size=(n + 1, n))])
    scaled = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-6, 7, (m, n))
    rows = np.sort(rng.integers(0, m, edges))
    cols = rng.integers(0, m, edges)
    values = rng.random(edges) + 0.1
    hw = stack.hidden[0] @ stack.wups[0]
    whole = values * np.einsum("ej,ej->e", hw[rows], scaled[cols])
    assert edge_objective(stack, 0, scaled, rows, cols, values).tobytes() == whole.tobytes()


# -- single best walk -------------------------------------------------------------


def test_basic_single_node_graph():
    graph = Graph(np.array([[1.0]]), np.array([[0.4]]))
    model = GnnModel((LayerSpec(np.array([[1.0]])),), ReadoutSpec(task="graph"))
    acts = forward(model, graph)
    stack = build_propagation(model, graph, acts, GammaSchedule.constant(0.0, 1), 0)
    [walk] = amp_ave_topk(stack, 1, max_k_tilde=1).extracted
    assert walk.nodes == (0, 0)
    assert walk.relevance == pytest.approx(0.4)


def test_basic_exact_in_degenerate_neuron_space():
    # single-neuron layers make the column average the column itself
    for seed in range(20):
        _, _, _, stack = random_instance(m=5, dims=(1, 1, 1, 1), seed=seed,
                                         positive_weights=True)
        assert np.all(stack.output_relevance >= 0)
        [found] = amp_ave_topk(stack, 1, max_k_tilde=1).extracted
        expected = exhaustive_topk_node(stack, 1)[0]
        assert found.relevance == pytest.approx(expected.relevance, abs=1e-12)


def test_basic_dead_network_returns_none():
    graph = Graph(np.array([[1.0]]), np.array([[1.0]]))
    model = GnnModel((LayerSpec(np.array([[-1.0]])),), ReadoutSpec(task="graph"))
    acts = forward(model, graph)
    stack = build_propagation(model, graph, acts, GammaSchedule.constant(0.0, 1), 0)
    assert amp_ave_topk(stack, 1, max_k_tilde=1).extracted == []


def test_basic_reported_relevance_is_exact():
    for seed in range(10):
        _, _, _, stack = random_instance(seed=seed)
        [walk] = amp_ave_topk(stack, 1, max_k_tilde=1).extracted
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
        [walk] = amp_ave_topk(stack, 1, max_k_tilde=1).extracted
        third = exhaustive_topk_node(stack, 3)[-1].relevance
        hits += walk.relevance >= third - 1e-10
    assert hits >= 9


# -- top-K search -----------------------------------------------------------------


def test_topk_k1_equals_basic_when_positive():
    for seed in range(10):
        _, _, _, stack = random_instance(seed=seed)
        [first] = amp_ave_topk(stack, 1, max_k_tilde=1).extracted
        if first.relevance <= 0:
            continue
        result = amp_ave_topk(stack, 1)
        assert result.positive[0] == first


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


def reported_relevance_stacks():
    """random_instance seed 7, headed models with signed R^(L) on random
    sparse graphs, and the sink graph, with Lambda's entries 1 and scaled."""
    yield random_instance(seed=7)[3]
    for weighted in (False, True):
        for seed in range(10):
            a = (np.random.default_rng(seed).random((6, 6)) < 0.5).astype(float)
            yield headed_instance(modified_adjacency(np.maximum(a, a.T)), seed,
                                  weighted=weighted)
        for seed in range(5):
            yield headed_instance(sink_adjacency(), seed, weighted=weighted,
                                  dims=(2, 2, 2, 2))


def test_topk_reported_relevances_exact_and_positive_descending():
    # the search reports the score that chose each walk; it must be the
    # walk's relevance, negative extractions included
    signed = negative = 0
    for stack in reported_relevance_stacks():
        signed += bool(np.any(stack.output_relevance < 0))
        result = amp_ave_topk(stack, 15, max_k_tilde=200)
        values = [w.relevance for w in result.positive]
        assert all(v > 0 for v in values)
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12
        for w in result.extracted:
            negative += w.relevance < 0
            assert w.relevance == pytest.approx(
                node_walk_relevance(stack, w.nodes), rel=1e-9, abs=1e-12)
    assert signed >= 10 and negative >= 10, (signed, negative)


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
    _, _, _, stack = random_instance(m=3, dims=(2, 2, 2), seed=1, edge_prob=1.0)
    table = build_node_message_table(stack)
    space = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    splitter = Splitter(partial(candidate_scores, stack, table), table.step)
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
    return all(stack.lam(l, nodes[l], nodes[l + 1]) != 0
               for l in range(stack.num_steps))


def ends_on_support(stack, nodes):
    return bool(stack.output_relevance[nodes[-1]].any())


def edge_following_walks(stack):
    everything = exhaustive_topk_node(stack, stack.num_nodes ** (stack.num_steps + 1))
    return sorted(w.nodes for w in everything if follows_edges(stack, w.nodes))


def support_walks(stack):
    """Edge-following walks that end on R^(L)'s support: the search space."""
    return [w for w in edge_following_walks(stack) if ends_on_support(stack, w)]


@pytest.mark.parametrize("weighted", [False, True])
def test_messages_are_exact_relevances_of_greedy_completions(weighted):
    signed = 0
    for seed in range(10):
        a = (np.random.default_rng(seed).random((6, 6)) < 0.5).astype(float)
        stack = headed_instance(modified_adjacency(np.maximum(a, a.T)), seed,
                                weighted=weighted)
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


def masked_dense_objective(stack, table, l):
    """Dense objective rows of step l, with -inf off the continuations the
    table may choose (edges whose completion follows edges)."""
    obj = dense_objective(stack, l, table.mu[l + 1])
    allowed = (dense_lambda(stack, l) != 0) & table.complete[l + 1][None, :]
    return obj, allowed, np.where(allowed, obj, -np.inf)


def assert_steps_are_first_maximizers(stack, table, rel=1e-12):
    """step[l][m] reaches the masked dense row max within rel, and is its
    first maximizer wherever that is unique (0 on rows with no choice)."""
    for l in range(stack.num_steps):
        _, allowed, masked = masked_dense_objective(stack, table, l)
        for m in range(stack.num_nodes):
            row, chosen = masked[m], int(table.step[l][m])
            if not allowed[m].any():
                assert chosen == 0
                continue
            top = row.max()
            near = np.flatnonzero(np.abs(row - top) <= rel * abs(top))
            assert chosen in near, (l, m, chosen, near)
            if near.size == 1:
                assert chosen == int(np.argmax(row))


def test_edge_argmax_on_node_task_equals_fully_masked_argmax():
    # R^(L) is zero outside the target row, so many objective rows are all
    # zero, and on these rows no continuation is allowed: step is 0 there
    zero_rows = 0
    for seed in range(10):
        _, _, _, stack = random_instance(m=8, seed=seed, edge_prob=0.3, task="node",
                                         target=seed % 8)
        table = build_node_message_table(stack)
        assert_steps_are_first_maximizers(stack, table)
        for l in range(stack.num_steps):
            obj, allowed, masked = masked_dense_objective(stack, table, l)
            zero = ~obj.any(axis=1)
            np.testing.assert_array_equal(table.step[l][zero],
                                          np.argmax(masked, axis=1)[zero])
            zero_rows += int(np.sum(zero & ~allowed[:, 0]))
    assert zero_rows > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.sampled_from([0.0, 0.3, 1.0]),
       st.sampled_from(["graph", "node", "headed"]))
def test_steps_are_first_maximizers_of_the_masked_objective(seed, weighted, edge_prob,
                                                            kind):
    if kind == "headed":
        a = (np.random.default_rng(seed).random((6, 6)) < edge_prob).astype(float)
        stack = headed_instance(modified_adjacency(np.maximum(a, a.T)), seed,
                                weighted=weighted)
    else:
        _, _, _, stack = random_instance(seed=seed, edge_prob=edge_prob, task=kind,
                                         target=seed % 6 if kind == "node" else None,
                                         weighted=weighted)
    assert_steps_are_first_maximizers(stack, build_node_message_table(stack))


def test_exact_ties_take_the_first_continuation():
    # complete graph, uniform factors: every continuation scores the same
    ones = [np.ones((3, 3)), np.ones((3, 3))]
    stack = stack_from_factors(ones, [np.ones((3, 2))] * 2, [np.ones((2, 2))] * 2,
                               np.ones((3, 2)))
    table = build_node_message_table(stack)
    for step in table.step:
        np.testing.assert_array_equal(step, 0)


def test_node_message_table_holds_no_m_by_m_array():
    _, _, _, stack = random_instance(m=40, seed=0, edge_prob=0.1)
    table = build_node_message_table(stack)
    bound = stack.num_nodes * max(stack.dims)
    arrays = table.mu + table.step + table.scaled + table.complete
    assert len(arrays) == 4 * stack.num_steps + 2
    assert all(a.size <= bound for a in arrays)
    assert table.objective == ()


def test_completions_avoid_dead_ends():
    for seed in range(5):
        stack = headed_instance(sink_adjacency(), seed, dims=(2, 2, 2, 2))
        walks = support_walks(stack)
        for first in amp_ave_topk(stack, 1, max_k_tilde=1).extracted:
            assert follows_edges(stack, first.nodes)
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
