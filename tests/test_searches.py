"""Rules both searches share: the basic walk is the first extraction, and a
step with no edge leaves no walk."""

import numpy as np
import pytest

from relwalk import (
    GammaSchedule,
    Graph,
    amp_ave_basic,
    amp_ave_topk,
    build_message_table,
    build_node_message_table,
    build_propagation,
    emp_neu_basic,
    emp_neu_topk,
    exhaustive_topk_neuron,
    forward,
    graph_from_dict,
    graph_to_dict,
    init_model,
    modified_adjacency,
    node_walk_relevance,
    predicted_target,
    random_graph,
)
from helpers import (assert_topk_equivalent, headed_instance, random_instance, scale_edges,
                     stack_from_factors)

SEARCHES = {"amp": (amp_ave_basic, amp_ave_topk), "emp": (emp_neu_basic, emp_neu_topk)}

# 200 seeds each of a dense and a sparse graph task and a node task on each
CONFIGS = [dict(edge_prob=1.0), dict(edge_prob=0.3),
           dict(task="node"), dict(task="node", edge_prob=0.3)]


def first_walk_stacks():
    """The 800 random_instance stacks of CONFIGS (R^(L) >= 0, some dead),
    then 100 linear-head stacks, whose R^(L) carries both signs."""
    for config in CONFIGS:
        for seed in range(200):
            target = seed % 6 if config.get("task") == "node" else None
            yield random_instance(seed=seed, target=target, **config)[3]
    for seed in range(100):
        a = (np.random.default_rng(seed).random((6, 6)) < 0.4).astype(float)
        yield headed_instance(modified_adjacency(np.maximum(a, a.T)), seed)


@pytest.mark.parametrize("method", sorted(SEARCHES))
def test_basic_is_the_first_extraction(method):
    basic, topk = SEARCHES[method]
    none = negative = 0
    for stack in first_walk_stacks():
        walk = basic(stack)
        first = topk(stack, 1, max_k_tilde=1).extracted
        assert walk == (first[0] if first else None)
        none += walk is None
        negative += walk is not None and walk.relevance < 0
    assert none > 0 and negative > 0


def test_step_without_edges_leaves_no_walk():
    # Lambda^(1) is all zero: no walk follows edges through step 1, and the
    # edge list of that step is empty
    lambdas = [np.ones((3, 3)), np.zeros((3, 3))]
    hidden = [np.ones((3, 2)), np.ones((3, 2))]
    wups = [np.ones((2, 2)), np.ones((2, 2))]
    stack = stack_from_factors(lambdas, hidden, wups, np.ones((3, 2)))
    assert stack.edges[1][0].size == 0
    build_message_table(stack)
    table = build_node_message_table(stack)
    assert not any(c.any() for c in table.complete[:-1])
    for basic, topk in SEARCHES.values():
        assert basic(stack) is None
        result = topk(stack, 5)
        assert not result.extracted and result.exhausted


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("task", ["graph", "node"])
def test_gin_identity_steps_match_oracles(task, weighted):
    # a GIN block expands into a step over Lambda and a node-local step whose
    # edge list is the diagonal; both searches must agree with the oracles,
    # also when Lambda's entries are not all 1
    m = 5
    extractions = 0
    for seed in range(10):
        graph = random_graph(m, 3, 0.5, np.random.default_rng(seed))
        if weighted:
            graph = Graph(scale_edges(graph.adjacency, seed), graph.features)
        model = init_model([3, 3, 3], 2, task=task, seed=seed, gin=True)
        acts = forward(model, graph)
        target = predicted_target(model, acts) if task == "graph" else seed % m
        stack = build_propagation(model, graph, acts,
                                  GammaSchedule.linear_decay(3.0, model.num_steps),
                                  target)
        for l, step in enumerate(model.steps):
            if not step.uses_adjacency:
                rows, cols = stack.edges[l]
                assert np.array_equal(rows, np.arange(m)) and np.array_equal(cols, rows)
        for walk in amp_ave_topk(stack, 5, max_k_tilde=40).extracted:
            assert walk.relevance == pytest.approx(node_walk_relevance(stack, walk.nodes),
                                                   rel=1e-9)
            extractions += 1
        found = emp_neu_topk(stack, 5, max_k_tilde=40).extracted
        assert_topk_equivalent(found, exhaustive_topk_neuron(stack, len(found)))
    assert extractions > 0


def assert_close_relative(got, expected, rel=1e-12):
    assert np.abs(got - expected).max(initial=0.0) <= rel * np.abs(expected).max(initial=0.0)


@pytest.mark.parametrize("task", ["graph", "node"])
@pytest.mark.parametrize("gin", [False, True])
def test_matrix_and_edge_list_forms_give_equal_stacks_and_walks(task, gin):
    # the matrix form multiplies with BLAS, the edge-list form sums over
    # edges: stacks agree to rounding, and top-K walks by value group
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dense = random_graph(7, 3, 0.4, rng)
        data = graph_to_dict(dense)
        assert "edges" in data
        sparse = graph_from_dict(data)
        model = init_model([3, 3, 3] if gin else [3, 3, 3, 3], 2, task=task, seed=seed, gin=gin)
        schedule = GammaSchedule.linear_decay(3.0, model.num_steps)
        target = seed % 7
        if task == "graph":
            target = predicted_target(model, forward(model, dense))
        a, b = (build_propagation(model, g, forward(model, g), schedule, target)
                for g in (dense, sparse))
        for l in range(a.num_steps):
            for got, expected in zip(b.edges[l] + (b.edge_values[l], b.row_pointers[l]),
                                     a.edges[l] + (a.edge_values[l], a.row_pointers[l])):
                np.testing.assert_array_equal(got, expected)
        for got, expected in zip(b.hidden + b.inverse_denominators + [b.output_relevance],
                                 a.hidden + a.inverse_denominators + [a.output_relevance]):
            assert_close_relative(got, expected)
        for search, absolute in ((amp_ave_topk, False), (emp_neu_topk, True)):
            expected = search(a, 5, max_k_tilde=200)
            found = search(b, 5, max_k_tilde=200)
            assert_topk_equivalent(found.extracted, expected.extracted, absolute=absolute)
            assert_topk_equivalent(found.positive, expected.positive, absolute=absolute)
