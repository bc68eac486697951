"""Rules both searches share: a step with no edge leaves no walk, GIN's
node-local steps match the oracles, and both graph forms give the same walks."""

import numpy as np
import pytest

from relwalk import (
    GammaSchedule,
    Graph,
    amp_ave_topk,
    build_message_table,
    build_node_message_table,
    build_propagation,
    emp_neu_topk,
    exhaustive_topk_neuron,
    forward,
    graph_from_dict,
    graph_to_dict,
    init_model,
    node_walk_relevance,
    predicted_target,
    random_graph,
)
from helpers import assert_topk_equivalent, scale_edges, stack_from_factors

SEARCHES = (amp_ave_topk, emp_neu_topk)


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
    for topk in SEARCHES:
        assert topk(stack, 1, max_k_tilde=1).extracted == []
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
