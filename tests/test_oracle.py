"""Ground-truth walk relevances and exhaustive top-K enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relwalk import (
    BudgetError,
    GammaSchedule,
    GnnModel,
    Graph,
    LayerSpec,
    ParameterError,
    ReadoutSpec,
    ScoredWalk,
    build_propagation,
    dense_tensor,
    exhaustive_topk_node,
    exhaustive_topk_neuron,
    forward,
    neuron_walk_relevance,
    node_walk_relevance,
)
from helpers import random_instance


def scalar_stack(weight=1.0, feature=0.4):
    """M=1, N=1, single-step stack whose only transition entry is 1."""
    graph = Graph(np.array([[1.0]]), np.array([[feature]]))
    model = GnnModel((LayerSpec(np.array([[weight]])),), ReadoutSpec(task="graph"))
    acts = forward(model, graph)
    return build_propagation(model, graph, acts, GammaSchedule.constant(0.0, 1), 0)


# -- single-walk relevances ----------------------------------------------------


def test_neuron_walk_single_factor_product():
    stack = scalar_stack()
    assert dense_tensor(stack, 0)[0, 0, 0, 0] == pytest.approx(1.0)
    assert neuron_walk_relevance(stack, (0, 0), (0, 0)) == pytest.approx(0.4)


def test_neuron_walk_zero_entry_annihilates():
    # edgeless graph: only self-loops, so any cross-node step has T entry 0
    _, _, _, stack = random_instance(m=3, dims=(2, 2), seed=0, edge_prob=0.0)
    assert stack.lams[0].value(0, 1) == 0.0
    assert neuron_walk_relevance(stack, (0, 1), (0, 0)) == 0.0


def test_neuron_walk_matches_independent_loop_product():
    _, _, _, stack = random_instance(seed=3)
    rng = np.random.default_rng(3)
    for _ in range(30):
        nodes = tuple(rng.integers(stack.num_nodes, size=stack.num_steps + 1))
        neurons = tuple(rng.integers(d) for d in stack.dims)
        value = 1.0
        for l in range(stack.num_steps):
            value *= dense_tensor(stack, l)[nodes[l], neurons[l], nodes[l + 1], neurons[l + 1]]
        value *= stack.output_relevance[nodes[-1], neurons[-1]]
        assert neuron_walk_relevance(stack, nodes, neurons) == pytest.approx(
            value, abs=1e-14)


def test_node_walk_sums_neuron_walks():
    _, _, _, stack = random_instance(m=3, dims=(2, 2, 2), seed=1)
    nodes = (0, 1, 2)
    total = 0.0
    for n0 in range(2):
        for n1 in range(2):
            for n2 in range(2):
                total += neuron_walk_relevance(stack, nodes, (n0, n1, n2))
    assert node_walk_relevance(stack, nodes) == pytest.approx(total, abs=1e-12)


def test_node_walk_degenerate_neuron_space():
    _, _, _, stack = random_instance(m=4, dims=(1, 1, 1), seed=2)
    for nodes in [(0, 1, 2), (3, 3, 3), (2, 0, 1)]:
        assert node_walk_relevance(stack, nodes) == pytest.approx(
            neuron_walk_relevance(stack, nodes, (0, 0, 0)), abs=1e-14)


def test_node_walk_zero_adjacency_factor():
    _, _, _, stack = random_instance(m=3, dims=(2, 2), seed=0, edge_prob=0.0)
    assert node_walk_relevance(stack, (0, 2)) == 0.0


def test_walk_index_validation():
    _, _, _, stack = random_instance(seed=0)
    with pytest.raises(ParameterError):
        node_walk_relevance(stack, (0, 1))             # wrong length
    with pytest.raises(ParameterError):
        node_walk_relevance(stack, (0, 1, 2, 99))      # node out of range
    with pytest.raises(ParameterError):
        neuron_walk_relevance(stack, (0, 1, 2, 3), (0, 0, 0, 9))


# -- exhaustive enumeration ----------------------------------------------------


def test_single_node_graph_has_single_walk():
    stack = scalar_stack()
    for k in (1, 5):
        walks = exhaustive_topk_node(stack, k)
        assert walks == [ScoredWalk((0, 0), pytest.approx(0.4))]
        neuron = exhaustive_topk_neuron(stack, k)
        assert len(neuron) == 1 and neuron[0].neurons == (0, 0)


def test_top1_node_walk_equals_direct_max_over_all_chains():
    _, _, _, stack = random_instance(m=5, dims=(2, 2, 2), seed=9)
    # independent enumeration in a different (reversed) order
    best_value = -np.inf
    best_nodes = None
    for m2 in range(5):
        for m1 in range(5):
            for m0 in range(5):
                nodes = (m0, m1, m2)
                v = node_walk_relevance(stack, nodes)
                if v > best_value or (v == best_value and nodes < best_nodes):
                    best_value, best_nodes = v, nodes
    top = exhaustive_topk_node(stack, 1)[0]
    assert top.relevance == pytest.approx(best_value, abs=1e-12)
    assert abs(node_walk_relevance(stack, top.nodes) - best_value) <= 1e-12


def test_equal_relevance_walks_in_lexicographic_order():
    # fully symmetric instance: every walk on the complete graph ties
    graph = Graph(np.ones((3, 3)), np.ones((3, 1)))
    model = GnnModel((LayerSpec(np.array([[1.0]])),), ReadoutSpec(task="graph"))
    acts = forward(model, graph)
    stack = build_propagation(model, graph, acts, GammaSchedule.constant(0.0, 1), 0)
    walks = exhaustive_topk_node(stack, 9)
    assert [w.nodes for w in walks] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    neuron = exhaustive_topk_neuron(stack, 9)
    assert [w.nodes for w in neuron] == [w.nodes for w in walks]


def test_enumeration_budget_refusal_names_count():
    _, _, _, stack = random_instance(m=6, dims=(3, 3, 3, 3), seed=0)
    with pytest.raises(BudgetError, match="1296"):
        exhaustive_topk_node(stack, 1, budget=1000)
    with pytest.raises(BudgetError, match=str(18 ** 4)):
        exhaustive_topk_neuron(stack, 1, budget=1000)


def test_node_enumeration_values_match_per_walk_recomputation():
    _, _, _, stack = random_instance(m=4, dims=(2, 3, 2), seed=5)
    walks = exhaustive_topk_node(stack, 4 ** 3)
    for w in walks:
        assert w.relevance == pytest.approx(
            node_walk_relevance(stack, w.nodes), abs=1e-12)
    values = [w.relevance for w in walks]
    assert values == sorted(values, reverse=True)


def test_neuron_enumeration_values_match_per_walk_recomputation():
    _, _, _, stack = random_instance(m=3, dims=(2, 2, 2), seed=6)
    walks = exhaustive_topk_neuron(stack, 50)
    for w in walks:
        assert w.relevance == pytest.approx(
            neuron_walk_relevance(stack, w.nodes, w.neurons), abs=1e-12)
    mags = [abs(w.relevance) for w in walks]
    assert mags == sorted(mags, reverse=True)


# -- conservation and consistency ----------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_global_conservation(seed):
    _, _, _, stack = random_instance(m=4, dims=(2, 2, 2), seed=seed, edge_prob=1.0)
    if any(np.any(inv == 0) for inv in stack.inverse_denominators):
        return  # zeroed columns break exact conservation by construction
    walks = exhaustive_topk_node(stack, 4 ** 3)
    total = sum(w.relevance for w in walks)
    expected = stack.output_relevance.sum()
    assert total == pytest.approx(expected, rel=1e-8)


def test_neuron_node_consistency():
    _, _, _, stack = random_instance(m=3, dims=(2, 2), seed=8)
    neuron_walks = exhaustive_topk_neuron(stack, 3 * 2 * 3 * 2)
    by_path = {}
    for w in neuron_walks:
        by_path[w.nodes] = by_path.get(w.nodes, 0.0) + w.relevance
    for nodes, total in by_path.items():
        assert total == pytest.approx(
            node_walk_relevance(stack, nodes), abs=1e-10)


def test_output_scaling_covariance():
    _, _, _, stack = random_instance(m=4, dims=(2, 2), seed=10)
    before = exhaustive_topk_node(stack, 16)
    stack.output_relevance *= 3.0
    after = exhaustive_topk_node(stack, 16)
    for b, a in zip(before, after):
        assert a.nodes == b.nodes
        assert a.relevance == pytest.approx(3.0 * b.relevance, rel=1e-12)
