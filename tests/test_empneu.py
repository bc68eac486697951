"""Exact neuron-level top-K search: message passing, splitting, oracle equivalence."""

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
    build_message_table,
    build_propagation,
    dense_tensor,
    emp_neu_topk,
    exhaustive_topk_neuron,
    forward,
    neuron_walk_relevance,
)
from relwalk.empneu import candidate_scores
from relwalk.splitting import pick

from helpers import assert_topk_equivalent, headed_instance, random_instance, sink_adjacency


def flat_pair(stack, l, m, n):
    return m * stack.dims[l] + n


def subset_best(stack, table, prefix, excluded):
    """(|relevance|, walk) of the representative of a subset, or None."""
    return pick(*candidate_scores(stack, table, prefix), table.step, prefix, excluded)


# -- single best walk ----------------------------------------------------------


def test_basic_single_candidate():
    graph = Graph(np.array([[1.0]]), np.array([[0.4]]))
    model = GnnModel((LayerSpec(np.array([[1.0]])),), ReadoutSpec(task="graph"))
    acts = forward(model, graph)
    stack = build_propagation(model, graph, acts, GammaSchedule.constant(0.0, 1), 0)
    [walk] = emp_neu_topk(stack, 1, max_k_tilde=1).extracted
    assert walk.nodes == (0, 0) and walk.neurons == (0, 0)
    assert walk.relevance == pytest.approx(0.4)


def test_basic_equals_oracle_top1():
    for seed in range(10):
        _, _, _, stack = random_instance(seed=seed)
        [found] = emp_neu_topk(stack, 1, max_k_tilde=1).extracted
        expected = exhaustive_topk_neuron(stack, 1)[0]
        assert abs(found.relevance) == pytest.approx(
            abs(expected.relevance), abs=1e-10)
        assert found.relevance == pytest.approx(expected.relevance, abs=1e-10)


def test_basic_negated_output_gives_same_walk_negated_value():
    _, _, _, stack = random_instance(seed=4)
    [before] = emp_neu_topk(stack, 1, max_k_tilde=1).extracted
    stack.output_relevance *= -1.0
    [after] = emp_neu_topk(stack, 1, max_k_tilde=1).extracted
    assert after.nodes == before.nodes and after.neurons == before.neurons
    assert after.relevance == pytest.approx(-before.relevance, abs=1e-12)


def dead_stack():
    graph = Graph(np.array([[1.0]]), np.array([[1.0]]))
    model = GnnModel((LayerSpec(np.array([[-1.0]])),), ReadoutSpec(task="graph"))
    acts = forward(model, graph)
    return build_propagation(model, graph, acts, GammaSchedule.constant(0.0, 1), 0)


def test_basic_dead_network_returns_none():
    assert emp_neu_topk(dead_stack(), 1, max_k_tilde=1).extracted == []


def test_topk_dead_network_returns_no_walk():
    result = emp_neu_topk(dead_stack(), 5)
    assert result.extracted == [] and result.positive == []
    assert result.exhausted


# -- factorized message table against the dense max-product ---------------------

REL = 1e-12


def table_instances(weighted):
    """Stacks over 60 seeds: dense and sparse graphs, graph and node tasks;
    then 5 seeds on a directed graph with a sink, whose row of Lambda has
    no edge.  weighted scales Lambda's entries (helpers.scale_edges)."""
    for seed in range(60):
        kwargs = [{}, {"edge_prob": 0.3}, {"task": "node", "target": seed % 6}][seed % 3]
        yield random_instance(seed=seed, weighted=weighted, **kwargs)[3]
    for seed in range(5):
        yield headed_instance(sink_adjacency(), seed, weighted=weighted)


def dense_max_product(stack):
    """Reference messages and scored rows from the dense |T^(l)| tensors."""
    sizes = [stack.num_nodes * d for d in stack.dims]
    mu = [None] * (stack.num_steps + 1)
    scored = [None] * stack.num_steps
    mu[-1] = np.abs(stack.output_relevance).reshape(-1)
    for l in range(stack.num_steps - 1, -1, -1):
        factor = np.abs(dense_tensor(stack, l)).reshape(sizes[l], sizes[l + 1])
        scored[l] = factor * mu[l + 1][None, :]
        mu[l] = scored[l].max(axis=1)
    return mu, scored


@pytest.mark.parametrize("weighted", [False, True])
def test_message_table_mu_matches_dense_max_product(weighted):
    dead = edgeless = 0
    for stack in table_instances(weighted):
        dead += sum(int(np.sum(h == 0)) for h in stack.hidden[1:])
        edgeless += sum(int(np.sum(np.diff(lam.csr[0]) == 0)) for lam in stack.lams)
        table = build_message_table(stack)
        mu, _ = dense_max_product(stack)
        for l in range(stack.num_steps + 1):
            np.testing.assert_allclose(table.mu[l], mu[l], rtol=REL, atol=0)
    assert dead > 0  # dead ReLU units give all-zero rows
    assert edgeless > 0  # rows with no edge give empty segments


@pytest.mark.parametrize("weighted", [False, True])
def test_message_table_step_is_dense_first_maximizer(weighted):
    # Exact ties are common (with gamma = 1 and a non-negative weight column
    # R / den is exactly 1/2), and the dense and factorized products round
    # differently, so ties are compared by value group: the step is a
    # maximizer within REL, and equals the dense first maximizer wherever
    # that maximizer is unique.
    unique = 0
    for stack in table_instances(weighted):
        table = build_message_table(stack)
        mu, scored = dense_max_product(stack)
        for l in range(stack.num_steps):
            rows = np.flatnonzero(mu[l] > 0)
            best = scored[l][rows]
            chosen = best[np.arange(rows.size), table.step[l][rows]]
            np.testing.assert_allclose(chosen, mu[l][rows], rtol=REL, atol=0)
            near = best >= mu[l][rows][:, None] * (1 - REL)
            alone = near.sum(axis=1) == 1
            unique += int(alone.sum())
            np.testing.assert_array_equal(table.step[l][rows][alone],
                                          np.argmax(best, axis=1)[alone])
    assert unique > 1000


def max_over_all_node_pairs(stack):
    """Factorized max-product taking the max over m' across every node
    pair, edge or not.  The products are the same as along the edges, so
    mu and step must agree bit for bit, first-maximizer ties included."""
    dims = stack.dims
    mu = [np.abs(stack.output_relevance)]
    step = []
    for l in range(stack.num_steps - 1, -1, -1):
        nu = mu[0] * np.abs(stack.inverse_denominators[l])
        inner_scored = np.abs(stack.wups[l])[None, :, :] * nu[:, None, :]
        inner = np.argmax(inner_scored, axis=2)
        g = np.take_along_axis(inner_scored, inner[:, :, None], axis=2)[:, :, 0]
        scored = np.abs(stack.lams[l].adjacency)[:, :, None] * g[None, :, :]  # (M, M', N_l)
        outer = np.argmax(scored, axis=1)
        best = np.take_along_axis(scored, outer[:, None, :], axis=1)[:, 0, :]
        mu.insert(0, np.abs(stack.hidden[l]) * best)
        step.insert(0, outer * dims[l + 1] + inner[outer, np.arange(dims[l])])
    return [a.reshape(-1) for a in mu], [a.reshape(-1) for a in step]


@pytest.mark.parametrize("weighted", [False, True])
def test_message_table_equals_max_over_all_node_pairs(weighted):
    for stack in table_instances(weighted):
        table = build_message_table(stack)
        mu, step = max_over_all_node_pairs(stack)
        for a, b in zip(table.mu + table.step, mu + step):
            np.testing.assert_array_equal(a, b)


def test_message_table_holds_no_dense_tensor():
    _, _, _, stack = random_instance(m=40, seed=0, edge_prob=0.1)
    table = build_message_table(stack)
    entries = sum(a.size for a in table.factors + table.mu + table.step)
    m, dims = stack.num_nodes, stack.dims
    assert entries <= 3 * m * sum(dims)


# -- constrained subset maximization --------------------------------------------


def test_constrained_max_excluding_top_start_matches_filtered_oracle():
    _, _, _, stack = random_instance(seed=7)
    table = build_message_table(stack)
    [best] = emp_neu_topk(stack, 1, max_k_tilde=1).extracted
    top_pair = flat_pair(stack, 0, best.nodes[0], best.neurons[0])
    best_abs, _ = subset_best(stack, table, (), frozenset({top_pair}))
    total = stack.num_nodes ** 4 * int(np.prod(stack.dims))
    filtered = [
        w for w in exhaustive_topk_neuron(stack, total)
        if (w.nodes[0], w.neurons[0]) != (best.nodes[0], best.neurons[0])
    ]
    assert best_abs == pytest.approx(abs(filtered[0].relevance), abs=1e-10)


def test_constrained_max_annihilated_prefix():
    # prefix forcing a step between non-adjacent nodes has zero factor
    _, _, _, stack = random_instance(m=3, dims=(2, 2, 2), seed=0, edge_prob=0.0)
    table = build_message_table(stack)
    best = subset_best(
        stack, table, (flat_pair(stack, 0, 0, 0), flat_pair(stack, 1, 1, 0)), frozenset())
    assert best is None or best[0] == 0.0


def test_constrained_max_all_excluded_is_empty():
    _, _, _, stack = random_instance(seed=1)
    table = build_message_table(stack)
    every_pair = frozenset(range(stack.num_nodes * stack.dims[0]))
    assert subset_best(stack, table, (), every_pair) is None


def test_constrained_max_table_reuse_is_stable():
    _, _, _, stack = random_instance(seed=2)
    table = build_message_table(stack)
    results = []
    for _ in range(2):
        results.append(subset_best(stack, table, (), frozenset({0})))
    assert results[0] == results[1]


# -- top-K search ----------------------------------------------------------------


def test_topk_k1_equals_basic_when_positive():
    # all-positive weights, nonnegative features: every relevance is positive
    for seed in range(5):
        rng = np.random.default_rng(seed)
        _, _, _, stack = random_instance(seed=seed)
        [first] = emp_neu_topk(stack, 1, max_k_tilde=1).extracted
        if first.relevance <= 0:
            continue
        result = emp_neu_topk(stack, 1)
        assert result.positive[0] == first


def test_topk_matches_oracle_walk_for_walk():
    for seed in range(20):
        _, _, _, stack = random_instance(seed=seed)
        result = emp_neu_topk(stack, 50, max_k_tilde=None)
        k_tilde = result.k_tilde
        expected = exhaustive_topk_neuron(stack, k_tilde)
        assert_topk_equivalent(result.absolute, expected, tol=1e-10, absolute=True)


@pytest.mark.parametrize("weighted", [False, True])
def test_topk_matches_oracle_on_sparse_and_node_instances(weighted):
    for i, stack in enumerate(table_instances(weighted)):
        if i % 3 == 0 or i >= 30:
            continue  # the dense graph-task case is covered above
        result = emp_neu_topk(stack, 15)
        expected = exhaustive_topk_neuron(stack, result.k_tilde)
        assert_topk_equivalent(result.absolute, expected, tol=1e-10, absolute=True)


def test_uncapped_topk_extracts_exactly_the_nonzero_walks():
    # on a node task every walk not ending on the target has relevance 0;
    # the search extracts each walk with nonzero relevance and nothing else
    live = 0
    for seed in range(10):
        _, _, _, stack = random_instance(m=5, dims=(2, 2, 2, 2), seed=seed,
                                         edge_prob=0.5, task="node", target=seed % 5)
        total = int(np.prod([stack.num_nodes * d for d in stack.dims]))
        everything = exhaustive_topk_neuron(stack, total)
        expected = [w for w in everything if w.relevance != 0]
        assert len(expected) < total
        live += bool(expected)
        result = emp_neu_topk(stack, total + 1)
        assert result.exhausted
        assert_topk_equivalent(result.absolute, expected, tol=1e-10, absolute=True)
    assert live >= 5


def test_topk_absolute_values_non_increasing():
    _, _, _, stack = random_instance(seed=6)
    result = emp_neu_topk(stack, 30)
    mags = [abs(w.relevance) for w in result.absolute]
    for a, b in zip(mags, mags[1:]):
        assert b <= a + 1e-12


def test_topk_positive_walks_are_positive_and_descending():
    _, _, _, stack = random_instance(seed=3)
    result = emp_neu_topk(stack, 25)
    values = [w.relevance for w in result.positive]
    assert all(v > 0 for v in values)
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12


def test_topk_signed_values_recomputed_exactly():
    _, _, _, stack = random_instance(seed=12)
    result = emp_neu_topk(stack, 20)
    for w in result.absolute:
        assert w.relevance == pytest.approx(
            neuron_walk_relevance(stack, w.nodes, w.neurons), abs=1e-14)


def test_topk_anytime_property():
    _, _, _, stack = random_instance(seed=5)
    full = emp_neu_topk(stack, 20)
    for k in (1, 5, 12):
        partial = emp_neu_topk(stack, k)
        assert partial.positive == full.positive[:k]


def test_topk_exhaustion_flag_on_tiny_space():
    _, _, _, stack = random_instance(m=2, dims=(1, 1), seed=0, edge_prob=1.0)
    result = emp_neu_topk(stack, 50)
    assert result.exhausted
    assert result.k_tilde == 4  # entire 2x2 walk space extracted


def test_topk_ratio_and_summary_fields():
    _, _, _, stack = random_instance(seed=8)
    result = emp_neu_topk(stack, 10)
    assert result.positive_ratio == pytest.approx(10 / result.k_tilde)
    summary = result.summary()
    assert summary["k"] == 10 and summary["k_tilde"] == result.k_tilde


def test_complexity_guardrail_argmax_operations():
    # argmax work is bounded by pairs-per-layer times extractions
    _, _, _, stack = random_instance(seed=9)
    result = emp_neu_topk(stack, 40)
    steps = stack.num_steps
    m, nbar = stack.num_nodes, max(stack.dims)
    bound = 2 * (result.k_tilde + 1) * (steps + 1) * m * nbar
    assert result.argmax_ops <= bound


# -- splitting soundness: enumerated disjoint cover -------------------------------


def subset_members(prefix, excluded, space):
    i = len(prefix)
    return [w for w in space if tuple(w[:i]) == prefix and w[i] not in excluded]


def pairs_relevance(stack, pairs):
    nodes, neurons = zip(*(divmod(p, d) for p, d in zip(pairs, stack.dims)))
    return neuron_walk_relevance(stack, nodes, neurons)


def test_splitting_partitions_unexplored_space():
    # seeds 0 and 3 are dead networks (no relevant walk); the others hold
    # 16 or 32 relevant walks among 64
    partial_spaces = 0
    for seed in range(6):
        _, _, _, stack = random_instance(m=2, dims=(2, 2, 2), seed=seed, edge_prob=1.0)
        table = build_message_table(stack)
        sizes = [stack.num_nodes * d for d in stack.dims]
        space = [
            (p0, p1, p2)
            for p0 in range(sizes[0]) for p1 in range(sizes[1]) for p2 in range(sizes[2])
        ]
        relevant = {w for w in space if pairs_relevance(stack, w) != 0}
        partial_spaces += 0 < len(relevant) < len(space)
        splitter = Splitter(partial(candidate_scores, stack, table), table.step)
        extracted = []
        steps = stack.num_steps
        while splitter.heap:
            found, _ = splitter.pop()
            extracted.append(found)
            k_tilde = len(extracted)
            assert found in relevant, k_tilde  # no zero-relevance walk is extracted

            # every relevant walk is extracted or in exactly one live
            # subset, and no walk is covered twice
            covered = {w: 0 for w in space}
            for w in extracted:
                covered[w] += 1
            for prefix, excluded in splitter.live:
                for w in subset_members(prefix, excluded, space):
                    covered[w] += 1
            assert all(covered[w] == 1 for w in relevant), (seed, k_tilde)
            assert all(c <= 1 for c in covered.values()), (seed, k_tilde)

            # frontier size never exceeds k_tilde * L + 1
            assert len(splitter.live) <= k_tilde * steps + 1
        assert set(extracted) == relevant, seed
    assert partial_spaces >= 4


def test_topk_subset_count_bound():
    _, _, _, stack = random_instance(seed=11)
    result = emp_neu_topk(stack, 30)
    # each extraction creates at most L+1 children plus the root
    assert result.subsets_created <= result.k_tilde * (stack.num_steps + 1) + 1
