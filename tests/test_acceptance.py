"""End-to-end acceptance gate: correctness, approximation quality, and
performance targets for the walk search library, at pinned tolerances.

Walk-list comparisons are tie-aware throughout (see tests/helpers.py):
symmetric graphs make exactly tied relevances pervasive, so top-K lists
are compared by value groups rather than by raw index order.
"""

import time
from functools import partial

import numpy as np
import pytest

from relwalk import (
    GammaSchedule,
    accuracy,
    Splitter,
    amp_ave_topk,
    build_message_table,
    build_propagation,
    column_similarity_histogram,
    emp_neu_topk,
    exhaustive_topk_neuron,
    exhaustive_topk_node,
    forward,
    infection_chain_recall,
    init_model,
    predicted_target,
    time_callable,
)
from relwalk.empneu import argmax_steps, candidate_scores
from relwalk.graphs import Graph, modified_adjacency

from helpers import (assert_topk_equivalent, batch_loss_grads, dense_slices, numeric_gradients,
                     random_instance)

GAMMA_DECAY = 3.0        # per-layer schedule from 3 down to 0
PRECISION_K = 10
TIE_TOL = 1e-10


def eligible_graphs(model, test_set, n, require_all=True):
    """First n test graphs that are correctly and strictly classified.

    Explanations target the predicted class; a wrong or zero-margin
    prediction has no meaningful positive evidence to explain.
    """
    out = []
    for g in test_set:
        if len(out) == n:
            break
        acts = forward(model, g)
        target = predicted_target(model, acts)
        if target == g.label and acts.logits[target] > acts.logits[1 - target]:
            out.append((g, acts, target))
    assert len(out) == n or not require_all
    return out


def desk_stack(model, g, acts, target):
    schedule = GammaSchedule.linear_decay(GAMMA_DECAY, model.num_steps)
    return build_propagation(model, g, acts, schedule, target)


# -- 1. exact neuron-level search equals brute force ---------------------------------


def test_exact_search_matches_enumeration_top50_under_10s():
    t0 = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 20:
        _, _, _, stack = random_instance(m=6, dims=(3, 3, 3, 3), seed=seed)
        seed += 1
        if not np.any(stack.output_relevance):
            continue          # dead network: no relevance to search for
        found = emp_neu_topk(stack, 50)
        assert found.k_tilde >= 50
        expected = exhaustive_topk_neuron(stack, 50)
        assert_topk_equivalent(found.absolute[:50], expected, tol=1e-10)
        checked += 1
    assert time.perf_counter() - t0 < 10.0


# -- 2. approximate node-level search precision --------------------------------------


def test_approximate_search_mean_precision_at_10(desk_models):
    t0 = time.perf_counter()
    per_model = []
    for seed, model, test_set in desk_models:
        precisions = []
        for g, acts, target in eligible_graphs(model, test_set, len(test_set),
                                               require_all=False):
            if len(precisions) == 10:
                break
            stack = desk_stack(model, g, acts, target)
            oracle = exhaustive_topk_node(stack, PRECISION_K)
            if oracle[-1].relevance <= 0:
                # ill-posed instance: the search returns positive walks only,
                # so an oracle top-10 containing non-positive walks is
                # unattainable by contract regardless of search quality
                continue
            threshold = oracle[-1].relevance - TIE_TOL
            found = amp_ave_topk(stack, PRECISION_K).positive[:PRECISION_K]
            hits = sum(1 for w in found if w.relevance >= threshold)
            precisions.append(hits / PRECISION_K)
        assert len(precisions) == 10
        per_model.append(float(np.mean(precisions)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert float(np.mean(per_model)) >= 0.8, per_model


# -- 3. conservation of total relevance ----------------------------------------------


def test_total_walk_relevance_conserves_output_relevance():
    checked = 0
    seed = 0
    while checked < 100:
        _, _, _, stack = random_instance(m=4, dims=(2, 3, 2, 2), seed=seed)
        seed += 1
        if any(np.any(inv == 0) for inv in stack.inverse_denominators):
            continue          # zeroed columns deliberately break conservation
        total_walks = stack.num_nodes ** (stack.num_steps + 1)
        walks = exhaustive_topk_node(stack, total_walks)
        assert len(walks) == total_walks
        total = sum(w.relevance for w in walks)
        expected = stack.output_relevance.sum()
        assert abs(total - expected) <= 1e-8 * max(abs(expected), 1e-30)
        checked += 1


# -- 4. single-neuron layers make the approximate search exact ------------------------


def test_single_neuron_layers_give_exact_topk():
    for seed in range(50):
        _, _, _, stack = random_instance(
            m=5, dims=(1, 1, 1, 1), seed=seed, positive_weights=True)
        assert np.all(stack.output_relevance >= 0)
        oracle = exhaustive_topk_node(stack, 10)
        for k in (1, 5, 10):
            found = amp_ave_topk(stack, k).positive
            assert len(found) == k
            assert_topk_equivalent(found, oracle[:k], tol=1e-12, absolute=False)


# -- 5. factorized evaluation is exact -------------------------------------------------


def test_factorized_and_materialized_search_identical():
    # reference: the same stack with slices and entries read from the dense
    # oracle tensors
    for seed in range(100):
        _, _, _, stack_f = random_instance(m=6, dims=(3, 3, 3), seed=seed)
        stack_m = dense_slices(stack_f)
        res_m = amp_ave_topk(stack_m, 10)
        res_f = amp_ave_topk(stack_f, 10)
        assert [w.nodes for w in res_m.positive] == [w.nodes for w in res_f.positive]
        for a, b in zip(res_m.positive, res_f.positive):
            assert abs(a.relevance - b.relevance) <= 1e-9


# -- 6. most of the strongest walks are positive --------------------------------------


@pytest.mark.parametrize("schedule_kind", ["decay", "const02"])
def test_majority_of_top_walks_positive(desk_models, schedule_kind):
    ratios = []
    for seed, model, test_set in desk_models:
        ((g, acts, target),) = eligible_graphs(model, test_set, 1)
        steps = model.num_steps
        schedule = (GammaSchedule.linear_decay(GAMMA_DECAY, steps)
                    if schedule_kind == "decay"
                    else GammaSchedule.constant(0.2, steps))
        stack = build_propagation(model, g, acts, schedule, target)
        result = emp_neu_topk(stack, 20)
        ratios.append(len(result.positive) / result.k_tilde)
    assert float(np.mean(ratios)) > 0.5, ratios


# -- 7. transition columns are mutually similar ---------------------------------------


def test_mean_transition_column_similarity(desk_models):
    means = []
    for seed, model, test_set in desk_models:
        ((g, acts, target),) = eligible_graphs(model, test_set, 1)
        stack = desk_stack(model, g, acts, target)
        means.append(column_similarity_histogram(stack).mean)
    assert float(np.mean(means)) > 0.6, means


# -- 8. infection transmission chains are recovered ------------------------------------


def test_infection_chain_recall_at_5(infection_setup):
    scenario, train_graph, model = infection_setup
    assert accuracy(model, [train_graph]) >= 0.75

    schedule = GammaSchedule.linear_decay(GAMMA_DECAY, model.num_steps)
    acts = forward(model, scenario.graph)
    targets = [t for t in sorted(scenario.chains)
               if len(scenario.chains[t]) > 1][:55]
    assert len(targets) >= 50
    walks_per_target = {}
    for t in targets:
        stack = build_propagation(model, scenario.graph, acts, schedule, t,
                                  target_class=1)
        # a few targets are reached by fewer than 5 positive walks; the cap
        # returns their partial list instead of sweeping the 200^4 space
        # (the found walks are cap-insensitive from 100 to 10000)
        walks_per_target[t] = amp_ave_topk(stack, 5, max_k_tilde=2000).positive
    recall = infection_chain_recall(walks_per_target, scenario.chains, 5,
                                    model.num_steps + 1)
    assert recall.targets >= 50
    # a padded hit is also a subsequence hit, so the subsequence figure is
    # the recall under either accepted matching convention
    assert recall.subsequence >= 0.7, (recall.padded, recall.subsequence)


# -- 9. the approximate search is fast --------------------------------------------------


def test_top1_search_100x_faster_than_enumeration():
    rng = np.random.default_rng(0)
    m, l = 25, 3
    a = (rng.random((m, m)) < 4.0 / (m - 1)).astype(float)
    a = np.maximum(a, a.T)
    graph = Graph(modified_adjacency(a), rng.random((m, 8)) + 0.1, 0)
    model = init_model([8] * (l + 1), 2, seed=0)
    acts = forward(model, graph)
    stack = build_propagation(model, graph, acts,
                              GammaSchedule.linear_decay(GAMMA_DECAY, l), 0)
    # a top-1 call takes ~0.25 ms, so one scheduler preemption could decide
    # a sample of one call: each sample times a batch of top-1 calls about
    # as long as one enumeration (~50 ms), right before that enumeration,
    # so both sides of a sample see the same machine load
    batch = 200
    ratios = []
    for _ in range(5):
        t_batch, _ = time_callable(
            lambda: [amp_ave_topk(stack, 1, max_k_tilde=1) for _ in range(batch)], repetitions=1)
        t_slow, _ = time_callable(lambda: exhaustive_topk_node(stack, 1), repetitions=1)
        ratios.append(t_slow / (t_batch / batch))
    assert float(np.median(ratios)) >= 100.0, ratios


# -- 10. trainer gradients ---------------------------------------------------------------


def test_analytic_gradients_match_central_differences():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        graphs = []
        for i in range(5):
            a = (rng.random((5, 5)) < 0.5).astype(float)
            a = np.maximum(a, a.T)
            np.fill_diagonal(a, 0.0)
            graphs.append(Graph(modified_adjacency(a), rng.random((5, 3)), i % 2))
        model = init_model([3, 4, 2], 2, seed=seed)
        _, analytic, _ = batch_loss_grads(model, graphs)
        numeric = numeric_gradients(model, graphs)
        for a_grad, n_grad in zip(analytic, numeric):
            np.testing.assert_allclose(a_grad, n_grad, rtol=1e-4, atol=1e-7)


# -- 11. splitting partitions the unexplored space ---------------------------------------


def members(prefix, excluded, space):
    i = len(prefix)
    return [w for w in space if tuple(w[:i]) == prefix and w[i] not in excluded]


def test_splitting_partition_by_enumeration():
    _, _, _, stack = random_instance(m=2, dims=(2, 2, 2), seed=0, edge_prob=1.0)
    table = build_message_table(stack)
    sizes = [stack.num_nodes * d for d in stack.dims]
    space = [(p0, p1, p2) for p0 in range(sizes[0])
             for p1 in range(sizes[1]) for p2 in range(sizes[2])]

    splitter = Splitter(partial(candidate_scores, stack, table), argmax_steps(stack, table))
    extracted = []
    for k_tilde in range(1, len(space) + 1):
        if not splitter.live:
            break
        found, _ = splitter.pop()
        extracted.append(found)

        # at every extraction step: each walk is either already extracted or
        # lies in exactly one live subset
        covered = {w: 0 for w in space}
        for w in extracted:
            covered[w] += 1
        for prefix, excluded in splitter.live:
            for w in members(prefix, excluded, space):
                covered[w] += 1
        assert all(c == 1 for c in covered.values()), k_tilde
        assert len(splitter.live) <= k_tilde * stack.num_steps + 1
