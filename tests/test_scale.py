"""Scale: an edge-list graph whose dense Lambda would take 3.2 GB is
loaded and explained by both searches, and no M x M array is allocated."""

import json
import tracemalloc

import numpy as np

from relwalk import (
    GammaSchedule,
    amp_ave_topk,
    build_propagation,
    emp_neu_topk,
    forward,
    init_model,
    load_graph,
    neuron_walk_relevance,
    node_walk_relevance,
    predicted_target,
)

M = 20_000
MEAN_DEGREE = 4
WIDTH = 16
K = 5
# tracemalloc peak of load, forward, stack and both searches, which hold
# O(E N + M N) arrays; a dense Lambda alone would be 3.2 GB.  The peak is
# about 54 MiB, reached in EMP-neu's search, which needs about 31.8 MiB
# above the 22 MiB it starts from (its table keeps every message, its
# steps and its factors); load, forward and the stack peak at about
# 31 MiB.  Forward gathers one feature column at a time and AMP-ave's
# step objective one edge block.
PEAK_CEILING_MIB = 64
# AMP-ave's own peak above the stack, about 14.4 MiB: its table keeps L
# scaled messages, the steps, the completeness masks and the root scores,
# and builds each message once (about 24.0 MiB when it kept every message)
AMP_AVE_PEAK_MIB = 16


def write_edge_list_graph(path, seed=0):
    """Undirected random graph, both directions listed, no self-loops."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, M, size=(M * MEAN_DEGREE // 2, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    edges = np.concatenate([pairs, pairs[:, ::-1]]).tolist()
    features = (rng.random((M, WIDTH)) + 0.1).tolist()
    path.write_text(json.dumps({"num_nodes": M, "features": features, "label": 0,
                                "edges": edges}))


def test_edge_list_graph_explained_without_dense_lambda(tmp_path):
    path = tmp_path / "graph.json"
    write_edge_list_graph(path)
    tracemalloc.start()
    try:
        graph = load_graph(path)
        # an untrained model whose predicted class has a positive logit,
        # so that positive walks exist
        for seed in range(20):
            model = init_model([WIDTH] * 4, 2, seed=seed)
            acts = forward(model, graph)
            if acts.logits.max() > 0:
                break
        stack = build_propagation(model, graph, acts,
                                  GammaSchedule.linear_decay(3.0, model.num_steps),
                                  predicted_target(model, acts))
        del acts
        before, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        amp = amp_ave_topk(stack, K)
        amp_peak = tracemalloc.get_traced_memory()[1] - before
        emp = emp_neu_topk(stack, K)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peak < PEAK_CEILING_MIB * 2 ** 20, peak / 2 ** 20
    assert amp_peak < AMP_AVE_PEAK_MIB * 2 ** 20, amp_peak / 2 ** 20
    assert len(amp.positive) == len(emp.positive) == K
    for w in amp.positive:
        exact = node_walk_relevance(stack, w.nodes)
        assert abs(w.relevance - exact) <= 1e-9 * abs(exact)
    for w in emp.positive:
        exact = neuron_walk_relevance(stack, w.nodes, w.neurons)
        assert abs(w.relevance - exact) <= 1e-9 * abs(exact)
