"""Transition tensor construction, gamma schedules, output relevance.

The stack is factorized only; oracle.dense_tensor is the dense reference
its entries and slices are checked against.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relwalk import (
    GammaSchedule,
    GnnModel,
    Graph,
    LayerSpec,
    ParameterError,
    ReadoutSpec,
    build_propagation,
    dense_tensor,
    forward,
    graph_from_dict,
    init_model,
    init_output_relevance,
    modified_weight,
    parse_gamma,
    random_graph,
)
from relwalk.oracle import dense_lambda
from relwalk.propagation import EPS_STAB, edge_segments, segment_first_max
from helpers import random_instance, stack_from_factors


# -- modified weights --------------------------------------------------------


def test_modified_weight_gamma_zero_is_identity():
    np.testing.assert_array_equal(modified_weight(np.array([[2.0, -1.0]]), 0.0),
                                  [[2.0, -1.0]])


def test_modified_weight_scales_positive_entries_only():
    np.testing.assert_array_equal(modified_weight(np.array([[2.0, -1.0]]), 0.5),
                                  [[3.0, -1.0]])
    np.testing.assert_array_equal(modified_weight(np.array([[-4.0]]), 7.0), [[-4.0]])


def test_modified_weight_rejects_negative_gamma():
    with pytest.raises(ParameterError):
        modified_weight(np.array([[1.0]]), -0.1)


@pytest.mark.parametrize("gamma", [np.nan, np.inf, 1e308])
def test_modified_weight_refuses_non_finite_result(gamma):
    # NaN and inf give a NaN even on the negative entries (inf * 0); 1e308
    # overflows 2.0 + 1e308 * 2.0 to inf
    with pytest.raises(ParameterError, match="non-finite"):
        modified_weight(np.array([[2.0, -1.0]]), gamma)


@pytest.mark.parametrize("schedule", [GammaSchedule.constant(np.nan, 3),
                                      GammaSchedule.constant(np.inf, 3),
                                      GammaSchedule.linear_decay(np.nan, 3),
                                      GammaSchedule.constant(1e308, 3)])
def test_non_finite_modified_weights_refused_before_any_search(schedule):
    # a NaN never equals a segment's max, so segment_first_max would run past
    # the end of the edge list: the stack is refused before any search
    graph = Graph(np.array([[1.0]]), np.array([[1.0]]))
    model = GnnModel((LayerSpec(np.array([[2.0]])),) * 3, ReadoutSpec(task="graph"))
    with pytest.raises(ParameterError, match="non-finite"):
        build_propagation(model, graph, forward(model, graph), schedule, 0)


@given(st.floats(0, 10), st.floats(0, 10))
def test_gamma_monotonicity_of_positive_mass(g1, g2):
    w = np.array([[1.0, -2.0], [3.0, -0.5]])
    lo, hi = sorted((g1, g2))
    assert modified_weight(w, hi)[w > 0].sum() >= modified_weight(w, lo)[w > 0].sum()
    # negative entries never change
    assert np.array_equal(modified_weight(w, hi)[w < 0], w[w < 0])


# -- schedules ----------------------------------------------------------------


def test_linear_decay_endpoints():
    s = GammaSchedule.linear_decay(3.0, 4)
    assert s.values[0] == 3.0
    assert s.values[-1] == 0.0
    assert len(s) == 4


def test_linear_decay_formula():
    s = GammaSchedule.linear_decay(3.0, 3)
    assert s.values == (3.0, 1.5, 0.0)


def test_parse_gamma():
    assert parse_gamma("const:0.2", 3).values == (0.2, 0.2, 0.2)
    assert parse_gamma("linear:3", 3).values == (3.0, 1.5, 0.0)
    with pytest.raises(ParameterError):
        parse_gamma("cubic:1", 3)
    with pytest.raises(ParameterError):
        parse_gamma("const", 3)
    with pytest.raises(ParameterError):
        GammaSchedule((0.5, -0.1))


# -- tensor construction ------------------------------------------------------


def test_single_entry_normalizes_to_one():
    graph = Graph(np.array([[1.0]]), np.array([[3.0]]))
    model = GnnModel((LayerSpec(np.array([[2.0]])),), ReadoutSpec(task="graph"))
    acts = forward(model, graph)
    stack = build_propagation(model, graph, acts, GammaSchedule.constant(0.0, 1), 0)
    assert dense_tensor(stack, 0)[0, 0, 0, 0] == pytest.approx(1.0)


def test_columns_sum_to_one():
    _, _, _, stack = random_instance(seed=11)
    for l in range(stack.num_steps):
        sums = dense_tensor(stack, l).sum(axis=(0, 1))
        nonzero = stack.inverse_denominators[l] != 0
        np.testing.assert_allclose(sums[nonzero], 1.0, atol=1e-9)
        np.testing.assert_array_equal(sums[~nonzero], 0.0)


def test_dead_neuron_column_is_zeroed():
    graph = Graph(np.array([[1.0]]), np.array([[3.0]]))
    w = np.array([[0.0, 2.0]])
    model = GnnModel((LayerSpec(w),), ReadoutSpec(task="graph"))
    acts = forward(model, graph)
    stack = build_propagation(model, graph, acts, GammaSchedule.constant(0.0, 1), 1)
    t = dense_tensor(stack, 0)
    assert np.all(t[:, :, 0, 0] == 0.0)   # zero denominator column
    assert t[0, 0, 0, 1] == pytest.approx(1.0)


def test_denominators_below_eps_stab_get_a_zero_inverse():
    # one node, Lam = H = 1 and gamma = 0, so the denominators are the
    # weights [-2, 0, EPS_STAB / 2, 3]: the two below EPS_STAB get a zero
    # inverse and the others 1 / den
    graph = Graph(np.array([[1.0]]), np.array([[1.0]]))
    model = GnnModel((LayerSpec(np.array([[-2.0, 0.0, EPS_STAB / 2, 3.0]])),))
    stack = build_propagation(model, graph, forward(model, graph),
                              GammaSchedule.constant(0.0, 1), 3)
    np.testing.assert_array_equal(stack.inverse_denominators[0],
                                  [[1.0 / -2.0, 0.0, 0.0, 1.0 / 3.0]])
    np.testing.assert_array_equal(stack.slice(0, 0, 0), [[1.0, 0.0, 0.0, 1.0]])


def test_edge_lists_are_row_major_nonzeros_shared_by_steps():
    _, graph, _, stack = random_instance(seed=3, edge_prob=0.3)
    expected_rows, expected_cols = np.nonzero(graph.adjacency)
    for (rows, cols), values in zip(stack.edges, stack.edge_values):
        np.testing.assert_array_equal(rows, expected_rows)
        np.testing.assert_array_equal(cols, expected_cols)
        np.testing.assert_array_equal(values, graph.adjacency[rows, cols])
    # every GCN step reads the one adjacency, so its edges are scanned once
    assert all(e is stack.edges[0] for e in stack.edges)
    for task in ("graph", "node"):
        for gin in (False, True):
            for seed in range(5):
                graph = random_graph(6, 3, 0.4, np.random.default_rng(seed))
                model = init_model([3, 3, 3], 2, task=task, seed=seed, gin=gin)
                acts = forward(model, graph)
                # two targets: two classes, or two nodes
                for target in (0, 1):
                    stack = build_propagation(model, graph, acts,
                                              GammaSchedule.linear_decay(3.0, model.num_steps),
                                              target)
                    ref = stack_from_factors(
                        [dense_lambda(stack, l) for l in range(stack.num_steps)],
                        stack.hidden, stack.wups, stack.output_relevance)
                    diagonal = None
                    for l, step in enumerate(model.steps):
                        for got, expected in zip(
                                stack.edges[l] + (stack.edge_values[l], stack.row_pointers[l]),
                                ref.edges[l] + (ref.edge_values[l], ref.row_pointers[l])):
                            np.testing.assert_array_equal(got, expected)
                        # the stack's denominators come from forward's Lam^T H,
                        # the reference's from its own product: the same bits
                        assert (stack.inverse_denominators[l].tobytes()
                                == ref.inverse_denominators[l].tobytes())
                        if step.uses_adjacency:
                            assert stack.edges[l] is graph.edge_index
                            assert stack.edge_values[l] is graph.csr[2]
                        else:
                            if diagonal is None:
                                diagonal = stack.edges[l]
                            assert stack.edges[l] is diagonal
                    assert gin == (diagonal is not None)


@pytest.mark.parametrize("width", [None, 3])
def test_first_max_over_edges_equals_first_masked_argmax(width):
    rng = np.random.default_rng(width or 0)
    for _ in range(20):
        mask = rng.random((7, 7)) < 0.4
        # few distinct values, so rows tie often
        values = rng.integers(-2, 3, size=(7, 7) if width is None else (7, 7, width))
        rows, cols = np.nonzero(mask)
        heads, starts, segment = edge_segments(rows)
        scored = values[rows, cols].astype(float)
        if width is None:
            best, first = segment_first_max(scored, starts, segment)
        else:
            # one column at a time, as EMP-neu's table build reduces each neuron
            best, first = map(np.column_stack, zip(*(
                segment_first_max(scored[:, j], starts, segment) for j in range(width))))
        np.testing.assert_array_equal(heads, np.flatnonzero(mask.any(axis=1)))
        masked = np.where(mask if width is None else mask[:, :, None], values, -np.inf)
        np.testing.assert_array_equal(best, masked.max(axis=1)[heads])
        np.testing.assert_array_equal(cols[first], np.argmax(masked, axis=1)[heads])


def test_factorized_matches_materialized_entries():
    for seed in range(5):
        _, _, _, stack = random_instance(seed=seed)
        dense = [dense_tensor(stack, l) for l in range(stack.num_steps)]
        for l in range(stack.num_steps):
            for m in range(stack.num_nodes):
                for mp in range(stack.num_nodes):
                    np.testing.assert_allclose(stack.slice(l, m, mp),
                                               dense[l][m, :, mp, :], atol=1e-12)
        # random single entries through the on-demand path
        rng = np.random.default_rng(seed)
        for _ in range(20):
            l = rng.integers(stack.num_steps)
            m, mp = rng.integers(6, size=2)
            n = rng.integers(stack.dims[l])
            np_ = rng.integers(stack.dims[l + 1])
            assert stack.entry(l, m, n, mp, np_) == pytest.approx(
                dense[l][m, n, mp, np_], abs=1e-12)


def test_schedule_length_must_match_depth():
    model, graph, acts, _ = random_instance(seed=0)
    with pytest.raises(ParameterError):
        build_propagation(model, graph, acts, GammaSchedule.constant(1.0, 2), 0)


# -- output relevance ---------------------------------------------------------


def test_output_relevance_masks_target_class():
    graph = Graph(np.array([[1.0]]), np.array([[1.0, 1.0]]))
    model = GnnModel((LayerSpec(np.array([[0.3, 0.7], [0.0, 0.0]])),),
                     ReadoutSpec(task="graph"))
    acts = forward(model, graph)
    rel = init_output_relevance(model, acts, 1)
    np.testing.assert_allclose(rel, [[0.0, 0.7]])


def test_output_relevance_node_task_off_target_rows_zero():
    rng = np.random.default_rng(2)
    graph = Graph(np.eye(3), rng.random((3, 2)))
    model = GnnModel((LayerSpec(rng.random((2, 2))),),
                     ReadoutSpec(task="node", head=rng.random((2, 2))))
    acts = forward(model, graph)
    rel = init_output_relevance(model, acts, 2)
    assert np.all(rel[0] == 0) and np.all(rel[1] == 0)
    assert np.any(rel[2] != 0)


def test_output_relevance_sums_to_logit_without_head():
    model, graph, acts, _ = random_instance(seed=4)
    target = int(np.argmax(acts.logits))
    rel = init_output_relevance(model, acts, target)
    assert rel.sum() == pytest.approx(acts.logits[target], abs=1e-12)


def test_output_relevance_target_out_of_range():
    model, graph, acts, _ = random_instance(seed=4)
    with pytest.raises(ParameterError):
        init_output_relevance(model, acts, 99)


# -- property: column sums are 0 or 1 ----------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0, 3))
def test_column_sums_in_zero_one(seed, gamma):
    _, _, _, stack = random_instance(m=4, dims=(2, 3, 2), seed=seed, gamma=gamma)
    for l in range(stack.num_steps):
        sums = dense_tensor(stack, l).sum(axis=(0, 1))
        assert np.all(
            (np.abs(sums) <= 1e-9) | (np.abs(sums - 1.0) <= 1e-9)
        )


# -- property: the factorized stack equals the dense reference ----------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.booleans(),
       st.sampled_from([0.0, 0.3, 0.6, 1.0]))
def test_slices_and_entries_equal_dense_tensor(seed, weighted, kill_unit, edge_prob):
    model, graph, _, _ = random_instance(m=4, dims=(2, 3, 3, 2), seed=seed,
                                         edge_prob=edge_prob, weighted=weighted)
    unit = seed % 3
    if kill_unit:
        # a zero weight column zeroes step 1's denominator column and leaves
        # the unit dead (ReLU(0) = 0) at layer 2
        layers = list(model.layers)
        w = layers[1].weight.copy()
        w[:, unit] = 0.0
        layers[1] = LayerSpec(w)
        model = GnnModel(tuple(layers), model.readout)
    acts = forward(model, graph)
    stack = build_propagation(model, graph, acts,
                              GammaSchedule.constant(1.0, model.num_steps),
                              int(np.argmax(acts.logits)))
    if kill_unit:
        assert not stack.hidden[2][:, unit].any()
        # its step-1 denominator column is 0, so its inverse is 0
        np.testing.assert_array_equal(stack.inverse_denominators[1][:, unit], 0.0)
    dense = [dense_tensor(stack, l) for l in range(stack.num_steps)]
    for l in range(stack.num_steps):
        for m in range(stack.num_nodes):
            for mp in range(stack.num_nodes):
                np.testing.assert_allclose(stack.slice(l, m, mp), dense[l][m, :, mp, :],
                                           rtol=1e-12, atol=1e-12)
        sums = dense[l].sum(axis=(0, 1))
        assert np.all((np.abs(sums) <= 1e-9) | (np.abs(sums - 1.0) <= 1e-9))
    rng = np.random.default_rng(seed)
    for _ in range(20):
        l = int(rng.integers(stack.num_steps))
        m, mp = (int(v) for v in rng.integers(stack.num_nodes, size=2))
        n, np_ = int(rng.integers(stack.dims[l])), int(rng.integers(stack.dims[l + 1]))
        assert stack.entry(l, m, n, mp, np_) == pytest.approx(
            dense[l][m, n, mp, np_], rel=1e-12, abs=1e-12)


def test_gin_stack_on_an_edge_list_graph_holds_no_m_by_m_array():
    # a ring, loaded from its edge list; its node-local steps share one
    # diagonal with unit values instead of an M x M identity per target
    m = 3000
    ring = [[i, (i + 1) % m] for i in range(m)] + [[(i + 1) % m, i] for i in range(m)]
    graph = graph_from_dict({"num_nodes": m, "features": np.ones((m, 2)).tolist(),
                             "edges": ring})
    model = init_model([2, 2, 2], 2, task="node", seed=0, gin=True)
    acts = forward(model, graph)
    schedule = GammaSchedule.linear_decay(3.0, model.num_steps)
    local = [l for l, step in enumerate(model.steps) if not step.uses_adjacency]
    for target in (0, 1):
        tracemalloc.start()
        try:
            stack = build_propagation(model, graph, acts, schedule, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m            # an identity alone takes 8 M^2 bytes
        arrays = [a for l in range(stack.num_steps)
                  for a in stack.edges[l] + (stack.edge_values[l], stack.row_pointers[l])]
        arrays += stack.hidden + stack.wups + stack.inverse_denominators
        assert max(a.size for a in arrays + [stack.output_relevance]) < m * m
        assert all(stack.edges[l] is stack.edges[local[0]] for l in local)
        for l in local:
            np.testing.assert_array_equal(stack.edges[l], (np.arange(m),) * 2)
            np.testing.assert_array_equal(stack.edge_values[l], 1.0)
