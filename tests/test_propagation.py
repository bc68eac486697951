"""Transition tensor construction, gamma schedules, output relevance.

The stack is factorized only; oracle.dense_tensor is the dense reference
its entries and slices are checked against.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relwalk import (
    Explainer,
    GammaSchedule,
    GnnModel,
    Graph,
    LayerSpec,
    ParameterError,
    PropagationStack,
    ReadoutSpec,
    build_propagation,
    dense_tensor,
    forward,
    graph_from_dict,
    init_model,
    init_output_relevance,
    modified_weight,
    parse_gamma,
    predicted_target,
    random_graph,
)
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
    with pytest.raises(ParameterError, match="non-finite"):
        Explainer(model, graph, schedule)      # before any target is named


def _overflowing(kind):
    """(model, graph, schedule) whose explanation overflows float64 in the
    activations, or only in the LRP denominators (z @ 1.5 W at z = 3)."""
    if kind == "activations":
        model = init_model([5, 3, 3], 2, seed=0)
        model = GnnModel(tuple(LayerSpec(layer.weight * 1e155) for layer in model.layers),
                         model.readout)
        graph = random_graph(6, 5, 0.6, np.random.default_rng(0))
        return model, graph, GammaSchedule.linear_decay(3.0, 2)
    graph = Graph(np.array([[3.0]]), np.array([[1.0]]))
    model = GnnModel((LayerSpec(np.array([[5e307]])),),
                     ReadoutSpec(task="graph", head=np.array([[1.0, 1.0]])))
    return model, graph, GammaSchedule.constant(0.5, 1)


@pytest.mark.parametrize("kind", ["activations", "LRP denominators"])
def test_an_overflowing_forward_pass_is_refused(kind):
    model, graph, schedule = _overflowing(kind)
    with pytest.raises(ParameterError, match=f"non-finite {kind}"):
        Explainer(model, graph, schedule)
    with np.errstate(over="ignore", invalid="ignore"):
        acts = forward(model, graph)
    with pytest.raises(ParameterError, match=f"non-finite {kind}"):
        Explainer(model, graph, schedule, acts)       # activations passed in


def test_an_overflowing_output_relevance_is_refused():
    # finite activations and logits, but H^(L) times the head overflows
    graph = Graph(np.array([[1.0]]), np.array([[1.0]]))
    model = GnnModel((LayerSpec(np.array([[1e300]])),),
                     ReadoutSpec(task="graph", head=np.array([[1e10, 1.0]])))
    with np.errstate(over="ignore"):
        acts = dataclasses.replace(forward(model, graph), logits=np.array([1.0, 0.0]))
    session = Explainer(model, graph, GammaSchedule.constant(0.0, 1), acts)
    with pytest.raises(ParameterError, match="non-finite output relevance"):
        session.stack(0)


@pytest.mark.parametrize("field, step, value", [("hidden", 0, np.nan), ("wups", 1, np.nan),
                                               ("inverse_denominators", 0, np.inf),
                                               ("output_relevance", None, np.nan)])
def test_a_hand_built_stack_refuses_non_finite_arrays(field, step, value):
    # on these 3 x 3 all-ones stacks, a NaN in wups or output_relevance made
    # both searches index past an edge list (segment_first_max), and an inf
    # in inverse_denominators gave walks of relevance inf
    ones = np.ones((3, 3))
    factors = {"lams": [Graph(ones, ones)] * 2, "hidden": [ones] * 2, "wups": [ones] * 2,
               "inverse_denominators": [ones / 9] * 2, "output_relevance": ones}
    bad = ones.copy()
    bad[1, 2] = value
    factors[field] = bad if step is None else [
        bad if l == step else a for l, a in enumerate(factors[field])]
    with pytest.raises(ParameterError, match="non-finite stack array"):
        PropagationStack(**factors)


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
    for lam in stack.lams:
        rows, cols = lam.edge_index
        np.testing.assert_array_equal(rows, expected_rows)
        np.testing.assert_array_equal(cols, expected_cols)
        np.testing.assert_array_equal(lam.csr[2], graph.adjacency[rows, cols])
    # every GCN step reads the one adjacency, the session's graph itself,
    # so its edges are scanned once
    assert all(lam is graph for lam in stack.lams)
    for task in ("graph", "node"):
        for gin in (False, True):
            for seed in range(5):
                graph = random_graph(6, 3, 0.4, np.random.default_rng(seed))
                model = init_model([3, 3, 3], 2, task=task, seed=seed, gin=gin)
                session = Explainer(model, graph,
                                    GammaSchedule.linear_decay(3.0, model.num_steps))
                identity = None
                # two targets of one session: two classes, or two nodes
                for target in (0, 1):
                    stack = session.stack(target)
                    ref = stack_from_factors([lam.adjacency for lam in stack.lams],
                                             stack.hidden, stack.wups, stack.output_relevance)
                    for l, step in enumerate(model.steps):
                        lam, expected = stack.lams[l], ref.lams[l]
                        for got, want in zip(lam.csr + lam.edge_index,
                                             expected.csr + expected.edge_index):
                            np.testing.assert_array_equal(got, want)
                        # the stack's denominators come from forward's Lam^T H,
                        # the reference's from its own product: the same bits
                        assert (stack.inverse_denominators[l].tobytes()
                                == ref.inverse_denominators[l].tobytes())
                        if step.uses_adjacency:
                            assert lam is graph
                        else:
                            # Lam = I, one graph for every node-local step
                            # and every target of the session
                            if identity is None:
                                identity = lam
                            assert lam is identity
                            np.testing.assert_array_equal(lam.adjacency, np.eye(6))
                assert gin == (identity is not None)


@pytest.mark.parametrize("task", ["graph", "node"])
def test_targets_of_one_session_share_all_but_their_output_relevance(task):
    graph = random_graph(8, 3, 0.4, np.random.default_rng(1))
    model = init_model([3, 3, 3, 3], 2, task=task, seed=1, gin=True)   # seed 0 is dead
    session = Explainer(model, graph, GammaSchedule.linear_decay(3.0, model.num_steps))
    a, b = session.stack(0), session.stack(1)
    for field in dataclasses.fields(a):
        shared = getattr(a, field.name) is getattr(b, field.name)
        assert shared == (field.name != "output_relevance"), field.name
    assert not np.array_equal(a.output_relevance, b.output_relevance)


def test_row_copies_are_built_on_first_use_and_shared_by_the_session():
    graph = random_graph(8, 3, 0.4, np.random.default_rng(1))
    model = init_model([3, 3, 3, 3], 2, task="node", seed=1, gin=True)
    schedule = GammaSchedule.linear_decay(3.0, model.num_steps)
    # two sessions over one graph, two targets of the first
    first = Explainer(model, graph, schedule)
    a, b = first.stack(0), first.stack(1)
    c = Explainer(model, graph, schedule).stack(0)
    lams = a.lams + c.lams
    # constructing the sessions and their stacks built no row copy
    assert not any("_python_rows" in vars(lam) for lam in lams)
    cols, values = b.lams[0].out_edges(2)
    # the graph's row copies now serve every stack of both sessions; the
    # node-local steps' Lam = I graphs have built none
    assert all(lam is graph for s in (a, b, c) for lam, step in zip(s.lams, model.steps)
               if step.uses_adjacency)
    assert "_python_rows" in vars(graph)
    assert not any("_python_rows" in vars(lam) for lam in lams if lam is not graph)
    ptr = graph.csr[0]
    np.testing.assert_array_equal(cols, graph.csr[1][ptr[2]:ptr[3]])
    np.testing.assert_array_equal(values, graph.csr[2][ptr[2]:ptr[3]])


def test_node_task_session_needs_a_target():
    graph = random_graph(5, 3, 0.5, np.random.default_rng(0))
    model = init_model([3, 3, 3], 2, task="node", seed=0)
    session = Explainer(model, graph, GammaSchedule.constant(1.0, model.num_steps))
    with pytest.raises(ParameterError, match="node index"):
        session.stack()
    with pytest.raises(ValueError):
        predicted_target(model, session.acts)


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


# one row's edge values: heavy ties from a 3-value alphabet, single edges,
# all-zero rows, and rows with no edge (no segment)
EDGE_ROWS = st.lists(st.one_of(st.lists(st.sampled_from([-1.5, 0.0, 2.0]), max_size=6),
                               st.lists(st.just(0.0), min_size=1, max_size=4),
                               st.lists(st.floats(-10, 10), min_size=1, max_size=1)),
                     max_size=8)


@settings(max_examples=200, deadline=None)
@given(EDGE_ROWS)
@example([])
@example([[0.0, 0.0, 0.0], [2.0]])
@example([[], [-1.5, 2.0, 2.0, -1.5, 2.0], [], [0.0]])
def test_segment_first_max_is_each_rows_first_max(edge_rows):
    rows = np.repeat(np.arange(len(edge_rows)), [len(r) for r in edge_rows])
    column = np.array([v for r in edge_rows for v in r], dtype=float)
    heads, starts, segment = edge_segments(rows)
    best, first = segment_first_max(column, starts, segment)
    offsets = np.cumsum([0] + [len(r) for r in edge_rows])
    expected = [(m, max(r), offsets[m] + r.index(max(r))) for m, r in enumerate(edge_rows) if r]
    assert list(zip(heads.tolist(), best.tolist(), first.tolist())) == expected


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


def test_headless_node_task_explains_the_predicted_class_channel():
    # logits at node 0 are [0, 167.76, 87.52]: one class, not their sum 255.27
    model, graph, acts, stack = random_instance(seed=0, task="node")
    assert model.readout.head is None
    top = int(np.argmax(acts.logits[0]))
    assert np.array_equal(np.argwhere(stack.output_relevance), [[0, top]])
    assert stack.output_relevance.sum() == acts.logits[0, top]
    assert stack.output_relevance.sum() == pytest.approx(167.757, abs=1e-3)


@pytest.mark.parametrize("task", ["graph", "node"])
def test_output_relevance_refuses_a_class_it_cannot_pick(task):
    # a graph task's target is its class; a headless node task explains
    # only its predicted channel
    model, _, acts, _ = random_instance(seed=4, task=task)
    with pytest.raises(ParameterError, match="target_class"):
        init_output_relevance(model, acts, 0, target_class=1)


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
    # Lam = I graph instead of an M x M identity per target
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
        arrays = [a for lam in stack.lams for a in lam.csr + lam.edge_index + (lam.features,)]
        arrays += stack.hidden + stack.wups + stack.inverse_denominators
        assert max(a.size for a in arrays + [stack.output_relevance]) < m * m
        assert all(stack.lams[l] is graph for l in range(stack.num_steps) if l not in local)
        identity = stack.lams[local[0]]
        assert identity is not graph and all(stack.lams[l] is identity for l in local)
        np.testing.assert_array_equal(identity.edge_index, (np.arange(m),) * 2)
        np.testing.assert_array_equal(identity.csr[2], 1.0)
        # no row copy is built before first use
        assert not any("_python_rows" in vars(lam) for lam in stack.lams)
