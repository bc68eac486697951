"""Model/graph containers, forward pass, and serialization."""

import json
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
    ModelFormatError,
    ReadoutSpec,
    ShapeError,
    TrainConfig,
    amp_ave_topk,
    build_propagation,
    degree_normalized,
    emp_neu_topk,
    forward,
    graph_from_dict,
    graph_to_dict,
    init_model,
    load_graph,
    load_model,
    model_from_dict,
    model_to_dict,
    modified_adjacency,
    predicted_target,
    random_graph,
    save_graph,
    save_model,
    train,
)
from relwalk import graphs as graphs_module
from relwalk.datasets import gen_ba2motif, gen_infection
from relwalk.graphs import EDGE_BLOCK
from relwalk.graphs import _segment_sum as segment_sum


def single_node_model(w=1.0):
    return GnnModel((LayerSpec(np.array([[w]])),), ReadoutSpec(task="graph"))


def test_forward_identity_weight_sums_to_logit():
    graph = Graph(np.array([[1.0]]), np.array([[2.0]]))
    acts = forward(single_node_model(), graph)
    np.testing.assert_allclose(acts.hidden[-1], [[2.0]])
    assert acts.logits == pytest.approx([2.0])


def test_forward_relu_kills_negative():
    graph = Graph(np.array([[1.0]]), np.array([[-3.0]]))
    acts = forward(single_node_model(), graph)
    np.testing.assert_allclose(acts.hidden[-1], [[0.0]])


def test_forward_matches_straight_line_evaluation():
    # independent re-implementation of the two-layer forward chain
    rng = np.random.default_rng(7)
    a = (rng.random((5, 5)) < 0.5).astype(float)
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 0)
    lam = modified_adjacency(a)
    feats = rng.random((5, 3))
    w1 = rng.normal(size=(3, 4))
    w2 = rng.normal(size=(4, 2))
    model = GnnModel((LayerSpec(w1), LayerSpec(w2)), ReadoutSpec(task="graph"))
    acts = forward(model, Graph(lam, feats))

    h = feats
    for w in (w1, w2):
        z = np.zeros((5, h.shape[1]))
        for v in range(5):
            for u in range(5):
                z[v] += lam[u, v] * h[u]
        h = np.maximum(z @ w, 0)
    expected_logits = h.sum(axis=0)
    np.testing.assert_allclose(acts.logits, expected_logits, atol=1e-12)


def test_forward_deterministic_and_nonnegative():
    rng = np.random.default_rng(0)
    graph = Graph(modified_adjacency(np.ones((4, 4)) - np.eye(4)), rng.random((4, 2)))
    model = GnnModel(
        (LayerSpec(rng.normal(size=(2, 3))), LayerSpec(rng.normal(size=(3, 2)))),
        ReadoutSpec(task="graph"),
    )
    a1 = forward(model, graph)
    a2 = forward(model, graph)
    for h1, h2 in zip(a1.hidden, a2.hidden):
        assert np.array_equal(h1, h2)
    for h in a1.hidden[1:]:
        assert np.all(h >= 0)


def test_preactivation_linear_in_features():
    rng = np.random.default_rng(1)
    lam = modified_adjacency(np.ones((3, 3)) - np.eye(3))
    feats = rng.random((3, 2))
    model = GnnModel((LayerSpec(rng.normal(size=(2, 2))),), ReadoutSpec(task="graph"))
    z1 = forward(model, Graph(lam, feats)).aggregated[0]
    z2 = forward(model, Graph(lam, 2 * feats)).aggregated[0]
    np.testing.assert_allclose(z2, 2 * z1, atol=0)


def test_gin_layer_expands_to_two_steps():
    layer = LayerSpec(np.ones((1, 20)), hidden_weight=np.ones((20, 20)))
    model = GnnModel(
        (layer, LayerSpec(np.ones((20, 20)), hidden_weight=np.ones((20, 20))),
         LayerSpec(np.ones((20, 2)), hidden_weight=np.ones((2, 2)))),
        ReadoutSpec(task="graph"),
    )
    assert len(model.layers) == 3
    assert model.num_steps == 6
    assert [s.uses_adjacency for s in model.steps] == [True, False] * 3


def test_dimension_chain_validation():
    with pytest.raises(ShapeError):
        GnnModel((LayerSpec(np.ones((3, 4))), LayerSpec(np.ones((5, 2)))))


def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    model = GnnModel(
        (LayerSpec(rng.normal(size=(1, 20)), hidden_weight=rng.normal(size=(20, 20))),
         LayerSpec(rng.normal(size=(20, 20))),
         LayerSpec(rng.normal(size=(20, 2)))),
        ReadoutSpec(task="graph", head=rng.normal(size=(2, 2))),
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert len(loaded.layers) == 3
    for a, b in zip(model.layers, loaded.layers):
        assert np.array_equal(a.weight, b.weight)
    assert np.array_equal(model.readout.head, loaded.readout.head)
    # byte-stable second round trip
    assert model_to_dict(loaded) == model_to_dict(model)


def test_model_from_dict_errors():
    with pytest.raises(ModelFormatError):
        model_from_dict({})
    with pytest.raises(ModelFormatError):
        model_from_dict({"layers": [{"w": "not a matrix"}]})
    # dimension inconsistency surfaces as a format error with the layer index
    bad = {"layers": [{"w": [[1.0] * 4] * 3}, {"w": [[1.0] * 2] * 5}]}
    with pytest.raises(ModelFormatError):
        model_from_dict(bad)


@pytest.mark.parametrize("where, path", [("w", "layers[0].w"), ("w2", "layers[0].w2"),
                                         ("head", "readout.head")])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_model_from_dict_refuses_non_finite_weights(where, path, value):
    data = model_to_dict(GnnModel((LayerSpec(np.ones((2, 2)), hidden_weight=np.ones((2, 2))),),
                                  ReadoutSpec(task="graph", head=np.ones((2, 2)))))
    entry = data["readout"] if where == "head" else data["layers"][0]
    entry[where][1][0] = value
    with pytest.raises(ModelFormatError, match=path.replace("[", r"\[")):
        model_from_dict(data)


@pytest.mark.parametrize("data", [5, {"layers": [5]},
                                  {"layers": [{"w": [[1.0]]}], "readout": 3}])
def test_model_file_whose_entries_are_not_objects_refused(data):
    # a top-level number, a layer that is a number, a readout that is a number
    with pytest.raises(ModelFormatError):
        model_from_dict(data)


@pytest.mark.parametrize("data", [5, {"num_nodes": [2], "features": [[1], [1]], "edges": []}])
def test_graph_file_not_an_object_or_without_integer_size_refused(data):
    with pytest.raises(ModelFormatError):
        graph_from_dict(data)


def test_graph_round_trip_single_node(tmp_path):
    g = Graph(np.array([[1.0]]), np.array([[1.0]]), label=1)
    path = tmp_path / "g.json"
    save_graph(g, path)
    loaded = load_graph(path)
    assert np.array_equal(loaded.adjacency, g.adjacency)
    assert np.array_equal(loaded.features, g.features)
    assert loaded.label == 1


def test_edge_list_and_dense_forms_agree():
    a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    g = Graph(modified_adjacency(a), np.ones((3, 1)))
    data = graph_to_dict(g)
    assert "edges" in data and "dense" not in data
    # row-major nonzeros without the self-loops, as plain ints
    assert data["edges"] == [[i, j] for i in range(3) for j in range(3)
                             if i != j and g.adjacency[i, j] != 0]
    assert all(type(v) is int for edge in data["edges"] for v in edge)
    via_edges = graph_from_dict(data)
    del data["edges"]
    data["dense"] = g.adjacency.tolist()
    via_dense = graph_from_dict(data)
    assert np.array_equal(via_edges.adjacency, via_dense.adjacency)


def test_normalized_adjacency_round_trips_via_dense():
    a = np.array([[0, 1], [1, 0]], dtype=float)
    g = Graph(modified_adjacency(a, normalize=True), np.ones((2, 1)))
    data = graph_to_dict(g)
    assert "dense" in data and "edges" not in data
    loaded = graph_from_dict(data)
    np.testing.assert_allclose(loaded.adjacency, g.adjacency, atol=0)


def test_graph_validation_errors():
    with pytest.raises(ShapeError):
        Graph(np.ones((2, 3)), np.ones((2, 1)))
    with pytest.raises(ShapeError):
        Graph(np.ones((2, 2)), np.ones((3, 1)))
    with pytest.raises(ShapeError):
        Graph(-np.ones((2, 2)), np.ones((2, 1)))
    with pytest.raises(ModelFormatError):
        graph_from_dict({"num_nodes": 2, "features": [[1], [1]]})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_features_refused(value):
    features = np.ones((2, 1))
    features[1, 0] = value
    with pytest.raises(ShapeError, match="finite"):
        Graph(np.eye(2), features)
    with pytest.raises(ShapeError, match="finite"):
        graph_from_dict({"num_nodes": 2, "features": features.tolist(), "edges": []})


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_lambda_refused(value):
    lam = np.eye(2)
    lam[0, 1] = value
    with pytest.raises(ShapeError, match="finite"):
        Graph(lam, np.ones((2, 1)))
    with pytest.raises(ShapeError, match="finite"):
        graph_from_dict({"num_nodes": 2, "features": [[1.0], [1.0]], "dense": lam.tolist()})


@pytest.mark.parametrize("edges", [[[0]], [[0.7, 1]], [[0, 2]], [[0, 1], [-1, 0]],
                                   [[0, 1], [1]], "01", [[0, True]]])
def test_malformed_edge_list_refused(edges):
    # a short entry, a float index, an out-of-range index, a ragged list,
    # a non-list or a boolean index never loads as some other graph
    with pytest.raises(ModelFormatError):
        graph_from_dict({"num_nodes": 2, "features": [[1], [1]], "edges": edges})


def test_edge_list_loads_to_same_adjacency_as_loop():
    rng = np.random.default_rng(0)
    edges = rng.integers(0, 30, size=(200, 2)).tolist()
    expected = np.zeros((30, 30))
    for i, j in edges:
        expected[i, j] = 1.0
    g = graph_from_dict({"num_nodes": 30, "features": np.ones((30, 1)).tolist(),
                         "edges": edges})
    assert np.array_equal(g.adjacency, modified_adjacency(expected))


def test_model_file_adjacency_mode():
    # every layer mixes over Lambda: older files may say so, no file may say otherwise
    layer = model_to_dict(single_node_model(2.0))["layers"][0]
    assert "adjacency_mode" not in layer
    for extra in ({}, {"adjacency_mode": "lambda"}):
        assert model_from_dict({"layers": [{**layer, **extra}]}).steps[0].uses_adjacency
    with pytest.raises(ModelFormatError, match="adjacency_mode"):
        model_from_dict({"layers": [{**layer, "adjacency_mode": "identity"}]})


def test_ba2motif_sample_has_25_nodes():
    g = gen_ba2motif(1, seed=0)[0]
    assert g.num_nodes == 25


# -- CSR storage ---------------------------------------------------------------------

# a node count and a list of [i, j] pairs among its nodes: unsorted, often
# repeated, with self pairs, and sometimes empty
edge_lists = st.integers(1, 8).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                         max_size=40)))


@settings(max_examples=200, deadline=None)
@given(edge_lists)
def test_edge_list_gives_exactly_the_dense_constructions_lambda(case):
    m, edges = case
    a = np.zeros((m, m))
    for i, j in edges:
        a[i, j] = 1.0          # a repeated pair counts once; [i, i] makes Lambda[i, i] 2
    dense = Graph(modified_adjacency(a), np.ones((m, 1)))
    data = {"num_nodes": m, "features": np.ones((m, 1)).tolist(),
            "edges": [list(e) for e in edges]}
    graph = graph_from_dict(data)
    assert np.array_equal(graph.adjacency, dense.adjacency)
    for got, expected in zip(graph.csr + graph.edge_index, dense.csr + dense.edge_index):
        np.testing.assert_array_equal(got, expected)
    # both forms write the same file, and reading it back writes it again
    assert graph_to_dict(graph) == graph_to_dict(dense)
    assert graph_to_dict(graph_from_dict(graph_to_dict(graph))) == graph_to_dict(graph)


def test_products_follow_the_node_count(monkeypatch):
    # 30 nodes: dense products at DENSE_NODES 30, segment sums at 29,
    # whichever constructor built the graph
    rng = np.random.default_rng(0)
    lam = random_graph(30, 4, 0.2, rng).adjacency
    h = rng.normal(size=(30, 5))
    for dense_nodes in (30, 29):
        monkeypatch.setattr(graphs_module, "DENSE_NODES", dense_nodes)
        matrix_built = Graph(lam, np.ones((30, 4)))
        for graph in (matrix_built, graph_from_dict(graph_to_dict(matrix_built))):
            if dense_nodes == 30:
                # BLAS on Lambda densified from the CSR arrays, kept for the next product
                assert graph.aggregate(h).tobytes() == (lam.T @ h).tobytes()
                assert graph.aggregate_adjoint(h).tobytes() == (lam @ h).tobytes()
                assert "_dense" in vars(graph)
            else:
                assert (graph.aggregate(h).tobytes()
                        == segment_sum(graph._column_blocks, h, 30).tobytes())
                assert (graph.aggregate_adjoint(h).tobytes()
                        == segment_sum(graph._row_blocks, h, 30).tobytes())
                np.testing.assert_allclose(graph.aggregate(h), lam.T @ h, rtol=1e-12, atol=0)
                assert "_dense" not in vars(graph)
            # the adjacency property densifies afresh on every call
            assert np.array_equal(graph.adjacency, lam)
            assert graph.adjacency is not graph.adjacency


@pytest.mark.parametrize("dense_nodes", [256, 20], ids=["dense-products", "segment-sums"])
def test_matrix_and_csr_construction_give_the_same_bits(dense_nodes, monkeypatch):
    # a weighted Lambda on 30 nodes, so that a change of summation order shows
    monkeypatch.setattr(graphs_module, "DENSE_NODES", dense_nodes)
    m = 30
    rng = np.random.default_rng(3)
    a = (rng.random((m, m)) < 0.15).astype(float)
    lam = modified_adjacency(np.maximum(a, a.T) - np.diag(np.diag(a)))
    lam *= rng.uniform(0.5, 1.5, lam.shape)
    features = rng.random((m, 4)) + 0.1
    from_matrix = Graph(lam, features, 1)
    rows, cols = np.nonzero(lam)
    indptr = np.searchsorted(rows, np.arange(m + 1))
    from_csr = Graph.from_csr(indptr, cols, lam[rows, cols], features, 1)
    h = rng.normal(size=(m, 6))
    assert from_matrix.aggregate(h).tobytes() == from_csr.aggregate(h).tobytes()
    assert from_matrix.aggregate_adjoint(h).tobytes() == from_csr.aggregate_adjoint(h).tobytes()

    model = init_model([4, 8, 8, 8], 2, seed=0)
    results = []
    for graph in (from_matrix, from_csr):
        acts = forward(model, graph)
        stack = build_propagation(model, graph, acts,
                                  GammaSchedule.linear_decay(3.0, model.num_steps),
                                  predicted_target(model, acts))
        amp = amp_ave_topk(stack, 5, max_k_tilde=500)
        emp = emp_neu_topk(stack, 5, max_k_tilde=500)
        trained = train(model, [graph], TrainConfig(epochs=20, lr=0.05)).model
        results.append((
            [x.tobytes() for x in acts.hidden + acts.aggregated + (acts.logits,)],
            [x.tobytes() for x in stack.inverse_denominators + [stack.output_relevance]],
            [(w.nodes, w.neurons, w.relevance.hex()) for w in amp.positive + emp.positive],
            [s.weight.tobytes() for s in trained.steps] + [trained.readout.head.tobytes()],
        ))
    assert len(results[0][2]) == 10
    assert results[0] == results[1]


@pytest.mark.parametrize("seed", range(5))
def test_degree_normalization_equals_the_dense_recipe(seed):
    # the dense expression perfbench trains its infection models on
    scenario = gen_infection(200, steps=3, lam=0.6, carrier_frac=0.02, seed=seed)
    m = scenario.graph.num_nodes
    expected = modified_adjacency(scenario.graph.adjacency - np.eye(m), normalize=True)
    for graph in (scenario.graph, graph_from_dict(graph_to_dict(scenario.graph))):
        normalized = degree_normalized(graph)
        assert normalized.adjacency.tobytes() == expected.tobytes()
        assert normalized.features is graph.features
        assert np.array_equal(normalized.label, scenario.labels)


def test_degree_normalization_of_a_large_edge_list_graph_allocates_no_dense_lambda():
    m = 20_000
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, m, size=(2 * m, 2))
    graph = graph_from_dict({"num_nodes": m, "features": np.ones((m, 1)).tolist(),
                             "edges": np.concatenate([pairs, pairs[:, ::-1]]).tolist()})
    tracemalloc.start()
    try:
        normalized = degree_normalized(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # O(E) arrays of about 100,000 edges; Lambda as a matrix would be 3.2 GB
    assert peak < 8 * 2 ** 20, peak / 2 ** 20
    rows, cols = graph.edge_index
    deg = np.bincount(rows, weights=graph.csr[2], minlength=m)
    np.testing.assert_allclose(normalized.csr[2], graph.csr[2] / np.sqrt(deg[rows] * deg[cols]),
                               rtol=1e-14)


@pytest.mark.parametrize("indptr, indices, data", [
    ([0, 1], [0, 0], [1.0, 1.0]),        # indptr does not cover the edges
    ([1, 1, 1], [], []),                  # indptr does not start at 0
    ([0, 2, 2], [1, 0], [1.0, 1.0]),     # a row's columns descend
    ([0, 2, 2], [0, 0], [1.0, 1.0]),     # a row repeats a column
    ([0, 1, 1], [2], [1.0]),             # column out of range
    ([0, 1, 1], [0], [0.0]),             # a stored zero
    ([0, 1, 1], [0], [-1.0]),            # a negative entry
    ([0, 1, 1], [0], [np.inf]),          # an infinite entry
    ([0, 1, 1], [0], [np.nan]),          # a NaN entry
])
def test_malformed_csr_refused(indptr, indices, data):
    with pytest.raises(ShapeError):
        Graph.from_csr(indptr, indices, data, np.ones((len(indptr) - 1, 1)))


# -- blocked per-edge kernels ----------------------------------------------------------


def whole_edge_list_sum(targets, sources, weights, x, m):
    """One bincount over every edge at once: the order the blocked segment
    sum must reproduce bit for bit."""
    n = x.shape[1]
    values = x[sources] * weights[:, None]
    keys = (targets[:, None] * n + np.arange(n)).ravel()
    return np.bincount(keys, weights=values.ravel(), minlength=m * n).reshape(m, n)


def csr_graph(m, pairs, n, seed=0):
    """from_csr graph on the given (row, col) pairs (repeats count once),
    with positive weights and features spread over many magnitudes, so that
    a change of summation order shows in the last bits."""
    rng = np.random.default_rng(seed)
    keys = np.unique(np.asarray(pairs, dtype=np.intp).reshape(-1, 2) @ [m, 1])
    rows, cols = np.divmod(keys, m)
    indptr = np.searchsorted(rows, np.arange(m + 1))
    data = rng.random(keys.size) * 10.0 ** rng.integers(-3, 4, keys.size) + 0.1
    features = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-6, 7, (m, n))
    return Graph.from_csr(indptr, cols, data, features)


def assert_products_are_whole_edge_list_sums(graph):
    # the kernel on the graph's edge blocks, and the graph's products when
    # its node count puts them on the kernel
    rows, cols = graph.edge_index
    data = graph.csr[2]
    h = graph.features
    m = graph.num_nodes
    for blocks, targets, sources, product in (
            (graph._column_blocks, cols, rows, graph.aggregate),
            (graph._row_blocks, rows, cols, graph.aggregate_adjoint)):
        whole = whole_edge_list_sum(targets, sources, data, h, m).tobytes()
        assert segment_sum(blocks, h, m).tobytes() == whole
        if not graphs_module.dense_products(m):
            assert product(h).tobytes() == whole


def kernel_cases():
    rng = np.random.default_rng(1)
    m = 3 * EDGE_BLOCK // 2
    star = [(0, v) for v in range(m)] + [(v, 0) for v in range(m)]
    # E = 2 * EDGE_BLOCK exactly: every node's loop plus a shifted ring
    ring_m = EDGE_BLOCK
    ring = [(v, v) for v in range(ring_m)] + [(v, (v + 1) % ring_m) for v in range(ring_m)]
    sparse_pairs = rng.integers(0, m // 2, size=(m, 2)) * 2      # odd rows and columns empty
    return {
        "several blocks": (m, rng.integers(0, m, size=(5 * EDGE_BLOCK // 2, 2))),
        "exact multiple of the block": (ring_m, ring),
        "hub row and column beyond a block": (m, star + [(v, v) for v in range(m)]),
        "empty rows and columns": (m, sparse_pairs),
        "no edges": (5, []),
    }


@pytest.mark.parametrize("n", [1, 16])
@pytest.mark.parametrize("case", list(kernel_cases()))
def test_blocked_segment_sums_equal_one_whole_edge_list_bincount(case, n):
    m, pairs = kernel_cases()[case]
    graph = csr_graph(m, pairs, n)
    if case == "exact multiple of the block":
        assert graph.csr[1].size == 2 * EDGE_BLOCK
    if case == "hub row and column beyond a block":
        assert np.count_nonzero(graph.csr[1] == 0) > EDGE_BLOCK
        assert np.diff(graph.csr[0])[0] > EDGE_BLOCK
    assert_products_are_whole_edge_list_sums(graph)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 80), st.integers(1, 4), st.integers(1, 7),
       st.integers(0, 2 ** 16))
def test_segment_sums_with_tiny_blocks_equal_one_whole_edge_list_bincount(m, e, n, block, seed):
    # blocks of a few edges hold one or a few nodes' edges, and node 0 is a
    # hub in both directions, so its edges fill a block of their own
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, m, size=(e, 2))
    pairs[: e // 3, 0] = 0
    pairs[e // 3: 2 * e // 3, 1] = 0
    graph = csr_graph(m, pairs, n, seed)
    saved = graphs_module.EDGE_BLOCK
    graphs_module.EDGE_BLOCK = block
    try:
        assert_products_are_whole_edge_list_sums(graph)
    finally:
        graphs_module.EDGE_BLOCK = saved
