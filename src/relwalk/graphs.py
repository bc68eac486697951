"""Graph and GNN model containers, forward pass, and JSON (de)serialization.

Conventions used throughout the package:

* ``Lambda`` is the modified adjacency matrix (self-loops included).
  ``Lambda[u, v] != 0`` means node ``u`` sends messages to node ``v``;
  for undirected graphs the matrix is symmetric and the distinction is
  irrelevant.  A ``Graph`` holds it as CSR arrays only.
* A GIN-style block with a two-layer MLP combine is expanded into two
  propagation steps: the first mixes over ``Lambda``, the second is an
  intra-node (identity adjacency) step.
* All arrays are float64.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np
import orjson


class ShapeError(ValueError):
    """Dimension mismatch between model, graph, or weights."""


class ModelFormatError(ValueError):
    """Malformed model or graph file."""


# Node count up to which a graph's products are BLAS calls on a dense Lambda;
# above it they are segment sums over the CSR edge list.  Per product, the
# dense form was faster at every M <= 256 measured (README, "Graph storage").
DENSE_NODES = 256


def dense_products(num_nodes: int) -> bool:
    """Whether a Lambda on num_nodes nodes is multiplied densely (BLAS)."""
    return num_nodes <= DENSE_NODES


class Graph:
    """A graph instance to be explained: Lambda and the M x N0 node features.

    Lambda, the modified adjacency (self-loops included), is held in one
    form only, row-major CSR arrays csr = (indptr, indices, data): row m's
    nonzeros sit at indptr[m]:indptr[m + 1], in column order.
    Graph(adjacency, features) reads them off a matrix and keeps no
    matrix; Graph.from_csr (the JSON edge-list form) takes them as given.
    The products follow the node count alone (dense_products): BLAS on a
    dense Lambda, densified once and cached, or a segment sum per feature
    column over the CSR edge list, with no M x M array.  The searches read
    Lambda two ways more, a row (out_edges) and an entry (value), from
    Python copies of the CSR arrays built on first use, so every stack and
    session over one graph shares one set.
    """

    def __init__(self, adjacency, features, label: int | np.ndarray | None = None):
        adj = np.asarray(adjacency, dtype=float)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ShapeError(f"adjacency must be square, got {adj.shape}")
        rows, cols = np.nonzero(adj)
        indptr = np.searchsorted(rows, np.arange(adj.shape[0] + 1))
        self._store(indptr, cols, adj[rows, cols], features, label)

    @classmethod
    def from_csr(cls, indptr, indices, data, features,
                 label: int | np.ndarray | None = None) -> "Graph":
        """Graph from Lambda's row-major CSR arrays; no M x M array is built."""
        graph = cls.__new__(cls)
        graph._store(indptr, indices, data, features, label)
        return graph

    def _store(self, indptr, indices, data, features, label) -> None:
        """The one validation path of both constructors."""
        indptr = np.asarray(indptr, dtype=np.intp)
        indices = np.asarray(indices, dtype=np.intp)
        data = np.asarray(data, dtype=float)
        if (indptr.ndim != 1 or indptr.size < 1 or indptr[0] != 0
                or np.any(np.diff(indptr) < 0) or indices.shape != (indptr[-1],)
                or data.shape != indices.shape):
            raise ShapeError("CSR arrays do not fit together")
        m = indptr.size - 1
        if m < 1:
            raise ShapeError("a graph needs at least one node")
        rows = np.repeat(np.arange(m), np.diff(indptr))
        if (np.any((indices < 0) | (indices >= m))
                or np.any((np.diff(indices) <= 0) & (np.diff(rows) == 0))):
            raise ShapeError("CSR indices must be in range and ascending within each row")
        # NaN fails the first test, +inf the second
        if not (np.all(data > 0) and np.all(data < np.inf)):
            raise ShapeError("Lambda's nonzero entries must be positive and finite")
        feats = np.asarray(features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] != m:
            raise ShapeError(f"features rows ({feats.shape}) must match adjacency dim {m}")
        if not np.all(np.isfinite(feats)):
            raise ShapeError("features must be finite")
        self.csr = (indptr, indices, data)
        self.edge_index = (rows, indices)      # each edge's row spelled out
        self.features = feats
        self.label = label

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    def densify_into(self, out: np.ndarray) -> np.ndarray:
        """Scatter Lambda's nonzeros into out, a zeroed M x M buffer (or a
        graph's slice of a stacked one), and return it: the package's one
        densifier."""
        out[self.edge_index] = self.csr[2]
        return out

    @property
    def adjacency(self) -> np.ndarray:
        """Lambda as a fresh M x M matrix densified from the CSR arrays (for
        oracles, tests and the dense file form)."""
        return self.densify_into(np.zeros((self.num_nodes, self.num_nodes)))

    @cached_property
    def _dense(self) -> np.ndarray:
        """Lambda densified once, for the BLAS products of a small graph."""
        return self.adjacency

    def aggregate(self, h: np.ndarray) -> np.ndarray:
        """Lambda^T h: node v receives sum_u Lambda[u, v] h[u]."""
        if dense_products(self.num_nodes):
            return self._dense.T @ h
        rows, cols = self.edge_index
        return _segment_sum(cols, rows, self.csr[2], h, self.num_nodes)

    def aggregate_adjoint(self, g: np.ndarray) -> np.ndarray:
        """Lambda g, the adjoint of aggregate (the backward pass of training)."""
        if dense_products(self.num_nodes):
            return self._dense @ g
        rows, cols = self.edge_index
        return _segment_sum(rows, cols, self.csr[2], g, self.num_nodes)

    @cached_property
    def _python_rows(self) -> tuple[array, array, array]:
        """The CSR arrays as Python arrays, whose items read as Python
        scalars, for the scalar reads by bisection.  Each is copied once,
        from a contiguous int64 or float64 view of the CSR array."""
        rows = array("q"), array("q"), array("d")
        for row, a, dtype in zip(rows, self.csr, (np.int64, np.int64, np.float64)):
            row.frombytes(memoryview(np.ascontiguousarray(a, dtype=dtype)).cast("B"))
        return rows

    def out_edges(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(cols, values) of row m of Lambda: m's successors, in column order."""
        ptr = self._python_rows[0]
        lo, hi = ptr[m], ptr[m + 1]
        return self.csr[1][lo:hi], self.csr[2][lo:hi]

    def value(self, m: int, mp: int) -> float:
        """Lambda[m, m'], 0 off the edges: a bisection in row m."""
        ptr, cols, values = self._python_rows
        hi = ptr[m + 1]
        i = bisect_left(cols, mp, ptr[m], hi)
        return values[i] if i < hi and cols[i] == mp else 0.0


def _segment_sum(targets: np.ndarray, sources: np.ndarray, weights: np.ndarray,
                 x: np.ndarray, m: int) -> np.ndarray:
    """M x N sums out[t] = sum of weights[e] * x[sources[e]] over the edges e
    into target t, one bincount per feature column.

    bincount adds each target's edges one at a time, from zero, in list
    order.  In CSR order a row's edges come by ascending column and a
    column's by ascending row, so both products sum in one fixed order,
    and only E floats per column are gathered: no E x N array is built.
    """
    out = np.empty((m, x.shape[1]))
    for j in range(x.shape[1]):
        values = x[:, j].take(sources)
        values *= weights
        out[:, j] = np.bincount(targets, weights=values, minlength=m)
    return out


def degree_normalized(graph: Graph) -> Graph:
    """The graph with Lambda replaced by D^-1/2 Lambda D^-1/2, D the row sums
    of Lambda, computed on the CSR arrays: O(E) work, no M x M array."""
    rows, cols = graph.edge_index
    indptr, _, data = graph.csr
    deg = np.bincount(rows, weights=data, minlength=graph.num_nodes)
    dinv = np.zeros(graph.num_nodes)
    nonempty = deg > 0
    dinv[nonempty] = deg[nonempty] ** -0.5
    return Graph.from_csr(indptr, cols, dinv[rows] * data * dinv[cols], graph.features,
                          graph.label)


def modified_adjacency(a: np.ndarray, normalize: bool = False) -> np.ndarray:
    """Build Lambda = A + I, optionally with symmetric degree normalization."""
    a = np.asarray(a, dtype=float)
    lam = a + np.eye(a.shape[0])
    # the package normalizes with degree_normalized; this branch stays while
    # perfbench's workloads call it
    if normalize:
        deg = lam.sum(axis=1)
        dinv = np.where(deg > 0, deg ** -0.5, 0.0)
        lam = dinv[:, None] * lam * dinv[None, :]
    return lam


@dataclass(frozen=True)
class LayerSpec:
    """One GNN block.

    weight maps the incoming feature dimension to the block output after
    mixing over Lambda; an optional hidden_weight turns the combine step
    into a two-layer MLP (GIN style).
    """

    weight: np.ndarray
    hidden_weight: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        if w.ndim != 2:
            raise ShapeError(f"weight must be 2-D, got {w.shape}")
        object.__setattr__(self, "weight", w)
        if self.hidden_weight is not None:
            w2 = np.asarray(self.hidden_weight, dtype=float)
            if w2.ndim != 2 or w2.shape[0] != w.shape[1]:
                raise ShapeError(
                    f"hidden_weight {w2.shape} does not chain after weight {w.shape}"
                )
            object.__setattr__(self, "hidden_weight", w2)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        w2 = self.hidden_weight
        return self.weight.shape[1] if w2 is None else w2.shape[1]


@dataclass(frozen=True)
class ReadoutSpec:
    """Sum pooling (graph task) or per-node logits (node task).

    head, when present, is a linear map from the final feature dimension
    to class logits.
    """

    task: str = "graph"
    head: np.ndarray | None = None

    def __post_init__(self):
        if self.task not in ("graph", "node"):
            raise ModelFormatError(f"unknown task {self.task!r}")
        if self.head is not None:
            h = np.asarray(self.head, dtype=float)
            if h.ndim != 2:
                raise ShapeError(f"head must be 2-D, got {h.shape}")
            object.__setattr__(self, "head", h)


@dataclass(frozen=True)
class Step:
    """A single propagation step (one weight application)."""

    weight: np.ndarray
    uses_adjacency: bool


@dataclass(frozen=True)
class GnnModel:
    layers: tuple[LayerSpec, ...]
    readout: ReadoutSpec = field(default_factory=ReadoutSpec)

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ShapeError("model needs at least one layer")
        for i in range(1, len(layers)):
            if layers[i].in_dim != layers[i - 1].out_dim:
                raise ShapeError(
                    f"layer {i} expects input dim {layers[i].in_dim}, "
                    f"layer {i - 1} outputs {layers[i - 1].out_dim}"
                )
        head = self.readout.head
        if head is not None and head.shape[0] != layers[-1].out_dim:
            raise ShapeError(
                f"head input dim {head.shape[0]} != final feature dim {layers[-1].out_dim}"
            )
        object.__setattr__(self, "layers", layers)

    @cached_property
    def steps(self) -> tuple[Step, ...]:
        """Per-weight propagation steps; GIN MLP blocks expand into two.
        Built once per model: forward and training read them on every pass."""
        out = []
        for layer in self.layers:
            out.append(Step(layer.weight, True))
            if layer.hidden_weight is not None:
                out.append(Step(layer.hidden_weight, False))
        return tuple(out)

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def num_classes(self) -> int:
        head = self.readout.head
        return self.out_dim if head is None else head.shape[1]


@dataclass(frozen=True)
class Activations:
    """Retained forward-pass state for LRP.

    hidden[s] is H after s propagation steps (hidden[0] = input features),
    aggregated[s] is the adjacency-mixed input of step s (before the weight),
    logits is the readout output.
    """

    hidden: tuple[np.ndarray, ...]
    aggregated: tuple[np.ndarray, ...]
    pooled: np.ndarray | None
    logits: np.ndarray


def forward(model: GnnModel, graph: Graph) -> Activations:
    """Deterministic forward pass retaining every intermediate activation.

    Aggregation sends along edges: node v receives sum_u Lambda[u, v] * H[u].
    graph may also be a group of graphs whose node rows are stacked (B, M, N)
    (training.GraphGroup); every activation then gains the leading axis B,
    with the same bits per graph as a pass on that graph alone.
    """
    if graph.features.shape[-1] != model.in_dim:
        raise ShapeError(
            f"graph features dim {graph.features.shape[-1]} != model input {model.in_dim}"
        )
    h = graph.features
    hidden = [h]
    aggregated = []
    for step in model.steps:
        z = graph.aggregate(h) if step.uses_adjacency else h
        h = z @ step.weight
        np.maximum(h, 0.0, out=h)
        aggregated.append(z)
        hidden.append(h)

    head = model.readout.head
    if model.readout.task == "graph":
        pooled = h.sum(axis=-2)
        # one gemv per graph; a (B, N) gemm would round differently
        logits = pooled if head is None else np.matmul(pooled[..., None, :], head)[..., 0, :]
        return Activations(tuple(hidden), tuple(aggregated), pooled, logits)
    logits = h if head is None else h @ head
    return Activations(tuple(hidden), tuple(aggregated), None, logits)


def predicted_target(model: GnnModel, acts: Activations) -> int:
    """Predicted class of a graph-task model; a node task has one per node."""
    if model.readout.task != "graph":
        raise ValueError("node index required for node-classification models")
    return int(np.argmax(acts.logits))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _read_json(path):
    """The JSON value in the file at path: the package's one JSON reader.

    orjson parses the file; only a file it refuses is parsed again by the
    stdlib, which decides it.  So Python's JSON dialect (NaN, Infinity,
    1e400, a UTF-8 BOM) reads as json.loads reads it, and a malformed
    file fails with the stdlib's message.  Writes stay on the stdlib.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc


def _object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{path}: expected a JSON object")
    return obj


def _matrix(obj, path: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:     # an integer beyond float range
        raise ModelFormatError(f"{path}: not a numeric matrix") from exc
    if arr.ndim != 2:
        raise ModelFormatError(f"{path}: expected a 2-D matrix, got shape {arr.shape}")
    return arr


def _weight(obj, path: str) -> np.ndarray:
    arr = _matrix(obj, path)
    if 0 in arr.shape:
        raise ModelFormatError(f"{path}: every dimension must be >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"{path}: non-finite weight")
    return arr


def model_to_dict(model: GnnModel) -> dict:
    return {
        "layers": [
            {
                "w": layer.weight.tolist(),
                "w2": None if layer.hidden_weight is None else layer.hidden_weight.tolist(),
            }
            for layer in model.layers
        ],
        "readout": {
            "head": None if model.readout.head is None else model.readout.head.tolist(),
            "task": model.readout.task,
        },
    }


def model_from_dict(data: dict) -> GnnModel:
    data = _object(data, "model")
    if "layers" not in data or not isinstance(data["layers"], list):
        raise ModelFormatError("layers: missing or not a list")
    layers = []
    for i, entry in enumerate(data["layers"]):
        entry = _object(entry, f"layers[{i}]")
        if "w" not in entry:
            raise ModelFormatError(f"layers[{i}].w: missing")
        # every layer mixes over Lambda; older files name that "lambda"
        mode = entry.get("adjacency_mode", "lambda")
        if mode != "lambda":
            raise ModelFormatError(f"layers[{i}].adjacency_mode: unsupported {mode!r}")
        w = _weight(entry["w"], f"layers[{i}].w")
        w2 = entry.get("w2")
        layers.append(
            LayerSpec(
                weight=w,
                hidden_weight=None if w2 is None else _weight(w2, f"layers[{i}].w2"),
            )
        )
    ro = _object(data.get("readout", {}), "readout")
    head = ro.get("head")
    readout = ReadoutSpec(
        task=ro.get("task", "graph"),
        head=None if head is None else _weight(head, "readout.head"),
    )
    try:
        return GnnModel(tuple(layers), readout)
    except ShapeError as exc:
        raise ModelFormatError(str(exc)) from exc


def save_model(model: GnnModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path) -> GnnModel:
    return model_from_dict(_read_json(path))


def graph_to_dict(graph: Graph) -> dict:
    label = graph.label
    if isinstance(label, np.ndarray):
        label = label.tolist()
    out: dict = {"num_nodes": graph.num_nodes, "features": graph.features.tolist(), "label": label}
    # The edge-list form can only represent unweighted A + I adjacencies;
    # anything else (e.g. degree-normalized) must round-trip densely.
    rows, cols = graph.edge_index
    loops = rows == cols
    if np.count_nonzero(loops) == graph.num_nodes and np.all(graph.csr[2] == 1.0):
        out["edges"] = np.column_stack([rows[~loops], cols[~loops]]).tolist()
    else:
        out["dense"] = graph.adjacency.tolist()
    return out


def _edge_pairs(pairs) -> np.ndarray:
    """An edge list's [i, j] pairs as an (E, 2) index array, converted in one
    flat pass: the pairs' items are flattened, their types checked, and the
    flat list read by np.fromiter, with no nested-list discovery."""
    not_pairs = ModelFormatError("edges: expected a list of [i, j] integer pairs")
    try:
        lengths = set(map(len, pairs))
    except TypeError as exc:     # not a list, or an entry without items
        raise not_pairs from exc
    if len(lengths) > 1:
        raise ModelFormatError("edges: not a list of [i, j] pairs")
    flat = list(chain.from_iterable(pairs))
    # bool is refused by type, not read as 0 or 1; a float is refused too,
    # which is how orjson reads an integer beyond 64 bits
    if lengths - {2} or set(map(type, flat)) - {int}:
        raise not_pairs
    try:
        return np.fromiter(flat, dtype=np.intp, count=len(flat)).reshape(-1, 2)
    except OverflowError as exc:     # the stdlib's integer beyond 64 bits
        raise not_pairs from exc


def graph_from_dict(data: dict) -> Graph:
    data = _object(data, "graph")
    if "num_nodes" not in data:
        raise ModelFormatError("num_nodes: missing")
    try:
        m = int(data["num_nodes"])
    except (TypeError, ValueError, OverflowError) as exc:     # 1e400 reads as inf
        raise ModelFormatError("num_nodes: not an integer") from exc
    if m < 0:
        raise ModelFormatError("num_nodes: must be >= 0")
    # the features are in memory already; Lambda's arrays, sized by
    # num_nodes, are built only once the two agree
    if "features" not in data:
        raise ModelFormatError("features: missing")
    feats = _matrix(data["features"], "features")
    if feats.shape[0] != m:
        raise ModelFormatError(f"features: {feats.shape[0]} rows != num_nodes {m}")
    if "dense" in data:
        # dense form stores the modified adjacency Lambda verbatim
        lam = _matrix(data["dense"], "dense")
        if lam.shape != (m, m):
            raise ModelFormatError(f"dense: shape {lam.shape} != ({m}, {m})")
    elif "edges" in data:
        edges = _edge_pairs(data["edges"])
        bad = np.flatnonzero(((edges < 0) | (edges >= m)).any(axis=1))
        if bad.size:
            raise ModelFormatError(f"edges[{bad[0]}]: node index out of range")
        # Lambda = A + I straight as CSR, row-major: one sort of the listed
        # keys i * m + j with the diagonal's, then one pass over its runs.
        # Each listed pair of A counts once, and a listed [i, i] runs longer
        # than its diagonal key alone and makes Lambda[i, i] 2
        keys = np.concatenate([edges[:, 0] * m + edges[:, 1], np.arange(m) * (m + 1)])
        keys.sort()
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        rows, cols = np.divmod(keys[starts], m)
        values = 1.0 + ((rows == cols) & (np.diff(starts, append=keys.size) > 1))
        csr = (np.searchsorted(rows, np.arange(m + 1)), cols, values)
        lam = None
    else:
        raise ModelFormatError("graph needs either 'edges' or 'dense'")
    label = data.get("label")
    if isinstance(label, list):
        label = np.asarray(label)
    if lam is None:
        return Graph.from_csr(*csr, feats, label)
    return Graph(lam, feats, label)


def save_graph(graph: Graph, path) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_dict(graph), fh)


def load_graph(path) -> Graph:
    return graph_from_dict(_read_json(path))
