"""Synthetic benchmarks: BA-2motif-style graph classification, the
Infection node-classification scenario with ground-truth chains, and a
seeded random graph for tests, timings and demos.

All generators are deterministic under their seed.  The infection
interaction graph is a directed Erdos-Renyi stand-in with configurable
expected out-degree; edge (u, v) means u can infect v.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, ModelFormatError, graph_from_dict, graph_to_dict, modified_adjacency

HOUSE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]  # square + roof
CYCLE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
MOTIF_SIZE = 5


def _ba_adjacency(n: int, rng: np.random.Generator) -> np.ndarray:
    """Tree-like Barabasi-Albert graph: each new node attaches to one
    existing node chosen proportionally to degree."""
    a = np.zeros((n, n))
    a[0, 1] = a[1, 0] = 1.0
    degree = np.zeros(n)
    degree[:2] = 1
    for v in range(2, n):
        probs = degree[:v] / degree[:v].sum()
        u = rng.choice(v, p=probs)
        a[u, v] = a[v, u] = 1.0
        degree[u] += 1
        degree[v] += 1
    return a


def random_graph(m: int, feature_dim: int, edge_prob: float,
                 rng: np.random.Generator) -> Graph:
    """Undirected Erdos-Renyi graph with one self-loop per node (Lambda = A + I)
    and features uniform in [0.1, 1.1), drawn from rng in that order."""
    a = (rng.random((m, m)) < edge_prob).astype(float)
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 0.0)
    return Graph(modified_adjacency(a), rng.random((m, feature_dim)) + 0.1, 0)


DEGREE_BINS = 5


def _degree_onehot(a: np.ndarray) -> np.ndarray:
    """One-hot encoded node degree, clipped to DEGREE_BINS bins.

    Bias-free ReLU networks map any single-column positive feature matrix
    to rank-one activations at every layer (positive homogeneity of ReLU),
    which makes graph classification from all-ones features impossible.
    Degree features break that degeneracy while staying deterministic.
    """
    deg = np.minimum(a.sum(axis=1).astype(int), DEGREE_BINS) - 1
    feats = np.zeros((a.shape[0], DEGREE_BINS))
    feats[np.arange(a.shape[0]), np.maximum(deg, 0)] = 1.0
    return feats


def gen_ba2motif(
    n_graphs: int,
    base_size: int = 20,
    seed: int = 0,
    normalize: bool = False,
    feature_mode: str = "ones",
) -> list[Graph]:
    """Balanced two-class set: BA base plus a house (label 0) or five-cycle
    (label 1) motif, bridged to a random base node.

    feature_mode "ones" gives all-ones scalar features; "degree" gives
    one-hot degree features, which trainable bias-free models need.
    """
    if n_graphs < 1:
        raise ValueError("n_graphs must be >= 1")
    if base_size < 5:
        raise ValueError("base_size must be >= 5")
    if feature_mode not in ("ones", "degree"):
        raise ValueError(f"unknown feature_mode {feature_mode!r}")
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(n_graphs):
        label = i % 2
        motif = CYCLE_EDGES if label == 1 else HOUSE_EDGES
        n = base_size + MOTIF_SIZE
        a = np.zeros((n, n))
        a[:base_size, :base_size] = _ba_adjacency(base_size, rng)
        for u, v in motif:
            a[base_size + u, base_size + v] = 1.0
            a[base_size + v, base_size + u] = 1.0
        bridge = int(rng.integers(base_size))
        a[bridge, base_size] = a[base_size, bridge] = 1.0
        feats = np.ones((n, 1)) if feature_mode == "ones" else _degree_onehot(a)
        graphs.append(Graph(modified_adjacency(a, normalize=normalize), feats, label))
    return graphs


def motif_edges(graph: Graph, base_size: int = 20) -> set[tuple[int, int]]:
    """Motif-internal edges (both directions) of a generated sample."""
    rows, cols = graph.edge_index
    keep = (rows != cols) & (rows >= base_size) & (cols >= base_size)
    return set(zip(rows[keep].tolist(), cols[keep].tolist()))


# ---------------------------------------------------------------------------
# Infection scenario
# ---------------------------------------------------------------------------


@dataclass
class InfectionScenario:
    """SI process on a directed graph with recorded per-node infection chains.

    graph.adjacency follows the send convention: Lambda[u, v] != 0 means
    u can infect v.  chains[m] is one realized infection chain from an
    initial carrier to node m (carriers map to the length-1 chain [m]).
    """

    graph: Graph
    carriers: list[int]
    lam: float
    steps: int
    labels: np.ndarray                    # infected after `steps`, per node
    chains: dict[int, list[int]]

    def to_dict(self) -> dict:
        return {
            "graph": graph_to_dict(self.graph),
            "carriers": self.carriers,
            "lambda": self.lam,
            "steps": self.steps,
            "labels": self.labels.astype(int).tolist(),
            "chains": {str(k): v for k, v in self.chains.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InfectionScenario":
        if not isinstance(data, dict):
            raise ModelFormatError("scenario: expected a JSON object")
        for key in ("graph", "carriers", "lambda", "steps", "labels", "chains"):
            if key not in data:
                raise ModelFormatError(f"scenario: {key!r} missing")
        graph = graph_from_dict(data["graph"])
        m = graph.num_nodes
        carriers, labels, chains = data["carriers"], data["labels"], data["chains"]
        if not _node_list(carriers, m):
            raise ModelFormatError("scenario: 'carriers' must be a list of node indices")
        if not isinstance(labels, list) or len(labels) != m:
            raise ModelFormatError("scenario: 'labels' must be a list with one entry per node")
        try:
            chains = {int(k): v for k, v in chains.items()} if isinstance(chains, dict) else None
        except ValueError:
            chains = None
        if chains is None or not _node_list(list(chains), m) or not all(
                _node_list(c, m) for c in chains.values()):
            raise ModelFormatError("scenario: 'chains' must be an object of node-index lists")
        try:
            lam, steps = float(data["lambda"]), int(data["steps"])
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(f"scenario: 'lambda' or 'steps' not a number: {exc}") from exc
        return cls(graph, carriers, lam, steps, np.asarray(labels, dtype=bool), chains)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "InfectionScenario":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _node_list(value, m: int) -> bool:
    """Whether value is a JSON list of node indices in range(m)."""
    return isinstance(value, list) and all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < m
        for v in value)


def _er_directed(m: int, mean_out_degree: float, rng: np.random.Generator) -> np.ndarray:
    p = min(mean_out_degree / (m - 1), 1.0)
    a = (rng.random((m, m)) < p).astype(float)
    np.fill_diagonal(a, 0.0)
    return a


def _simulate_si(
    out_neighbors: list[np.ndarray],
    carriers: list[int],
    lam: float,
    steps: int,
    rng: np.random.Generator,
):
    """Synchronous SI process; returns infected mask and one realized chain
    per infected node (through the smallest-index infector)."""
    m = len(out_neighbors)
    infected = np.zeros(m, dtype=bool)
    infected[carriers] = True
    chains = {c: [c] for c in carriers}
    for _ in range(steps):
        current = np.flatnonzero(infected)
        newly: dict[int, int] = {}
        for u in current:
            nbrs = out_neighbors[u]
            if nbrs.size == 0:
                continue
            hits = nbrs[rng.random(nbrs.size) < lam]
            for v in hits:
                v = int(v)
                if not infected[v] and (v not in newly or u < newly[v]):
                    newly[v] = int(u)
        for v, u in newly.items():
            infected[v] = True
            chains[v] = chains[u] + [v]
    return infected, chains


def gen_infection(
    m: int,
    steps: int,
    lam: float,
    carrier_frac: float = 0.02,
    mean_out_degree: float = 4.0,
    seed: int = 0,
    adjacency: np.ndarray | None = None,
    carriers: list[int] | None = None,
) -> InfectionScenario:
    """Generate an infection scenario: graph, carriers, one SI realization.

    Node features are 2-dim carrier indicators; labels mark nodes infected
    after `steps`.  A fixed adjacency/carrier set can be passed to
    re-simulate on the same instance.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lambda must be in [0, 1]")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not mean_out_degree >= 0:
        raise ValueError(f"mean_out_degree must be >= 0, got {mean_out_degree}")
    if carriers is None and not (0.0 < carrier_frac < 1.0):
        raise ValueError("carrier_frac must be in (0, 1)")
    rng = np.random.default_rng(seed)
    a = _er_directed(m, mean_out_degree, rng) if adjacency is None else np.asarray(adjacency, float)
    if carriers is None:
        n_carriers = max(1, int(np.ceil(carrier_frac * m)))
        carriers = sorted(int(c) for c in rng.choice(m, size=n_carriers, replace=False))
    out_neighbors = [np.flatnonzero(a[u]) for u in range(m)]
    infected, chains = _simulate_si(out_neighbors, carriers, lam, steps, rng)

    feats = np.zeros((m, 2))
    feats[:, 0] = 1.0
    feats[carriers, 0] = 0.0
    feats[carriers, 1] = 1.0
    graph = Graph(modified_adjacency(a), feats, np.asarray(infected))
    return InfectionScenario(graph, list(carriers), lam, steps, infected, chains)


@dataclass
class OracleEstimate:
    """Monte-Carlo infection and chain probabilities from Q re-simulations."""

    infection_prob: np.ndarray            # x(m) / Q per node
    chain_prob: dict[tuple[int, ...], float]
    q: int


def oracle_estimate(scenario: InfectionScenario, q: int, seed: int = 1) -> OracleEstimate:
    """Re-simulate q times on the scenario's fixed graph and carriers.

    Each replicate derives its own seed deterministically from `seed`.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    # the nonzeros of Lambda - I, read off the CSR arrays: a unit self-loop
    # (added by the Lambda modification) drops out, a listed [i, i] stays
    graph = scenario.graph
    rows, cols = graph.edge_index
    keep = graph.csr[2] != (rows == cols)
    rows, cols = rows[keep], cols[keep]
    out_neighbors = np.split(cols, np.searchsorted(rows, np.arange(1, graph.num_nodes)))
    x = np.zeros(graph.num_nodes)
    y: dict[tuple[int, ...], int] = {}
    root = np.random.SeedSequence(seed)
    for child in root.spawn(q):
        rng = np.random.default_rng(child)
        infected, chains = _simulate_si(
            out_neighbors, scenario.carriers, scenario.lam, scenario.steps, rng
        )
        x += infected
        for chain in chains.values():
            key = tuple(chain)
            y[key] = y.get(key, 0) + 1
    return OracleEstimate(x / q, {c: cnt / q for c, cnt in y.items()}, q)
