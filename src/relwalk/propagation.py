"""LRP-gamma relevance propagation tensors and output-layer initialization.

For each propagation step l the relevance transition tensor is

    T[m, n, m', n'] = Lam[m, m'] * H[m, n] * Wup[n, n']
                      / sum_{m'', n''} Lam[m'', m'] * H[m'', n''] * Wup[n'', n']

with Wup = W + gamma * relu(W).  Columns (fixed m', n') sum to one by
construction; columns whose denominator is below a stability threshold
are zeroed so the column sum stays exactly in {0, 1}.

The stack is always kept factorized as {Lam, H, Wup} plus one guarded
inverse denominator per step, with entries and (m, m') slices on demand.
Lam is kept only at its nonzeros, as the graph's CSR arrays, so no stack
holds an M x M array.  build_propagation takes Lam^T H from forward and
the edge lists from the graph, so a target costs O(L M N^2) time beyond
its output relevance.  The dense 4-index tensor, O(M^2 N^2) per step, is
never built here; the brute-force oracle builds its own
(oracle.dense_tensor) as the independent reference.  Both searches maximize over a node's edges with
segment_first_max on the stack's per-step edge lists.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Activations, GnnModel, Graph, ShapeError

EPS_STAB = 1e-9


class ParameterError(ValueError):
    pass


class BudgetError(RuntimeError):
    """A requested computation exceeds the configured size budget."""


@dataclass(frozen=True)
class GammaSchedule:
    """Per-step LRP-gamma values, one per propagation step."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(v < 0 for v in vals):
            raise ParameterError("gamma values must be >= 0")
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, gamma: float, depth: int) -> "GammaSchedule":
        return cls((float(gamma),) * depth)

    @classmethod
    def linear_decay(cls, gamma_max: float, depth: int) -> "GammaSchedule":
        """gamma_l = gamma_max * (1 - l / (L - 1)), from gamma_max down to 0."""
        if depth == 1:
            return cls((float(gamma_max),))
        return cls(tuple(gamma_max * (1.0 - l / (depth - 1)) for l in range(depth)))

    def __len__(self) -> int:
        return len(self.values)


def parse_gamma(spec: str, depth: int) -> GammaSchedule:
    """Parse 'const:X' or 'linear:X' into a schedule of the given depth."""
    kind, _, value = spec.partition(":")
    if not value:
        raise ParameterError(f"gamma spec {spec!r} must look like 'const:X' or 'linear:X'")
    gamma = float(value)
    if kind == "const":
        return GammaSchedule.constant(gamma, depth)
    if kind == "linear":
        return GammaSchedule.linear_decay(gamma, depth)
    raise ParameterError(f"unknown gamma schedule kind {kind!r}")


def modified_weight(w: np.ndarray, gamma: float) -> np.ndarray:
    """LRP-gamma weight: W + gamma * relu(W), entry-wise.

    A result that is not finite everywhere (a NaN or infinite gamma, or an
    overflow) is refused: its relevances would not be numbers.
    """
    if gamma < 0:
        raise ParameterError(f"gamma must be >= 0, got {gamma}")
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        wup = w + gamma * np.maximum(w, 0.0)
    if not np.isfinite(wup).all():
        raise ParameterError(f"gamma {gamma} makes the modified weights non-finite")
    return wup


@dataclass(eq=False)
class PropagationStack:
    """Factorized per-step transitions plus output-layer relevance.

    Holds {Lam, H, Wup} per step and serves entries and slices of T^(l)
    from them; the constructor only stores what it is given.  Lam^(l) is
    held only at its nonzeros: edges[l] is their row-major (rows, cols)
    list, edge_values[l] the values there, and row m's edges sit at
    row_pointers[l][m]:row_pointers[l][m + 1], in column order.
    inverse_denominators[l] is the guarded 1 / den^(l), 0 on the zeroed
    columns (|den| < EPS_STAB).  In a stack from build_propagation, the
    steps over the adjacency share the graph's CSR arrays, and the
    node-local steps share one diagonal with unit values.
    """

    edges: list[tuple[np.ndarray, np.ndarray]]  # row-major nonzeros of each Lam
    edge_values: list[np.ndarray]               # Lam^(l) at edges[l]
    row_pointers: list[np.ndarray]              # CSR row pointers of edges[l]
    hidden: list[np.ndarray]                    # H^(0) .. H^(L-1): inputs of each step
    wups: list[np.ndarray]                      # modified weights per step
    inverse_denominators: list[np.ndarray]      # guarded 1 / den^(l), M x N^(l+1)
    output_relevance: np.ndarray                # M x N^(L)

    # perfbench's per-request counter reads `stack.materialized or ()` until
    # the benchmark drops propagation.materialized_bytes; no stack holds
    # dense tensors.
    materialized = None

    # -- shape info ---------------------------------------------------------

    @property
    def num_steps(self) -> int:
        return len(self.wups)

    @property
    def num_nodes(self) -> int:
        return self.hidden[0].shape[0]

    @cached_property
    def dims(self) -> list[int]:
        """Feature dimension per layer, length num_steps + 1."""
        return [h.shape[1] for h in self.hidden] + [self.wups[-1].shape[1]]

    # -- Lam access -----------------------------------------------------------

    def out_edges(self, l: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(cols, values) of row m of Lam^(l): m's successors, in column order."""
        ptr = self._python_rows[l][0]
        lo, hi = ptr[m], ptr[m + 1]
        return self.edges[l][1][lo:hi], self.edge_values[l][lo:hi]

    @cached_property
    def _python_rows(self) -> list[tuple[array, array, array]]:
        """(row pointers, cols, values) of each step as Python arrays, whose
        items read as Python scalars, for scalar reads by bisection; built
        once per distinct edge list."""
        built = {}
        out = []
        for ptr, (_, cols), values in zip(self.row_pointers, self.edges, self.edge_values):
            key = (id(ptr), id(cols), id(values))
            if key not in built:
                built[key] = (array("q", ptr.astype(np.int64).tobytes()),
                              array("q", cols.astype(np.int64).tobytes()),
                              array("d", values.astype(float).tobytes()))
            out.append(built[key])
        return out

    def lam(self, l: int, m: int, mp: int) -> float:
        """Lam^(l)[m, m'], 0 off the edges: a bisection in row m."""
        ptr, cols, values = self._python_rows[l]
        hi = ptr[m + 1]
        i = bisect_left(cols, mp, ptr[m], hi)
        return values[i] if i < hi and cols[i] == mp else 0.0

    # -- entry access -------------------------------------------------------

    def entry(self, l: int, m: int, n: int, mp: int, np_: int) -> float:
        """Single on-demand entry T^(l)[m, n, m', n']."""
        return float(self.lam(l, m, mp) * self.hidden[l][m, n] * self.wups[l][n, np_]
                     * self.inverse_denominators[l][mp, np_])

    def slice(self, l: int, m: int, mp: int) -> np.ndarray:
        """T^(l)[m, :, m', :] as an N_l x N_{l+1} matrix."""
        return (
            self.lam(l, m, mp)
            * self.hidden[l][m][:, None]
            * self.wups[l]
            * self.inverse_denominators[l][mp][None, :]
        )


def edge_segments(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(heads, starts, segment) of a row-major edge list's rows (as in
    PropagationStack.edges, possibly filtered): the rows with at least
    one edge, in ascending order, the position of each one's first edge,
    and each edge's index into heads.  An empty edge list gives empty
    arrays."""
    new_row = np.empty(rows.size, dtype=bool)
    new_row[:1] = True
    np.not_equal(rows[1:], rows[:-1], out=new_row[1:])
    starts = np.flatnonzero(new_row)
    return rows[starts], starts, np.cumsum(new_row) - 1


def segment_first_max(column: np.ndarray, starts: np.ndarray, segment: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """First maximum of one (E,) column of edge values over each row's
    edges, as a segment reduction over edge_segments' starts and segment.

    Returns (best, first) per head: the row's max over its edges, and the
    position in the edge list of the first edge reaching it.  Edges within
    a row come in column order, so cols[first] is the first maximizing
    column.
    """
    best = np.maximum.reduceat(column, starts)
    position = np.arange(column.size)
    return best, np.minimum.reduceat(np.where(column == best[segment], position, column.size),
                                     starts)


def build_propagation(
    model: GnnModel,
    graph: Graph,
    acts: Activations,
    schedule: GammaSchedule,
    target: int,
    target_class: int | None = None,
) -> PropagationStack:
    """Assemble the propagation stack for one explanation target.

    target is a class index (graph task) or a node index (node task).
    The denominators are acts.aggregated[l] @ Wup^(l), as forward already
    holds Lam^T H.
    """
    steps = model.steps
    if len(acts.hidden) != len(steps) + 1:
        raise ShapeError("activations do not match the model depth")
    if acts.hidden[0].shape != graph.features.shape:
        raise ShapeError("activations were computed on a different graph")
    if len(schedule) != len(steps):
        raise ParameterError(
            f"gamma schedule length {len(schedule)} != propagation depth {len(steps)}"
        )
    m = graph.num_nodes
    indptr, _, values = graph.csr
    # node-local steps mix over Lam = I: the diagonal, unit values
    diagonal, unit, diagonal_ptr = (np.arange(m),) * 2, np.ones(m), np.arange(m + 1)
    wups = [modified_weight(s.weight, g) for s, g in zip(steps, schedule.values)]
    dens = [z @ w for z, w in zip(acts.aggregated, wups)]     # (Lam^T H) Wup
    adjacency = [s.uses_adjacency for s in steps]
    return PropagationStack(
        edges=[graph.edge_index if a else diagonal for a in adjacency],
        edge_values=[values if a else unit for a in adjacency],
        row_pointers=[indptr if a else diagonal_ptr for a in adjacency],
        hidden=list(acts.hidden[:-1]),
        wups=wups,
        inverse_denominators=[
            np.divide(1.0, d, out=np.zeros_like(d), where=np.abs(d) >= EPS_STAB) for d in dens],
        output_relevance=init_output_relevance(model, acts, target, target_class=target_class),
    )


def init_output_relevance(
    model: GnnModel, acts: Activations, target: int, target_class: int | None = None
) -> np.ndarray:
    """Relevance at the output layer, as an M x N^(L) matrix.

    Graph task: the target class channel of H^(L) (LRP-0 through the
    linear head when present).  Node task: only the target node's row is
    nonzero; target_class picks the explained class (default: the
    predicted class at the target node).
    """
    h_last = acts.hidden[-1]
    head = model.readout.head
    m, n_last = h_last.shape
    if model.readout.task == "graph":
        if not 0 <= target < model.num_classes:
            raise ParameterError(f"target class {target} out of range")
        if head is None:
            rel = np.zeros_like(h_last)
            rel[:, target] = h_last[:, target]
            return rel
        return h_last * head[:, target][None, :]
    # node task: target is a node index
    if not 0 <= target < m:
        raise ParameterError(f"target node {target} out of range")
    rel = np.zeros_like(h_last)
    if head is None:
        rel[target, :] = h_last[target, :]
    else:
        cls = int(np.argmax(acts.logits[target])) if target_class is None else int(target_class)
        if not 0 <= cls < head.shape[1]:
            raise ParameterError(f"target class {cls} out of range")
        rel[target, :] = h_last[target, :] * head[:, cls]
    return rel
