"""LRP-gamma relevance propagation tensors and output-layer initialization.

For each propagation step l the relevance transition tensor is

    T[m, n, m', n'] = Lam[m, m'] * H[m, n] * Wup[n, n']
                      / sum_{m'', n''} Lam[m'', m'] * H[m'', n''] * Wup[n'', n']

with Wup = W + gamma * relu(W).  Columns (fixed m', n') sum to one by
construction; columns whose denominator is below a stability threshold
are zeroed so the column sum stays exactly in {0, 1}.

The stack is always kept factorized as {Lam, H, Wup} plus the guarded
denominators, with single entries and (m, m') slices computed on demand:
building it costs O(L M N (M + N)) time and O(M^2 + L N (M + N)) memory.
The dense 4-index tensor, O(M^2 N^2) per step, is never built here; the
brute-force oracle builds its own (oracle.dense_tensor) as the
independent reference.  Both searches maximize over a node's edges with
first_max_over_edges on the stack's per-step edge lists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Activations, GnnModel, Graph, ShapeError, step_lambda

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
    """LRP-gamma weight: W + gamma * relu(W), entry-wise."""
    if gamma < 0:
        raise ParameterError(f"gamma must be >= 0, got {gamma}")
    w = np.asarray(w, dtype=float)
    return w + gamma * np.maximum(w, 0.0)


class PropagationStack:
    """Factorized per-step transitions plus output-layer relevance.

    Holds {Lam, H, Wup} per step and serves entries and slices of
    T^(l) from them.  Immutable after build.

    guarded_denominators[l] is the step-l denominator with the stability
    guard applied (inf on zeroed columns, or shifted away from zero under
    stabilize); inverse_denominators[l] is its reciprocal (0 on zeroed
    columns).  edges[l] is the row-major (rows, cols) edge list of Lam^(l),
    its entries != 0.  All are computed once here and shared by every
    reader; the edge scan runs once per distinct Lam array, so steps
    sharing one adjacency share one edge list.
    """

    # perfbench's per-request counter reads `stack.materialized or ()` until
    # the benchmark drops propagation.materialized_bytes; no stack holds
    # dense tensors.
    materialized = None

    def __init__(
        self,
        lambdas: list[np.ndarray],
        hidden: list[np.ndarray],
        wups: list[np.ndarray],
        output_relevance: np.ndarray,
        stabilize: bool = False,
    ):
        self.lambdas = lambdas            # Lam used by step l (adjacency or identity)
        self.hidden = hidden              # H^(0) .. H^(L-1): inputs of each step
        self.wups = wups                  # modified weights per step
        self.output_relevance = output_relevance  # M x N^(L)
        self.stabilize = stabilize
        # Denominators are O(M N) per step; cache them once per stack.
        self.denominators = [
            (lam.T @ h) @ w for lam, h, w in zip(lambdas, hidden, wups)
        ]
        self.guarded_denominators = [self._guard(den) for den in self.denominators]
        self.inverse_denominators = [1.0 / den for den in self.guarded_denominators]
        distinct = {id(lam): lam for lam in lambdas}
        scans = {key: np.nonzero(lam) for key, lam in distinct.items()}
        self.edges = [scans[id(lam)] for lam in lambdas]

    # -- shape info ---------------------------------------------------------

    @property
    def num_steps(self) -> int:
        return len(self.wups)

    @property
    def num_nodes(self) -> int:
        return self.hidden[0].shape[0]

    @property
    def dims(self) -> list[int]:
        """Feature dimension per layer, length num_steps + 1."""
        return [h.shape[1] for h in self.hidden] + [self.wups[-1].shape[1]]

    # -- entry access -------------------------------------------------------

    def _guard(self, den: np.ndarray) -> np.ndarray:
        if self.stabilize:
            return den + EPS_STAB * np.where(den >= 0, 1.0, -1.0)
        return np.where(np.abs(den) < EPS_STAB, np.inf, den)

    def entry(self, l: int, m: int, n: int, mp: int, np_: int) -> float:
        """Single on-demand entry T^(l)[m, n, m', n']."""
        den = self.guarded_denominators[l][mp, np_]
        if den == np.inf:
            return 0.0
        return float(self.lambdas[l][m, mp] * self.hidden[l][m, n] * self.wups[l][n, np_] / den)

    def slice(self, l: int, m: int, mp: int) -> np.ndarray:
        """T^(l)[m, :, m', :] as an N_l x N_{l+1} matrix."""
        return (
            self.lambdas[l][m, mp]
            * self.hidden[l][m][:, None]
            * self.wups[l]
            / self.guarded_denominators[l][mp][None, :]
        )


def first_max_over_edges(rows: np.ndarray, scored: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First maximum of scored over each row's edges, as a segment reduction.

    rows holds the row of each edge of a row-major edge list (as in
    PropagationStack.edges, possibly filtered), scored its (E,) or (E, K)
    values.  Returns (heads, best, first) for the rows with at least one
    edge, in ascending order: best is each row's max over its edges, and
    first the position in the edge list of the first edge reaching it.
    Edges within a row come in column order, so cols[first] is the first
    maximizing column.  An empty edge list gives empty arrays.
    """
    new_row = np.diff(rows, prepend=-1) != 0
    starts = np.flatnonzero(new_row)
    segment = np.cumsum(new_row) - 1
    best = np.maximum.reduceat(scored, starts, axis=0)
    position = np.arange(rows.size).reshape((-1,) + (1,) * (scored.ndim - 1))
    first = np.minimum.reduceat(np.where(scored == best[segment], position, rows.size),
                                starts, axis=0)
    return rows[starts], best, first


def build_propagation(
    model: GnnModel,
    graph: Graph,
    acts: Activations,
    schedule: GammaSchedule,
    target: int,
    stabilize: bool = False,
    target_class: int | None = None,
) -> PropagationStack:
    """Assemble the propagation stack for one explanation target.

    target is a class index (graph task) or a node index (node task).
    stabilize shifts every denominator away from zero by EPS_STAB instead
    of zeroing the columns whose denominator is below it.
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
    lambdas = [step_lambda(graph, s) for s in steps]
    hidden = [acts.hidden[l] for l in range(len(steps))]
    wups = [modified_weight(s.weight, g) for s, g in zip(steps, schedule.values)]
    out_rel = init_output_relevance(model, acts, target, target_class=target_class)

    return PropagationStack(lambdas, hidden, wups, out_rel, stabilize=stabilize)


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
