"""LRP-gamma relevance propagation tensors and output-layer initialization.

For each propagation step l the relevance transition tensor is

    T[m, n, m', n'] = Lam[m, m'] * H[m, n] * Wup[n, n']
                      / sum_{m'', n''} Lam[m'', m'] * H[m'', n''] * Wup[n'', n']

with Wup = W + gamma * relu(W).  Columns (fixed m', n') sum to one by
construction; columns whose denominator is below a stability threshold
are zeroed so the column sum stays exactly in {0, 1}.

The stack is always kept factorized as {Lam, H, Wup} plus one guarded
inverse denominator per step, with entries and (m, m') slices on demand.
Each step's Lam is a Graph (stack.lams[l]), the one Lam container: it
holds Lam only at its nonzeros, as CSR arrays, so no stack holds an
M x M array, and it serves a row (out_edges) and an entry (value).  An
Explainer session takes Lam^T H from forward, puts the session's graph
on every adjacency step and one Lam = I graph on the node-local steps,
and builds the O(L M N^2) rest once per graph, so a target costs only
its output relevance.  The dense 4-index tensor, O(M^2 N^2) per step,
is never built here; the brute-force oracle builds its own
(oracle.dense_tensor) as the independent reference.  Both searches
maximize over a node's edges with segment_first_max on each step's
edge list, lams[l].edge_index.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import Activations, GnnModel, Graph, ShapeError, forward, predicted_target

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
    from them; the constructor stores what it is given and refuses
    (ParameterError) a non-finite hidden, wups, inverse_denominators or
    output_relevance array, whose walks would index past an edge list or
    score inf.  output_relevance is None in an Explainer's shared stack.
    lams[l] is Lam^(l) as a Graph, which holds it only at its nonzeros and
    serves its rows (out_edges) and entries (value).
    inverse_denominators[l] is the guarded 1 / den^(l), 0 on the zeroed
    columns (|den| < EPS_STAB).  In a stack from an Explainer, the steps
    over the adjacency hold the session's graph itself, and the node-local
    steps share one Lam = I graph.
    """

    lams: list[Graph]                           # Lam^(l) per step
    hidden: list[np.ndarray]                    # H^(0) .. H^(L-1): inputs of each step
    wups: list[np.ndarray]                      # modified weights per step
    inverse_denominators: list[np.ndarray]      # guarded 1 / den^(l), M x N^(l+1)
    output_relevance: np.ndarray                # M x N^(L)

    # perfbench's per-request counter reads `stack.materialized or ()` until
    # the benchmark drops propagation.materialized_bytes; no stack holds
    # dense tensors.
    materialized = None

    def __post_init__(self):
        arrays = [*self.hidden, *self.wups, *self.inverse_denominators]
        if self.output_relevance is not None:
            arrays.append(self.output_relevance)
        if not all(np.isfinite(a).all() for a in arrays):
            raise ParameterError("non-finite stack array: a walk relevance would not be a number")

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

    # -- entry access -------------------------------------------------------

    def entry(self, l: int, m: int, n: int, mp: int, np_: int) -> float:
        """Single on-demand entry T^(l)[m, n, m', n']."""
        return float(self.lams[l].value(m, mp) * self.hidden[l][m, n] * self.wups[l][n, np_]
                     * self.inverse_denominators[l][mp, np_])

    def slice(self, l: int, m: int, mp: int) -> np.ndarray:
        """T^(l)[m, :, m', :] as an N_l x N_{l+1} matrix."""
        return (
            self.lams[l].value(m, mp)
            * self.hidden[l][m][:, None]
            * self.wups[l]
            * self.inverse_denominators[l][mp][None, :]
        )


def edge_segments(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(heads, starts, segment) of a row-major edge list's rows (as in
    Graph.edge_index, possibly filtered): the rows with at least
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
    column.  The edges reaching their row's max come in ascending order,
    so each row's first one starts its segment among them.
    """
    best = np.maximum.reduceat(column, starts)
    hits = np.flatnonzero(column == best[segment])
    return best, hits[edge_segments(segment[hits])[1]]


class Explainer:
    """One explanation session: a model on a graph under one gamma schedule.

    Runs forward (unless acts is given) and builds what no target changes
    once: the gamma-modified weights and the guarded inverse denominators
    acts.aggregated[l] @ Wup^(l) (forward holds Lam^T H).  Its stacks read
    Lam from the graph itself, whose row copies follow on first use, shared
    by every target and every session over the graph.  stack(target) adds
    only the target's output relevance.  Activations, denominators or an
    output relevance that overflowed to inf or NaN are refused
    (ParameterError), as modified_weight refuses a non-finite W_up.
    """

    def __init__(self, model: GnnModel, graph: Graph, schedule: GammaSchedule,
                 acts: Activations | None = None):
        steps = model.steps
        if acts is None:
            with np.errstate(over="ignore", invalid="ignore"):
                acts = forward(model, graph)
        if len(acts.hidden) != len(steps) + 1:
            raise ShapeError("activations do not match the model depth")
        if acts.hidden[0].shape != graph.features.shape:
            raise ShapeError("activations were computed on a different graph")
        _refuse_non_finite("activations", *acts.hidden, *acts.aggregated, acts.logits)
        if len(schedule) != len(steps):
            raise ParameterError(
                f"gamma schedule length {len(schedule)} != propagation depth {len(steps)}")
        self.model, self.acts = model, acts
        lams = [graph] * len(steps)
        if not all(s.uses_adjacency for s in steps):
            # node-local steps mix over Lam = I, one graph shared by all of them
            m = graph.num_nodes
            identity = Graph.from_csr(np.arange(m + 1), np.arange(m), np.ones(m), graph.features)
            lams = [graph if s.uses_adjacency else identity for s in steps]
        wups = [modified_weight(s.weight, g) for s, g in zip(steps, schedule.values)]
        inverses = []
        for z, w in zip(acts.aggregated, wups):
            with np.errstate(over="ignore", invalid="ignore"):
                d = z @ w                                   # (Lam^T H) Wup
            _refuse_non_finite("LRP denominators", d)
            # guarded inverse, in place: 1 / d where |d| >= EPS_STAB, else 0
            stable = np.abs(d) >= EPS_STAB
            np.divide(1.0, d, out=d, where=stable)
            d[~stable] = 0.0
            inverses.append(d)
        self._shared = PropagationStack(
            lams=lams,
            hidden=list(acts.hidden[:-1]),
            wups=wups,
            inverse_denominators=inverses,
            output_relevance=None,
        )

    def stack(self, target: int | None = None, target_class: int | None = None
              ) -> PropagationStack:
        """A shallow copy of the session's stack with one target's output
        relevance.  target is a class index (graph task; default the
        predicted class) or a node index (node task; required)."""
        if target is None:
            if self.model.readout.task == "node":
                raise ParameterError("a target (node index) is required for node-task models")
            target = predicted_target(self.model, self.acts)
        stack = copy.copy(self._shared)
        with np.errstate(over="ignore", invalid="ignore"):
            stack.output_relevance = init_output_relevance(self.model, self.acts, target,
                                                           target_class=target_class)
        _refuse_non_finite("output relevance", stack.output_relevance)
        return stack


def _refuse_non_finite(what: str, *arrays: np.ndarray) -> None:
    """Refuse an explanation whose inputs overflowed: relevances computed
    from an inf or NaN would not be numbers."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ParameterError(f"non-finite {what}: the model overflows float64 on this graph")


def build_propagation(model: GnnModel, graph: Graph, acts: Activations, schedule: GammaSchedule,
                      target: int, target_class: int | None = None) -> PropagationStack:
    """One target's stack, from a session of its own: targets of one graph share an Explainer."""
    return Explainer(model, graph, schedule, acts).stack(target, target_class)


def init_output_relevance(
    model: GnnModel, acts: Activations, target: int, target_class: int | None = None
) -> np.ndarray:
    """Relevance at the output layer, as an M x N^(L) matrix.

    Graph task: the target class channel of H^(L) (LRP-0 through the
    linear head when present).  Node task: only the target node's row is
    nonzero, and it explains the predicted class at the target node: its
    channel of H^(L) without a head, as a graph task.  With a head,
    target_class picks another class; a graph task, whose target is the
    class, refuses it.
    """
    h_last, head = acts.hidden[-1], model.readout.head
    if target_class is not None and (model.readout.task == "graph" or head is None):
        raise ParameterError("target_class needs a node-task model with a linear head")
    if model.readout.task == "graph":
        if not 0 <= target < model.num_classes:
            raise ParameterError(f"target class {target} out of range")
        if head is None:
            rel = np.zeros_like(h_last)
            rel[:, target] = h_last[:, target]
            return rel
        return h_last * head[:, target][None, :]
    # node task: target is a node index
    if not 0 <= target < len(h_last):
        raise ParameterError(f"target node {target} out of range")
    cls = int(np.argmax(acts.logits[target])) if target_class is None else int(target_class)
    if not 0 <= cls < model.num_classes:
        raise ParameterError(f"target class {cls} out of range")
    rel = np.zeros_like(h_last)
    if head is None:
        rel[target, cls] = h_last[target, cls]
    else:
        rel[target, :] = h_last[target, :] * head[:, cls]
    return rel
