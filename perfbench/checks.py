"""Output checks for explanations, and a self-test showing they catch a wrong answer.

Every returned positive walk must carry the relevance that the oracle
module recomputes for it (``node_walk_relevance`` for node-level walks,
``neuron_walk_relevance`` for neuron-level ones), must be positive, and
there must be at most K of them.  EMP-neu's ``absolute`` list must be
non-increasing in |relevance|.  An explanation that raises (a
``BudgetError`` included) or fails a check counts as failed.
"""

from __future__ import annotations

import dataclasses
import traceback

import numpy as np

from relwalk import (
    GammaSchedule,
    Graph,
    amp_ave_topk,
    build_propagation,
    emp_neu_topk,
    forward,
    init_model,
    modified_adjacency,
    neuron_walk_relevance,
    node_walk_relevance,
    predicted_target,
)

# The searches report relevances computed by the same oracle functions on
# the same stack, so agreement is expected to the last bit; the relative
# tolerance only absorbs a different order of floating-point products.
REL_TOL = 1e-9
MAX_PROBLEMS_KEPT = 20


def check_explanation(stack, result, k: int) -> list[str]:
    """Problems in one explanation's output; an empty list means it passed."""
    problems = []
    walks = result.positive
    if len(walks) > k:
        problems.append(f"{len(walks)} positive walks returned for K={k}")
    for w in walks:
        if w.relevance <= 0:
            problems.append(f"walk {w.nodes} in the positive list has relevance {w.relevance}")
        if w.neurons is None:
            exact = node_walk_relevance(stack, w.nodes)
        else:
            exact = neuron_walk_relevance(stack, w.nodes, w.neurons)
        if abs(exact - w.relevance) > REL_TOL * max(abs(exact), abs(w.relevance)):
            problems.append(
                f"walk {w.nodes} reports relevance {w.relevance!r}, oracle gives {exact!r}")
    absolute = getattr(result, "absolute", None)
    if absolute:
        mags = np.abs([w.relevance for w in absolute])
        rises = np.flatnonzero(np.diff(mags) > REL_TOL * mags[1:])
        if rises.size:
            i = int(rises[0])
            problems.append(
                f"absolute list rises at position {i + 1}: |{mags[i]!r}| -> |{mags[i + 1]!r}|")
    return problems


@dataclasses.dataclass
class Tally:
    """Explanations attempted and failed, with the first few problems kept."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)

    def record(self, key: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS_KEPT:
                self.problems.append(f"{key}: " + "; ".join(problems[:3]))

    def record_error(self, key: str) -> None:
        self.record(key, ["raised " + traceback.format_exc(limit=3).strip()])

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def self_test() -> Tally:
    """Check two correct explanations and one with a perturbed relevance.

    The checks work when the returned tally shows exactly one failure out
    of three attempts, and that failure is the perturbed explanation.
    """
    rng = np.random.default_rng(0)
    m = 6
    a = (rng.random((m, m)) < 0.6).astype(float)
    a = np.maximum(a, a.T)
    np.fill_diagonal(a, 0.0)
    graph = Graph(modified_adjacency(a), rng.random((m, 3)) + 0.1, 0)
    model = init_model([3, 3, 3, 3], 2, seed=0)
    acts = forward(model, graph)
    stack = build_propagation(model, graph, acts,
                              GammaSchedule.linear_decay(3.0, model.num_steps),
                              predicted_target(model, acts))
    k = 3
    amp = amp_ave_topk(stack, k)
    emp = emp_neu_topk(stack, k)
    if not (amp.positive and emp.positive):
        raise RuntimeError("self-test instance has no positive walks to perturb")
    first = emp.positive[0]
    wrong = dataclasses.replace(first, relevance=first.relevance * 1.01)
    perturbed = dataclasses.replace(emp, positive=[wrong] + emp.positive[1:])

    tally = Tally()
    tally.record("self-test/amp", check_explanation(stack, amp, k))
    tally.record("self-test/emp", check_explanation(stack, emp, k))
    tally.record("self-test/emp-perturbed", check_explanation(stack, perturbed, k))
    return tally


def self_test_passed(tally: Tally) -> bool:
    return (tally.attempted == 3 and tally.failed == 1
            and tally.problems[0].startswith("self-test/emp-perturbed"))
