"""Rules both searches share: the basic walk is the first extraction, and a
step with no edge leaves no walk."""

import numpy as np
import pytest

from relwalk import (
    PropagationStack,
    amp_ave_basic,
    amp_ave_topk,
    build_message_table,
    build_node_message_table,
    emp_neu_basic,
    emp_neu_topk,
    modified_adjacency,
)
from helpers import headed_instance, random_instance

SEARCHES = {"amp": (amp_ave_basic, amp_ave_topk), "emp": (emp_neu_basic, emp_neu_topk)}

# 200 seeds each of a dense and a sparse graph task and a node task on each
CONFIGS = [dict(edge_prob=1.0), dict(edge_prob=0.3),
           dict(task="node"), dict(task="node", edge_prob=0.3)]


def first_walk_stacks():
    """The 800 random_instance stacks of CONFIGS (R^(L) >= 0, some dead),
    then 100 linear-head stacks, whose R^(L) carries both signs."""
    for config in CONFIGS:
        for seed in range(200):
            target = seed % 6 if config.get("task") == "node" else None
            yield random_instance(seed=seed, target=target, **config)[3]
    for seed in range(100):
        a = (np.random.default_rng(seed).random((6, 6)) < 0.4).astype(float)
        yield headed_instance(modified_adjacency(np.maximum(a, a.T)), seed)


@pytest.mark.parametrize("method", sorted(SEARCHES))
def test_basic_is_the_first_extraction(method):
    basic, topk = SEARCHES[method]
    none = negative = 0
    for stack in first_walk_stacks():
        walk = basic(stack)
        first = topk(stack, 1, max_k_tilde=1).extracted
        assert walk == (first[0] if first else None)
        none += walk is None
        negative += walk is not None and walk.relevance < 0
    assert none > 0 and negative > 0


def test_step_without_edges_leaves_no_walk():
    # Lambda^(1) is all zero: no walk follows edges through step 1, and the
    # edge list of that step is empty
    lambdas = [np.ones((3, 3)), np.zeros((3, 3))]
    hidden = [np.ones((3, 2)), np.ones((3, 2))]
    wups = [np.ones((2, 2)), np.ones((2, 2))]
    stack = PropagationStack(lambdas, hidden, wups, np.ones((3, 2)))
    assert stack.edges[1][0].size == 0
    build_message_table(stack)
    table = build_node_message_table(stack)
    assert not any(c.any() for c in table.complete[:-1])
    for basic, topk in SEARCHES.values():
        assert basic(stack) is None
        result = topk(stack, 5)
        assert not result.extracted and result.exhausted
