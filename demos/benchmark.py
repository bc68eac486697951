"""Timing comparison: approximate walk search vs exhaustive enumeration.

The exhaustive oracle scores all M^(L+1) walks; the approximate search
touches a polynomial number of entries.  This script times both across a
small grid and prints the speedup.

Run:  python demos/benchmark.py
"""

import numpy as np

from relwalk import (
    GammaSchedule,
    amp_ave_basic,
    build_propagation,
    exhaustive_topk_node,
    forward,
    init_model,
    random_graph,
    time_callable,
)


def make_stack(m: int, l: int, seed: int = 0):
    graph = random_graph(m, 8, min(4.0 / max(m - 1, 1), 1.0),
                         np.random.default_rng(seed))
    model = init_model([8] * (l + 1), 2, seed=seed)
    acts = forward(model, graph)
    return build_propagation(model, graph, acts,
                             GammaSchedule.linear_decay(3.0, l), 0)


def main() -> None:
    print(f"{'M':>4} {'L':>3} {'approx (ms)':>12} {'exhaustive (ms)':>16} "
          f"{'speedup':>9}")
    for m, l in [(10, 2), (25, 3), (40, 3)]:
        stack = make_stack(m, l)
        t_amp, _ = time_callable(lambda: amp_ave_basic(stack), repetitions=5)
        t_exh, _ = time_callable(lambda: exhaustive_topk_node(stack, 1),
                                 repetitions=5)
        print(f"{m:>4} {l:>3} {t_amp * 1e3:>12.3f} {t_exh * 1e3:>16.1f} "
              f"{t_exh / t_amp:>8.0f}x")


if __name__ == "__main__":
    main()
