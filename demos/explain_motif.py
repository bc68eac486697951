"""Train a small graph classifier on motif-labeled graphs, then walk through
both search methods on one prediction.

The dataset attaches either a house or a cycle motif to a random scale-free
base graph; the label says which.  A faithful explanation should route its
most relevant walks through the motif nodes (indices >= base size).

Run:  python demos/explain_motif.py
"""

import numpy as np

from relwalk import (
    Explainer,
    GammaSchedule,
    TrainConfig,
    accuracy,
    amp_ave_topk,
    column_similarity_histogram,
    emp_neu_topk,
    exhaustive_topk_node,
    gen_ba2motif,
    init_model,
    precision_recall,
    predicted_target,
    train,
)

BASE_SIZE = 20


def main() -> None:
    print("== data and model ==")
    train_set = gen_ba2motif(100, seed=2, normalize=True, feature_mode="degree")
    test_set = gen_ba2motif(40, seed=1002, normalize=True, feature_mode="degree")
    model = init_model([5, 4, 4, 4], 2, seed=2)
    result = train(model, train_set, TrainConfig(epochs=500, lr=0.05))
    model = result.model
    print(f"train acc {result.final_accuracy:.3f}, "
          f"test acc {accuracy(model, test_set):.3f}")

    graph = test_set[1]
    session = Explainer(model, graph, GammaSchedule.linear_decay(3.0, model.num_steps))
    target = predicted_target(model, session.acts)
    print(f"\nexplaining test graph #1: label {graph.label}, "
          f"predicted class {target}")
    stack = session.stack(target)

    print("\n== exact neuron-level search (top 5 by |relevance|) ==")
    emp = emp_neu_topk(stack, 5)
    for w in emp.absolute[:5]:
        print(f"  nodes {w.nodes}  neurons {w.neurons}  R = {w.relevance:+.5f}")
    print(f"  searched K-tilde = {emp.k_tilde} walks, "
          f"{emp.positive_ratio:.0%} positive")

    print("\n== approximate node-level search (top 5 positive) ==")
    amp = amp_ave_topk(stack, 5)
    for w in amp.positive:
        motif = "motif" if max(w.nodes) >= BASE_SIZE else "base"
        print(f"  nodes {w.nodes}  R = {w.relevance:+.5f}  ({motif})")

    print("\n== against the exhaustive oracle ==")
    oracle = exhaustive_topk_node(stack, 16)
    for p in precision_recall(amp.positive, oracle, ks=[5], k_stars=[5, 10]):
        print(f"  precision@{p.k} vs oracle top-{p.k_star}: {p.precision:.2f}")

    hist = column_similarity_histogram(stack)
    print(f"\ntransition column similarity (approximation quality): "
          f"mean cosine {hist.mean:.3f}")


if __name__ == "__main__":
    main()
