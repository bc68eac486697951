"""Recover infection transmission chains with relevant-walk search.

An SI process spreads from a few carrier nodes over a random directed
contact graph; each infected node records the chain that actually infected
it.  A node classifier is trained to predict infection status, and the
walk search is asked to explain each infected node's prediction.  Recall
measures how often the true chain shows up among the top walks.

Run:  python demos/infection_walks.py
      python demos/infection_walks.py --config configs/infection_full_scale.json
"""

import argparse
import json
import time

from relwalk import (
    GammaSchedule,
    TrainConfig,
    accuracy,
    amp_ave_topk,
    build_propagation,
    degree_normalized,
    forward,
    gen_infection,
    infection_chain_recall,
    init_model,
    train,
)

DESK_CONFIG = {
    "m": 200,
    "steps": 3,
    "lam": 0.6,
    "carrier_frac": 0.02,
    "seed": 1,
    "hidden": 16,
    "epochs": 4000,
    "lr": 0.25,
    "topk": 5,
    "max_targets": None,
    # extraction cap: a node reached by fewer than topk positive walks
    # yields a partial list instead of sweeping the whole walk space
    "search_budget": 2000,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=None,
                        help="JSON file overriding the desk-scale defaults")
    args = parser.parse_args()
    cfg = dict(DESK_CONFIG)
    if args.config:
        cfg.update(json.loads(open(args.config).read()))

    print(f"== SI scenario: M={cfg['m']}, {cfg['steps']} steps, "
          f"lambda={cfg['lam']} ==")
    scenario = gen_infection(cfg["m"], steps=cfg["steps"], lam=cfg["lam"],
                             carrier_frac=cfg["carrier_frac"], seed=cfg["seed"])
    n_infected = int(scenario.labels.sum())
    print(f"{len(scenario.carriers)} carriers infected {n_infected} nodes")

    # train on a degree-normalized copy; explanations run on the raw graph
    train_graph = degree_normalized(scenario.graph)
    model = init_model([2] + [cfg["hidden"]] * cfg["steps"], 2,
                       task="node", seed=cfg["seed"])
    result = train(model, [train_graph],
                   TrainConfig(epochs=cfg["epochs"], lr=cfg["lr"]))
    model = result.model
    print(f"node accuracy {accuracy(model, [train_graph]):.3f}")

    schedule = GammaSchedule.linear_decay(3.0, model.num_steps)
    acts = forward(model, scenario.graph)
    targets = [t for t in sorted(scenario.chains)
               if len(scenario.chains[t]) > 1]
    if cfg["max_targets"]:
        targets = targets[: cfg["max_targets"]]

    print(f"\nexplaining {len(targets)} infected nodes "
          f"(top-{cfg['topk']} walks each)...")
    t0 = time.time()
    walks_per_target = {}
    for t in targets:
        stack = build_propagation(model, scenario.graph, acts, schedule, t,
                                  target_class=1)
        walks_per_target[t] = amp_ave_topk(
            stack, cfg["topk"], max_k_tilde=cfg["search_budget"]).positive
    print(f"search took {time.time() - t0:.1f}s")

    recall = infection_chain_recall(walks_per_target, scenario.chains,
                                    cfg["topk"], model.num_steps + 1)
    print(f"\nchain recall@{cfg['topk']}: padded {recall.padded:.3f}, "
          f"subsequence {recall.subsequence:.3f} "
          f"over {recall.targets} targets")

    t = targets[0]
    print(f"\nexample: node {t}, true chain {scenario.chains[t]}")
    for w in walks_per_target[t][:3]:
        print(f"  walk {w.nodes}  R = {w.relevance:+.5f}")


if __name__ == "__main__":
    main()
