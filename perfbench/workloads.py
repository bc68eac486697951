"""The three benchmark workloads: seeded inputs and the explanations to run.

Each workload builds its inputs from the workload seed in ``setup`` and
lists its explanation requests as ``Task`` objects.  The library only
sees the generated inputs.  ``observe`` sees the first sweep's results
and computes the workload's quality metric against the oracle module.

motif-desk      BA-2motif graph classifier (desk recipe), EMP-neu and AMP-ave
                top-10 on every eligible test graph, uncapped like the CLI.
infection-node  Infection node classifier, EMP-neu and AMP-ave top-5 with
                K-tilde capped at 2000 on infected targets.
amp-scale       AMP-ave top-10 on a 4000-node random graph loaded from an
                edge-list JSON file, untrained GCN.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from relwalk import (
    GnnModel,
    Graph,
    TrainConfig,
    accuracy,
    exhaustive_topk_node,
    forward,
    gen_ba2motif,
    gen_infection,
    graph_from_dict,
    infection_chain_recall,
    init_model,
    modified_adjacency,
    predicted_target,
    train,
)
from relwalk.oracle import DEFAULT_ENUM_BUDGET

# The CLI caps AMP-ave's extractions at the enumeration budget.
CLI_K_TILDE_CAP = DEFAULT_ENUM_BUDGET


@dataclass
class Task:
    """One explanation request."""

    key: str
    method: str                     # "emp" or "amp"
    model: GnnModel
    k: int
    max_k_tilde: int | None
    graph: Graph | None = None      # None: loaded from graph_path inside the explanation
    graph_path: str | None = None
    target: int | None = None       # None: the predicted class
    target_class: int | None = None


class Workload:
    """Seeded inputs and explanation tasks; subclasses fill in ``setup``."""

    name = ""
    SETUP_REPEATS = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.tasks: list[Task] = []

    def setup(self, rec) -> None:
        raise NotImplementedError

    def observe(self, task: Task, stack, result, rec) -> None:
        """Sees each explanation of the first pass, to compute the quality metric."""

    def quality(self) -> dict:
        """name -> (value, unit, note) of the workload's quality metric, if it has one."""
        return {}

    def cleanup(self) -> None:
        pass


class MotifDesk(Workload):
    """BA-2motif desk recipe, as in the test suite's ``desk_models`` fixture.

    Models are trained from consecutive seeds starting at the workload
    seed and kept when test accuracy reaches the bar, until MODELS
    qualify.  Every eligible (correctly and strictly classified) test
    graph is explained with both searches.
    """

    name = "motif-desk"
    SETUP_REPEATS = 2               # each setup trains at least MODELS models
    MODELS = 2
    DIMS = [5, 4, 4, 4]
    EPOCHS = 500
    LR = 0.05
    MIN_ACCURACY = 0.95
    SEED_TRIES = 20
    TRAIN_GRAPHS = 100
    TEST_GRAPHS = 40
    K = 10
    PRECISION_GRAPHS = 10          # per model, as in the acceptance test
    TIE_TOL = 1e-10

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.precisions: dict[str, list[float]] = {}

    def setup(self, rec) -> None:
        models = []
        seed = self.seed
        while len(models) < self.MODELS and seed < self.seed + self.SEED_TRIES:
            with rec.span("datasets.gen"):
                train_set = gen_ba2motif(self.TRAIN_GRAPHS, seed=seed, normalize=True,
                                         feature_mode="degree")
                test_set = gen_ba2motif(self.TEST_GRAPHS, seed=1000 + seed, normalize=True,
                                        feature_mode="degree")
            with rec.span("training.train"):
                model = train(init_model(self.DIMS, 2, seed=seed), train_set,
                              TrainConfig(epochs=self.EPOCHS, lr=self.LR, seed=seed)).model
            with rec.span("training.accuracy"):
                if accuracy(model, test_set) >= self.MIN_ACCURACY:
                    models.append((seed, model, test_set))
            seed += 1
        if len(models) < self.MODELS:
            raise RuntimeError(f"fewer than {self.MODELS} models qualified from seed {self.seed}")
        tasks = []
        for model_seed, model, test_set in models:
            self.precisions[f"model{model_seed}"] = []
            for i, g in enumerate(test_set):
                acts = forward(model, g)
                target = predicted_target(model, acts)
                if target != g.label or acts.logits[target] <= acts.logits[1 - target]:
                    continue
                for method in ("emp", "amp"):
                    cap = CLI_K_TILDE_CAP if method == "amp" else None
                    tasks.append(Task(f"model{model_seed}/graph{i}/{method}", method, model,
                                      self.K, cap, graph=g))
        self.tasks = tasks

    def observe(self, task: Task, stack, result, rec) -> None:
        """Precision@10 against exhaustive node-level enumeration, acceptance-test rule."""
        model_key = task.key.split("/")[0]
        done = self.precisions[model_key]
        if task.method != "amp" or len(done) == self.PRECISION_GRAPHS:
            return
        with rec.span("oracle.exhaustive_topk_node"):
            oracle = exhaustive_topk_node(stack, self.K)
        if oracle[-1].relevance <= 0:
            return      # an all-positive top-10 is unattainable by contract
        threshold = oracle[-1].relevance - self.TIE_TOL
        found = result.positive[:self.K]
        done.append(sum(1 for w in found if w.relevance >= threshold) / self.K)

    def quality(self) -> dict:
        per_model = [float(np.mean(p)) for p in self.precisions.values() if p]
        graphs = sum(len(p) for p in self.precisions.values())
        value = float(np.mean(per_model)) if per_model else float("nan")
        return {"amp_precision_at_10": (value, "ratio", f"{graphs} graphs, "
                                        f"{len(per_model)} models, not gated")}


class InfectionNode(Workload):
    """Infection chain recovery, as in the ``infection_setup`` fixture.

    SCENARIOS scenarios, each with its own node classifier, are generated
    and trained from consecutive seeds starting at the workload seed: how
    many targets run to the K-tilde cap depends on how well the model
    trained, so one poorly trained model would otherwise decide a run's
    time.  In each scenario every infected node reached through a chain
    of more than one node is a target, in node order, up to TARGETS of
    them; both searches explain class 1 at each target.
    """

    name = "infection-node"
    SCENARIOS = 3
    M = 200
    STEPS = 3
    LAM = 0.6
    CARRIER_FRAC = 0.02
    DIMS = [2, 16, 16, 16]
    EPOCHS = 4000
    LR = 0.25
    TARGETS = 15
    K = 5
    K_TILDE_CAP = 2000
    TARGET_CLASS = 1

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.scenarios: dict[str, object] = {}
        self.walks: dict[str, dict[int, list]] = {}

    def setup(self, rec) -> None:
        tasks = []
        for seed in range(self.seed, self.seed + self.SCENARIOS):
            with rec.span("datasets.gen"):
                scenario = gen_infection(self.M, steps=self.STEPS, lam=self.LAM,
                                         carrier_frac=self.CARRIER_FRAC, seed=seed)
            m = scenario.graph.num_nodes
            train_graph = Graph(
                modified_adjacency(scenario.graph.adjacency - np.eye(m), normalize=True),
                scenario.graph.features,
                scenario.labels.astype(int),
            )
            with rec.span("training.train"):
                model = train(init_model(self.DIMS, 2, task="node", seed=seed),
                              [train_graph],
                              TrainConfig(epochs=self.EPOCHS, lr=self.LR, seed=seed)).model
            name = f"scenario{seed}"
            self.scenarios[name] = scenario
            self.walks[name] = {}
            targets = [t for t in sorted(scenario.chains)
                       if len(scenario.chains[t]) > 1][:self.TARGETS]
            tasks += [
                Task(f"{name}/target{t}/{method}", method, model, self.K, self.K_TILDE_CAP,
                     graph=scenario.graph, target=t, target_class=self.TARGET_CLASS)
                for t in targets for method in ("emp", "amp")
            ]
        self.tasks = tasks

    def observe(self, task: Task, stack, result, rec) -> None:
        if task.method == "amp":
            self.walks[task.key.split("/")[0]][task.target] = result.positive

    def quality(self) -> dict:
        recalls = [infection_chain_recall(walks, self.scenarios[name].chains, self.K,
                                          self.STEPS + 1)
                   for name, walks in self.walks.items()]
        targets = sum(r.targets for r in recalls)
        return {"amp_chain_recall_at_5": (
            float(np.mean([r.subsequence for r in recalls])), "ratio",
            f"subsequence recall, mean of {len(recalls)} scenarios, {targets} targets")}


class AmpScale(Workload):
    """AMP-ave alone on a seeded random graph written as edge-list JSON in setup.

    The untrained model is taken from consecutive seeds starting at the
    workload seed until its predicted class has a positive logit.  With a
    negative logit the walks' total relevance is negative and there may be
    no positive walk at all; AMP-ave then sweeps towards the CLI's cap of
    10^8 extractions, for hours.  The acceptance test skips such ill-posed
    targets in the same way.
    """

    name = "amp-scale"
    M = 4000
    MEAN_DEGREE = 4
    WIDTH = 16
    STEPS = 3
    K = 10

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.path = os.path.join(workdir, f"amp-scale-graph-{seed}.json")

    def setup(self, rec) -> None:
        with rec.span("perfbench.gen_graph"):
            rng = np.random.default_rng(self.seed)
            m = self.M
            # undirected edges without self-loops, both directions listed
            pairs = set()
            while len(pairs) < m * self.MEAN_DEGREE // 2:
                i, j = (int(x) for x in rng.integers(0, m, 2))
                if i != j:
                    pairs.add((min(i, j), max(i, j)))
            edges = sorted(pairs | {(j, i) for i, j in pairs})
            features = rng.random((m, self.WIDTH)) + 0.1
        data = {"num_nodes": m, "features": features.tolist(), "label": 0, "edges": edges}
        with rec.span("perfbench.write_graph"):
            with open(self.path, "w") as fh:
                json.dump(data, fh)
        graph = graph_from_dict(data)
        model_seed = self.seed
        while True:
            with rec.span("training.init_model"):
                model = init_model([self.WIDTH] * (self.STEPS + 1), 2, seed=model_seed)
            with rec.span("graphs.forward"):
                logits = forward(model, graph).logits
            if logits.max() > 0:
                break
            model_seed += 1
        self.tasks = [Task("graph/amp", "amp", model, self.K, CLI_K_TILDE_CAP,
                           graph_path=self.path)]

    def cleanup(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)


WORKLOADS = {w.name: w for w in (MotifDesk, InfectionNode, AmpScale)}
