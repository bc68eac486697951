"""Identity digest: one sha256 per group of the package's outputs.

Run it against a source tree, then against another, and compare the
lines: equal digests mean bit-identical walks, relevances, counters,
trained weights and generated files.

    PYTHONPATH=src python tests/identity_digest.py            # full grid
    PYTHONPATH=src python tests/identity_digest.py --quick    # reduced grid

Groups:
  infection  two trained infection scenarios, both searches on their
             first chain targets, plus the trained weights and losses;
  random     seeded M=6 random graphs (GCN/GIN x graph/node task): the
             graph's CSR arrays and features, both searches, each AMP-ave
             and EMP-neu table, and exhaustive_topk_node on the GCN stacks;
  scale      an amp-scale-style edge-list graph: AMP-ave at the CLI cap,
             its table, EMP-neu at a K-tilde cap and its table;
  gen        every file that `relwalk gen ba2motif` and `gen infection`
             write;
  training   trained weights and losses of the desk and infection recipes
             of tests/conftest.py;
  cli        the stdout of `relwalk explain` and every `eval` subcommand
             on models that `relwalk train` fits to `gen ba2motif` and
             `gen infection` data, the model files, and the rows of a
             small `relwalk bench` grid whose timer is stubbed to call
             each search once and report 0.0 s.

Relevances and losses enter as float.hex, arrays as dtype, shape and raw
bytes.  An AMP-ave table enters as its step, scaled and complete arrays
and its root scores, read through ampave.candidate_scores at the empty
prefix; an EMP-neu table as its factors and its root scores, read
through empneu.candidate_scores at the empty prefix.  BLAS runs on one
thread, so the digests do not depend on the thread count.  Only library
members that both an older tree and a newer one have are used, so one
script compares them.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from relwalk import (
    Explainer,
    GammaSchedule,
    TrainConfig,
    amp_ave_topk,
    ampave,
    build_message_table,
    build_node_message_table,
    degree_normalized,
    emp_neu_topk,
    empneu,
    exhaustive_topk_node,
    gen_ba2motif,
    gen_infection,
    graph_from_dict,
    init_model,
    random_graph,
    train,
)
from relwalk.cli import main as cli_main

CLI_CAP = 10 ** 8


class Digest:
    """sha256 over a canonical byte form of nested values."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def add(self, value) -> None:
        h = self.hash
        if isinstance(value, np.ndarray):
            h.update(f"a{value.dtype.str}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, (float, np.floating)):
            h.update(b"f" + float(value).hex().encode())
        elif isinstance(value, (list, tuple)):
            h.update(f"l{len(value)}".encode())
            for item in value:
                self.add(item)
        elif isinstance(value, dict):
            h.update(f"d{len(value)}".encode())
            for key in sorted(value):
                self.add(str(key))
                self.add(value[key])
        elif isinstance(value, bytes):
            h.update(f"b{len(value)}".encode() + value)
        else:       # int, bool, str, None
            h.update(f"{type(value).__name__}:{value!r}".encode())

    def add_result(self, result) -> None:
        for w in result.extracted:
            self.add((w.nodes, w.neurons, w.relevance))
        self.add(result.summary())

    def add_node_table(self, stack) -> None:
        table = build_node_message_table(stack)
        self.add((table.step, table.scaled, table.complete))
        self.add(ampave.candidate_scores(stack, table, ()))

    def add_neuron_table(self, stack) -> None:
        table = build_message_table(stack)
        self.add(table.factors)
        self.add(empneu.candidate_scores(stack, table, ()))

    def add_model(self, model) -> None:
        for layer in model.layers:
            self.add((layer.weight, layer.hidden_weight))
        self.add(model.readout.head)

    def hexdigest(self) -> str:
        return self.hash.hexdigest()


def _train_infection(seed: int, epochs: int):
    scenario = gen_infection(200, steps=3, lam=0.6, carrier_frac=0.02, seed=seed)
    graph = degree_normalized(scenario.graph)
    result = train(init_model([2, 16, 16, 16], 2, task="node", seed=seed), [graph],
                   TrainConfig(epochs=epochs, lr=0.25, seed=seed))
    return scenario, result


def group_infection(quick: bool) -> str:
    d = Digest()
    for seed in (0, 1):
        scenario, result = _train_infection(seed, 300 if quick else 4000)
        d.add_model(result.model)
        d.add(result.losses)
        session = Explainer(result.model, scenario.graph,
                            GammaSchedule.linear_decay(3.0, result.model.num_steps))
        targets = [t for t in sorted(scenario.chains) if len(scenario.chains[t]) > 1]
        for t in targets[:3 if quick else 15]:
            stack = session.stack(t, target_class=1)
            d.add_result(emp_neu_topk(stack, 5, max_k_tilde=2000))
            d.add_result(amp_ave_topk(stack, 5, max_k_tilde=2000))
    return d.hexdigest()


def group_random(quick: bool) -> str:
    d = Digest()
    for seed in range(4 if quick else 40):
        graph = random_graph(6, 3, 0.6, np.random.default_rng(seed))
        d.add(graph.csr)
        d.add(graph.features)
        for gin in (False, True):
            for task in ("graph", "node"):
                model = init_model([3, 3, 3, 3], 2, task=task, seed=seed, gin=gin)
                session = Explainer(model, graph, GammaSchedule.constant(1.0, model.num_steps))
                stack = session.stack(None if task == "graph" else seed % 6)
                d.add_result(emp_neu_topk(stack, 5, max_k_tilde=200))
                d.add_result(amp_ave_topk(stack, 5, max_k_tilde=200))
                d.add_node_table(stack)
                d.add_neuron_table(stack)
                if not gin:
                    for w in exhaustive_topk_node(stack, 10):
                        d.add((w.nodes, w.relevance))
    return d.hexdigest()


def group_scale(quick: bool) -> str:
    """perfbench amp-scale's graph recipe, built in memory."""
    m, width = (500, 8) if quick else (4000, 16)
    rng = np.random.default_rng(0)
    pairs = set()
    while len(pairs) < m * 2:
        i, j = (int(x) for x in rng.integers(0, m, 2))
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    edges = sorted(pairs | {(j, i) for i, j in pairs})
    graph = graph_from_dict({"num_nodes": m, "features": (rng.random((m, width)) + 0.1).tolist(),
                             "label": 0, "edges": [list(e) for e in edges]})
    d = Digest()
    d.add(graph.csr)
    for seed in range(2):
        model = init_model([width] * 4, 2, seed=seed)
        stack = Explainer(model, graph, GammaSchedule.linear_decay(3.0, 3)).stack()
        d.add_result(amp_ave_topk(stack, 10, max_k_tilde=CLI_CAP))
        d.add_node_table(stack)
        d.add_result(emp_neu_topk(stack, 10, max_k_tilde=200))
        d.add_neuron_table(stack)
    return d.hexdigest()


def group_gen(quick: bool) -> str:
    runs = []
    for seed in range(2 if quick else 10):
        for features in ("ones", "degree"):
            for normalize in ([["--normalize"]] if quick else [[], ["--normalize"]]):
                runs.append(["gen", "ba2motif", "--n", "4" if quick else "40",
                             "--features", features, "--seed", str(seed), *normalize])
        runs.append(["gen", "infection", "--m", "50" if quick else "200", "--seed", str(seed),
                     "--lam", "0.8", "--steps", "4"])
    d = Digest()
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(runs):
            out = Path(tmp) / f"run{i}"
            target = out if argv[1] == "ba2motif" else out.with_suffix(".json")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([*argv, "--out", str(target)])
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
            files = sorted(target.iterdir()) if target.is_dir() else [target]
            d.add(argv)
            for f in files:
                d.add((f.name, f.read_bytes()))
    return d.hexdigest()


def group_training(quick: bool) -> str:
    """tests/conftest.py's recipes; the desk recipe on its first seeds,
    whether or not each model qualifies there."""
    d = Digest()
    for seed in range(1 if quick else 10):
        graphs = gen_ba2motif(20 if quick else 100, seed=seed, normalize=True,
                              feature_mode="degree")
        result = train(init_model([5, 4, 4, 4], 2, seed=seed), graphs,
                       TrainConfig(epochs=20 if quick else 500, lr=0.05, seed=seed))
        d.add_model(result.model)
        d.add((result.losses, result.accuracies))
    _, result = _train_infection(1, 200 if quick else 4000)
    d.add_model(result.model)
    d.add((result.losses, result.accuracies))
    return d.hexdigest()


def _untimed(fn, repetitions):
    """Stand-in for relwalk.cli.time_callable: one call, no timing."""
    fn()
    return 0.0, 0.0


def group_cli(quick: bool) -> str:
    """`bench` runs with its timer stubbed (_untimed), and its rows enter
    as parsed CSV, so line ends do not count."""
    d = Digest()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        def run(*argv: str, rows: bool = False) -> None:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(list(argv))
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
            # gen prints where it wrote, which is a temporary directory
            d.add([a.replace(str(tmp), "") for a in argv])
            text = out.getvalue().replace(str(tmp), "")
            d.add(list(csv.reader(io.StringIO(text))) if rows else text)

        ba, model = str(tmp / "ba"), str(tmp / "model.json")
        run("gen", "ba2motif", "--n", "6" if quick else "20", "--normalize", "--seed", "1",
            "--out", ba)
        run("train", "--data", ba, "--layers", "2", "--hidden", "4", "--epochs", "60",
            "--seed", "1", "--out", model)
        d.add(Path(model).read_bytes())
        for i in range(1 if quick else 4):
            flags = ["--model", model, "--graph", str(tmp / "ba" / f"graph_{i:04d}.json")]
            run("explain", *flags, "--method", "amp-ave")
            run("explain", *flags, "--method", "emp-neu")
            run("explain", *flags, "--method", "emp-neu", "--report-abs")
            run("eval", "pr", *flags)
            run("eval", "colsim", *flags)
            run("eval", "edge-recall", *flags)
            run("eval", "positive-ratio", *flags, "--method", "amp-ave")
            run("eval", "positive-ratio", *flags, "--method", "emp-neu")
        scenario, node_model = str(tmp / "scenario.json"), str(tmp / "node_model.json")
        run("gen", "infection", "--m", "60", "--lam", "0.5", "--carrier-frac", "0.05",
            "--seed", "0", "--out", scenario)
        run("train", "--data", scenario, "--layers", "3", "--hidden", "8",
            "--epochs", "100" if quick else "400", "--lr", "0.25", "--normalize",
            "--seed", "0", "--out", node_model)
        d.add(Path(node_model).read_bytes())
        run("eval", "infection-recall", "--model", node_model, "--scenario", scenario)
        with mock.patch("relwalk.cli.time_callable", _untimed):
            run("bench", "--methods", "amp-ave,emp-neu,exhaustive-node,exhaustive-neuron",
                "--m-values", "5" if quick else "5,12", "--l-values", "2,3", "--hidden", "3",
                "--repetitions", "1", rows=True)
    return d.hexdigest()


GROUPS = {
    "infection": group_infection,
    "random": group_random,
    "scale": group_scale,
    "gen": group_gen,
    "training": group_training,
    "cli": group_cli,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="a reduced grid, in seconds")
    args = parser.parse_args(argv)
    for name, group in GROUPS.items():
        print(f"{name} {group(args.quick)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
