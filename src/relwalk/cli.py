"""Command-line interface.

Subcommands: gen (synthetic data), train, explain (walk search), eval
(metrics), bench (timings).  Exit codes: 0 success, 2 validation error,
3 budget refusal.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import __version__
from .ampave import amp_ave_topk
from .datasets import (
    InfectionScenario,
    gen_ba2motif,
    gen_infection,
    motif_edges,
    random_graph,
)
from .empneu import emp_neu_topk
from .graphs import (
    Graph,
    ModelFormatError,
    ShapeError,
    _read_json,
    degree_normalized,
    load_graph,
    load_model,
    save_graph,
    save_model,
)
from .metrics import (
    column_similarity_histogram,
    edge_recall,
    infection_chain_recall,
    precision_recall,
    time_callable,
    walks_to_edge_scores,
)
from .oracle import (
    DEFAULT_ENUM_BUDGET,
    exhaustive_topk_neuron,
    exhaustive_topk_node,
)
from .propagation import (
    BudgetError,
    Explainer,
    ParameterError,
    parse_gamma,
)
from .training import TrainConfig, TrainingError, init_model, train

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="relwalk",
                                  description="Relevant walk search for GNN predictions")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    # flags shared by the explanation subcommands, each declared once
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True)
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph", required=True)
    graph.add_argument("--target", type=int, default=None,
                       help="class index (graph task) or node index (node task); "
                            "default: predicted class")
    gamma = argparse.ArgumentParser(add_help=False)
    gamma.add_argument("--gamma", default="linear:3",
                       help="LRP-gamma schedule, 'const:X' or 'linear:X'")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET,
                        help="enumeration budget (>= 1); also caps the extractions "
                             "of both searches")
    explained = [model, graph, gamma, budget]

    gen = sub.add_parser("gen", help="generate synthetic datasets")
    gen_sub = gen.add_subparsers(dest="dataset", required=True)

    ba = gen_sub.add_parser("ba2motif")
    ba.add_argument("--n", type=int, default=100)
    ba.add_argument("--base-size", type=int, default=20)
    ba.add_argument("--features", choices=("ones", "degree"), default="degree")
    ba.add_argument("--normalize", action="store_true")
    ba.add_argument("--out", required=True, help="output directory")
    ba.add_argument("--seed", type=int, default=0)

    inf = gen_sub.add_parser("infection")
    inf.add_argument("--m", type=int, default=200)
    inf.add_argument("--steps", type=int, default=3)
    inf.add_argument("--lam", "--lambda", dest="lam", type=float, default=0.6)
    inf.add_argument("--carrier-frac", type=float, default=0.02)
    inf.add_argument("--mean-out-degree", type=float, default=4.0)
    inf.add_argument("--out", required=True, help="output scenario file")
    inf.add_argument("--seed", type=int, default=0)

    tr = sub.add_parser("train", help="train a model on a generated dataset")
    tr.add_argument("--data", required=True, help="dataset directory or scenario file")
    tr.add_argument("--arch", choices=("gcn", "gin"), default="gcn")
    tr.add_argument("--layers", type=int, default=3)
    tr.add_argument("--hidden", type=int, default=8)
    tr.add_argument("--epochs", type=int, default=500)
    tr.add_argument("--lr", type=float, default=0.05)
    tr.add_argument("--normalize", action="store_true",
                    help="degree-normalize the adjacency before training")
    tr.add_argument("--out", required=True, help="output model file")
    tr.add_argument("--seed", type=int, default=0)

    ex = sub.add_parser("explain", parents=explained,
                        help="search relevant walks for one prediction")
    ex.add_argument("--method", choices=("emp-neu", "amp-ave"), default="amp-ave")
    ex.add_argument("--topk", type=int, default=10)
    ex.add_argument("--report-abs", action="store_true",
                    help="emit the full top-K-tilde absolute list (emp-neu only)")
    ex.add_argument("--out", default=None, help="output file (default stdout)")

    ev = sub.add_parser("eval", help="evaluation metrics, CSV plot data")
    ev_sub = ev.add_subparsers(dest="metric", required=True)

    pr = ev_sub.add_parser("pr", parents=explained)
    pr.add_argument("--ks", default="1,5,10,20")
    pr.add_argument("--kstars", default="10")

    # colsim enumerates nothing, so it takes no --budget
    cs = ev_sub.add_parser("colsim", parents=[model, graph, gamma])
    cs.add_argument("--bins", type=int, default=20)

    ir = ev_sub.add_parser("infection-recall", parents=[model, gamma, budget])
    ir.add_argument("--scenario", required=True)
    ir.add_argument("--topk", type=int, default=5)
    ir.add_argument("--max-targets", type=int, default=None)

    er = ev_sub.add_parser("edge-recall", parents=explained)
    er.add_argument("--topk", type=int, default=20)

    posr = ev_sub.add_parser("positive-ratio", parents=explained)
    posr.add_argument("--method", choices=("emp-neu", "amp-ave"), default="emp-neu")
    posr.add_argument("--topk", type=int, default=20)

    be = sub.add_parser("bench", parents=[gamma, budget], help="timing grid, CSV output")
    be.add_argument("--methods", default="amp-ave,exhaustive-node")
    be.add_argument("--m-values", default="25")
    be.add_argument("--l-values", default="3")
    be.add_argument("--topk", type=int, default=1)
    be.add_argument("--repetitions", type=int, default=5)
    be.add_argument("--hidden", type=int, default=8)
    be.add_argument("--out", default=None)
    be.add_argument("--seed", type=int, default=0)

    return top


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


# method name -> call(stack, k, budget).  The budget caps the searches'
# extractions (a target with fewer than k positive walks yields a partial
# result) and the walk space an oracle may enumerate (else BudgetError).
METHODS = {
    "emp-neu": lambda stack, k, budget: emp_neu_topk(stack, k, max_k_tilde=budget),
    "amp-ave": lambda stack, k, budget: amp_ave_topk(stack, k, max_k_tilde=budget),
    "exhaustive-node": lambda stack, k, budget: exhaustive_topk_node(stack, k, budget=budget),
    "exhaustive-neuron":
        lambda stack, k, budget: exhaustive_topk_neuron(stack, k, budget=budget),
}


def _emit(lines: Iterable[str], out_path: str | None) -> None:
    """Write each line as it arrives, to stdout or to out_path, which is
    opened with the first line."""
    with contextlib.ExitStack() as files:
        out = sys.stdout
        for i, line in enumerate(lines):
            if out_path and i == 0:
                out = files.enter_context(open(out_path, "w"))
            out.write(line + "\n")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.dataset == "ba2motif":
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        graphs = gen_ba2motif(args.n, base_size=args.base_size, seed=args.seed,
                              normalize=args.normalize, feature_mode=args.features)
        for i, g in enumerate(graphs):
            save_graph(g, out / f"graph_{i:04d}.json")
        manifest = {
            "dataset": "ba2motif",
            "n": args.n,
            "base_size": args.base_size,
            "seed": args.seed,
            "normalize": args.normalize,
            "features": args.features,
            "files": [f"graph_{i:04d}.json" for i in range(args.n)],
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
        print(f"wrote {args.n} graphs to {out}")
        return EXIT_OK
    scenario = gen_infection(
        args.m, args.steps, args.lam, carrier_frac=args.carrier_frac,
        mean_out_degree=args.mean_out_degree, seed=args.seed,
    )
    scenario.save(args.out)
    print(f"wrote scenario ({int(scenario.labels.sum())} infected of {args.m}) to {args.out}")
    return EXIT_OK


def _load_dataset(path: str) -> tuple[list[Graph], str]:
    p = Path(path)
    if p.is_dir():
        manifest = _read_json(p / "manifest.json")
        files = manifest.get("files") if isinstance(manifest, dict) else None
        if not (isinstance(files, list) and all(isinstance(f, str) for f in files)):
            raise ModelFormatError(f"{p / 'manifest.json'}: 'files' must be a list of file names")
        return [load_graph(p / f) for f in files], "graph"
    scenario = InfectionScenario.load(p)
    return [scenario.graph], "node"


def _cmd_train(args) -> int:
    graphs, task = _load_dataset(args.data)
    if not graphs:
        raise ParameterError(f"dataset {args.data} holds no graphs")
    if args.normalize:
        graphs = [degree_normalized(g) for g in graphs]
    in_dim = graphs[0].features.shape[1]
    dims = [in_dim] + [args.hidden] * args.layers
    model = init_model(dims, 2, task=task, seed=args.seed, gin=args.arch == "gin")
    config = TrainConfig(epochs=args.epochs, lr=args.lr)
    result = train(model, graphs, config)
    save_model(result.model, args.out)
    print(f"final loss {result.final_loss:.4f}, accuracy {result.final_accuracy:.3f}")
    return EXIT_OK


def _cmd_explain(args) -> int:
    if args.report_abs and args.method != "emp-neu":
        raise ParameterError("--report-abs needs --method emp-neu")
    model = load_model(args.model)
    stack = Explainer(model, load_graph(args.graph),
                      parse_gamma(args.gamma, model.num_steps)).stack(args.target)
    result = METHODS[args.method](stack, args.topk, args.budget)
    walks = result.absolute if args.report_abs else result.positive
    lines = [json.dumps(w.to_record()) for w in walks]
    lines.append(json.dumps({"summary": result.summary()}))
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.metric == "infection-recall":
        return _eval_infection_recall(args)
    if args.metric == "pr":
        ks, kstars = _sizes(args.ks, "--ks"), _sizes(args.kstars, "--kstars")
    model = load_model(args.model)
    graph = load_graph(args.graph)
    stack = Explainer(model, graph, parse_gamma(args.gamma, model.num_steps)).stack(args.target)

    if args.metric == "pr":
        # precision_recall reads only the oracle's first K* walks
        oracle = METHODS["exhaustive-node"](stack, max(kstars), args.budget)
        approx = METHODS["amp-ave"](stack, max(ks), args.budget).positive
        points = precision_recall(approx, oracle, ks, kstars)
        print("K,K_star,precision,recall")
        for p in points:
            print(f"{p.k},{p.k_star},{p.precision},{p.recall}")
        return EXIT_OK

    if args.metric == "colsim":
        hist = column_similarity_histogram(stack)
        counts, edges = hist.histogram(args.bins)
        print("bin_left,bin_right,count")
        for c, lo, hi in zip(counts, edges, edges[1:]):
            print(f"{lo},{hi},{c}")
        print(f"# mean={hist.mean} zero_columns={hist.zero_columns} "
              f"degenerate_slices={hist.degenerate_slices}")
        return EXIT_OK

    if args.metric == "edge-recall":
        walks = METHODS["amp-ave"](stack, args.topk, args.budget).positive
        if not walks:
            raise ParameterError("no positive walks found; cannot score edges")
        print("cutoff,recall")
        for cutoff, recall in enumerate(
                edge_recall(walks_to_edge_scores(walks), motif_edges(graph)), 1):
            print(f"{cutoff},{recall}")
        return EXIT_OK

    # positive-ratio
    result = METHODS[args.method](stack, args.topk, args.budget)
    print(json.dumps({**result.summary(), "positive_ratio": result.positive_ratio}))
    return EXIT_OK


def _eval_infection_recall(args) -> int:
    if args.max_targets is not None and args.max_targets < 1:
        raise ParameterError(f"--max-targets must be >= 1, got {args.max_targets}")
    model = load_model(args.model)
    scenario = InfectionScenario.load(args.scenario)
    session = Explainer(model, scenario.graph, parse_gamma(args.gamma, model.num_steps))
    targets = [t for t in sorted(scenario.chains) if len(scenario.chains[t]) > 1]
    if args.max_targets is not None:
        targets = targets[: args.max_targets]
    walks_per_target = {
        t: METHODS["amp-ave"](session.stack(t, target_class=1), args.topk, args.budget).positive
        for t in targets
    }
    recall = infection_chain_recall(
        walks_per_target, scenario.chains, args.topk, model.num_steps + 1
    )
    print(json.dumps({
        "recall_padded": recall.padded,
        "recall_subsequence": recall.subsequence,
        "targets": recall.targets,
        "k": args.topk,
    }))
    return EXIT_OK


def _sizes(text: str, flag: str) -> list[int]:
    """A list of sizes: comma-separated integers, each >= 1."""
    sizes = [int(x) for x in text.split(",")]
    if min(sizes) < 1:
        raise ParameterError(f"{flag} entries must be >= 1, got {text}")
    return sizes


def _cmd_bench(args) -> int:
    methods = args.methods.split(",")
    for method in methods:
        if method not in METHODS:
            raise ParameterError(f"unknown bench method {method!r}")

    def lines():
        # the header comes with the first row, so a grid refused at its
        # first cell writes nothing
        header = "method,M,L,K,seconds,repetitions,variance\n"
        l_values = _sizes(args.l_values, "--l-values")
        for m in _sizes(args.m_values, "--m-values"):
            graph = random_graph(m, args.hidden, min(4.0 / max(m - 1, 1), 1.0),
                                 np.random.default_rng(args.seed))
            for l in l_values:
                model = init_model([args.hidden] * (l + 1), 2, seed=args.seed)
                stack = Explainer(model, graph, parse_gamma(args.gamma, model.num_steps)).stack(0)
                for method in methods:
                    median, var = time_callable(
                        lambda: METHODS[method](stack, args.topk, args.budget), args.repetitions)
                    yield f"{header}{method},{m},{l},{args.topk},{median},{args.repetitions},{var}"
                    header = ""

    _emit(lines(), args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "train": _cmd_train,
        "explain": _cmd_explain,
        "eval": _cmd_eval,
        "bench": _cmd_bench,
    }
    try:
        if getattr(args, "budget", 1) < 1:
            raise ParameterError(f"--budget must be >= 1, got {args.budget}")
        return handlers[args.command](args)
    except (BudgetError, MemoryError) as exc:
        # an allocation the machine refuses is a size limit too
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParameterError, ShapeError, ModelFormatError, TrainingError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
