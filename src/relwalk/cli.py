"""Command-line interface.

Subcommands: gen (synthetic data), train, explain (walk search), eval
(metrics), bench (timings).  Exit codes: 0 success, 2 validation error,
3 budget refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ampave import amp_ave_topk, walks_to_edge_scores
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
    degree_normalized,
    forward,
    load_graph,
    load_model,
    predicted_target,
    save_graph,
    save_model,
)
from .metrics import (
    bench_rows_to_csv,
    column_similarity_histogram,
    edge_recall,
    infection_chain_recall,
    precision_recall,
    time_callable,
)
from .oracle import (
    DEFAULT_ENUM_BUDGET,
    exhaustive_topk_neuron,
    exhaustive_topk_node,
)
from .propagation import (
    BudgetError,
    ParameterError,
    build_propagation,
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
    tr.add_argument("--lr-schedule", choices=("decay", "constant"), default="decay")
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
    er.add_argument("--base-size", type=int, default=20)
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


def _stack_builder(args, model, graph):
    """Run forward and parse --gamma once for the graph; the returned
    build(target, target_class) assembles one target's propagation stack
    from them, so every target of the graph shares the forward pass."""
    acts = forward(model, graph)
    schedule = parse_gamma(args.gamma, model.num_steps)

    def build(target=None, target_class=None):
        if target is None:
            if model.readout.task == "node":
                raise ParameterError("--target (node index) is required for node-task models")
            target = predicted_target(model, acts)
        return build_propagation(model, graph, acts, schedule, target, target_class)

    return build


def _run_search(args, stack, method: str, k: int):
    # the enumeration budget also caps extractions, so targets with fewer
    # than k positive walks yield a partial result instead of sweeping the
    # whole walk space
    search = emp_neu_topk if method == "emp-neu" else amp_ave_topk
    return search(stack, k, max_k_tilde=args.budget)


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


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
        manifest = json.loads((p / "manifest.json").read_text())
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
    config = TrainConfig(epochs=args.epochs, lr=args.lr, lr_schedule=args.lr_schedule)
    result = train(model, graphs, config)
    save_model(result.model, args.out)
    print(f"final loss {result.final_loss:.4f}, accuracy {result.final_accuracy:.3f}")
    return EXIT_OK


def _cmd_explain(args) -> int:
    if args.report_abs and args.method != "emp-neu":
        raise ParameterError("--report-abs needs --method emp-neu")
    stack = _stack_builder(args, load_model(args.model), load_graph(args.graph))(args.target)
    result = _run_search(args, stack, args.method, args.topk)
    walks = result.absolute if args.report_abs else result.positive
    lines = [json.dumps(w.to_record()) for w in walks]
    lines.append(json.dumps({"summary": result.summary()}))
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.metric == "infection-recall":
        return _eval_infection_recall(args)
    if args.metric == "pr":
        ks = [int(x) for x in args.ks.split(",")]
        kstars = [int(x) for x in args.kstars.split(",")]
        if min(ks + kstars) < 1:
            raise ParameterError(f"--ks and --kstars must be >= 1, "
                                 f"got {args.ks!r} and {args.kstars!r}")
    model = load_model(args.model)
    graph = load_graph(args.graph)
    stack = _stack_builder(args, model, graph)(args.target)

    if args.metric == "pr":
        # precision_recall reads only the oracle's first K* walks
        oracle = exhaustive_topk_node(stack, max(kstars), budget=args.budget)
        approx = _run_search(args, stack, "amp-ave", max(ks)).positive
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
        walks = _run_search(args, stack, "amp-ave", args.topk).positive
        if not walks:
            raise ParameterError("no positive walks found; cannot score edges")
        scores = walks_to_edge_scores(walks)
        true_edges = motif_edges(graph, base_size=args.base_size)
        print("cutoff,recall")
        for cutoff in range(1, len(scores) + 1):
            print(f"{cutoff},{edge_recall(scores, true_edges, cutoff)}")
        return EXIT_OK

    # positive-ratio
    result = _run_search(args, stack, args.method, args.topk)
    print(json.dumps({**result.summary(), "positive_ratio": result.positive_ratio}))
    return EXIT_OK


def _eval_infection_recall(args) -> int:
    if args.max_targets is not None and args.max_targets < 1:
        raise ParameterError(f"--max-targets must be >= 1, got {args.max_targets}")
    model = load_model(args.model)
    scenario = InfectionScenario.load(args.scenario)
    build = _stack_builder(args, model, scenario.graph)
    targets = [t for t in sorted(scenario.chains) if len(scenario.chains[t]) > 1]
    if args.max_targets is not None:
        targets = targets[: args.max_targets]
    walks_per_target = {
        t: _run_search(args, build(t, target_class=1), "amp-ave", args.topk).positive
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


def _cmd_bench(args) -> int:
    rows = []
    for m in (int(x) for x in args.m_values.split(",")):
        graph = random_graph(m, args.hidden, min(4.0 / max(m - 1, 1), 1.0),
                             np.random.default_rng(args.seed))

        def stack_of_depth(l):
            model = init_model([args.hidden] * (l + 1), 2, seed=args.seed)
            return _stack_builder(args, model, graph)(0)

        for l in (int(x) for x in args.l_values.split(",")):
            stack = stack_of_depth(l)
            for method in args.methods.split(","):
                sub_l = l
                if method in ("amp-ave", "emp-neu"):
                    fn = lambda: _run_search(args, stack, method, args.topk)
                elif method == "exhaustive-node":
                    # beyond the budget, time the enumeration of a budget-sized
                    # sub-problem and scale by the walk-count ratio
                    while m ** (sub_l + 1) > args.budget and sub_l > 1:
                        sub_l -= 1
                    sub_stack = stack if sub_l == l else stack_of_depth(sub_l)
                    fn = lambda: exhaustive_topk_node(sub_stack, args.topk, budget=args.budget)
                elif method == "exhaustive-neuron":
                    fn = lambda: exhaustive_topk_neuron(stack, args.topk, budget=args.budget)
                else:
                    raise ParameterError(f"unknown bench method {method!r}")
                median, var = time_callable(fn, args.repetitions)
                rows.append({
                    "method": method, "M": m, "L": l, "K": args.topk,
                    "seconds": median * m ** (l - sub_l),
                    "repetitions": args.repetitions, "variance": var,
                    "estimated": "estimated from partial computation" if sub_l < l else "",
                })
    csv_text = bench_rows_to_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        sys.stdout.write(csv_text)
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
    except BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParameterError, ShapeError, ModelFormatError, TrainingError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
