"""Run one benchmark workload in this process and print its metrics.

Started by ``run.py`` in a fresh process per workload, with the BLAS
thread count pinned in the environment and ``src`` on the import path,
so peak memory is the workload's own.  Prints a human-readable report,
writes the full result (and, when traced, the spans) under
``.perfbench/`` in the checkout, and ends with one JSON line: the
end-to-end metrics when untraced, the per-layer metrics when traced.

    python3 perfbench/bench.py --workload amp-scale --seed 0 --seconds 30 --trace 0 \
        --outdir .perfbench
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import relwalk
from relwalk import (
    GammaSchedule,
    amp_ave_topk,
    build_message_table,
    build_node_message_table,
    build_propagation,
    emp_neu_topk,
    forward,
    load_graph,
    predicted_target,
)

from checks import Tally, check_explanation, self_test, self_test_passed
from tracing import Recorder, durations, self_times
from workloads import WORKLOADS

GAMMA = 3.0                 # the CLI's default schedule, linear:3
TAIL_BEYOND = 10            # the tail percentile keeps this many samples above it
MEASURE_LIMIT_S = 90.0      # no explanation starts later; keeps a run under 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COMPUTED = "computed from array sizes"

# module, table builder, search for each method
SEARCHES = {
    "emp": ("empneu", build_message_table, emp_neu_topk),
    "amp": ("ampave", build_node_message_table, amp_ave_topk),
}

BENCHMARK_FILE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")
# Every per-layer metric, in report order; the JSON line carries the ones
# BENCHMARK.json declares.
PER_LAYER = (
    "graphs.forward.s", "graphs.load_graph.s", "propagation.build_propagation.s",
    "propagation.materialized_bytes", "empneu.build_message_table.s", "empneu.table_bytes",
    "ampave.build_node_message_table.s", "ampave.objective_bytes",
    "ampave.split.s", "ampave.k_tilde", "ampave.subsets_created", "ampave.negatives_skipped",
    "ampave.exhausted", "ampave.positive_per_extraction",
    "empneu.split.s", "empneu.k_tilde", "empneu.subsets_created", "empneu.argmax_ops",
    "empneu.positive_per_extraction",
    "training.train.s", "datasets.gen.s", "oracle.exhaustive_topk_node.s",
    "trace.overhead_s",
)


def explain(task, rec):
    """One explanation, from loading or forward through the search.

    Traced explanations also build the search's message table separately
    on the same stack, so the splitting time can be derived as search
    minus table, and the table's bytes computed from its arrays.
    """
    module, build_table, search = SEARCHES[task.method]
    table_bytes = 0
    with rec.span(f"explain.{task.method}"):
        graph = task.graph
        if graph is None:
            with rec.span("graphs.load_graph"):
                graph = load_graph(task.graph_path)
        with rec.span("graphs.forward"):
            acts = forward(task.model, graph)
        target = predicted_target(task.model, acts) if task.target is None else task.target
        schedule = GammaSchedule.linear_decay(GAMMA, task.model.num_steps)
        with rec.span("propagation.build_propagation"):
            stack = build_propagation(task.model, graph, acts, schedule, target,
                                      target_class=task.target_class)
        if rec.enabled:
            with rec.span(f"{module}.{build_table.__name__}"):
                table = build_table(stack)
            arrays = table.objective if task.method == "amp" else (
                table.factors + table.mu + table.step)
            table_bytes = sum(a.nbytes for a in arrays)
            del table
        with rec.span(f"{module}.{search.__name__}"):
            result = search(stack, task.k, max_k_tilde=task.max_k_tilde)
    return stack, result, table_bytes


def attempt(task, rec, tally):
    """Explain and check one task: (stack, result, table_bytes, seconds), or None if it raised.

    Only the explanation is timed; the checks run after the clock stops.
    """
    rec.request = task.key
    try:
        t0 = time.perf_counter()
        stack, result, table_bytes = explain(task, rec)
        seconds = time.perf_counter() - t0
        tally.record(task.key, check_explanation(stack, result, task.k))
    except Exception:
        tally.record_error(task.key)
        return None
    finally:
        rec.request = None
    return stack, result, table_bytes, seconds


def counters(task, stack, result, table_bytes) -> dict:
    """Work counts of one explanation; byte counts are computed from array sizes."""
    positives = len(result.positive)
    return {
        "method": task.method,
        "k_tilde": result.k_tilde,
        "subsets_created": result.subsets_created,
        "negatives_skipped": result.k_tilde - positives,
        "exhausted": int(result.exhausted),
        "positives": positives,
        "argmax_ops": getattr(result, "argmax_ops", 0),
        "materialized_bytes": sum(t.nbytes for t in stack.materialized or ()),
        "table_bytes": table_bytes,
    }


def run_sweep(workload, rec, tally, first: bool, trace: bool, deadline: float) -> dict:
    """Explain every task once, stopping early (incomplete) at the deadline.

    With tracing, each task is explained untraced and then traced, so the
    tracing overhead is the difference between the two in one process.
    The first sweep also feeds the workload's quality oracle.
    """
    sweep = {"latencies": {}, "traced_seconds": 0.0, "records": [], "complete": True}
    mark = rec.mark()
    for task in workload.tasks:
        if time.perf_counter() > deadline:
            sweep["complete"] = False
            break
        done = attempt(task, rec, tally)
        if done is None:
            continue
        # unpack and drop the tuple, so that no reference keeps this
        # explanation's arrays alive while the next one runs
        stack, result, table_bytes, seconds = done
        del done
        sweep["latencies"][task.key] = (task.method, seconds)
        if trace:
            del stack, result
            rec.enabled = True
            done = attempt(task, rec, tally)
            if done is None:
                rec.enabled = False
                continue
            stack, result, table_bytes, traced = done
            del done
            sweep["traced_seconds"] += traced
        if first:
            workload.observe(task, stack, result, rec)
        rec.enabled = False
        sweep["records"].append(counters(task, stack, result, table_bytes))
        del stack, result
    sweep["seconds"] = sum(seconds for _, seconds in sweep["latencies"].values())
    sweep["spans"] = rec.spans[mark:]
    return sweep


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it, and its value.

    With TAIL_BEYOND samples or fewer no percentile qualifies; the
    maximum is reported as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "relwalk": relwalk.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


def end_to_end_metrics(sweeps, setup_times, tally, quality) -> dict:
    """name -> (value, unit, note); value None when it could not be measured."""
    complete = [s for s in sweeps if s["complete"]]
    per_pass = len(complete[0]["latencies"]) if complete else 0
    report = {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} setups"),
        "sweep_s": (statistics.median(s["seconds"] for s in complete), "s",
                    f"median of {len(complete)} passes, {per_pass} explanations each")
        if complete else (None, "s", f"no pass completed within {MEASURE_LIMIT_S:g} s"),
    }
    # An explanation's latency is the median of its repeats; percentiles are
    # taken over distinct explanations, so they describe the workload's
    # requests and not how often each one repeated.
    repeats: dict[str, tuple[str, list[float]]] = {}
    for sweep in sweeps:
        for key, (method, seconds) in sweep["latencies"].items():
            repeats.setdefault(key, (method, []))[1].append(seconds)
    timed = sum(len(xs) for _, xs in repeats.values())
    for method in ("emp", "amp"):
        lat = [statistics.median(xs) for m, xs in repeats.values() if m == method]
        if lat:
            pct, value = tail(lat)
            n = f"n={len(lat)} explanations, median of repeats"
            report[f"{method}_explain_s.p50"] = (statistics.median(lat), "s", n)
            report[f"{method}_explain_s.tail"] = (value, "s", f"p{pct:.2f}, {n}")
    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "MiB", "ru_maxrss of the workload process")
    report.update(quality)
    report["failed_frac"] = (tally.failed_frac, "ratio",
                             f"{tally.failed} of {tally.attempted} explanations, {timed} timed")
    return report


def layer_metrics(sweeps, setups, spans) -> dict:
    """Per-layer metrics from the traced explanations and setups.

    Times are busy (self) seconds per pass, median over passes; a split
    time is derived as search-call time minus the separately timed table
    build.  Counts are per pass and repeat exactly; bytes are the largest
    single structure of that kind, computed from array sizes.  A layer
    that does not run on the workload reports 0.
    """
    measured = [s for s in sweeps if s["complete"]] or sweeps
    selfs = [self_times(s["spans"]) for s in measured]
    setup_selfs = [self_times(spans) for spans in setups]

    def busy(name, source=selfs):
        return statistics.median(d.get(name, 0.0) for d in source)

    def split(module, table_name, search):
        return statistics.median(
            sum(durations(s["spans"], f"{module}.{search}"))
            - sum(durations(s["spans"], f"{module}.{table_name}"))
            for s in measured)

    recs = measured[0]["records"]
    out = {
        "graphs.forward.s": (busy("graphs.forward"), "s"),
        "graphs.load_graph.s": (busy("graphs.load_graph"), "s"),
        "propagation.build_propagation.s": (busy("propagation.build_propagation"), "s"),
        "propagation.materialized_bytes": (
            max((r["materialized_bytes"] for r in recs), default=0), "bytes", COMPUTED),
        "training.train.s": (busy("training.train", setup_selfs), "s"),
        "datasets.gen.s": (busy("datasets.gen", setup_selfs), "s"),
        "oracle.exhaustive_topk_node.s": (sum(durations(spans, "oracle.exhaustive_topk_node")),
                                          "s", "verification only, whole run"),
        "trace.overhead_s": (statistics.median(s["traced_seconds"] - s["seconds"]
                                               for s in measured), "s",
                             "traced minus untraced seconds per pass"),
    }
    for method, (module, build_table, search) in SEARCHES.items():
        table_name = build_table.__name__
        mine = [r for r in recs if r["method"] == method]
        extracted = sum(r["k_tilde"] for r in mine)
        out[f"{module}.{table_name}.s"] = (busy(f"{module}.{table_name}"), "s")
        out[f"{module}.split.s"] = (
            split(module, table_name, search.__name__) if mine else 0.0, "s",
            "derived: search call minus a separately timed table build")
        for name in ("k_tilde", "subsets_created", "negatives_skipped", "exhausted",
                     "argmax_ops"):
            out[f"{module}.{name}"] = (sum(r[name] for r in mine), "count")
        out[f"{module}.positive_per_extraction"] = (
            sum(r["positives"] for r in mine) / extracted if extracted else 0.0, "ratio")
        # EMP-neu's table holds |T| per step; AMP-ave's bytes are its objective matrices
        table_bytes = "table_bytes" if method == "emp" else "objective_bytes"
        out[f"{module}.{table_bytes}"] = (max((r["table_bytes"] for r in mine), default=0),
                                          "bytes", COMPUTED)
    return {name: out[name] for name in PER_LAYER}


def run(workload_name: str, seed: int, seconds: float, trace: bool, outdir: str) -> int:
    env = environment(seed)
    print(f"workload {workload_name}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print("env " + json.dumps(env))
    check = self_test()
    caught = self_test_passed(check)
    print(f"self-test: perturbed relevance {'caught' if caught else 'NOT caught'} "
          f"(failed_frac {check.failed_frac:.3f}, {check.failed} of {check.attempted})")

    workload = WORKLOADS[workload_name](seed, outdir)
    rec = Recorder(enabled=trace)
    tally = Tally()
    setup_times, setup_spans = [], []
    try:
        for _ in range(workload.SETUP_REPEATS):
            mark = rec.mark()
            t0 = time.perf_counter()
            with rec.span("setup"):
                workload.setup(rec)
            setup_times.append(time.perf_counter() - t0)
            setup_spans.append(rec.spans[mark:])
        rec.enabled = False

        # Passes repeat until the next one would overrun the measuring time.
        sweeps = []
        start = time.perf_counter()
        while True:
            sweep = run_sweep(workload, rec, tally, first=not sweeps, trace=trace,
                              deadline=start + MEASURE_LIMIT_S)
            sweeps.append(sweep)
            elapsed = time.perf_counter() - start
            if not sweep["complete"] or elapsed * (len(sweeps) + 1) / len(sweeps) > seconds:
                break
        quality = workload.quality()
    finally:
        workload.cleanup()

    if trace:
        shown = layer_metrics(sweeps, setup_spans, rec.spans)
    else:
        shown = end_to_end_metrics(sweeps, setup_times, tally, quality)
    with open(BENCHMARK_FILE) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    for name, (value, unit, *note) in shown.items():
        print(f"  {name:36s} {value!r:>24} {unit:6s} {note[0] if note else ''}")
    if trace:
        print("  self time per span name, seconds, whole run:")
        for name, value in sorted(self_times(rec.spans).items(), key=lambda kv: -kv[1]):
            print(f"    {name:40s} {value:.6f}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")

    tag = f"{workload_name}-seed{seed}-trace{int(trace)}"
    with open(os.path.join(outdir, f"result-{tag}.json"), "w") as fh:
        json.dump({
            "workload": workload_name,
            "env": env,
            "self_test": {"caught": caught, "attempted": check.attempted,
                          "failed": check.failed},
            "metrics": {k: {"value": v[0], "unit": v[1], "note": v[2] if len(v) > 2 else ""}
                        for k, v in shown.items()},
            "attempted": tally.attempted,
            "failed": tally.failed,
            "problems": tally.problems,
        }, fh, indent=1)
    if trace:
        rec.write(os.path.join(outdir, f"trace-{tag}.json"))

    print(json.dumps({
        "correct": caught and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": shown[m["name"]][0], "unit": shown[m["name"]][1]}
                    for m in declared},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--outdir", required=True)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.outdir)


if __name__ == "__main__":
    sys.exit(main())
