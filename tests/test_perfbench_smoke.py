"""The benchmark still runs against the library: a short amp-scale run,
untraced and traced, an import of the workloads module, and a shortened
infection-node setup, which trains, with a few of its explanations, and
explanations of a GIN model through perfbench's explain and checks.
perfbench reads library members that no other code calls, so a change
that removed one would otherwise break the benchmark without failing a
test."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_module_imports(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    assert "amp-scale" in module.WORKLOADS


@pytest.mark.parametrize("trace, names", [(0, "end_to_end"), (1, "per_layer")])
def test_amp_scale_runs_and_reports_every_declared_metric(trace, names):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "amp-scale",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, lines[-1]
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    for metric in DECLARED[names]:
        assert metric["name"] in printed, metric["name"]
        assert metric["name"] in result["metrics"], metric["name"]


@pytest.fixture
def perfbench_modules(monkeypatch):
    """perfbench's modules, imported as bench.py imports its siblings: by
    bare name from the perfbench directory; they leave sys.modules after
    the test."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("workloads", "bench", "checks", "tracing")
    yield [importlib.import_module(name) for name in names]
    for name in names:
        sys.modules.pop(name, None)


def test_infection_node_setup_trains_and_its_explanations_pass_the_checks(
        perfbench_modules, monkeypatch, tmp_path):
    workloads, bench, checks, tracing = perfbench_modules
    monkeypatch.setattr(workloads.InfectionNode, "SCENARIOS", 1)
    monkeypatch.setattr(workloads.InfectionNode, "EPOCHS", 5)
    workload = workloads.InfectionNode(0, str(tmp_path))
    rec = tracing.Recorder()
    workload.setup(rec)
    tally = checks.Tally()
    for task in workload.tasks[:4]:
        assert bench.attempt(task, rec, tally) is not None
    assert (tally.attempted, tally.failed) == (4, 0), tally.problems


@pytest.mark.parametrize("method", ["amp", "emp"])
def test_explanations_of_a_gin_model_pass_the_checks(perfbench_modules, monkeypatch, method):
    # every perfbench workload explains GCN models; a GIN model's node-local
    # steps mix over a Lam = I graph, which only this test sends through
    # perfbench's explain and checks
    from relwalk import init_model, random_graph

    workloads, bench, checks, tracing = perfbench_modules
    recomputed = []

    def counted(oracle):
        def recompute(stack, *walk):
            recomputed.append(walk)
            return oracle(stack, *walk)
        return recompute

    for name in ("node_walk_relevance", "neuron_walk_relevance"):
        monkeypatch.setattr(checks, name, counted(getattr(checks, name)))
    graph = random_graph(7, 3, 0.4, np.random.default_rng(2))
    model = init_model([3, 3, 3], 2, task="node", seed=2, gin=True)   # 0 and 1 leave AMP-ave no walk
    assert not all(step.uses_adjacency for step in model.steps)
    tally = checks.Tally()
    positives = 0
    for target in range(graph.num_nodes):
        task = workloads.Task(f"gin-{method}-{target}", method, model, 5, 200,
                              graph=graph, target=target)
        done = bench.attempt(task, tracing.Recorder(), tally)
        assert done is not None, tally.problems
        positives += len(done[1].positive)
    assert (tally.attempted, tally.failed) == (graph.num_nodes, 0), tally.problems
    assert positives > 0 and len(recomputed) == positives
