"""Command-line interface: exit codes, file formats, and output contracts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relwalk
from relwalk.cli import EXIT_BUDGET, EXIT_OK, EXIT_VALIDATION, main
from relwalk.graphs import load_graph, load_model


@pytest.fixture(scope="module")
def ba_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ba")
    code = main(["gen", "ba2motif", "--n", "6", "--features", "degree",
                 "--normalize", "--out", str(out), "--seed", "1"])
    assert code == EXIT_OK
    return out

@pytest.fixture(scope="module")
def model_file(tmp_path_factory, ba_dir):
    out = tmp_path_factory.mktemp("model") / "model.json"
    code = main(["train", "--data", str(ba_dir), "--layers", "2",
                 "--hidden", "4", "--epochs", "60", "--lr", "0.05",
                 "--out", str(out), "--seed", "1"])
    assert code == EXIT_OK
    return out


# -- gen ----------------------------------------------------------------------------


def test_gen_ba2motif_writes_manifest_and_graphs(ba_dir):
    manifest = json.loads((ba_dir / "manifest.json").read_text())
    assert manifest["n"] == 6
    assert len(manifest["files"]) == 6
    g = load_graph(ba_dir / manifest["files"][0])
    assert g.num_nodes == 25


def test_gen_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen", "ba2motif", "--n", "2", "--out", str(out),
                     "--seed", "7"]) == EXIT_OK
    fa = (a / "graph_0000.json").read_text()
    fb = (b / "graph_0000.json").read_text()
    assert fa == fb


def test_gen_infection_writes_scenario(tmp_path):
    out = tmp_path / "scenario.json"
    code = main(["gen", "infection", "--m", "30", "--steps", "2",
                 "--lam", "0.6", "--carrier-frac", "0.1",
                 "--out", str(out), "--seed", "3"])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert data["lambda"] == 0.6


def test_gen_invalid_parameters_exit_2(tmp_path):
    code = main(["gen", "ba2motif", "--n", "1", "--base-size", "2",
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_VALIDATION
    code = main(["gen", "infection", "--m", "10", "--lam", "1.5",
                 "--out", str(tmp_path / "y")])
    assert code == EXIT_VALIDATION


# -- train --------------------------------------------------------------------------


def test_train_writes_loadable_model(model_file):
    model = load_model(model_file)
    assert model.num_steps == 2
    assert model.readout.task == "graph"


def test_train_missing_data_exit_2(tmp_path):
    code = main(["train", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "m.json")])
    assert code == EXIT_VALIDATION


# -- explain ------------------------------------------------------------------------


def test_explain_emits_walk_records(ba_dir, model_file, tmp_path):
    out = tmp_path / "walks.jsonl"
    code = main(["explain", "--model", str(model_file),
                 "--graph", str(ba_dir / "graph_0000.json"),
                 "--method", "amp-ave", "--topk", "5", "--out", str(out)])
    assert code == EXIT_OK
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    summary = lines[-1]["summary"]
    assert summary["k_tilde"] >= summary["k"]
    for record in lines[:-1]:
        assert len(record["nodes"]) == 3          # L + 1 for a 2-layer model
        assert record["relevance"] > 0


def test_explain_emp_neu_reports_neuron_walks(ba_dir, model_file, capsys):
    code = main(["explain", "--model", str(model_file),
                 "--graph", str(ba_dir / "graph_0001.json"),
                 "--method", "emp-neu", "--topk", "3", "--report-abs"])
    assert code == EXIT_OK
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    walk_records = [l for l in lines if "nodes" in l]
    assert walk_records
    assert all("neurons" in r for r in walk_records)


@pytest.mark.parametrize("method", ["emp-neu", "amp-ave"])
def test_explain_budget_caps_extractions(ba_dir, model_file, capsys, method):
    def summary(*flags):
        code = main(["explain", "--model", str(model_file),
                     "--graph", str(ba_dir / "graph_0001.json"),
                     "--method", method, "--topk", "50", *flags])
        assert code == EXIT_OK
        return json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]

    assert summary()["k_tilde"] > 10
    capped = summary("--budget", "10")
    assert capped["k_tilde"] <= 10 and not capped["exhausted"]


def test_explain_summary_keys_same_for_both_methods(ba_dir, model_file, capsys):
    keys = []
    for method in ("emp-neu", "amp-ave"):
        code = main(["explain", "--model", str(model_file),
                     "--graph", str(ba_dir / "graph_0001.json"),
                     "--method", method, "--topk", "3"])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])["summary"]
        assert summary["negatives_skipped"] == summary["k_tilde"] - summary["k"]
        keys.append(set(summary))
    assert keys[0] == keys[1]


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_explain_budget_below_one_exit_2(ba_dir, model_file, capsys, budget):
    code = main(["explain", "--model", str(model_file),
                 "--graph", str(ba_dir / "graph_0000.json"), "--budget", budget])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


def test_explain_low_mem_matches_default(ba_dir, model_file, capsys):
    outputs = []
    for flag in ([], ["--low-mem"]):
        code = main(["explain", "--model", str(model_file),
                     "--graph", str(ba_dir / "graph_0002.json"),
                     "--topk", "4", *flag])
        assert code == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_explain_gamma_flag_changes_output(ba_dir, model_file, capsys):
    outputs = []
    for gamma in ("const:0.2", "const:5"):
        code = main(["explain", "--model", str(model_file),
                     "--graph", str(ba_dir / "graph_0003.json"),
                     "--topk", "4", "--gamma", gamma])
        assert code == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]


def test_explain_bad_gamma_exit_2(ba_dir, model_file):
    code = main(["explain", "--model", str(model_file),
                 "--graph", str(ba_dir / "graph_0000.json"),
                 "--gamma", "cosine:1"])
    assert code == EXIT_VALIDATION


# -- eval ---------------------------------------------------------------------------


def test_eval_pr_emits_csv(ba_dir, model_file, capsys):
    code = main(["eval", "pr", "--model", str(model_file),
                 "--graph", str(ba_dir / "graph_0000.json"),
                 "--ks", "1,5", "--kstars", "5"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "K,K_star,precision,recall"
    assert len(lines) == 3


def test_eval_pr_tiny_budget_exit_3(ba_dir, model_file):
    code = main(["eval", "pr", "--model", str(model_file),
                 "--graph", str(ba_dir / "graph_0000.json"),
                 "--budget", "10"])
    assert code == EXIT_BUDGET


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_eval_pr_budget_below_one_exit_2(ba_dir, model_file, budget):
    code = main(["eval", "pr", "--model", str(model_file),
                 "--graph", str(ba_dir / "graph_0000.json"), "--budget", budget])
    assert code == EXIT_VALIDATION


def test_eval_colsim_histogram_csv(ba_dir, model_file, capsys):
    code = main(["eval", "colsim", "--model", str(model_file),
                 "--graph", str(ba_dir / "graph_0000.json"), "--bins", "10"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 12                       # 10 bins + header + summary
    assert lines[-1].startswith("# mean=")


def test_eval_positive_ratio_json(ba_dir, model_file, capsys):
    code = main(["eval", "positive-ratio", "--model", str(model_file),
                 "--graph", str(ba_dir / "graph_0000.json"),
                 "--method", "emp-neu", "--topk", "5"])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert 0.0 <= summary["positive_ratio"] <= 1.0
    assert summary["k_tilde"] >= summary["k"]


def test_eval_edge_recall_csv(ba_dir, model_file, capsys):
    code = main(["eval", "edge-recall", "--model", str(model_file),
                 "--graph", str(ba_dir / "graph_0000.json"), "--topk", "10"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "cutoff,recall"
    recalls = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(a <= b for a, b in zip(recalls, recalls[1:]))


def test_eval_infection_recall_json(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    assert main(["gen", "infection", "--m", "25", "--steps", "2",
                 "--lam", "0.8", "--carrier-frac", "0.1",
                 "--out", str(scenario), "--seed", "2"]) == EXIT_OK
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(scenario), "--layers", "2",
                 "--hidden", "4", "--epochs", "40", "--lr", "0.2",
                 "--normalize", "--out", str(model), "--seed", "2"]) == EXIT_OK
    capsys.readouterr()
    code = main(["eval", "infection-recall", "--model", str(model),
                 "--scenario", str(scenario), "--topk", "3",
                 "--max-targets", "5"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["recall_padded"] <= 1.0
    assert report["targets"] <= 5


# -- bench --------------------------------------------------------------------------


def test_bench_csv_columns(capsys):
    code = main(["bench", "--methods", "amp-ave", "--m-values", "8",
                 "--l-values", "2", "--repetitions", "2", "--hidden", "3"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "method,M,L,K,seconds,repetitions,variance,estimated"
    assert lines[1].startswith("amp-ave,8,2,")


def test_bench_estimates_oversized_exhaustive(capsys):
    code = main(["bench", "--methods", "exhaustive-node", "--m-values", "8",
                 "--l-values", "3", "--repetitions", "1", "--hidden", "3",
                 "--budget", "100"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "estimated from partial computation" in out


# -- console entry point --------------------------------------------------------------


def test_console_script_runs():
    # the child imports the same relwalk as this process, installed or not
    src = str(Path(relwalk.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "relwalk.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
