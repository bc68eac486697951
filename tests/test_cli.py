"""Command-line interface: exit codes, file formats, and output contracts."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import relwalk
from relwalk import cli
from relwalk.cli import EXIT_BUDGET, EXIT_OK, EXIT_VALIDATION, build_parser, main
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


def test_gen_ba2motif_defaults_to_degree_features(tmp_path):
    # all-ones features give a bias-free model nothing to learn from
    assert main(["gen", "ba2motif", "--n", "2", "--out", str(tmp_path)]) == EXIT_OK
    assert json.loads((tmp_path / "manifest.json").read_text())["features"] == "degree"
    assert load_graph(tmp_path / "graph_0000.json").features.shape[1] > 1


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


def test_gen_infection_single_node_exit_2(tmp_path):
    code = main(["gen", "infection", "--m", "1", "--out", str(tmp_path / "s.json")])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("flags", [["--steps", "-1"], ["--mean-out-degree", "-1"],
                                   ["--mean-out-degree", "nan"]])
def test_gen_infection_negative_steps_or_degree_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "s.json"
    assert main(["gen", "infection", "--m", "10", *flags, "--out", str(out)]) == EXIT_VALIDATION
    assert "must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_gen_ba2motif_no_graphs_exit_2(tmp_path):
    code = main(["gen", "ba2motif", "--n", "0", "--out", str(tmp_path / "ba")])
    assert code == EXIT_VALIDATION


def test_gen_rejects_explanation_flags(tmp_path):
    # gen and train take --seed only; --gamma and --budget belong to the
    # explanation subcommands
    with pytest.raises(SystemExit) as exc:
        main(["gen", "infection", "--m", "10", "--out", str(tmp_path / "s.json"),
              "--gamma", "const:1"])
    assert exc.value.code == 2


# -- train --------------------------------------------------------------------------


def test_train_writes_loadable_model(model_file):
    model = load_model(model_file)
    assert model.num_steps == 2
    assert model.readout.task == "graph"


def test_train_missing_data_exit_2(tmp_path):
    code = main(["train", "--data", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "m.json")])
    assert code == EXIT_VALIDATION


def test_train_empty_dataset_exit_2(tmp_path):
    data = tmp_path / "empty"
    data.mkdir()
    (data / "manifest.json").write_text(json.dumps({"dataset": "ba2motif", "files": []}))
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json")])
    assert code == EXIT_VALIDATION
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("epochs", [1, 3])
def test_train_divergence_exit_2(tmp_path, capsys, epochs):
    # at 1 epoch only the weights diverge, at 3 the loss does too
    data, out = tmp_path / "ba", tmp_path / "m.json"
    assert main(["gen", "ba2motif", "--n", "10", "--out", str(data)]) == EXIT_OK
    code = main(["train", "--data", str(data), "--epochs", str(epochs), "--lr", "1e308",
                 "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "error: non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "bench"])
def test_width_below_one_exit_2(ba_dir, tmp_path, capsys, command):
    out = tmp_path / "m.json"
    argv = {"train": ["train", "--data", str(ba_dir), "--epochs", "1", "--out", str(out)],
            "bench": ["bench", "--methods", "amp-ave", "--m-values", "8", "--l-values", "2",
                      "--repetitions", "1"]}[command]
    assert main(argv + ["--hidden", "0"]) == EXIT_VALIDATION
    assert "dimension must be >= 1" in capsys.readouterr().err
    assert not out.exists()


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


def test_explain_report_abs_needs_emp_neu(ba_dir, model_file, capsys):
    code = main(["explain", "--model", str(model_file),
                 "--graph", str(ba_dir / "graph_0000.json"),
                 "--method", "amp-ave", "--report-abs"])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


def test_explain_malformed_edge_list_exit_2(model_file, tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"num_nodes": 2, "features": [[1.0] * 5] * 2,
                                 "edges": [[0]]}))
    code = main(["explain", "--model", str(model_file), "--graph", str(graph)])
    assert code == EXIT_VALIDATION
    assert "edges" in capsys.readouterr().err


@pytest.mark.parametrize("kind, text", [
    ("model", "5"), ("model", '{"layers": [5]}'),
    ("model", '{"layers": [{"w": [[1.0]]}], "readout": 3}'), ("graph", "5"),
    ("model", '{"layers": [{"w": [[-Infinity]]}]}')],
    ids=["model-number", "layer-number", "readout-number", "graph-number",
         "non-finite-weight"])
def test_explain_malformed_model_or_graph_file_exit_2(ba_dir, model_file, tmp_path, capsys,
                                                      kind, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    model = bad if kind == "model" else model_file
    graph = bad if kind == "graph" else ba_dir / "graph_0000.json"
    code = main(["explain", "--model", str(model), "--graph", str(graph)])
    assert code == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("features", "NaN"), ("features", "Infinity"),
                                          ("dense", "NaN"), ("dense", "Infinity")])
def test_explain_non_finite_graph_input_exit_2(ba_dir, model_file, tmp_path, capsys,
                                               field, value):
    # a NaN or infinite feature or Lambda entry in an otherwise valid file
    data = json.loads((ba_dir / "graph_0000.json").read_text())
    data["dense"] = load_graph(ba_dir / "graph_0000.json").adjacency.tolist()
    data.pop("edges", None)
    data[field][0][0] = "VALUE"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data).replace('"VALUE"', value))
    code = main(["explain", "--model", str(model_file), "--graph", str(bad)])
    assert code == EXIT_VALIDATION
    assert "finite" in capsys.readouterr().err


def test_explain_gamma_flag_changes_output(ba_dir, model_file, capsys):
    outputs = []
    for gamma in ("const:0.2", "const:5"):
        code = main(["explain", "--model", str(model_file),
                     "--graph", str(ba_dir / "graph_0003.json"),
                     "--topk", "4", "--gamma", gamma])
        assert code == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("method", ["amp-ave", "emp-neu"])
@pytest.mark.parametrize("gamma", ["const:nan", "const:inf", "linear:nan"])
def test_explain_non_finite_gamma_exit_2(ba_dir, model_file, capsys, method, gamma):
    code = main(["explain", "--model", str(model_file),
                 "--graph", str(ba_dir / "graph_0000.json"),
                 "--method", method, "--gamma", gamma])
    assert code == EXIT_VALIDATION
    assert "non-finite" in capsys.readouterr().err


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


@pytest.mark.parametrize("flags", [["--kstars", "0"], ["--ks", "1,-1"]])
def test_eval_pr_k_below_one_exit_2(ba_dir, model_file, flags, capsys):
    code = main(["eval", "pr", "--model", str(model_file),
                 "--graph", str(ba_dir / "graph_0000.json"), *flags])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


def test_eval_pr_k_below_one_exit_2_before_enumeration(ba_dir, model_file, capsys):
    # a budget of 10 would refuse the enumeration with exit 3; the K* check
    # comes first
    code = main(["eval", "pr", "--model", str(model_file),
                 "--graph", str(ba_dir / "graph_0000.json"),
                 "--kstars", "0", "--budget", "10"])
    assert code == EXIT_VALIDATION
    assert "kstars" in capsys.readouterr().err


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


@pytest.fixture(scope="module")
def infection_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("infection")
    scenario, model = out / "scenario.json", out / "model.json"
    assert main(["gen", "infection", "--m", "25", "--steps", "2",
                 "--lam", "0.8", "--carrier-frac", "0.1",
                 "--out", str(scenario), "--seed", "2"]) == EXIT_OK
    assert main(["train", "--data", str(scenario), "--layers", "2",
                 "--hidden", "4", "--epochs", "40", "--lr", "0.2",
                 "--normalize", "--out", str(model), "--seed", "2"]) == EXIT_OK
    return scenario, model


def test_eval_infection_recall_json(infection_files, capsys):
    scenario, model = infection_files
    capsys.readouterr()
    code = main(["eval", "infection-recall", "--model", str(model),
                 "--scenario", str(scenario), "--topk", "3",
                 "--max-targets", "5"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["recall_padded"] <= 1.0
    assert report["targets"] <= 5


@pytest.mark.parametrize("max_targets", ["0", "-1"])
def test_eval_infection_recall_max_targets_below_one_exit_2(infection_files, max_targets,
                                                            capsys):
    scenario, model = infection_files
    capsys.readouterr()
    code = main(["eval", "infection-recall", "--model", str(model),
                 "--scenario", str(scenario), "--max-targets", max_targets])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["eval", "train"])
def test_scenario_missing_key_exit_2(infection_files, tmp_path, capsys, command):
    scenario, model = infection_files
    data = json.loads(scenario.read_text())
    del data["chains"]
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps(data))
    argv = {"eval": ["eval", "infection-recall", "--model", str(model), "--scenario", str(bad)],
            "train": ["train", "--data", str(bad), "--out", str(tmp_path / "m.json")]}
    capsys.readouterr()
    assert main(argv[command]) == EXIT_VALIDATION
    assert "chains" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("chains", []), ("chains", {"3": 3}), ("chains", {"x": [0]}), ("carriers", "0"),
    ("carriers", [True]), ("carriers", [99]), ("labels", {}), ("labels", [1, 0])])
def test_scenario_key_of_wrong_type_exit_2(infection_files, tmp_path, capsys, key, value):
    scenario, _ = infection_files
    data = json.loads(scenario.read_text())
    data[key] = value
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["train", "--data", str(bad), "--out", str(tmp_path / "m.json")])
    assert code == EXIT_VALIDATION
    assert key in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("manifest", [{"dataset": "ba2motif"}, {"files": "graph_0000.json"},
                                      {"files": [0]}, ["graph_0000.json"]])
def test_train_manifest_without_a_file_list_exit_2(ba_dir, tmp_path, capsys, manifest):
    data = tmp_path / "data"
    data.mkdir()
    (data / "graph_0000.json").write_text((ba_dir / "graph_0000.json").read_text())
    (data / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json")])
    assert code == EXIT_VALIDATION
    assert "files" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


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


def test_bench_exhaustive_neuron_honours_budget(capsys):
    # 8**4 * 3**4 = 331,776 neuron walks against a budget of 100
    code = main(["bench", "--methods", "exhaustive-neuron", "--m-values", "8",
                 "--l-values", "3", "--hidden", "3", "--repetitions", "1",
                 "--budget", "100"])
    assert code == EXIT_BUDGET
    assert capsys.readouterr().out == ""


def test_bench_exhaustive_node_receives_budget(monkeypatch, capsys):
    # 115**4 ~ 1.75e8 node walks fit a budget of 2e8 but not the default
    # 1e8; a stand-in oracle records the budget instead of enumerating
    budgets = []

    def oracle(stack, k, budget):
        budgets.append(budget)
        return []

    monkeypatch.setattr(cli, "exhaustive_topk_node", oracle)
    code = main(["bench", "--methods", "exhaustive-node", "--m-values", "115",
                 "--l-values", "3", "--hidden", "3", "--repetitions", "1",
                 "--budget", "200000000"])
    assert code == EXIT_OK
    assert budgets == [200_000_000]
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert row.startswith("exhaustive-node,115,3,1,") and row.endswith(",")


# -- flags ------------------------------------------------------------------------


# subcommand -> its required flags; each declares only the flags its handler reads
COMMANDS = {
    "explain": ["--model", "m", "--graph", "g"],
    "eval pr": ["--model", "m", "--graph", "g"],
    "eval colsim": ["--model", "m", "--graph", "g"],
    "eval infection-recall": ["--model", "m", "--scenario", "s"],
    "eval edge-recall": ["--model", "m", "--graph", "g"],
    "eval positive-ratio": ["--model", "m", "--graph", "g"],
    "bench": [],
}
UNREAD_FLAGS = ([(cmd, "--low-mem") for cmd in COMMANDS]
                + [(cmd, "--seed 1") for cmd in COMMANDS if cmd != "bench"]
                + [("eval colsim", "--budget 10")])


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_subcommand_rejects_flag_it_does_not_read(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*command.split(), *COMMANDS[command], *flag.split()])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _readme_commands() -> list[list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("relwalk ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv in commands:
        build_parser().parse_args(argv[1:])


# -- console entry point --------------------------------------------------------------


def test_console_script_runs():
    # the child imports the same relwalk as this process, installed or not
    src = str(Path(relwalk.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "relwalk.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
