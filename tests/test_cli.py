"""Command-line interface: exit codes, file formats, and output contracts."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relwalk
from relwalk import cli
from relwalk.cli import EXIT_BUDGET, EXIT_OK, EXIT_VALIDATION, build_parser, main
from relwalk.datasets import CYCLE_EDGES, HOUSE_EDGES, InfectionScenario, motif_edges
from relwalk.graphs import _read_json, graph_from_dict, load_graph, load_model, save_model
from relwalk.training import init_model


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


def graph_bits(graph):
    """A graph's CSR arrays, features and label as bytes, to compare bit for bit."""
    label = np.asarray(graph.label)
    return [a.tobytes() for a in graph.csr + (graph.features, label)] + [label.dtype.str]


@pytest.mark.parametrize("args", [["ba2motif", "--n", "4"],
                                  ["ba2motif", "--n", "4", "--normalize"],
                                  ["infection", "--m", "40", "--steps", "2"]],
                         ids=["ba2motif", "ba2motif-normalize", "infection"])
def test_generated_files_read_the_same_through_both_parsers(tmp_path, args):
    # every file gen writes: through the package's reader (orjson) and
    # through the stdlib parser alone
    out = tmp_path / ("scenario.json" if args[0] == "infection" else "data")
    assert main(["gen", *args, "--out", str(out), "--seed", "2"]) == EXIT_OK
    if args[0] == "infection":
        ours = InfectionScenario.load(out)
        stdlib = InfectionScenario.from_dict(json.loads(out.read_text()))
        assert graph_bits(ours.graph) == graph_bits(stdlib.graph)
        assert ours.labels.tobytes() == stdlib.labels.tobytes()
        assert (ours.carriers, ours.chains) == (stdlib.carriers, stdlib.chains)
        return
    manifest = out / "manifest.json"
    assert _read_json(manifest) == json.loads(manifest.read_text())
    for name in json.loads(manifest.read_text())["files"]:
        path = out / name
        assert graph_bits(load_graph(path)) == graph_bits(
            graph_from_dict(json.loads(path.read_text())))


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


def test_train_lr_schedule_is_an_unknown_flag(tmp_path, capsys):
    # the learning rate always decays; there is no schedule to choose
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.json"),
              "--lr-schedule", "decay"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --lr-schedule" in capsys.readouterr().err


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


@pytest.mark.parametrize("label", [None, [0, 1], {"a": 1}, 1.5],
                         ids=["null", "list", "object", "float"])
def test_train_malformed_graph_label_exit_2(ba_dir, tmp_path, capsys, label):
    data, out = tmp_path / "data", tmp_path / "m.json"
    data.mkdir()
    for f in ba_dir.iterdir():
        (data / f.name).write_text(f.read_text())
    graph = json.loads((data / "graph_0002.json").read_text())
    graph["label"] = label
    (data / "graph_0002.json").write_text(json.dumps(graph))
    capsys.readouterr()
    code = main(["train", "--data", str(data), "--epochs", "1", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "graphs[2]: a graph-task label" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("label", [None, [[0]] * 25, [1.7] * 25],
                         ids=["null", "column", "float"])
def test_train_malformed_node_labels_exit_2(infection_files, tmp_path, capsys, label):
    scenario, _ = infection_files
    data = json.loads(scenario.read_text())
    data["graph"]["label"] = label
    bad, out = tmp_path / "scenario.json", tmp_path / "m.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["train", "--data", str(bad), "--epochs", "1", "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "graphs[0]: a node-task label" in capsys.readouterr().err
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


def test_explain_num_nodes_beyond_the_features_exit_2(model_file, tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"num_nodes": 2 ** 62, "features": [[1.0] * 5],
                                 "edges": []}))
    code = main(["explain", "--model", str(model_file), "--graph", str(graph)])
    assert code == EXIT_VALIDATION
    assert "num_nodes" in capsys.readouterr().err


def test_explain_num_nodes_beyond_float_range_exit_2(model_file, tmp_path, capsys):
    # the stdlib reads 1e400 as inf, which no integer holds
    graph = tmp_path / "graph.json"
    graph.write_text('{"num_nodes": 1e400, "features": [[1.0, 1.0, 1.0, 1.0, 1.0]], '
                     '"edges": []}')
    code = main(["explain", "--model", str(model_file), "--graph", str(graph)])
    assert code == EXIT_VALIDATION
    assert "num_nodes: not an integer" in capsys.readouterr().err


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


def test_explain_feature_beyond_float_range_exit_2(model_file, tmp_path, capsys):
    # 1e400 is no double: orjson refuses the file and the stdlib reads inf
    text = json.dumps({"num_nodes": 2, "features": [[0.0] * 5] * 2, "edges": [[0, 1]]})
    graph = tmp_path / "graph.json"
    graph.write_text(text.replace("0.0", "1e400", 1))
    code = main(["explain", "--model", str(model_file), "--graph", str(graph)])
    assert code == EXIT_VALIDATION
    assert "finite" in capsys.readouterr().err


HUGE = "1" + "0" * 400      # an integer literal beyond float range


@pytest.mark.parametrize("field", ["features", "dense", "w", "w2", "head"])
def test_explain_number_beyond_float_range_exit_2(ba_dir, model_file, tmp_path, capsys, field):
    # orjson refuses the file and the stdlib reads the literal as a Python int
    graph = json.loads((ba_dir / "graph_0000.json").read_text())
    graph["dense"] = load_graph(ba_dir / "graph_0000.json").adjacency.tolist()
    graph.pop("edges", None)
    model = json.loads(model_file.read_text())
    layer = model["layers"][-1]
    layer["w2"] = np.eye(len(layer["w"][0])).tolist()
    matrix = {"features": graph["features"], "dense": graph["dense"], "w": layer["w"],
              "w2": layer["w2"], "head": model["readout"]["head"]}[field]
    matrix[0][0] = "HUGE"
    files = {"graph": tmp_path / "graph.json", "model": tmp_path / "model.json"}
    for name, data in (("graph", graph), ("model", model)):
        files[name].write_text(json.dumps(data).replace('"HUGE"', HUGE))
    code = main(["explain", "--model", str(files["model"]), "--graph", str(files["graph"])])
    assert code == EXIT_VALIDATION
    assert f"{field}: not a numeric matrix" in capsys.readouterr().err


@pytest.mark.parametrize("text, path", [
    ('{"layers": [{"w": [[]]}]}', "layers[0].w"),
    ('{"layers": [{"w": [[1.0], [1.0], [1.0], [1.0], [1.0]], "w2": [[]]}]}', "layers[0].w2"),
    ('{"layers": [{"w": [[1.0, 1.0]]}], "readout": {"head": [[], []]}}', "readout.head")],
    ids=["w", "w2", "head"])
def test_explain_zero_width_weight_exit_2(ba_dir, tmp_path, capsys, text, path):
    model = tmp_path / "model.json"
    model.write_text(text)
    code = main(["explain", "--model", str(model), "--graph", str(ba_dir / "graph_0000.json")])
    assert code == EXIT_VALIDATION
    assert f"{path}: every dimension must be >= 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("method", ["amp-ave", "emp-neu"])
def test_explain_overflowing_model_exit_2(ba_dir, model_file, tmp_path, capsys, method):
    # weights this large overflow the forward pass to inf and NaN
    data = json.loads(model_file.read_text())
    for layer in data["layers"]:
        layer["w"] = (np.asarray(layer["w"]) * 1e155).tolist()
    big = tmp_path / "big.json"
    big.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["explain", "--model", str(big), "--graph", str(ba_dir / "graph_0000.json"),
                 "--method", method])
    assert code == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and "non-finite activations" in err


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


@pytest.mark.parametrize("base_size", [8, 30])
def test_eval_edge_recall_reads_the_motif_from_the_graph(tmp_path, capsys, base_size):
    # the motif is the last five nodes at any base size: 12 directed edges
    # for the house, 10 for the cycle, and no base edge among them
    data, model_path = tmp_path / "ba", tmp_path / "model.json"
    assert main(["gen", "ba2motif", "--n", "6", "--base-size", str(base_size), "--normalize",
                 "--out", str(data)]) == EXIT_OK
    assert main(["train", "--data", str(data), "--layers", "2", "--hidden", "4",
                 "--epochs", "60", "--out", str(model_path)]) == EXIT_OK
    model = load_model(model_path)
    for name, motif in [("graph_0000.json", HOUSE_EDGES), ("graph_0001.json", CYCLE_EDGES)]:
        graph = load_graph(data / name)
        truth = {(base_size + u, base_size + v) for a, b in motif for u, v in ((a, b), (b, a))}
        assert motif_edges(graph) == truth
        capsys.readouterr()
        assert main(["eval", "edge-recall", "--model", str(model_path),
                     "--graph", str(data / name)]) == EXIT_OK
        walks = relwalk.amp_ave_topk(
            relwalk.Explainer(model, graph, relwalk.parse_gamma("linear:3", 2)).stack(), 20,
            max_k_tilde=cli.DEFAULT_ENUM_BUDGET).positive
        curve = relwalk.edge_recall(relwalk.walks_to_edge_scores(walks), truth)
        assert capsys.readouterr().out.splitlines() == ["cutoff,recall"] + [
            f"{cutoff},{recall}" for cutoff, recall in enumerate(curve, 1)]


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


def test_eval_infection_recall_counts_a_chain_longer_than_the_walk_as_a_miss(tmp_path,
                                                                            capsys):
    # 5 SI steps give target 4 the chain [0, 11, 14, 4]; a 2-layer model's
    # walks have 3 nodes
    scenario, model = tmp_path / "scenario.json", tmp_path / "model.json"
    assert main(["gen", "infection", "--m", "60", "--steps", "5", "--lam", "0.9",
                 "--carrier-frac", "0.05", "--out", str(scenario), "--seed", "0"]) == EXIT_OK
    assert InfectionScenario.load(scenario).chains[4] == [0, 11, 14, 4]
    assert main(["train", "--data", str(scenario), "--layers", "2", "--hidden", "4",
                 "--epochs", "30", "--lr", "0.2", "--out", str(model)]) == EXIT_OK
    capsys.readouterr()
    code = main(["eval", "infection-recall", "--model", str(model),
                 "--scenario", str(scenario), "--topk", "3", "--max-targets", "4"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["targets"] == 4
    assert report["recall_padded"] <= 0.75 and report["recall_subsequence"] <= 0.75


def test_eval_infection_recall_refuses_a_graph_task_model(tmp_path, capsys):
    # a graph-task model would read each target node index as a class index
    scenario, model = tmp_path / "scenario.json", tmp_path / "model.json"
    assert main(["gen", "infection", "--m", "30", "--steps", "2",
                 "--out", str(scenario), "--seed", "1"]) == EXIT_OK
    save_model(init_model([2, 4, 4], 2), model)
    capsys.readouterr()
    code = main(["eval", "infection-recall", "--model", str(model),
                 "--scenario", str(scenario), "--max-targets", "1"])
    assert code == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and "target_class" in err


@pytest.mark.parametrize("max_targets", ["0", "-1"])
def test_eval_infection_recall_max_targets_below_one_exit_2(infection_files, max_targets,
                                                            capsys):
    scenario, model = infection_files
    capsys.readouterr()
    code = main(["eval", "infection-recall", "--model", str(model),
                 "--scenario", str(scenario), "--max-targets", max_targets])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


def test_eval_infection_recall_lambda_beyond_float_range_exit_2(infection_files, tmp_path,
                                                                capsys):
    scenario, model = infection_files
    data = json.loads(scenario.read_text())
    data["lambda"] = "HUGE"
    bad = tmp_path / "scenario.json"
    bad.write_text(json.dumps(data).replace('"HUGE"', HUGE))
    capsys.readouterr()
    code = main(["eval", "infection-recall", "--model", str(model), "--scenario", str(bad)])
    assert code == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == "" and "'lambda'" in err


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
    assert lines[0] == "method,M,L,K,seconds,repetitions,variance"
    assert lines[1].startswith("amp-ave,8,2,")


def test_bench_csv_contract(monkeypatch, capsys):
    # rows are written with str(float) and LF line ends
    timings = iter([(0.001, 1e-8), (120.0, 0.5)])
    monkeypatch.setattr(cli, "time_callable", lambda fn, repetitions: next(timings))
    code = main(["bench", "--methods", "amp-ave,exhaustive-node", "--m-values", "8",
                 "--l-values", "2", "--hidden", "3", "--repetitions", "5"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ("method,M,L,K,seconds,repetitions,variance\n"
                                       "amp-ave,8,2,1,0.001,5,1e-08\n"
                                       "exhaustive-node,8,2,1,120.0,5,0.5\n")


def test_bench_keeps_the_rows_timed_before_a_refusal(tmp_path, capsys):
    # exhaustive-node at M=40, L=2 meets 40**3 = 64,000 node walks against
    # a budget of 10,000; the five cells before it were timed
    argv = ["bench", "--methods", "amp-ave,exhaustive-node", "--m-values", "5,40",
            "--l-values", "2,3", "--repetitions", "1", "--hidden", "3", "--budget", "10000"]
    cells = [["amp-ave", "5", "2"], ["exhaustive-node", "5", "2"], ["amp-ave", "5", "3"],
             ["exhaustive-node", "5", "3"], ["amp-ave", "40", "2"]]
    out = tmp_path / "bench.csv"
    assert main(argv) == EXIT_BUDGET
    assert main(argv + ["--out", str(out)]) == EXIT_BUDGET
    for text in (capsys.readouterr().out, out.read_bytes().decode()):
        lines = text.split("\n")
        assert lines[0] == "method,M,L,K,seconds,repetitions,variance"
        assert [line.split(",")[:3] for line in lines[1:-1]] == cells
        assert lines[-1] == "" and "\r" not in text


def test_bench_exhaustive_node_honours_budget(capsys):
    # 8**4 = 4,096 node walks against a budget of 100
    code = main(["bench", "--methods", "exhaustive-node", "--m-values", "8",
                 "--l-values", "3", "--repetitions", "1", "--hidden", "3",
                 "--budget", "100"])
    assert code == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == "" and "4096 node walks exceed" in captured.err


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
    assert row.startswith("exhaustive-node,115,3,1,")


def test_bench_unknown_method_exits_2_before_timing_any(monkeypatch, capsys):
    timed = []

    def time_callable(fn, repetitions):
        timed.append(fn)
        return 0.0, 0.0

    monkeypatch.setattr(cli, "time_callable", time_callable)
    code = main(["bench", "--methods", "amp-ave,bogus", "--m-values", "8",
                 "--l-values", "2", "--hidden", "3", "--repetitions", "1"])
    assert code == EXIT_VALIDATION
    assert timed == []
    captured = capsys.readouterr()
    assert captured.out == "" and "'bogus'" in captured.err


@pytest.mark.parametrize("method", ["amp-ave", "emp-neu", "exhaustive-node",
                                    "exhaustive-neuron"])
@pytest.mark.parametrize("flag, value", [("--m-values", "0"), ("--m-values", "-3"),
                                         ("--m-values", "4,0"), ("--l-values", "0")])
def test_bench_sizes_below_one_exit_2_naming_the_flag(method, flag, value, capsys):
    # a graph with no nodes, or a model with no step, has no walk to search
    args = {"--m-values": "4", "--l-values": "2", flag: value}
    code = main(["bench", "--methods", method, "--hidden", "3", "--repetitions", "1",
                 *(x for item in args.items() for x in item)])
    assert code == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err


# -- allocations the machine refuses ------------------------------------------------


# a dense M x M draw at M = 10**9 asks for 8e18 bytes (6.94 EiB), more than
# any 64-bit address space maps, so the allocation fails before it starts
@pytest.mark.parametrize("argv", [["gen", "infection", "--m", "1000000000"],
                                  ["bench", "--methods", "amp-ave",
                                   "--m-values", "1000000000", "--repetitions", "1"]],
                         ids=["gen-infection", "bench"])
def test_allocation_refused_by_the_machine_exits_3(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main(argv + ["--out", str(out)])
    assert code == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("budget refusal: ")
    assert not out.exists()


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
                + [("eval colsim", "--budget 10"), ("eval edge-recall", "--base-size 20")])


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
