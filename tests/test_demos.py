"""The demos README points to, and its library quick start, run to
completion with their defaults."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def run_demo(name, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py"])
    module.main()
    return capsys.readouterr().out


def test_explain_motif_demo(monkeypatch, capsys):
    out = run_demo("explain_motif", monkeypatch, capsys)
    assert re.search(r"^train acc \d\.\d{3}, test acc \d\.\d{3}$", out, re.M)
    assert len(re.findall(r"^  nodes \(.*\)  neurons \(.*\)  R = ", out, re.M)) == 5
    assert len(re.findall(r"^  nodes \([\d, ]+\)  R = \+.*\((motif|base)\)$", out, re.M)) == 5
    assert len(re.findall(r"^  precision@5 vs oracle top-(5|10): \d\.\d\d$", out, re.M)) == 2
    assert re.search(r"mean cosine -?\d\.\d{3}$", out, re.M)


def test_infection_walks_demo(monkeypatch, capsys):
    out = run_demo("infection_walks", monkeypatch, capsys)
    recall = re.search(r"^chain recall@5: padded (\S+), subsequence (\S+) over (\d+) targets$",
                       out, re.M)
    assert recall and int(recall[3]) > 0
    assert all(0.0 <= float(recall[i]) <= 1.0 for i in (1, 2))
    assert re.search(r"^example: node \d+, true chain \[", out, re.M)
    assert len(re.findall(r"^  walk \([\d, ]+\)  R = ", out, re.M)) == 3


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    exec(block.split("```", 1)[0], {})
    walks = capsys.readouterr().out.splitlines()
    assert 1 <= len(walks) <= 5
    assert all(re.fullmatch(r"\([\d, ]+\) \S+", w) for w in walks)
