"""Packaging: every third-party module the package imports is a declared dependency."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_packages(source: str) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    # "numpy>=1.24" -> "numpy": a distribution named as its module here
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
                for d in project["dependencies"]}
    imported = set()
    for path in (ROOT / "src" / "relwalk").glob("*.py"):
        imported |= imported_packages(path.read_text())
    third_party = imported - set(sys.stdlib_module_names) - {"relwalk"}
    assert third_party, "the scan found no third-party import at all"
    assert third_party <= declared, f"undeclared: {sorted(third_party - declared)}"
