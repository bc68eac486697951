"""tests/identity_digest.py still runs against the library: its reduced
grid prints one sha256 per group, the same on every run."""

import os
import re
import subprocess
import sys
from pathlib import Path

import relwalk

SCRIPT = Path(__file__).resolve().parent / "identity_digest.py"
GROUPS = ["infection", "random", "scale", "gen", "training", "cli"]


def run_digest() -> dict[str, str]:
    # the child imports the same relwalk as this process, installed or not
    src = str(Path(relwalk.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(SCRIPT), "--quick"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[a-z]+ [0-9a-f]{64}", line) for line in lines), lines
    return dict(line.split() for line in lines)


def test_reduced_grid_prints_one_digest_per_group():
    digests = run_digest()
    assert list(digests) == GROUPS
    assert len(set(digests.values())) == len(GROUPS)
    assert run_digest() == digests
