"""relwalk explanation benchmark: one command for all workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py                                  # all workloads, untraced
    python3 perfbench/run.py --workload motif-desk --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload amp-scale --trace 1   # per-layer metrics

Each workload runs in its own Python process (``bench.py``) with the
checkout's ``src`` on the import path and the BLAS thread count pinned,
so that all load comes from one process and peak memory is per workload.
With one workload the last line of output is that workload's JSON
result; with ``--workload all`` it is a JSON object holding all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("motif-desk", "infection-node", "amp-scale")
BLAS_THREADS = 1            # pinned; no larger than nproc
CHILD_TIMEOUT_S = 175       # one run must end within 180 s
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_workload(name: str, seed: int, seconds: float, trace: int, outdir: Path) -> dict | None:
    """Run one workload in a child process; relay its output; return its JSON result."""
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--outdir", str(outdir)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed the child and waited for it
        print(f"error: workload {name} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="relwalk explanation benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "relwalk" / "__init__.py").is_file():
        print(f"error: no relwalk sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    outdir = ROOT / ".perfbench"
    outdir.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, outdir)
        if result is None:
            return 1
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
