"""Layer bench: the wall time of each CLI command and of the imports below it,
interpreter start included, and whether the command loaded numpy.

Run from the root of a checkout:

    python bench/layers.py --repeat 9 --output BENCH.json
    python bench/layers.py --tree parent=../parent --tree change=.

Each ``--tree LABEL=DIR`` names a checkout whose ``src/`` the children
import (default: this checkout, labelled ``checkout``).  Every item runs
``--repeat`` times in fresh interpreters, the trees taking turns, and the
JSON written records the median, minimum and maximum in ms per tree and
item, with the git revision of each tree and the Python and numpy
versions.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy

MODEL = ["--omega0", "1.5", "--delta0", "0.1", "--total-length", "25"]
ACC = ["--omega0", "5", "--delta0", "1", "--tol", "1e-8"]

# label: the code a fresh interpreter runs with python -c
IMPORTS = {
    "python -c pass": "pass",
    "import numpy": "import numpy",
    "import sta_coupler.cli": "import sta_coupler.cli",
}


def commands(work: Path) -> dict[str, tuple[list[str], int]]:
    """The commands of perfbench's cli_session, on fixed inputs in work."""
    (work / "sweep.json").write_text(json.dumps({"sweep": {
        "axis_x": "omega0:0:5:4", "axis_y": "delta0:0:5:4", "total_length": 10.0,
        "sta": True, "tol": 1e-6, "metric": "final_i2"}}))
    (work / "bad.json").write_text(json.dumps({"simulate": {"omega0": 1.5, "steps": 100}}))
    out = str(work / "out")
    return {
        "simulate --sta": (["simulate", *MODEL, "--sta", "--output", out], 0),
        "profile": (["profile", *MODEL, "--sta", "--samples", "400", "--output", out], 0),
        "check": (["check", *MODEL, "--sta", "--samples", "1000", "--output", out], 0),
        "splitter --sta": (["splitter", *MODEL, "--sta", "--format", "json", "--output", out], 0),
        "sweep --sta json": (["sweep", "--config", str(work / "sweep.json"), "--format", "json",
                              "--output", out], 0),
        "sweep --no-sta csv": (["sweep", "--axis-x", "omega0:0:5:4", "--axis-y", "delta0:0:5:4",
                                "--total-length", "10", "--no-sta", "--tol", "1e-6",
                                "--output", out], 0),
        "threshold --no-sta": (["threshold", *ACC, "--no-sta", "--target", "0.99"], 0),
        "threshold --sta": (["threshold", *ACC, "--sta", "--target", "0.92"], 0),
        "threshold --sta unreached": (["threshold", *ACC, "--sta", "--target", "0.99"], 3),
        "rejected config": (["simulate", "--config", str(work / "bad.json")], 2),
    }


def git_revision(tree: Path) -> dict:
    def git(*args: str) -> str:
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else ""
    return {"commit": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def child_argv(item: str, cmds: dict) -> list[str]:
    if item in IMPORTS:
        return [sys.executable, "-c", IMPORTS[item]]
    return [sys.executable, "-m", "sta_coupler.cli", *cmds[item][0]]


def loads_numpy(item: str, cmds: dict, env: dict) -> bool:
    """Whether the item, run once more in a fresh interpreter, imports numpy."""
    if item in IMPORTS:
        script = IMPORTS[item]
    else:
        script = ("import contextlib, io\nfrom sta_coupler.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()), "
                  "contextlib.redirect_stderr(io.StringIO()):\n"
                  f"    main({cmds[item][0]!r})\n")
    probe = script + "\nimport sys\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{item}: {proc.stderr.strip()[-300:]}")
    return proc.stdout.split()[-1] == "True"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=9, help="fresh interpreters per item")
    parser.add_argument("--tree", action="append", metavar="LABEL=DIR",
                        help="a checkout to measure (repeatable; default this one)")
    parser.add_argument("--output", default="-", help="JSON path ('-' for stdout)")
    args = parser.parse_args()
    trees = dict(spec.split("=", 1) for spec in args.tree or
                 [f"checkout={Path(__file__).resolve().parents[1]}"])
    envs = {label: dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
            for label, tree in trees.items()}
    with tempfile.TemporaryDirectory() as work:
        cmds = commands(Path(work))
        items = [*IMPORTS, *cmds]
        times = {label: {item: [] for item in items} for label in trees}
        for _ in range(args.repeat):
            for label, env in envs.items():  # the trees take turns
                for item in items:
                    start = perf_counter()
                    proc = subprocess.run(child_argv(item, cmds), env=env, cwd=work,
                                          capture_output=True, text=True)
                    times[label][item].append(1e3 * (perf_counter() - start))
                    expected = cmds[item][1] if item in cmds else 0
                    if proc.returncode != expected:
                        raise RuntimeError(f"{label} {item}: exit {proc.returncode}, expected "
                                           f"{expected}: {proc.stderr.strip()[-300:]}")
        result = {
            "script": "bench/layers.py",
            "repeat": args.repeat,
            "machine": {"system": platform.system(), "machine": platform.machine(),
                        "cpus": os.cpu_count()},
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "trees": {label: {
                "git": git_revision(Path(trees[label])),
                "items_ms": {item: {
                    "median": round(statistics.median(times[label][item]), 2),
                    "min": round(min(times[label][item]), 2),
                    "max": round(max(times[label][item]), 2),
                    "numpy_loaded": loads_numpy(item, cmds, envs[label]),
                } for item in items},
            } for label in trees},
        }
    text = json.dumps(result, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
