"""Check that two source trees give the same bytes on the benchmark workloads.

Usage (from the repository root):

    python tools/same_bytes.py PARENT_TREE CHANGE_TREE [--seeds 0,1,2,9001,9002,9003]
                                                       [--workloads fit-val,eval-large]

For each workload and seed, the workload's set-up and pipeline commands
(perfbench/workloads.py) run as `python -m protouq.cli` against each tree's
src/, in a fresh temporary directory per tree, with one BLAS thread and no
bytecode written.  Each command's exit code, stdout and stderr, and the
SHA-256 of every file left behind, must match.  One line per case is
printed, `WORKLOAD SEED same` or `WORKLOAD SEED DIFF` and what differs; the
exit code is 1 if any case differs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from run import CHILD_THREADS  # noqa: E402
from workloads import WORKLOADS, command_name  # noqa: E402

DEFAULT_SEEDS = "0,1,2,9001,9002,9003"


def run_case(tree: Path, workload, seed: int) -> tuple[list, dict]:
    """Every command's (name, exit code, stdout, stderr) and {file: sha256}."""
    env = {**os.environ, **CHILD_THREADS, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(tree / "src")}
    commands = [workload.setup_argv(seed), *workload.pipeline_argv(seed)]
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as workdir:
        outcomes = []
        for i, argv in enumerate(commands):
            proc = subprocess.run(
                [sys.executable, "-m", "protouq.cli", *argv], cwd=workdir, env=env,
                stdin=subprocess.DEVNULL, capture_output=True,
            )
            outcomes.append((f"#{i} {command_name(argv)}", proc.returncode, proc.stdout, proc.stderr))
        files = {
            str(path.relative_to(workdir)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(workdir).rglob("*"))
            if path.is_file()
        }
    return outcomes, files


def differences(parent, change) -> list[str]:
    (p_out, p_files), (c_out, c_files) = parent, change
    found = []
    for (name, *p_rest), (_, *c_rest) in zip(p_out, c_out):
        found += [
            f"{name}: {what}"
            for what, p, c in zip(("exit code", "stdout", "stderr"), p_rest, c_rest)
            if p != c
        ]
    found += [
        f"{name}: sha256"
        for name in sorted(p_files.keys() | c_files.keys())
        if p_files.get(name) != c_files.get(name)
    ]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="parent source tree (holds src/protouq)")
    parser.add_argument("change", type=Path, help="changed source tree (holds src/protouq)")
    parser.add_argument("--seeds", default=DEFAULT_SEEDS, help="comma list of workload seeds")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma list of workload names")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")
    any_diff = False
    for name in names:
        for seed in map(int, args.seeds.split(",")):
            found = differences(*(run_case(tree.resolve(), WORKLOADS[name], seed)
                                  for tree in (args.parent, args.change)))
            any_diff |= bool(found)
            print(f"{name} {seed} " + ("DIFF " + "; ".join(found) if found else "same"), flush=True)
    return 1 if any_diff else 0


if __name__ == "__main__":
    sys.exit(main())
