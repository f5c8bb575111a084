"""Check that the test suite kills a fixed table of one-line source mutants.

Usage (from the repository root):

    python tools/mutants.py [--tests PYTEST_ARG ...]

Each mutant in MUTANTS replaces one exact snippet of one file, which must
occur there exactly once, with a mutated form.  The repository is copied
(without .git and caches) into a temporary directory, once unmutated and
once per mutant, and pytest runs in each copy with `-x -q`: over the whole
tier-1 suite, or over the test files or ids given with --tests.  The
unmutated copy must pass.  A mutant is killed when pytest fails on it and
survives when pytest passes.  One line per mutant is printed, `NAME killed`
or `NAME survived`.  The exit code is 1 if any mutant survives, a snippet is
not found exactly once, or the unmutated copy fails.  The repository
itself is never changed: a survivor is a reason to add a test.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    why: str


MUTANTS = (
    Mutant("median-rank-even-n", "src/protouq/metrics.py",
           "mdr=float(sorted_ranks[(n - 1) // 2])", "mdr=float(sorted_ranks[n // 2])",
           "the median rank of an even query count is the lower middle"),
    Mutant("tie-break-le", "src/protouq/metrics.py",
           "tied &= gallery < best_gallery", "tied &= gallery <= best_gallery",
           "only an equal score at a lower gallery index outranks the best positive"),
    Mutant("unstable-removal-sort", "src/protouq/metrics.py",
           'removed = np.argsort(-key, kind="stable")[:r]', "removed = np.argsort(-key)[:r]",
           "equal uncertainties leave in ascending pair order"),
    Mutant("fit-largest-best-beta", "src/protouq/rerank.py",
           "beta1=candidates[int(np.argmax(hits[:n]))], beta2=candidates[int(np.argmax(hits[n:]))]",
           "beta1=candidates[n - 1 - int(np.argmax(hits[:n][::-1]))], "
           "beta2=candidates[n - 1 - int(np.argmax(hits[n:][::-1]))]",
           "each axis takes its smallest best beta"),
    Mutant("skip-pairs-check", "src/protouq/metrics.py",
           "    pairs.check_against(*source.shape)\n", "",
           "rankings reject pairs past the matrix or instances with no pair"),
    Mutant("no-trailing-bytes-check", "src/protouq/fileio.py",
           "if self.pos != self.size:", "if False:",
           "a file with bytes past its declared payload is rejected"),
    Mutant("affine-target-constant", "src/protouq/train.py",
           "return (raw_means + 1.0) / 2.0", "return (raw_means + 0.5) / 2.0",
           "the affine target maps [-1, 1] onto [0, 1]"),
    Mutant("msvd-term", "src/protouq/metrics.py",
           "np.log(n_captions - group * i)", "np.log(n_captions - (group - 1) * i)",
           "draw i must miss the i earlier draws' whole groups"),
    Mutant("softmax-no-shift", "src/protouq/metrics.py",
           "shifted = arr - arr.max()", "shifted = arr",
           "softmax is stable for large logits"),
    Mutant("pearson-no-clamp", "src/protouq/metrics.py",
           "return float(np.clip(np.dot(ac, bc) / math.sqrt(va * vb), -1.0, 1.0))",
           "return float(np.dot(ac, bc) / math.sqrt(va * vb))",
           "rounding cannot put a correlation outside [-1, 1]"),
    Mutant("score-mean-u-5-decimals", "src/protouq/cli.py",
           'f"{u.mean():.6f}"', 'f"{u.mean():.5f}"',
           "the stdout summary line keeps its number formats byte for byte"),
    Mutant("softplus-threshold-lt", "src/protouq/evidence.py",
           "np.where(scaled <= cfg.theta, np.log1p", "np.where(scaled < cfg.theta, np.log1p",
           "softplus holds up to and including gamma * s = theta"),
    Mutant("walk-drops-partial-block", "src/protouq/embed.py",
           "for start in range(0, len(matrix), _ROW_BLOCK)",
           "for start in range(0, len(matrix) - _ROW_BLOCK + 1, _ROW_BLOCK)",
           "the row walk reaches the rows of a partial last block"),
    Mutant("overflow-rows-keep-zero", "src/protouq/train.py",
           "    slope[huge] = k / strength[huge] / strength[huge]\n", "",
           "rows whose S^2 overflows take K / S / S, not K / inf = 0"),
    Mutant("tau-flag-sets-theta", "src/protouq/cli.py",
           'p.add_argument("--tau", type=float', 'p.add_argument("--tau", dest="theta", type=float',
           "each flag's dest is the name of the field it sets"),
    Mutant("weights-no-metavar", "src/protouq/cli.py",
           'dest="ambiguity_weights", metavar="WEIGHTS",', 'dest="ambiguity_weights",',
           "--help keeps the flag spellings users know"),
    Mutant("train-meta-drops-h-mapping", "src/protouq/cli.py",
           'if f.name != "evidence"}', 'if f.name not in ("evidence", "h_mapping")}',
           "train_meta records every TrainConfig field but the evidence config"),
    Mutant("rerank-drops-beta2", "src/protouq/cli.py",
           "params = RerankParams(beta1=beta1, beta2=beta2)", "params = RerankParams(beta1=beta1)",
           "rerank applies the stored or given beta2"),
    Mutant("real-accepts-non-finite", "src/protouq/embed.py",
           "if not (math.isfinite(number) and (number > 0.0 if positive else number >= 0.0)):",
           "if not (number > 0.0 if positive else number >= 0.0):",
           "a real parameter is finite"),
    Mutant("real-keeps-negative-zero", "src/protouq/embed.py",
           "    return number + 0.0\n", "    return number\n",
           "a real parameter of -0.0 is stored as +0.0"),
    Mutant("level-accepts-whole-float", "src/protouq/synth.py",
           '_integer(m, "an ambiguity level"',
           '_integer(int(m) if isinstance(m, float) and m.is_integer() else m, "an ambiguity level"',
           "an ambiguity level follows the integer rule: 2.0 is refused, not taken as 2"),
    Mutant("normalized-no-division", "src/protouq/embed.py",
           "    raw /= norms[:, None]\n", "",
           "an ingested set's rows are divided by their norms before EmbeddingSet checks them"),
    Mutant("csv-lines-end-in-lf", "src/protouq/cli.py",
           'fh.write(",".join(row) + "\\r\\n")', 'fh.write(",".join(row) + "\\n")',
           "every CLI CSV line ends in csv.writer's \\r\\n"),
    Mutant("csv-drops-header", "src/protouq/cli.py",
           "for row in chain((header,), rows):", "for row in rows:",
           "every CLI CSV starts with its header"),
    Mutant("jsd-midpoint-order", "src/protouq/metrics.py",
           "    mid = 0.5 * (a + b)\n", "    mid = a + 0.5 * (b - a)\n",
           "jsd(p, q) == jsd(q, p) bit for bit; only a property test feeds it enough pairs"),
)


def copy_tree(dest: Path) -> Path:
    tree = dest / "repo"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
    return tree


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.snippet)
    if found != 1:
        raise ValueError(f"{mutant.name}: snippet found {found} times in {mutant.path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def tests_pass(tree: Path, tests) -> bool:
    """Whether pytest -x passes in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    if proc.returncode not in (0, 1, 2):  # 1 failed, 2 interrupted (a collection error)
        raise RuntimeError(f"pytest exited {proc.returncode}: bad --tests or no tests collected")
    return proc.returncode == 0


def run_in_copy(mutant: Mutant | None, tests) -> bool:
    with tempfile.TemporaryDirectory(prefix="mutants_") as tmp:
        tree = copy_tree(Path(tmp))
        if mutant is not None:
            apply(tree, mutant)
        return tests_pass(tree, tests)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tests", nargs="+", default=[],
                        help="pytest files or ids to run (default: the whole suite)")
    args = parser.parse_args(argv)
    if not run_in_copy(None, args.tests):
        print("the unmutated copy fails its tests; no mutant was run", flush=True)
        return 1
    failed = False
    for mutant in MUTANTS:
        start = time.perf_counter()
        try:
            survived = run_in_copy(mutant, args.tests)
        except ValueError as exc:
            print(f"{mutant.name} stale: {exc}", flush=True)
            failed = True
            continue
        note = f" (must be killed: {mutant.why})" if survived else ""
        status = "survived" if survived else "killed"
        print(f"{mutant.name} {status} {time.perf_counter() - start:.1f}s{note}", flush=True)
        failed |= survived
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
