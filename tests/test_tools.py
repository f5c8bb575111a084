"""The repository's own tools."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_same_bytes_finds_a_tree_equal_to_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_bytes.py"), str(ROOT), str(ROOT),
         "--seeds", "0", "--workloads", "fit-val"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "fit-val 0 same\n", "")


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


def test_each_mutant_names_a_test_that_exists():
    mutants = load_mutants()
    for mutant in mutants.MUTANTS:
        path, *_, test = mutant.killed_by.split("::")
        assert f"def {test.split('[')[0]}(" in (ROOT / path).read_text(), mutant.name


def test_mutants_kills_one_mutant_with_one_test_file():
    mutants = load_mutants()
    (mutant,) = (m for m in mutants.MUTANTS if m.name == "softmax-no-shift")
    assert not mutants.run_in_copy(mutant, ["tests/test_metrics.py"])


def test_a_mutant_only_a_property_test_kills_is_reported_killed():
    # A failing Hypothesis test must be a plain pytest failure (exit 1), not
    # an INTERNALERROR (exit 3) that run_in_copy raises on.
    mutants = load_mutants()
    (mutant,) = (m for m in mutants.MUTANTS if m.name == "jsd-midpoint-order")
    assert not mutants.run_in_copy(mutant, ["tests/test_property_based.py::test_jsd_symmetric_and_bounded"])
