"""The package's import order: each module imports only the ones below it.

errors sits at the bottom, then embed, then the modules built on embed.
The checkpoint format (fileio) needs only the types evidence defines, so
it depends on neither the trainer nor the ranking code.  cli and __init__
sit on top and may import anything.
"""

import ast
import importlib
from pathlib import Path

import protouq

SRC = Path(protouq.__file__).parent

MAY_IMPORT = {
    "errors": set(),
    "embed": {"errors"},
    "evidence": {"embed", "errors"},
    "synth": {"embed", "errors"},
    "metrics": {"embed", "errors"},
    "train": {"embed", "errors", "evidence"},
    "rerank": {"embed", "errors", "evidence", "metrics"},
    "fileio": {"embed", "errors", "evidence"},
}
FREE = {"cli", "__init__"}


def relative_imports(path):
    """Every module named by a `from .x import ...` (or `from . import x`)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_each_module_imports_only_the_layers_below_it():
    modules = {path.stem: path for path in SRC.glob("*.py")}
    assert set(modules) == set(MAY_IMPORT) | FREE
    imports = {name: relative_imports(path) for name, path in modules.items() if name not in FREE}
    assert {name: found - MAY_IMPORT[name] for name, found in imports.items()} == {
        name: set() for name in MAY_IMPORT
    }


def test_checkpoint_types_are_defined_once_in_evidence():
    # protouq.train is the training function, so fetch the modules by name.
    evidence, rerank, train = (
        importlib.import_module(f"protouq.{name}") for name in ("evidence", "rerank", "train")
    )
    assert train.PrototypeBank is evidence.PrototypeBank is protouq.PrototypeBank
    assert rerank.RerankParams is evidence.RerankParams is protouq.RerankParams
    assert evidence.PrototypeBank.__module__ == evidence.RerankParams.__module__ == "protouq.evidence"
