"""The package defines only what it or the benchmark runs.

A public function or class that only tests call belongs in the tests
(`oracles.py`, `conftest.py`); a name nothing calls is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heteroadapt"


def _trees(directory: Path) -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(directory.glob("*.py"))}


def _referenced(tree: ast.Module) -> set[str]:
    """Every name the module reads, looks up as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_definition_is_used_by_the_package_or_benchmark():
    package = _trees(PACKAGE)
    used = set()
    for tree in [*package.values(), *_trees(ROOT / "benchmarks").values()]:
        used |= _referenced(tree)
    unused = [
        f"{path.stem}.{node.name}"
        for path, tree in package.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in used
    ]
    assert not unused, unused



def test_no_module_reads_another_modules_private_names():
    """A leading underscore keeps a name inside its module: a sibling that
    reads it (as `numerics._name` or `from .numerics import _name`) shows
    the name lives in the wrong module."""
    package = _trees(PACKAGE)
    modules = {path.stem for path in package}

    def private(name: str) -> bool:
        return name.startswith("_") and not name.startswith("__")

    reads = []
    for path, tree in package.items():
        siblings = modules - {path.stem}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings and private(node.attr)):
                reads.append(f"{path.stem} -> {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.level and node.module in siblings:
                reads += [f"{path.stem} -> {node.module}.{a.name}"
                          for a in node.names if private(a.name)]
    assert not reads, reads
