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
