"""Source hygiene of the package, checked with the standard library's ast.

No module imports a name it never uses, and every private top-level
function is referenced from somewhere other than its own body.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cantorval"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in MODULES}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def referenced_names(nodes) -> set[str]:
    """Names loaded, attributes read and names imported anywhere below the nodes."""
    out = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_unused_imports(name):
    tree = TREES[name]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(
        f"{bound} (line {line})" for bound, line in imported_names(tree).items() if bound not in used
    )
    assert unused == [], f"{name} imports names it never uses: {unused}"


@pytest.mark.parametrize("name", sorted(TREES))
def test_private_functions_are_referenced(name):
    private = [
        node
        for node in TREES[name].body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    ]
    dead = []
    for fn in private:
        # every statement of every module except the function's own definition
        others = [stmt for tree in TREES.values() for stmt in tree.body if stmt is not fn]
        if fn.name not in referenced_names(others):
            dead.append(f"{fn.name} (line {fn.lineno})")
    assert dead == [], f"{name} defines private functions nothing references: {dead}"
