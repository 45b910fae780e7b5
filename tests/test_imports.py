"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    p for p in (Path(__file__).resolve().parents[1] / "src" / "echcap").glob("*.py")
    if p.name != "__init__.py"  # re-exports names it does not use
)


def imported_names(tree) -> dict:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree) -> set:
    """Names read anywhere, in string annotations too."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef)):
            annotation = node.annotation if isinstance(node, ast.arg) else node.returns
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in used_names(tree)
    }
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_unused_import_is_found():
    tree = ast.parse("import os\nfrom math import pi, tau\nfrom x import y as z\nprint(tau)\n")
    names = imported_names(tree)
    assert names == {"os": 1, "pi": 2, "tau": 2, "z": 3}
    assert set(names) - used_names(tree) == {"os", "pi", "z"}
