"""Every name a module of the package imports is used in that module,
only the CLI and the domain-file module write files or standard output,
and only ``scalars`` takes the lcm of denominators."""

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


# the one writer of reports and the domain-file format
WRITERS = {"cli.py", "domainfile.py"}
OUTPUT_CALLS = {"open", "print", "write_text", "write_bytes"}


def called_name(node):
    """The name a call node calls, ``f`` for both ``f(...)`` and ``m.f(...)``."""
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def output_uses(tree) -> list:
    """Lines that call open, print, write_text or write_bytes, or touch
    sys.stdout."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if called_name(node) in OUTPUT_CALLS:
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "stdout"
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"
        ):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name not in WRITERS], ids=lambda p: p.name
)
def test_only_the_cli_writes_output(path):
    lines = output_uses(ast.parse(path.read_text()))
    assert not lines, f"{path.name} writes output on lines {lines}; return it to the CLI"


def test_output_use_is_found():
    tree = ast.parse(
        "import sys\nprint(1)\nopen('a')\npath.write_text('')\nPath(p).write_bytes(b'')\n"
        "sys.stdout.write('')\nf(sys.stdout)\nstdout = 1\nlog.info('')\n"
    )
    assert output_uses(tree) == [2, 3, 4, 5, 6, 7]


def lcm_calls(tree) -> list:
    """Lines that call ``lcm`` or ``<module>.lcm``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and called_name(node) == "lcm"
    )


# the integer form of exact rationals is one decision, scalars.integer_form
@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "scalars.py"], ids=lambda p: p.name
)
def test_only_scalars_takes_an_lcm(path):
    lines = lcm_calls(ast.parse(path.read_text()))
    assert not lines, f"{path.name} calls lcm on lines {lines}; use scalars.integer_form"


def test_lcm_call_is_found():
    tree = ast.parse(
        "import math\nfrom math import lcm\nmath.lcm(2, 3)\nlcm(*xs)\nf(lcm)\nx.lcm_of(1)\n"
    )
    assert lcm_calls(tree) == [3, 4]
