"""Every name a module of the package imports is used in that module,
only the CLI and the domain-file module write files or standard output,
only ``scalars`` takes the lcm of denominators or touches the cyclic
garbage collector, and the capacity lower bound takes one logarithm per
pair, with no Fraction arithmetic per sampled k."""

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


def gc_uses(tree) -> list:
    """Lines that import ``gc`` or anything from it, or read or call
    ``gc.<name>``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "gc"
        ):
            lines.append(node.lineno)
    return sorted(lines)


# pausing the collector is one decision, in scalars.fractions_over
@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "scalars.py"], ids=lambda p: p.name
)
def test_only_scalars_touches_gc(path):
    lines = gc_uses(ast.parse(path.read_text()))
    assert not lines, f"{path.name} uses gc on lines {lines}; leave the collector to scalars"


def test_gc_use_is_found():
    tree = ast.parse(
        "import gc\nimport os, gc as g\nfrom gc import disable\ngc.disable()\n"
        "gc.callbacks.append(f)\ngc_count(1)\nx.gc.collect\nimport gcx\n"
    )
    assert gc_uses(tree) == [1, 2, 3, 4, 5]


def log_calls(func) -> list:
    """(line, inside a loop) of each ``log(...)`` or ``math.log(...)`` call
    in a function definition."""
    in_loop = {id(node) for node in loop_bodies(func)}
    return sorted(
        (node.lineno, id(node) in in_loop)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and called_name(node) == "log"
    )


def loop_bodies(func) -> list:
    """Every node run once per iteration of a loop in ``func``: the bodies
    of its for and while loops, a while loop's test, and the element and
    conditions of its comprehensions; not what a loop iterates over."""
    nodes = []
    for loop in ast.walk(func):
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            parts = loop.body
        elif isinstance(loop, ast.While):
            parts = [loop.test, *loop.body]
        elif isinstance(loop, ast.DictComp):
            parts = [loop.key, loop.value, *(c for gen in loop.generators for c in gen.ifs)]
        elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            parts = [loop.elt, *(c for gen in loop.generators for c in gen.ifs)]
        else:
            continue
        nodes.extend(node for part in parts for node in ast.walk(part))
    return nodes


def per_iteration_arithmetic(func) -> list:
    """Lines inside a loop of ``func`` that call ``Fraction`` or ``log`` or
    divide with ``/``."""
    return sorted(
        {
            node.lineno
            for node in loop_bodies(func)
            if isinstance(node, ast.Call) and called_name(node) in {"Fraction", "log"}
            or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        }
    )


def function(tree, name):
    return next(
        node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name
    )


# the capacity ratios compare in integers; the one logarithm is the seam
# where a directed rounding goes
def test_capacity_lower_bound_takes_one_logarithm():
    path = Path(__file__).resolve().parents[1] / "src" / "echcap" / "distance.py"
    func = function(ast.parse(path.read_text()), "capacity_lower_bound")
    logs = log_calls(func)
    assert len(logs) == 1 and not logs[0][1], f"capacity_lower_bound logs at {logs}"
    lines = per_iteration_arithmetic(func)
    assert not lines, f"capacity_lower_bound divides, logs or builds Fractions per k on {lines}"


def test_per_iteration_arithmetic_is_found():
    tree = ast.parse(
        "def f(xs, n):\n"
        "    t = math.log(n / 2)\n"
        "    for x in xs:\n"
        "        t = max(t, math.log(x))\n"
        "    while n > 1 / t:\n"
        "        n //= 2\n"
        "        n /= 3\n"
        "    ys = [Fraction(x, n) for x in range(n // 2) if x / n]\n"
        "    for x in sorted(y / 2 for y in xs):\n"
        "        pass\n"
        "    return log(t)\n"
    )
    func = function(tree, "f")
    assert log_calls(func) == [(2, False), (4, True), (11, False)]
    assert per_iteration_arithmetic(func) == [4, 5, 7, 8, 9]
