"""The package computes exactly: no float enters src/eventorsion, nor the
reference helpers in tests/reference.py that the acceptance criteria check
the package against.

Walks the syntax tree of every module and fails on a float literal (which
also covers `** 0.5`), a call to `float`, or math's floating-point roots,
logarithms and exponentials.

The oracle stays an independent check on the classifier: the syntax tree
of oracle.py may import, of the package, only `curve` and `intmath`.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "eventorsion"
MODULES = [*sorted(SRC.glob("*.py")), TESTS / "reference.py"]
FLOAT_MATH = ("sqrt", "exp", "log")


def float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr.startswith(FLOAT_MATH)
        ):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                (node.lineno, f"from math import {a.name}")
                for a in node.names
                if a.name.startswith(FLOAT_MATH)
            ]
    return found


def test_modules_found():
    assert SRC / "intmath.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floats(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert float_uses(tree) == [], path.name


@pytest.mark.parametrize(
    "source",
    ["x = 0.5", "y = x ** 0.5", "float(x)", "math.sqrt(x)", "math.log2(x)",
     "math.exp(x)", "from math import log10", "z = 1j"],
)
def test_detects(source):
    assert float_uses(ast.parse(source))


@pytest.mark.parametrize(
    "source",
    ["math.isqrt(x)", "math.gcd(a, b)", "Fraction(1, 2)", "x // 2", "x ** 2", "s = 'sqrt'"],
)
def test_allows_exact(source):
    assert not float_uses(ast.parse(source))


ORACLE_DEPENDENCIES = {"curve", "intmath"}


def package_imports(tree: ast.AST) -> set[str]:
    """The eventorsion modules that a package module imports from, by a
    relative import or by the package's name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module is not None:
                package, _, module = node.module.partition(".")
                if package != "eventorsion":
                    continue
            elif node.level == 1:
                module = node.module or ""
            else:
                continue
            if module:
                found.add(module.partition(".")[0])
            else:
                found |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            for a in node.names:
                package, _, module = a.name.partition(".")
                if package == "eventorsion":
                    found.add(module.partition(".")[0] or package)
    return found


def test_oracle_imports_only_curve_and_intmath():
    path = SRC / "oracle.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert package_imports(tree) <= ORACLE_DEPENDENCIES


@pytest.mark.parametrize(
    "source,modules",
    [("from .classifier import CASES", {"classifier"}),
     ("from . import curve as _curve, family", {"curve", "family"}),
     ("from eventorsion.corpus import CorpusRecord", {"corpus"}),
     ("from eventorsion import cli", {"cli"}),
     ("import eventorsion.classifier as c", {"classifier"}),
     ("import eventorsion", {"eventorsion"}),
     ("import math\nfrom typing import Iterable", set())],
)
def test_detects_package_imports(source, modules):
    assert package_imports(ast.parse(source)) == modules
