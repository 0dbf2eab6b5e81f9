"""Exactness lint: no floating point anywhere in the package source.

Every check holds to the last rational coefficient, so the source must not
contain a float literal, a float() conversion, or a math function that returns
a float.  Wall-clock timing through time.perf_counter is allowed: it is
reported, never computed with.
"""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "dunkl_hermite").glob("*.py"))
EXACT_MATH = {"comb", "factorial", "gcd", "lcm"}


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{where}: float() call")
        elif isinstance(node, ast.Import) and any(alias.name == "math" for alias in node.names):
            found.append(f"{where}: import math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(f"{where}: math.{alias.name}" for alias in node.names if alias.name not in EXACT_MATH)
    return found


def test_the_package_has_sources():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_has_no_floating_point(path):
    assert float_uses(ast.parse(path.read_text(), str(path))) == [], path.name


@pytest.mark.parametrize("snippet", ["x = 0.5", "y = 1e-9", "z = float(3)", "import math",
                                     "from math import sqrt", "from math import comb, pi"])
def test_the_lint_sees_each_kind_of_float(snippet):
    assert float_uses(ast.parse(snippet))


def test_exact_code_passes_the_lint():
    assert float_uses(ast.parse("from math import comb, gcd\nfrom fractions import Fraction\n"
                                "x: float = Fraction(1, 2) * comb(4, 2)\nt = time.perf_counter()")) == []
