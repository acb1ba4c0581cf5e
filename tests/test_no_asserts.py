"""Certificates must raise a typed ColorLieError: an `assert` vanishes under
`python -O`, and an AssertionError is not a domain error. No module of the
package contains either.

Results must not depend on a seed: no module imports `random`."""
import ast
from pathlib import Path

import pytest

import colorlie

PACKAGE = Path(colorlie.__file__).parent
CHECKED = sorted(path.name for path in PACKAGE.glob("*.py"))


def _asserts(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


@pytest.mark.parametrize("module", CHECKED)
def test_no_asserts(module):
    path = PACKAGE / module
    found = sorted(_asserts(ast.parse(path.read_text(), filename=str(path))))
    assert not found, f"{module}: " + ", ".join(f"line {n}: {k}" for n, k in found)


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


@pytest.mark.parametrize("module", CHECKED)
def test_no_random(module):
    path = PACKAGE / module
    found = [name for name in _imports(ast.parse(path.read_text(), filename=str(path)))
             if name.split(".")[0] == "random"]
    assert not found, f"{module} imports {found}"
