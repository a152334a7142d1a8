"""Source hygiene: every import in the library is used, no contraction pays
for an einsum path search on each call, LU work on the state Jacobian has
one home, ``hovd/oracle.py``, no closure keeps state between calls, and the
library never densifies a tensor.

Package ``__init__.py`` files are exempt from the import check, since their
imports are the re-exported public names.
"""

import ast
from pathlib import Path

import pytest

import ttaction

PACKAGE = Path(ttaction.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.rglob("*.py"))


def unused_imports(source):
    """(line, bound name) for each import whose bound name is never read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


def test_scan_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.zeros(c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def optimized_einsums(source):
    """Line of each ``einsum`` call that passes ``optimize``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum"
        and any(k.arg == "optimize" for k in node.keywords)
    ]


def test_scan_flags_an_optimized_einsum():
    source = (PACKAGE / "core.py").read_text()
    planted = "np.einsum('anb,n->ab', c, v, optimize=True)\n"
    assert optimized_einsums(source + planted) == [source.count("\n") + 1]
    assert optimized_einsums("np.einsum('ij,j->i', a, b)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_optimized_einsum(path):
    assert optimized_einsums(path.read_text()) == []


def factorize_calls(source):
    """Line of each ``.factorize(...)`` call."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "factorize"
    ]


def test_scan_flags_a_factorize_call():
    source = (PACKAGE / "hovd" / "taylor.py").read_text()
    planted = "lu = model.factorize(m, u)\n"
    assert factorize_calls(source + planted) == [source.count("\n") + 1]
    assert factorize_calls("def factorize(self, m, u):\n    pass\n") == []
    assert factorize_calls((PACKAGE / "hovd" / "oracle.py").read_text())  # the home


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p != PACKAGE / "hovd" / "oracle.py"],
    ids=lambda p: str(p.relative_to(PACKAGE)),
)
def test_no_factorize_outside_the_oracle(path):
    assert factorize_calls(path.read_text()) == []


def nonlocal_statements(source):
    """Line of each ``nonlocal`` statement.

    State that lives between calls belongs on an object whose
    ``clear_cache`` reaches it, not in a closure.
    """
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Nonlocal)
    ]


def test_scan_flags_a_nonlocal():
    source = (PACKAGE / "hovd" / "oracle.py").read_text()
    planted = "def outer():\n    last = {}\n\n    def inner():\n        nonlocal last\n"
    assert nonlocal_statements(source + planted) == [source.count("\n") + 5]
    assert nonlocal_statements("def f():\n    global g\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_nonlocal(path):
    assert nonlocal_statements(path.read_text()) == []


DENSIFIERS = ("hilbert_dense", "tt_to_dense", "tt_dense_error")


def densifying_calls(source):
    """Line of each call to a function that materializes a dense tensor.

    Those functions are references for tests; the library measures errors
    between trains (``tt_relative_error``) so memory stays bounded.
    """
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in DENSIFIERS
    ]


def test_scan_flags_a_densifying_call():
    source = (PACKAGE / "cli.py").read_text()
    planted = "dense = hilbert_dense(dims)\nerr = core.tt_dense_error(tt_to_dense(a), b)\n"
    line = source.count("\n") + 1
    assert densifying_calls(source + planted) == [line, line + 1, line + 1]
    assert densifying_calls("def tt_to_dense(tt):\n    return tt\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_densifying_call(path):
    assert densifying_calls(path.read_text()) == []
