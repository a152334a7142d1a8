"""Source hygiene: every import in the library is used, no contraction pays
for an einsum path search on each call, LU work on the state Jacobian has
one home, ``hovd/oracle.py``, no closure keeps state between calls, the
library neither calls nor defines the dense test references, and every
exported name resolves.

Package ``__init__.py`` files are exempt from the import check, since their
imports are the re-exported public names.
"""

import ast
import inspect
from pathlib import Path

import pytest

import dense_reference
import ttaction
import ttaction.hovd

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


#: What ``tests/dense_reference.py`` holds: references that densify, or exist
#: only to check the library, and so stay out of it.
DENSE_REFERENCES = (
    "entry_count",
    "frobenius",
    "hilbert_dense",
    "left_orthogonality_defect",
    "relative_error",
    "tt_dense_error",
    "tt_svd",
    "tt_to_dense",
)


def test_dense_references_are_what_the_test_module_defines():
    defined = {
        name
        for name, value in vars(dense_reference).items()
        if inspect.isfunction(value)
        and value.__module__ == dense_reference.__name__
        and not name.startswith("_")
    }
    assert defined == set(DENSE_REFERENCES)


def densifying_calls(source):
    """Line of each call to a dense reference.

    Those functions are references for tests; the library measures errors
    between trains (``tt_relative_error``) so memory stays bounded.
    """
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in DENSE_REFERENCES
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


def reference_definitions(source):
    """Line of each function, class or assignment that defines a dense reference."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        if any(name in DENSE_REFERENCES for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_flags_a_reference_definition():
    source = (PACKAGE / "core.py").read_text()
    planted = "class T:\n    def entry_count(self):\n        pass\ntt_svd = None\n"
    line = source.count("\n") + 1
    assert reference_definitions(source + planted) == [line + 1, line + 3]
    assert reference_definitions("x = tt_svd(a)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_library_defines_no_dense_reference(path):
    assert reference_definitions(path.read_text()) == []


@pytest.mark.parametrize("package", [ttaction, ttaction.hovd], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(package):
    assert len(set(package.__all__)) == len(package.__all__)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
