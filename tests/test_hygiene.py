"""Source hygiene: every import in the library is used, every parameter is
read, no contraction pays for an einsum path search on each call, LU work on
the state Jacobian has one home, ``hovd/oracle.py``, sparse LU is used on the
state Jacobian alone (``hovd/model.py``'s ``FactorizedJacobian``), the SVD sweep one,
``core._truncated_svd`` (the Hilbert oracle's Hankel factors call it, and no
action transforms back with an inverse FFT), rank caps one,
``builder.build_ranks``, and the residual's closed forms one,
``hovd/model.py``, no closure keeps state between calls, the library neither calls nor defines the
dense test references, names deleted in favour of one path stay deleted, and
every exported name resolves.

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


def unread_parameters(source):
    """(line, function, parameter) for each parameter its body never reads.

    Covers functions, methods and lambdas; a read inside a nested function
    counts.  Two kinds are exempt: ``self``, which a method a subclass
    overrides (such as a no-op ``clear_cache``) takes whether or not its
    body reads it, and the CLI's ``cmd_*`` handlers, which share argparse's
    dispatch signature ``handler(args)``.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if name.startswith("cmd_"):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [
            (node.lineno, name, p.arg)
            for p in params
            if p is not None and p.arg != "self" and p.arg not in read
        ]
    return found


def test_scan_flags_an_unread_parameter():
    source = (PACKAGE / "hovd" / "model.py").read_text()
    planted = (
        "def qoi(self, m, u):\n    return u\n"
        "def partial_f(self, m, u, weight):\n    w = weight\n    return w\n"
        "def f(a, *rest, key=None, **extra):\n    a = 1\n    return lambda b, c: b\n"
    )
    line = source.count("\n") + 1
    assert unread_parameters(source + planted) == [
        (line, "qoi", "m"),
        (line + 2, "partial_f", "m"),
        (line + 2, "partial_f", "u"),
        (line + 5, "f", "a"),  # rebound, never read
        (line + 5, "f", "rest"),
        (line + 5, "f", "key"),
        (line + 5, "f", "extra"),
        (line + 7, "<lambda>", "c"),
    ]
    # read in a closure, self, and a command handler pass
    assert unread_parameters(
        "def g(x):\n    def h():\n        return x\n    return h\n"
        "class C:\n    def clear_cache(self):\n        pass\n"
        "def cmd_info(args):\n    return 0\n"
    ) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


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


#: Sparse direct solvers, each a sparse LU factorization.
SPARSE_LU = ("splu", "spsolve", "factorized")


def scoped_calls(source, names):
    """(enclosing scope, line) of each call to a function named in ``names``.

    The scope is the dotted path of the enclosing classes and functions,
    None at module level.
    """
    calls = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "attr", getattr(child.func, "id", None)) in names
            ):
                calls.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), None)
    return calls


def sparse_lu_calls(source):
    """(enclosing scope, line) of each call to a sparse direct solver.

    The state Jacobian is the one matrix the library factorizes
    (``FactorizedJacobian``); the whitening smoother is a closed form through
    the DCT-II spectrum.
    """
    return scoped_calls(source, SPARSE_LU)


def test_scan_flags_a_sparse_lu_call():
    source = (PACKAGE / "hovd" / "oracle.py").read_text()
    # a factorized smoother: a second sparse LU beside the state Jacobian's
    planted = (
        "class WhitenedMap:\n"
        "    def __init__(self, model):\n"
        "        self._lu = scipy.sparse.linalg.splu(model.whitening_matrix())\n"
        "def smooth(w, x):\n    return spsolve(w, x)\n"
        "solve = factorized(w)\n"
    )
    line = source.count("\n") + 1
    assert sparse_lu_calls(source + planted) == [
        ("WhitenedMap.__init__", line + 2),
        ("smooth", line + 4),
        (None, line + 5),
    ]
    assert sparse_lu_calls("def splu(a):\n    return a\nlu.solve(b)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_sparse_lu_only_on_the_state_jacobian(path):
    home = ["FactorizedJacobian.__init__"] if path == PACKAGE / "hovd" / "model.py" else []
    assert [owner for owner, _ in sparse_lu_calls(path.read_text())] == home


def svd_calls(source):
    """(enclosing scope, line) of each call to a function named ``svd``."""
    return scoped_calls(source, ("svd",))


def test_scan_flags_an_svd_call():
    source = (PACKAGE / "hovd" / "taylor.py").read_text()
    planted = (
        "def f(a):\n    return np.linalg.svd(a)\n"
        "u = scipy.linalg.svd(b, full_matrices=False)\nsvd(c)\n"
    )
    line = source.count("\n") + 1
    assert svd_calls(source + planted) == [
        ("f", line + 1),
        (None, line + 2),
        (None, line + 3),
    ]
    assert svd_calls("def svd(a):\n    return a\nnp.linalg.svdvals(a)\n") == []
    # the home: one call, inside the truncated SVD
    assert [owner for owner, _ in svd_calls((PACKAGE / "core.py").read_text())] == [
        "_truncated_svd"
    ]


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p != PACKAGE / "core.py"],
    ids=lambda p: str(p.relative_to(PACKAGE)),
)
def test_no_svd_outside_the_truncated_svd(path):
    assert svd_calls(path.read_text()) == []


def irfft_calls(source):
    """Line of each call to a function named ``irfft``.

    The Hilbert action folds its inverse FFT into the Hankel factors its
    oracle makes once (``hilbert._hankel_factors``), so no action calls one.
    """
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "irfft"
    ]


def test_scan_flags_an_irfft_call():
    planted = "conv = np.fft.irfft(spectrum, nfft, axis=0)\nirfft(x)\nnp.fft.rfft(x)\n"
    assert irfft_calls(planted) == [1, 2]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_inverse_fft_in_the_library(path):
    assert irfft_calls(path.read_text()) == []


def cap_reads(source):
    """Line of each read of ``unfolding_caps``: a name, an attribute or an import.

    Rank caps have one home, ``builder.build_ranks``; every other caller
    passes its ranks on and lets the build cut them.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        if "unfolding_caps" in names:
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_flags_a_read_of_the_caps():
    source = (PACKAGE / "hovd" / "compress.py").read_text()
    planted = (
        "from ..core import tt_round, unfolding_caps as caps_of\n"
        "cut = [min(r, c) for c in caps_of(dims)]\n"
        "caps = core.unfolding_caps\n"
        "print(unfolding_caps(dims))\n"
    )
    line = source.count("\n") + 1
    assert cap_reads(source + planted) == [line, line + 2, line + 3]
    assert cap_reads("def unfolding_caps(dims):\n    return dims\n") == []
    assert cap_reads((PACKAGE / "builder.py").read_text())  # the home


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p != PACKAGE / "builder.py"],
    ids=lambda p: str(p.relative_to(PACKAGE)),
)
def test_no_cap_read_outside_build_ranks(path):
    assert cap_reads(path.read_text()) == []


def model_private_names(source):
    """Private names of ``ReactionDiffusionModel``: methods and ``self.`` attributes.

    Dunder names are left out; ``_grid``, ``_gather_t``, ``_reaction``,
    ``_h2`` and ``_nbr`` are the pieces the closed forms are built from.
    """
    [model] = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name == "ReactionDiffusionModel"
    ]
    names = set()
    for node in ast.walk(model):
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) == "self"
        ):
            name = node.attr
        else:
            continue
        if name.startswith("_") and not name.startswith("__"):
            names.add(name)
    return names


#: The model's private names, and ``_divergence``, the flux divergence's
#: name before ``finish_edges`` took it in, so a copy kept under it is
#: flagged too.
MODEL_PRIVATE = model_private_names((PACKAGE / "hovd" / "model.py").read_text()) | {
    "_divergence"
}


def closed_form_reads(source):
    """Line of each attribute read of one of the model's private names.

    The residual's closed forms have one home, ``hovd/model.py``; the
    derivative engine and the state solve call its public pieces
    (``partial_edges``, ``edge_operand``, ``finish_edges``,
    ``reaction_part``) and copy none of them.
    """
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in MODEL_PRIVATE
    )


def test_scan_flags_a_closed_form_read():
    assert {"_gather_t", "_reaction", "_h2", "_nbr"} <= MODEL_PRIVATE
    source = (PACKAGE / "hovd" / "oracle.py").read_text()
    # an engine-side copy of the finishing operators and the reaction
    planted = (
        "def _sum(self, t, ws, free):\n"
        "    model = self.model\n"
        "    if free is None:\n"
        "        return self._divergence(t)\n"
        "    out = (t[0] + t[1] + t[2] + t[3] - model._gather_t(t)) / model._h2\n"
        "    return out + model._reaction(self.u0, 1, ws)\n"
    )
    line = source.count("\n") + 1
    assert closed_form_reads(source + planted) == [line + 3, line + 4, line + 4, line + 5]
    assert closed_form_reads("def _reaction(u):\n    return model.finish_edges(u)\n") == []
    assert closed_form_reads((PACKAGE / "hovd" / "model.py").read_text())  # the home


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES if p != PACKAGE / "hovd" / "model.py"],
    ids=lambda p: str(p.relative_to(PACKAGE)),
)
def test_no_closed_form_read_outside_the_model(path):
    assert closed_form_reads(path.read_text()) == []


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


#: Second paths that were deleted: the dense entry is ``oracle_from_dense``,
#: the count law refuses with ``ShapeError`` through
#: ``predicted_action_count``, both derivative lattices compile their
#: chain-rule sums with ``hovd.oracle._program`` and run them with
#: ``DerivativeEngine._sum``, and a build stage's shared prefixes are worked
#: once because the stage is one broadcast action, not through a lead memo
#: (``lead_fn``, ``_lead_of``), stride-0 column detection
#: (``_distinct_columns``) or Hilbert's split spectrum product
#: (``times_spectra``), a state solve is one lockstep loop over a column
#: block, with no per-vector sweep (``_kept_lu_step``) beside it, and the
#: smoother is a closed form, with no assembled matrix (``whitening_matrix``).
DELETED_NAMES = (
    "BacktrackingRequiredError",
    "check_schedule",
    "dense_action",
    "_forward_program",
    "_adjoint_program",
    "_forward_sum",
    "_adjoint_sum",
    "lead_fn",
    "_lead_of",
    "_distinct_columns",
    "times_spectra",
    "_kept_lu_step",
    "whitening_matrix",
)


def deleted_names(source):
    """(line, name) of each definition, import or export of a deleted name.

    An export is a string constant equal to the name, as ``__all__`` holds.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [n for alias in node.names for n in (alias.name, alias.asname)]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in DELETED_NAMES]
    return sorted(found)


def test_scan_flags_a_deleted_name():
    source = (PACKAGE / "core.py").read_text()
    planted = (
        "dense_action = oracle_from_dense\n"
        "from .builder import predicted_action_count as check_schedule\n"
        "class BacktrackingRequiredError(ShapeError):\n    pass\n"
        '__all__ = ["dense_action"]\n'
        "_forward_program = _adjoint_program = _program\n"
        "class Engine:\n    def _forward_sum(self):\n        pass\n"
        "    _adjoint_sum = _sum\n"
        "def _distinct_columns(v):\n    return v\n"
        "lead_fn = times_spectra = None\n"
        "class Oracle:\n    def _lead_of(self):\n        pass\n"
        "class Model:\n    def whitening_matrix(self):\n        pass\n"
    )
    line = source.count("\n") + 1
    assert deleted_names(source + planted) == [
        (line, "dense_action"),
        (line + 1, "check_schedule"),
        (line + 2, "BacktrackingRequiredError"),
        (line + 4, "dense_action"),
        (line + 5, "_adjoint_program"),
        (line + 5, "_forward_program"),
        (line + 7, "_forward_sum"),
        (line + 9, "_adjoint_sum"),
        (line + 10, "_distinct_columns"),
        (line + 12, "lead_fn"),
        (line + 12, "times_spectra"),
        (line + 14, "_lead_of"),
        (line + 17, "whitening_matrix"),
    ]
    # a use that binds another name is not a definition
    assert deleted_names("x = check_schedule(a)\ny = 'a dense_action'\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_deleted_names_stay_deleted(path):
    assert deleted_names(path.read_text()) == []


@pytest.mark.parametrize("package", [ttaction, ttaction.hovd], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(package):
    assert len(set(package.__all__)) == len(package.__all__)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
