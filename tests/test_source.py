"""Properties of the package source itself."""

import ast
from pathlib import Path

import liejets

SOURCES = sorted(Path(liejets.__file__).resolve().parent.glob("*.py"))


def test_no_verdict_or_invariant_rests_on_assert():
    """``python -O`` strips ``assert`` statements, so the package raises
    explicitly wherever it checks a condition."""
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_internal_inconsistency_raises_a_bare_assertion_error():
    """An inconsistency the package detects raises its module's named error
    (``JetError``, ``MatrixError``, ...), never ``AssertionError``, which
    reads as a failed test rather than as the package's own refusal."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Name) and node.id == "AssertionError"
    ]
    assert found == []


#: The draw methods of a ``random.Random``, each a second path beside the
#: draw kernel.
DRAW_METHODS = {"randint", "randrange", "choice", "random", "sample", "shuffle", "uniform"}


def _called(node) -> str | None:
    """The name a call calls, as ``f`` in ``f(...)`` or ``rng.f(...)``."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _bit_sources(tree) -> set:
    """``getrandbits`` and each name a module binds to ``x.getrandbits``, as
    ``bits`` in ``bits = rng.getrandbits`` or ``bits, n = rng.getrandbits, 0``."""
    names = {"getrandbits"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                names |= {t.id for t, v in pairs if isinstance(t, ast.Name)
                          and isinstance(v, ast.Attribute) and v.attr == "getrandbits"}
    return names


def test_every_draw_goes_through_the_draw_kernel():
    """Seeded inputs are drawn by ``sampling.draw_int`` alone: no package
    module calls a generator's draw methods, and only the kernel calls
    ``getrandbits``, under that name or a name bound to it, so no second
    path can leave ``randint``'s stream."""
    kernel = set()
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        if path.name == "sampling.py":
            kernel = {node for fn in tree.body
                      if isinstance(fn, ast.FunctionDef) and fn.name == "draw_int"
                      for node in ast.walk(fn)}
        bits = _bit_sources(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called(node)
            if name in DRAW_METHODS or (name in bits and node not in kernel):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
    assert kernel, "the draw kernel sampling.draw_int is gone"
