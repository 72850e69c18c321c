"""Reachability, traced: every function the package defines runs under the
claim catalog, a command of the ``liejets`` CLI or the README quick tour,
unless ``ALLOWED`` gives the reason it need not.  The quick tour itself is
run here too, so the README cannot drift from the package.

Functions are matched by code object, not by name or line number, so a
decorated function, a lambda, a nested function and a generator expression
each count on their own, and a branch that no caller takes shows up through
the comprehensions in it.  A code object cannot tell apart two names bound
to one function (``__radd__ = __add__``), so a package class may not bind
one function under two names.
"""

import json
import pkgutil
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from random import Random

import liejets
from liejets.algebras import heisenberg3
from liejets.checks import run_suite
from liejets.cli import main
from liejets.sampling import PLAIN_RING, random_jet

PACKAGE = Path(liejets.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"

#: Functions no traced caller needs to reach, by qualified name, each with
#: its reason.  A function listed here covers the code nested in it; code
#: nested in a reached function is listed by its own qualified name.
ALLOWED = {
    "liejets.__getattr__": "PEP 562 hook, run once per name per process; "
                           "tests/test_imports.py covers it",
    "liejets.__dir__": "PEP 562 hook for dir(); tests/test_imports.py covers it",
    "liejets.algebras.LieAlgebraSpec.__repr__": "repr",
    "liejets.algebras.LieElement.__repr__": "repr",
    "liejets.algebras.LieElement.__str__": "display",
    "liejets.jets.Jet.__repr__": "repr",
    "liejets.matrices.WeilMatrix.__repr__": "repr",
    "liejets.matrices.MatrixRep.__repr__": "repr",
    "liejets.scalars.RingSignature.__repr__": "repr",
    "liejets.scalars.WeilScalar.__repr__": "repr",
    "liejets.scalars.WeilScalar.__str__": "display",
    "liejets.scalars.WeilRing.__repr__": "repr",
    "liejets.scalars.RingSignature.__hash__": "kept with __eq__, so equal signatures "
                                              "hash alike",
    "liejets.scalars.RingSignature.__setattr__": "immutability guard",
    "liejets.scalars.RingSignature.__delattr__": "immutability guard",
    "liejets.cli._fail": "error path: every traced command succeeds",
    "liejets.algebras.make_algebra.<locals>.<genexpr>": "input check: a spec that "
                                                        "brackets an element with itself",
    "liejets.algebras.validate_algebra.<locals>.<dictcomp>": "failure evidence",
    "liejets.checks.exp_product_holds.<locals>.<dictcomp>": "failure evidence",
    "liejets.checks.witt_dimensions_hold.<locals>.<listcomp>": "failure evidence",
    "liejets.matrices.WeilMatrix.rows": "failure evidence of thm-4.*",
    "liejets.scalars.WeilScalar.constant_term": "failure evidence of the Jacobi scan",
    "liejets.matrices.WeilMatrix.__init__": "perfbench/tracing.py probe_inputs builds "
                                            "its probe matrix with it",
}


def _functions(value, seen: set):
    """The plain functions behind a module or class attribute: unwrapped
    from staticmethod, classmethod, property and ``functools`` wrappers,
    and for a class, those of its own attributes."""
    if isinstance(value, type):
        if value not in seen:
            seen.add(value)
            for member in vars(value).values():
                yield from _functions(member, seen)
        return
    if isinstance(value, property):
        for part in (value.fget, value.fset, value.fdel):
            yield from _functions(part, seen)
        return
    value = getattr(value, "__func__", value)
    while hasattr(value, "__wrapped__"):
        value = value.__wrapped__
    if hasattr(value, "__code__"):
        yield value


def _nested(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _nested(const)


def _modules() -> list:
    return [liejets] + [
        pkgutil.resolve_name(f"liejets.{info.name}")
        for info in pkgutil.iter_modules(liejets.__path__)
        if info.name != "__main__"  # its body calls sys.exit
    ]


def defined_code() -> dict:
    """Code object -> qualified name, for every function whose source is in
    the package, nested code included.  A function defined in another module
    and imported keeps the name of the module that defines it."""
    out: dict = {}
    seen: set = set()
    for module in _modules():
        for value in vars(module).values():
            for fn in _functions(value, seen):
                top = fn.__code__
                if not top.co_filename.startswith(str(PACKAGE)):
                    continue  # generated by dataclasses, or not the package's
                for code in _nested(top):
                    out.setdefault(code, f"{fn.__module__}.{code.co_qualname}")
    return out


def aliases() -> list:
    """Each package class attribute that binds the same function as an
    earlier attribute of its class, as "module.Class.alias = name"."""
    out = []
    for module in _modules():
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue  # not a class, or imported from elsewhere
            first: dict = {}
            for attr, member in vars(cls).items():
                for fn in _functions(member, set()):
                    name = first.setdefault(fn.__code__, attr)
                    if name != attr:
                        out.append(f"{cls.__module__}.{cls.__qualname__}.{attr} = {name}")
    return sorted(out)


def readme_quick_tour() -> str:
    """The README's ``python`` block."""
    text = README.read_text(encoding="utf-8")
    return text.split("```python\n", 1)[1].split("```", 1)[0]


def run_quick_tour() -> dict:
    """Run the quick tour; returns the names it defines."""
    namespace: dict = {}
    exec(compile(readme_quick_tour(), str(README), "exec"), namespace)
    return namespace


def _cli(*argv) -> None:
    with redirect_stdout(StringIO()):
        code = main([str(arg) for arg in argv])
    assert code == 0, argv


def run_every_caller(tmp_path: Path) -> None:
    """The catalog, every command, and the quick tour, with 2 trials."""
    run_suite("all", trials=2, seed=0)
    h3, rng = heisenberg3(), Random(0)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        path.write_text(json.dumps(random_jet(h3, PLAIN_RING, 3, rng).to_json()))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "h3", "basis": ["p", "q", "z"],
        "brackets": [{"left": "p", "right": "q", "value": [["z", "1"]]}],
    }))
    _cli("validate", "h3")
    _cli("validate", spec)
    for via in ("def61", "bch", "matrix"):
        _cli("mul", a, b, "--via", via)
    _cli("bracket", a, b)
    _cli("verify", "--suite", "s6", "--algebra", "sl2", "--order", "2",
         "--trials", "2", "--no-timing")
    run_quick_tour()


def reached(tmp_path: Path) -> set:
    """The code object of every Python function that :func:`run_every_caller`
    runs.  The package's ``functools`` caches are emptied first, so that a
    cached function runs whatever ran before in this process."""
    for module in _modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_every_caller(tmp_path)
    finally:
        sys.setprofile(previous)
    return calls


def _allowed(name: str) -> bool:
    return any(name == key or name.startswith(f"{key}.") for key in ALLOWED)


def test_allowlist_names_defined_functions_with_reasons():
    names = set(defined_code().values())
    assert {key for key in ALLOWED if key not in names} == set()
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_function_is_reached_or_allowed(tmp_path):
    defined = defined_code()
    calls = reached(tmp_path)
    unreached = sorted(
        f"{name} ({Path(code.co_filename).name}:{code.co_firstlineno})"
        for code, name in defined.items()
        if code not in calls and not _allowed(name)
    )
    assert unreached == []


def test_no_class_binds_one_function_under_two_names():
    assert aliases() == []


def test_readme_quick_tour_runs_and_its_engines_agree():
    tour = run_quick_tour()
    lj, a, b = tour["lj"], tour["a"], tour["b"]
    assert lj.jet_mul(a, b) == lj.bch_mul(a, b) == lj.matrix_mul(a, b, lj.builtin_rep("h3"))
