"""Start-up footprint: a cold ``liejets`` command loads only what it runs,
and the package still exports every public name on first access."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liejets
from liejets.algebras import basis_element, heisenberg3
from liejets.hall import free_nilpotent
from liejets.jets import jet_make
from liejets.sampling import PLAIN_RING

SRC = str(Path(liejets.__file__).resolve().parents[1])

#: Modules that no ``mul`` engine, ``bracket`` or ``validate`` of a non-free
#: built-in runs.
NOT_FOR_MUL = ("liejets.checks", "liejets.hall", "liejets.report", "liejets.sampling",
               "dataclasses")

#: Every public name of the package: each module, and the names it exports.
#: The catalog's checks are rows of ``liejets.checks.ROWS``, not exported names.
EXPORTED = (
    "AlgebraError", "BCH_DEGREE3_TERMS", "CheckResult", "EXP", "Jet",
    "JetError", "LieAlgebraSpec", "LieElement", "MONOMIAL", "MatrixError", "MatrixRep",
    "RingSignature", "SignatureError", "SignatureMismatch",
    "VerificationReport", "WeilMatrix", "WeilRing", "WeilScalar", "abelian", "algebras",
    "basis_element", "bch", "bch_mul", "bracket", "builtin_rep", "catalog", "checks",
    "free_nilpotent", "hall", "heisenberg3", "jet_bracket", "jet_convert",
    "jet_group_commutator", "jet_identity", "jet_inverse", "jet_make", "jet_mul",
    "jet_scale", "jet_truncate", "jets", "matrices", "matrix_mul", "matrix_rep", "report",
    "resolve_algebra", "ring_make", "run_suite", "sampling", "scalars", "sl2", "so3",
    "validate_algebra", "weil_exp", "weil_log", "zero_element",
)


def _python(*argv) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def _imported_by(tmp_path, *argv, algebra=None) -> set:
    """Every module a cold ``python -m liejets <argv>`` imports, as listed by
    ``-X importtime``; "A" and "B" in ``argv`` stand for two order-3 jet
    files over ``algebra`` (h3 by default), whose coordinates are its first
    three basis elements, rotated by one for B."""
    algebra = algebra or heisenberg3()
    first = algebra.basis[:3]
    paths = {}
    for name, basis in (("A", first), ("B", first[1:] + first[:1])):
        coords = [basis_element(algebra, PLAIN_RING, b) for b in basis]
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(
            json.dumps(jet_make(algebra, PLAIN_RING, 3, coords).to_json())
        )
    argv = [str(paths.get(arg, arg)) for arg in argv]
    proc = _python("-X", "importtime", "-m", "liejets", *argv)
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }


@pytest.mark.parametrize("via", ["def61", "bch"])
def test_closed_form_and_series_mul_load_neither_checks_nor_matrices(tmp_path, via):
    loaded = _imported_by(tmp_path, "mul", "A", "B", "--via", via)
    assert {"liejets.cli", "liejets.jets"} <= loaded
    assert loaded.isdisjoint(NOT_FOR_MUL + ("liejets.matrices",))
    assert ("liejets.bch" in loaded) == (via == "bch")


def test_matrix_mul_loads_the_matrix_oracle_only(tmp_path):
    loaded = _imported_by(tmp_path, "mul", "A", "B", "--via", "matrix")
    assert "liejets.matrices" in loaded
    assert loaded.isdisjoint(NOT_FOR_MUL + ("liejets.bch",))


@pytest.mark.parametrize("argv", [("validate", "h3"), ("bracket", "A", "B")],
                         ids=["validate", "bracket"])
def test_validate_and_bracket_load_no_oracle(tmp_path, argv):
    loaded = _imported_by(tmp_path, *argv)
    assert {"liejets.cli", "liejets.algebras"} <= loaded
    assert loaded.isdisjoint(NOT_FOR_MUL + ("liejets.matrices", "liejets.bch"))


@pytest.mark.parametrize("argv", [("validate", "free-nilpotent(2,3)"), ("mul", "A", "B")],
                         ids=["validate", "mul"])
def test_free_nilpotent_names_load_the_hall_basis_but_no_dataclasses(tmp_path, argv):
    # only ``verify`` loads ``dataclasses``, through ``liejets.report``
    loaded = _imported_by(tmp_path, *argv, algebra=free_nilpotent(2, 3))
    assert "liejets.hall" in loaded
    assert loaded.isdisjoint(("dataclasses", "liejets.report", "liejets.checks"))


def test_every_exported_name_resolves_in_a_fresh_interpreter():
    code = (
        "import json, liejets, sys; "
        "print(json.dumps([n for n in sys.argv[1:] if not hasattr(liejets, n)]))"
    )
    proc = _python("-c", code, *EXPORTED)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_names_resolve_to_their_modules_objects():
    from liejets import jet_mul, run_suite

    assert jet_mul is liejets.jets.jet_mul
    assert run_suite is liejets.checks.run_suite
    assert set(liejets.__all__) <= set(EXPORTED) <= set(dir(liejets))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        liejets.no_such_name
    with pytest.raises(ImportError):
        from liejets import no_such_name  # noqa: F401
