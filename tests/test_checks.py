"""Verification driver tests: drivers, failure reporting, suite assembly."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

import liejets.bch
import liejets.catalog
import liejets.checks
import liejets.jets
import liejets.scalars

from liejets.algebras import LieAlgebraSpec, basis_element, heisenberg3, make_algebra, sl2
from liejets.algebras import zero_element
from liejets.bch import BCH_DEGREE3_TERMS
from liejets.catalog import resolve_algebra
from liejets.checks import (
    associative,
    build_checks,
    run_suite,
    struct_jacobi_builtins,
    struct_ring_laws,
    struct_tower_compatibility,
    struct_witt_dimensions,
    verify_associativity,
    verify_bracket_recovery,
    verify_group_axioms,
    verify_lemma_631,
)
from liejets.hall import free_nilpotent
from liejets.jets import Jet, jet_make, jet_mul
from liejets.matrices import MatrixRep
from liejets.sampling import PLAIN_RING, symbolic_jet_family

H3 = heisenberg3()

CORRUPTED = make_algebra(
    "h3-corrupted", ("p", "q", "z"), {("p", "q"): [("z", 1)], ("p", "z"): [("p", 1)]}
)


class TestAssociativity:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_symbolic_generic(self, order):
        _, jets = symbolic_jet_family(free_nilpotent(3, 3), order, ("a", "b", "c"))
        assert associative(*jets.values()) is None

    def test_driver_passes(self):
        result = verify_associativity(3, [H3, sl2()], trials=20, seed=0)
        assert result.passed
        assert result.check == "thm-6.3"
        assert result.detail["symbolic"] == "pass"
        assert set(result.detail["random"]) == {"h3", "sl2"}

    def test_non_jacobi_algebra_fails_order3(self):
        # direct witness: with [p,q] = z and [p,z] = p, the two ways of
        # multiplying (p,0,0), (q,0,0), (z,0,0) land z apart
        p = basis_element(CORRUPTED, PLAIN_RING, "p")
        q = basis_element(CORRUPTED, PLAIN_RING, "q")
        z = basis_element(CORRUPTED, PLAIN_RING, "z")
        o = zero_element(CORRUPTED, PLAIN_RING)
        a = jet_make(CORRUPTED, PLAIN_RING, 3, (p, o, o))
        b = jet_make(CORRUPTED, PLAIN_RING, 3, (q, o, o))
        c = jet_make(CORRUPTED, PLAIN_RING, 3, (z, o, o))
        left = jet_mul(jet_mul(a, b), c)
        right = jet_mul(a, jet_mul(b, c))
        assert left != right
        assert (left.coords[2] - right.coords[2]) == z.scale(-1)

        result = verify_associativity(3, [CORRUPTED], trials=30, seed=0)
        assert not result.passed
        counterexample = result.counterexample
        assert counterexample["algebra"] == "h3-corrupted"
        assert "a" in counterexample

    def test_bilinearity_alone_gives_order2(self):
        # order 2 associativity never touches the Jacobi identity
        assert verify_associativity(2, [CORRUPTED], trials=30, seed=0).passed

    def test_thousand_random_jets_per_builtin(self):
        # 112 triples per order = 1008 seeded jets per algebra
        from liejets.catalog import default_verification_algebras

        for order in (1, 2, 3):
            result = verify_associativity(order, default_verification_algebras(), 112, seed=1)
            assert result.passed, result.counterexample


def test_lemma_631_reduces_to_zero():
    result = verify_lemma_631()
    assert result.passed
    assert result.check == "lemma-6.3.1"


class TestGroupAxioms:
    def test_passes_with_defaults(self):
        result = verify_group_axioms([H3, sl2()], (1, 2, 3), trials=25, seed=0)
        assert result.passed
        assert result.check == "thm-7.0"
        assert result.detail["symbolic"] == "pass"

    def test_single_order_restriction(self):
        result = verify_group_axioms([H3], (3,), trials=10, seed=0)
        assert result.passed
        assert result.detail["orders"] == [3]


class TestBracketRecovery:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_symbolic_and_random(self, order):
        result = verify_bracket_recovery(order, [H3], trials=20, seed=0)
        assert result.passed
        assert result.check == f"thm-7.{order}"
        assert result.detail["h3"]["symbolic"] == "pass"
        assert result.detail["h3"]["expected_form"] == "pass"

    def test_sl2_random(self):
        assert verify_bracket_recovery(3, [sl2()], trials=20, seed=1).passed


class TestStructural:
    def test_witt(self):
        result = struct_witt_dimensions()
        assert result.passed
        assert result.detail["free-nilpotent(2,3)"] == {"dim": 5, "by_degree": [2, 1, 2]}
        assert result.detail["free-nilpotent(3,3)"] == {"dim": 14, "by_degree": [3, 3, 8]}

    def test_witt_necklace_total_its_degree_does_not_divide_is_evidence(self, monkeypatch):
        # mu(3) = +1 makes the degree-3 count of one generator (1 + 1) / 3
        real = liejets.checks._mobius
        monkeypatch.setattr(liejets.checks, "_mobius", lambda n: 1 if n == 3 else real(n))
        result = struct_witt_dimensions()
        assert not result.passed
        assert result.counterexample == {
            "algebra": "free-nilpotent(1,3)", "trial": 0,
            "got": [1, 0, 0], "want": ["1", "0", "2/3"],
        }
        assert len(result.detail) == 9

    def test_jacobi(self):
        result = struct_jacobi_builtins()
        assert result.passed
        assert set(result.detail.values()) == {"pass"}
        assert "free-nilpotent(3,3)" in result.detail

    def test_ring_laws(self):
        assert struct_ring_laws(trials=30, seed=0).passed

    def test_tower(self):
        assert struct_tower_compatibility([H3, sl2()], trials=15, seed=0).passed


class TestSuites:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            build_checks("s5")

    def test_empty_algebra_list_rejected(self):
        # an empty override would otherwise pass every check without a trial
        with pytest.raises(ValueError):
            build_checks("all", algebras=[])
        with pytest.raises(ValueError):
            run_suite("all", algebras=[])

    def test_s7_order3_contains_recovery_and_axioms(self):
        ids = [check_id for check_id, _ in build_checks("s7", order=3)]
        assert ids == ["thm-7.0", "thm-7.3"]

    def test_s6_contains_associativity_and_lemma(self):
        ids = [check_id for check_id, _ in build_checks("s6")]
        assert ids == ["thm-6.1", "thm-6.2", "thm-6.3", "lemma-6.3.1"]

    def test_run_suite_s6(self):
        report = run_suite("s6", algebras=[H3], trials=10, seed=0)
        assert report.all_passed
        assert [c.check for c in report.checks] == [
            "lemma-6.3.1",
            "thm-6.1",
            "thm-6.2",
            "thm-6.3",
        ]
        assert all(c.seconds is not None for c in report.checks)

    def test_run_suite_all_ids(self):
        report = run_suite("all", algebras=[resolve_algebra("h3")], trials=5, seed=0)
        assert report.all_passed
        ids = [c.check for c in report.checks]
        assert ids == sorted(ids)
        assert {
            "thm-4.1", "thm-4.2", "thm-4.3",
            "thm-6.1", "thm-6.2", "thm-6.3", "lemma-6.3.1",
            "thm-7.0", "thm-7.1", "thm-7.2", "thm-7.3",
            "def6.1-vs-bch-n1", "def6.1-vs-bch-n2", "def6.1-vs-bch-n3",
            "def6.1-vs-matrix-n1", "def6.1-vs-matrix-n2", "def6.1-vs-matrix-n3",
            "struct-witt-dimensions", "struct-jacobi-builtins",
            "struct-ring-laws", "struct-tower-compatibility",
        } == set(ids)

    def test_seeded_reports_are_reproducible(self):
        a = run_suite("s7", algebras=[H3], order=2, trials=10, seed=42)
        b = run_suite("s7", algebras=[H3], order=2, trials=10, seed=42)
        assert a.to_json(include_timing=False) == b.to_json(include_timing=False)

    def test_failing_check_reported(self):
        report = run_suite("s6", algebras=[CORRUPTED], order=3, trials=30, seed=0)
        assert not report.all_passed
        failing = {c.check: c for c in report.checks if not c.passed}
        assert "thm-6.3" in failing
        assert failing["thm-6.3"].counterexample is not None


def report_digest(trials: int, seed: int) -> str:
    """sha256 of the --no-timing catalog report, interpreter version left out."""
    doc = run_suite("all", trials=trials, seed=seed).to_json(include_timing=False)
    del doc["versions"]["python"]
    return hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()


def test_seed0_report_matches_the_recorded_digest():
    """The --no-timing report at seed 0 is byte-identical to the one recorded
    with the benchmark."""
    baseline = Path(__file__).resolve().parents[1] / "perfbench" / "baseline.json"
    digest = json.loads(baseline.read_text())["catalog"]["digest_seed0"]
    assert report_digest(100, 0) == digest


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_other_seeds_reports_match_the_recorded_digests(seed):
    """Byte-identity beyond seed 0: the --no-timing reports at seeds 1-4 and
    10 trials match the digests in ``report_digests.json``."""
    recorded = json.loads((Path(__file__).parent / "report_digests.json").read_text())
    assert report_digest(recorded["trials"], seed) == recorded["digests"][str(seed)]


def failures(report) -> dict:
    """The report's failing checks by id, each checked to carry a
    ``run_law`` counterexample: symbolic, or from one trial of one family."""
    failed = {c.check: c for c in report.checks if not c.passed}
    for check in failed.values():
        counterexample = check.counterexample
        assert counterexample.get("symbolic") is True or isinstance(
            counterexample.get("trial"), int
        ), check.check
    return failed


CLOSED_FORM_ROWS = [
    # 3/2 -> 1 in the order-3 cross term of jet_mul
    ("_THREE_HALVES", Fraction(1),
     {"def6.1-vs-bch-n3", "def6.1-vs-matrix-n3", "thm-6.3", "thm-7.3"}),
    # 1/2 -> 0 drops the nested order-3 term, which the square-zero
    # scaling of thm-7.3 cannot see
    ("_HALF", Fraction(0), {"def6.1-vs-bch-n3", "def6.1-vs-matrix-n3", "thm-6.3"}),
]


@pytest.mark.parametrize("constant, value, failing", CLOSED_FORM_ROWS)
def test_corrupted_closed_form_fails_exactly_the_checks_that_guard_it(
    monkeypatch, constant, value, failing
):
    monkeypatch.setattr(liejets.jets, constant, value)
    assert set(failures(run_suite("all", trials=3, seed=0))) == failing


ORACLE_ROWS = [
    # -1/2 for the 1/2 of [a, b] in the series table.  Only the series
    # comparisons evaluate the table, and at order 1 the word is not
    # evaluated: the bracket of two curves d X, d Y lies in d^2.
    (liejets.bch, "BCH_DEGREE3_TERMS",
     tuple((w, -c if w == ("a", "b") else c) for w, c in BCH_DEGREE3_TERMS),
     {"def6.1-vs-bch-n2", "def6.1-vs-bch-n3"}),
    # 2 for the 1 of the leaf a: the one series word every order reads
    (liejets.bch, "BCH_DEGREE3_TERMS",
     tuple((w, 2 * c if w == "a" else c) for w, c in BCH_DEGREE3_TERMS),
     {"def6.1-vs-bch-n1", "def6.1-vs-bch-n2", "def6.1-vs-bch-n3"}),
    # 1/6 for the 1/12 of either degree-3 word, which only order 3 reads
    (liejets.bch, "BCH_DEGREE3_TERMS",
     tuple((w, Fraction(1, 6) if w == ("a", ("a", "b")) else c)
           for w, c in BCH_DEGREE3_TERMS),
     {"def6.1-vs-bch-n3"}),
    (liejets.bch, "BCH_DEGREE3_TERMS",
     tuple((w, Fraction(1, 6) if w == ("b", ("b", "a")) else c)
           for w, c in BCH_DEGREE3_TERMS),
     {"def6.1-vs-bch-n3"}),
    # n^2 for n! in jets.factorial_weights: 1! stays right, 2! and 3! go
    # wrong.  Both oracles' lift divides, and their readback multiplies, by
    # these weights, and a product mixes lower coordinates into degree 2
    # and 3 with the true factorials, so the wrong weights no longer commute
    # with it; thm-7.2/7.3 compare a jet_convert-ed group commutator with
    # the bracket of converted jets, which scale degree k by 1/f(k) and
    # 1/(f(i) f(k - i)) respectively.
    (liejets.jets, "factorial", lambda n: n * n,
     {"def6.1-vs-bch-n2", "def6.1-vs-bch-n3", "def6.1-vs-matrix-n2",
      "def6.1-vs-matrix-n3", "thm-7.2", "thm-7.3"}),
]


@pytest.mark.parametrize(
    "module, name, value, failing",
    ORACLE_ROWS,
    ids=["bch-sign", "bch-leaf", "bch-aab", "bch-bba", "jet-convert-factorial"],
)
def test_corrupted_oracle_fails_exactly_the_checks_that_guard_it(
    monkeypatch, module, name, value, failing
):
    monkeypatch.setattr(module, name, value)
    assert set(failures(run_suite("all", trials=3, seed=0))) == failing


# the series comparisons compare jets read back from d^1..d^n, so the
# surviving d^(n+1) terms never reach them; the matrix comparisons compare
# whole matrices over the d-extended ring, and Theorem 4's exponentials
# over Q[d_i]/(d_i^2), the nilpotency law and the square-zero e1, e2 of
# thm-7.3 all see the extra power
TRUNCATION_FAILS = {
    "def6.1-vs-matrix-n1", "def6.1-vs-matrix-n2", "def6.1-vs-matrix-n3",
    "struct-ring-laws", "thm-4.1", "thm-4.2", "thm-4.3", "thm-7.3",
}


def test_truncation_one_power_late_fails_exactly_the_checks_that_see_it(monkeypatch):
    # every generator may reach one power above its order before the product
    # test drops a monomial
    real = liejets.scalars._layout
    monkeypatch.setattr(
        liejets.scalars, "_layout", lambda orders: real(tuple(m + 1 for m in orders))
    )
    failed = failures(run_suite("all", trials=3, seed=0))
    assert set(failed) == TRUNCATION_FAILS
    assert failed["struct-ring-laws"].counterexample == {
        "ring": "WeilRing(d^4=0)", "trial": 0, "law": "nilpotency", "generator": "d",
    }
    assert failed["thm-7.3"].counterexample["symbolic"] is True
    for check in ("def6.1-vs-matrix-n1", "thm-4.1"):
        assert failed[check].counterexample["trial"] == 0


# order 1 holds because the order-1 product is linear, and thm-4.* because
# Theorem 4 holds for any matrices
WRONG_IMAGE_FAILS = {"def6.1-vs-matrix-n2", "def6.1-vs-matrix-n3"}


def test_wrong_representation_image_fails_exactly_the_matrix_checks_that_see_it(
    monkeypatch
):
    real = liejets.checks.builtin_rep

    def with_doubled_z(name):
        rep = real(name)
        if name != "h3":
            return rep
        doubled = tuple(tuple(2 * e for e in row) for row in rep.images["z"])
        # built directly, so matrix_rep's bracket check does not refuse it
        return MatrixRep(rep.algebra, rep.dimension, {**rep.images, "z": doubled})

    monkeypatch.setattr(liejets.checks, "builtin_rep", with_doubled_z)
    failed = failures(run_suite("all", trials=3, seed=0))
    assert set(failed) == WRONG_IMAGE_FAILS
    for check in failed.values():
        assert check.counterexample["algebra"] == "h3"
        assert isinstance(check.counterexample["trial"], int)


# of the other comparisons only order-3 associativity needs the Jacobi
# identity, and the matrix checks take the true h3 from builtin_rep
NON_JACOBI_FAILS = {"struct-jacobi-builtins", "thm-6.3"}


def test_non_jacobi_structure_constant_fails_the_scan_and_order3_associativity(
    monkeypatch
):
    # [p, z] = p added to h3 wherever the catalog resolves the name
    monkeypatch.setattr(liejets.catalog, "heisenberg3", lambda: make_algebra(
        "h3", ("p", "q", "z"), {("p", "q"): [("z", 1)], ("p", "z"): [("p", 1)]}
    ))
    failed = failures(run_suite("all", trials=3, seed=0))
    assert set(failed) == NON_JACOBI_FAILS
    jacobi = failed["struct-jacobi-builtins"].counterexample
    assert jacobi["failing_triple"] == ["p", "q", "z"]
    assert jacobi["defect"] == {"z": "1"}
    assert failed["thm-6.3"].counterexample["algebra"] == "h3"
    assert isinstance(failed["thm-6.3"].counterexample["trial"], int)


def _edit_product(edit):
    """Wrap jet_mul so that its result has coordinates edit(x, y, z), for
    operand coordinates x, y and the true product's z."""
    def wrap(real):
        def corrupted(a, b):
            z = real(a, b)
            return Jet(z.algebra, z.signature, z.order, z.system,
                       edit(a.coords, b.coords, z.coords))
        return corrupted
    return wrap


def _doubled_x_yz(spec: LieAlgebraSpec) -> LieAlgebraSpec:
    """free-nilpotent(3,3) with [x, [y,z]] = 2 [x,[y,z]]; other specs as they are."""
    if spec.name != "free-nilpotent(3,3)":
        return spec
    pair = (spec.index("x"), spec.index("[y,z]"))
    structure = {**spec.structure, pair: ((spec.index("[x,[y,z]]"), 2),)}
    return LieAlgebraSpec(spec.name, spec.basis, structure, spec.degrees)


# (modules binding the name, name, wrap(real) -> replacement, failing set); the
# replacement is installed in every listed module, so that every caller sees it
NAME_ROWS = [
    # z1 = x1 - y1 in the closed-form product
    ((liejets.jets, liejets.checks), "jet_mul",
     _edit_product(lambda x, y, z: (x[0] - y[0], *z[1:])),
     {"def6.1-vs-bch-n1", "def6.1-vs-bch-n2", "def6.1-vs-bch-n3",
      "def6.1-vs-matrix-n1", "def6.1-vs-matrix-n2", "def6.1-vs-matrix-n3",
      "thm-6.1", "thm-6.2", "thm-6.3", "thm-7.0", "thm-7.1", "thm-7.2", "thm-7.3"}),
    # z2 = x2 + [x1, y1], y2 dropped; the order-1 checks have no z2
    ((liejets.jets, liejets.checks), "jet_mul",
     _edit_product(lambda x, y, z: z if len(z) < 2 else (z[0], z[1] - y[1], *z[2:])),
     {"def6.1-vs-bch-n2", "def6.1-vs-bch-n3", "def6.1-vs-matrix-n2",
      "def6.1-vs-matrix-n3", "thm-6.2", "thm-6.3", "thm-7.0", "thm-7.2", "thm-7.3"}),
    # the inverse returns its argument; the group commutator in jets inverts
    # too, so patching checks alone would reach only thm-7.0
    ((liejets.jets, liejets.checks), "jet_inverse", lambda real: lambda a: a,
     {"thm-7.0", "thm-7.1", "thm-7.2", "thm-7.3"}),
    # truncation keeps the top coordinates in place of the bottom ones
    ((liejets.checks,), "jet_truncate",
     lambda real: lambda j, order: Jet(j.algebra, j.signature, order, j.system,
                                       j.coords[j.order - order:]),
     {"struct-tower-compatibility"}),
    # mu(2) = +1 in the necklace count
    ((liejets.checks,), "_mobius", lambda real: lambda n: 1 if n == 2 else real(n),
     {"struct-witt-dimensions"}),
    # mu(3) = +1: the degree-3 necklace total of one generator is 2, which 3
    # does not divide
    ((liejets.checks,), "_mobius", lambda real: lambda n: 1 if n == 3 else real(n),
     {"struct-witt-dimensions"}),
    # a wrong Hall structure constant of free-nilpotent(3,3)
    ((liejets.checks,), "free_nilpotent",
     lambda real: lambda m, c: _doubled_x_yz(real(m, c)),
     {"lemma-6.3.1", "struct-jacobi-builtins", "thm-6.3"}),
]


@pytest.mark.parametrize(
    "modules, name, wrap, failing",
    NAME_ROWS,
    ids=["product-z1", "product-z2", "inverse", "truncate", "mobius", "mobius-3",
         "hall-constant"],
)
def test_corrupted_name_fails_exactly_the_checks_that_guard_it(
    monkeypatch, modules, name, wrap, failing
):
    replacement = wrap(getattr(modules[0], name))
    for module in modules:
        monkeypatch.setattr(module, name, replacement)
    assert set(failures(run_suite("all", trials=3, seed=0))) == failing


def test_kill_rows_together_fail_every_check():
    """Every check id of the catalog is failed by at least one kill row."""
    reached = set().union(
        *(row[-1] for row in CLOSED_FORM_ROWS + ORACLE_ROWS + NAME_ROWS),
        TRUNCATION_FAILS, WRONG_IMAGE_FAILS, NON_JACOBI_FAILS,
    )
    ids = {check_id for check_id, _ in build_checks("all")}
    assert len(ids) == 21
    assert reached == ids
