"""Verification driver tests: drivers, failure reporting, suite assembly."""

import hashlib
import json
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest

import liejets.bch
import liejets.catalog
import liejets.checks
import liejets.jets
import liejets.matrices
import liejets.scalars

from liejets.algebras import LieAlgebraSpec, LieElement, basis_element, heisenberg3
from liejets.algebras import make_algebra, sl2
from liejets.algebras import zero_element
from liejets.bch import BCH_DEGREE3_TERMS
from liejets.catalog import resolve_algebra
from liejets.checks import (
    _dense_product,
    associative,
    build_checks,
    ring_laws_hold,
    run_law,
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
from liejets.cli import main
from liejets.hall import free_nilpotent
from liejets.jets import Jet, JetError, jet_make, jet_mul
from liejets.matrices import MatrixRep
from liejets.sampling import PLAIN_RING, symbolic_jet_family
from liejets.scalars import WeilScalar, ring_make

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

    def test_dense_product_drops_exponents_above_their_order(self):
        ring = ring_make((("d", 2), ("e", 1)))
        a = ring.scalar({(1, 0): "1/2", (0, 1): 3})
        b = ring.scalar({(1, 1): 2, (2, 0): "-1/3", (0, 0): 1})
        # d * d^2 and e * d e exceed an order; the two d^2 e terms, 1 and -1,
        # cancel
        assert _dense_product(a, b) == {(1, 0): Fraction(1, 2), (0, 1): 3}
        assert _dense_product(a, b) == (a * b).coefficients()

    def test_ring_laws_see_a_product_that_drops_a_monomial(self, monkeypatch):
        # e1 * e2 = 0 leaves every generator's powers right, so nilpotency
        # and exact order hold and only the dense reference sees it
        ring = ring_make((("e1", 1), ("e2", 1)))
        e1, e2 = ring.gen("e1"), ring.gen("e2")
        e12 = e1 * e2
        real = WeilScalar.__mul__
        monkeypatch.setattr(WeilScalar, "__mul__", lambda x, y: (
            ring.zero if real(x, y) == e12 else real(x, y)
        ))
        assert ring_laws_hold(e1, e2, ring.one)["law"] == "dense product"

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


# both oracles read their product back from d^1..d^n, and the readback
# refuses the surviving d^(n+1) terms: the series product has them from
# order 2, where brackets are evaluated, and the matrix product at every
# order; Theorem 4's exponentials over Q[d_i]/(d_i^2), the nilpotency law
# and the square-zero e1, e2 of thm-7.3 all see the extra power too
TRUNCATION_FAILS = {
    "def6.1-vs-bch-n2", "def6.1-vs-bch-n3",
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
    for order in (2, 3):
        assert failed[f"def6.1-vs-bch-n{order}"].counterexample == {
            "symbolic": True,
            "error": f"SignatureError: power {order + 1} of the last generator has no weight",
        }


def _layout_without_guard_gap(orders):
    """``scalars._layout`` with each field starting on the previous field's
    guard bit (``shift += b`` for ``shift += b + 1``)."""
    shifts = []
    bias = guard = shift = 0
    for m in orders:
        b = m.bit_length()
        shifts.append(shift)
        bias |= ((1 << b) - 1 - m) << shift
        guard |= 1 << (shift + b)
        shift += b
    return tuple(shifts), bias, guard


def test_layout_without_guard_gap_fails_exactly_the_ring_laws(monkeypatch):
    # a generator whose field holds the previous field's guard bit is killed
    # by every product, even by one, so e2 = one * e2 vanishes; every
    # comparison computes both sides in the same wrong ring and agrees
    monkeypatch.setattr(liejets.scalars, "_layout", _layout_without_guard_gap)
    failed = failures(run_suite("all", trials=3, seed=0))
    assert set(failed) == {"struct-ring-laws"}
    assert failed["struct-ring-laws"].counterexample == {
        "ring": "WeilRing(e1^2=0, e2^2=0)", "trial": 0, "law": "exact order",
        "generator": "e2",
    }


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
        return MatrixRep(rep.algebra, {**rep.images, "z": doubled})

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


def _zero_degree_3(j: Jet) -> Jet:
    """``j`` with its degree-3 coordinate zeroed; lower orders unchanged."""
    if j.order < 3:
        return j
    z = j.coords
    return Jet(j.algebra, j.signature, j.order, j.system, (*z[:2], z[2] - z[2]))


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


def _refuse_readback(x, like):
    raise JetError("readback refused")


def _rotated(x: LieElement) -> LieElement:
    """``x`` with its coordinates moved one basis element along."""
    return LieElement(x.algebra, x.signature, (*x.coords[1:], x.coords[0]))


MATRIX_FAILS = {"def6.1-vs-matrix-n1", "def6.1-vs-matrix-n2", "def6.1-vs-matrix-n3"}
READBACK_FAILS = {"def6.1-vs-bch-n1", "def6.1-vs-bch-n2", "def6.1-vs-bch-n3", *MATRIX_FAILS}


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
    # s^3/3 in place of s^3/3! among the exp-product weights
    ((liejets.checks,), "exp_weights",
     lambda real: lambda n: (*real(n)[:2], real(n)[2].scale(2)) if n == 3 else real(n),
     {"thm-4.3"}),
    # the pointwise bracket with its degree-3 coordinate zeroed
    ((liejets.checks,), "jet_bracket",
     lambda real: lambda a, b: _zero_degree_3(real(a, b)),
     {"thm-7.3"}),
    # the curve readback raises: both oracle comparisons read every product
    # back
    ((liejets.bch, liejets.matrices), "read_curve", lambda real: _refuse_readback,
     READBACK_FAILS),
    # the matrix readback solves for rotated coordinates
    ((MatrixRep,), "extract", lambda real: lambda rep, m: _rotated(real(rep, m)),
     MATRIX_FAILS),
]


@pytest.mark.parametrize(
    "modules, name, wrap, failing",
    NAME_ROWS,
    ids=["product-z1", "product-z2", "inverse", "truncate", "mobius", "mobius-3",
         "hall-constant", "exp-weight-3", "bracket-degree-3", "readback-raises",
         "extract-rotated"],
)
def test_corrupted_name_fails_exactly_the_checks_that_guard_it(
    monkeypatch, modules, name, wrap, failing
):
    replacement = wrap(getattr(modules[0], name))
    for module in modules:
        monkeypatch.setattr(module, name, replacement)
    assert set(failures(run_suite("all", trials=3, seed=0))) == failing


def test_a_raising_law_fails_with_its_error_as_evidence(monkeypatch):
    for module in (liejets.bch, liejets.matrices):
        monkeypatch.setattr(module, "read_curve", _refuse_readback)
    failed = failures(run_suite("all", trials=3, seed=0))
    assert set(failed) == READBACK_FAILS
    # the series comparisons fail on their symbolic inputs, and the matrix
    # comparisons, which have none, at the first trial of their first family
    for check_id, check in failed.items():
        where = {"symbolic": True} if "bch" in check_id else {"algebra": "h3", "trial": 0}
        assert check.counterexample == {**where, "error": "JetError: readback refused"}
    # the command reports the failures and exits 1, with no traceback
    out = StringIO()
    with redirect_stdout(out):
        code = main(["verify", "--order", "1", "--trials", "1", "--no-timing"])
    assert code == 1
    report = json.loads(out.getvalue())
    assert {c["check"] for c in report["checks"] if c["status"] == "fail"} == {
        "def6.1-vs-bch-n1", "def6.1-vs-matrix-n1",
    }


def test_run_law_turns_an_exception_into_that_instances_failure():
    def law(x):
        if x == 2:
            raise ValueError("x" * 300)
        return None

    draws = iter(range(10))
    out = run_law(law, [({"algebra": "a"}, lambda rng: (next(draws),))], 5, 0)
    error = out.counterexample.pop("error")
    assert out.counterexample == {"algebra": "a", "trial": 2}
    assert error == ("ValueError: " + "x" * 300)[:200]
    assert out.instances == {"a": "fail"}


def test_run_law_lets_a_keyboard_interrupt_through():
    def law():
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_law(law, (), 1, 0, symbolic=())


def test_kill_rows_together_fail_every_check():
    """Every check id of the catalog is failed by at least one kill row."""
    reached = set().union(
        *(row[-1] for row in CLOSED_FORM_ROWS + ORACLE_ROWS + NAME_ROWS),
        TRUNCATION_FAILS, WRONG_IMAGE_FAILS, NON_JACOBI_FAILS,
    )
    ids = {check_id for check_id, _ in build_checks("all")}
    assert len(ids) == 21
    assert reached == ids
