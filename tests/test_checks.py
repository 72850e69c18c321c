"""Claim catalog tests: the rows, failure reporting, suite assembly."""

import importlib.util
import json
import re
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from math import lcm
from pathlib import Path

import pytest

import liejets.algebras
import liejets.bch
import liejets.catalog
import liejets.checks
import liejets.hall
import liejets.jets
import liejets.matrices
import liejets.scalars

from liejets.algebras import LieAlgebraSpec, LieElement, abelian, basis_element, heisenberg3
from liejets.algebras import make_algebra, sl2
from liejets.algebras import zero_element
from liejets.bch import BCH_DEGREE3_TERMS
from liejets.catalog import resolve_algebra
from liejets.checks import (
    ROWS,
    _dense_product,
    associative,
    build_checks,
    ring_laws_hold,
    run_check,
    run_law,
    run_suite,
    witt_dimensions_hold,
)
from liejets.cli import main
from liejets.hall import free_nilpotent
from liejets.jets import Jet, JetError, jet_make, jet_mul
from liejets.matrices import MatrixRep
from liejets.sampling import PLAIN_RING, symbolic_jet_family
from liejets.scalars import RingSignature, WeilScalar, rational_from_str, ring_make

H3 = heisenberg3()


def run_row(key: str, *args):
    """The result of the catalog row that ``ROWS[key]`` builds from ``args``."""
    return run_check(ROWS[key](*args))

CORRUPTED = make_algebra(
    "h3-corrupted", ("p", "q", "z"), {("p", "q"): [("z", 1)], ("p", "z"): [("p", 1)]}
)


class TestAssociativity:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_symbolic_generic(self, order):
        _, jets = symbolic_jet_family(free_nilpotent(3, 3), order, ("a", "b", "c"))
        assert associative(*jets.values()) is None

    def test_driver_passes(self):
        result = run_row("thm-6.", 3, [H3, sl2()], 20, 0)
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
        assert (left.coords[2] - right.coords[2]) == -z

        result = run_row("thm-6.", 3, [CORRUPTED], 30, 0)
        assert not result.passed
        counterexample = result.counterexample
        assert counterexample["algebra"] == "h3-corrupted"
        assert "a" in counterexample

    def test_bilinearity_alone_gives_order2(self):
        # order 2 associativity never touches the Jacobi identity
        assert run_row("thm-6.", 2, [CORRUPTED], 30, 0).passed

    def test_thousand_random_jets_per_builtin(self):
        # 112 triples per order = 1008 seeded jets per algebra
        from liejets.catalog import default_verification_algebras

        for order in (1, 2, 3):
            result = run_row("thm-6.", order, default_verification_algebras(), 112, 1)
            assert result.passed, result.counterexample


def test_generic_symbols_have_order_3():
    # every symbol sits in a jet slot of degree at least 1 and no law goes
    # above degree 3, so at order 3 no truncation drops a term
    ring, _ = symbolic_jet_family(free_nilpotent(2, 3), 3, ("a", "b"))
    assert {m for _, m in ring.generators} == {3}
    assert ring.gen("a1_0") ** 3 != ring.zero


def test_lemma_631_reduces_to_zero():
    result = run_row("lemma-6.3.1")
    assert result.passed
    assert result.check == "lemma-6.3.1"


class TestGroupAxioms:
    def test_passes_with_defaults(self):
        result = run_row("thm-7.0", (1, 2, 3), [H3, sl2()], 25, 0)
        assert result.passed
        assert result.check == "thm-7.0"
        assert result.detail["symbolic"] == "pass"

    def test_single_order_restriction(self):
        result = run_row("thm-7.0", (3,), [H3], 10, 0)
        assert result.passed
        assert result.detail["orders"] == [3]


class TestBracketRecovery:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_symbolic_and_random(self, order):
        result = run_row("thm-7.", order, [H3], 20, 0)
        assert result.passed
        assert result.check == f"thm-7.{order}"
        assert result.detail["h3"]["symbolic"] == "pass"
        assert result.detail["h3"]["expected_form"] == "pass"

    def test_sl2_random(self):
        assert run_row("thm-7.", 3, [sl2()], 20, 1).passed


class TestStructural:
    def test_witt(self):
        result = run_row("struct-witt-dimensions")
        assert result.passed
        assert result.detail["free-nilpotent(2,3)"] == {"dim": 5, "by_degree": [2, 1, 2]}
        assert result.detail["free-nilpotent(3,3)"] == {"dim": 14, "by_degree": [3, 3, 8]}

    def test_witt_necklace_total_its_degree_does_not_divide_is_evidence(self, monkeypatch):
        # mu(3) = +1 makes the degree-3 count of one generator (1 + 1) / 3
        real = liejets.checks._mobius
        monkeypatch.setattr(liejets.checks, "_mobius", lambda n: 1 if n == 3 else real(n))
        result = run_row("struct-witt-dimensions")
        assert not result.passed
        assert result.counterexample == {
            "algebra": "free-nilpotent(1,3)", "trial": 0,
            "got": [1, 0, 0], "want": ["1", "0", "2/3"],
        }
        assert len(result.detail) == 9

    def test_witt_sees_a_quotient_of_the_same_dimensions(self, monkeypatch):
        real = liejets.checks.free_nilpotent
        monkeypatch.setattr(liejets.checks, "free_nilpotent",
                            lambda m, c: _without_degree_3(real(m, c)))
        result = run_row("struct-witt-dimensions")
        assert result.counterexample == {
            "algebra": "free-nilpotent(2,3)", "trial": 0, "law": "free", "pair": ["x", "[x,y]"],
        }
        assert witt_dimensions_hold(_without_degree_3(real(3, 3)), 3, 3) == {
            "law": "free", "pair": ["x", "[x,y]"],
        }

    def test_jacobi(self):
        result = run_row("struct-jacobi-builtins")
        assert result.passed
        assert set(result.detail.values()) == {"pass"}
        assert "free-nilpotent(3,3)" in result.detail

    def test_ring_laws(self):
        assert run_row("struct-ring-laws", 30, 0).passed

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
        drawn = [{(1, 0): 1}, {(0, 1): 1}, {(0, 0): 1}]
        assert ring_laws_hold(e1, e2, ring.one, drawn)["law"] == "dense product"

    def test_ring_laws_see_a_result_left_unreduced(self, monkeypatch):
        # with no common factor divided out, an axiom's two sides can differ
        # in storage alone; the canonical law sees that before any axiom
        monkeypatch.setattr(liejets.scalars, "gcd", lambda *args: 1)
        result = run_row("struct-ring-laws", 3, 0)
        assert not result.passed
        assert result.counterexample["law"] == "canonical"

    def test_tower(self):
        assert run_row("struct-tower-compatibility", [H3, sl2()], 15, 0).passed


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

    @pytest.mark.parametrize("seed", [-1, -5])
    def test_negative_seed_rejected(self, seed):
        # a negative seed draws what its absolute value draws
        with pytest.raises(ValueError, match=f"^seed must be at least 0, got {seed}$"):
            build_checks("s6", seed=seed)

    @pytest.mark.parametrize("kwargs, message", [
        ({"order": 0}, "order must be None or an int 1..3, got 0"),
        ({"order": 4}, "order must be None or an int 1..3, got 4"),
        ({"order": True}, "order must be None or an int 1..3, got True"),
        ({"order": 2.0}, "order must be None or an int 1..3, got 2.0"),
        ({"trials": 2.5}, "trials must be an int, got 2.5"),
        ({"trials": True}, "trials must be an int, got True"),
        ({"trials": 0}, "trials must be at least 1, got 0"),
        ({"seed": True}, "seed must be an int, got True"),
        ({"seed": 1.5}, "seed must be an int, got 1.5"),
    ], ids=["order-0", "order-4", "order-bool", "order-float", "trials-float",
            "trials-bool", "trials-0", "seed-bool", "seed-float"])
    def test_order_trials_and_seed_refused_unless_ints_in_range(self, kwargs, message):
        # each would otherwise list a check twice, name a check after a
        # bool, fail in range() or print a seed no run used
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_checks("s7", **kwargs)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_suite("s6", **kwargs)

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


BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _load_bench_workloads():
    """The benchmark's ``workloads`` module, loaded from its file unchanged
    under a name of its own (its dataclasses look their module up by name)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_DIR / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_WORKLOADS = _load_bench_workloads()


def report_digest(trials: int, seed: int) -> str:
    """The benchmark's digest (``workloads.report_digest``: sha256 of the
    --no-timing report, interpreter version left out) of the catalog at
    ``trials`` and ``seed``."""
    return BENCH_WORKLOADS.report_digest(run_suite("all", trials=trials, seed=seed))


def test_seed0_report_matches_the_recorded_digest():
    """The --no-timing report of the benchmark's catalog workload at seed 0,
    100 trials, has the digest recorded in ``perfbench/baseline.json``, by
    the benchmark's own digest function."""
    digest = json.loads((BENCH_DIR / "baseline.json").read_text())["catalog"]["digest_seed0"]
    assert report_digest(100, 0) == digest


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_other_seeds_reports_match_the_recorded_digests(seed):
    """Byte-identity beyond seed 0: the --no-timing reports at seeds 1-4 and
    10 trials match the digests in ``report_digests.json``."""
    recorded = json.loads((Path(__file__).parent / "report_digests.json").read_text())
    assert report_digest(recorded["trials"], seed) == recorded["digests"][str(seed)]


def failures(report) -> dict:
    """The report's failing checks by id, each checked to carry a
    ``run_check`` counterexample: from the setup, symbolic, or from one
    trial of one family."""
    failed = {c.check: c for c in report.checks if not c.passed}
    for check in failed.values():
        counterexample = check.counterexample
        assert (counterexample.get("setup") is True or counterexample.get("symbolic") is True
                or isinstance(counterexample.get("trial"), int)), check.check
    return failed


CLOSED_FORM_ROWS = [
    # 3/2 -> 1 in the order-3 cross term of jet_mul
    ("_THREE_HALVES", Fraction(1),
     {"def6.1-vs-bch-n3", "def6.1-vs-matrix-n3", "thm-4.3", "thm-6.3", "thm-7.3"}),
    # 1/2 -> 0 drops the nested order-3 term, which the square-zero
    # scaling of thm-7.3 cannot see, nor thm-4.3 in h3, where every nested
    # bracket is zero, so thm-4.3 fails in sl2
    ("_HALF", Fraction(0),
     {"def6.1-vs-bch-n3", "def6.1-vs-matrix-n3", "thm-4.3", "thm-6.3"}),
]


@pytest.mark.parametrize("constant, value, failing", CLOSED_FORM_ROWS)
def test_corrupted_closed_form_fails_exactly_the_checks_that_guard_it(
    monkeypatch, constant, value, failing
):
    monkeypatch.setattr(liejets.jets, constant, value)
    failed = failures(run_suite("all", trials=3, seed=0))
    assert set(failed) == failing
    assert failed["thm-4.3"].counterexample["algebra"] == ("h3" if value else "sl2")


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
    # n^2 for n! in matrices: weil_exp's 1/k! and Theorem 4's weights
    # s^i/i! go wrong from k = 2, and only rings with a square that is not
    # zero reach k = 2: one d of order 1 (def6.1-vs-matrix-n1, thm-4.1)
    # kills every power of its images past the first
    (liejets.matrices, "factorial", lambda n: n * n,
     {"def6.1-vs-matrix-n2", "def6.1-vs-matrix-n3", "thm-4.2", "thm-4.3"}),
]


@pytest.mark.parametrize(
    "module, name, value, failing",
    ORACLE_ROWS,
    ids=["bch-sign", "bch-leaf", "bch-aab", "bch-bba", "jet-convert-factorial",
         "matrix-factorial"],
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


def _misread_scalar(shifted: bool, scaled: bool):
    """``RingSignature.scalar``, for valid exponent vectors, with each
    exponent packed without its field shift (``shifted`` false) or each
    numerator left over its own denominator (``scaled`` false)."""
    def scalar(ring, dense_terms):
        out = {}
        for vec, coeff in dense_terms.items():
            key = 0
            for g, e in enumerate(vec):
                key |= e << ring.shifts[g] if shifted else e
            c = rational_from_str(coeff)
            if c:
                out[key] = c
        den = lcm(*(c.denominator for c in out.values()))
        numerators = {k: c.numerator * (den // c.denominator if scaled else 1)
                      for k, c in out.items()}
        return WeilScalar(ring, numerators, den)
    return scalar


# the scalars that the catalog builds from term tables are those of the ring
# laws: every other scalar comes from a rational or a generator, so only
# the round trip sees a table read into the wrong scalar
@pytest.mark.parametrize("shifted, scaled", [(False, True), (True, False)],
                         ids=["exponent-unshifted", "numerator-unscaled"])
def test_misread_term_table_fails_exactly_the_ring_laws(monkeypatch, shifted, scaled):
    monkeypatch.setattr(RingSignature, "scalar", _misread_scalar(shifted, scaled))
    failed = failures(run_suite("all", trials=3, seed=0))
    assert set(failed) == {"struct-ring-laws"}
    assert failed["struct-ring-laws"].counterexample["law"] == "round trip"


# order 1 holds because the order-1 product is linear; from order 2 the
# matrix products form each bracket as the commutator of the images, while
# the closed form's bracket is realized through the doubled image of z, so
# both the matrix comparisons and Theorem 4's two sides tell them apart
WRONG_IMAGE_FAILS = {"def6.1-vs-matrix-n2", "def6.1-vs-matrix-n3", "thm-4.2", "thm-4.3"}


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
# identity; the matrix checks build h3 through the catalog too, and the true
# h3's images cannot represent the broken one, so their setup fails
NON_JACOBI_REP_FAILS = {
    f"{prefix}{n}" for prefix in ("thm-4.", "def6.1-vs-matrix-n") for n in (1, 2, 3)
}
NON_JACOBI_FAILS = {"struct-jacobi-builtins", "thm-6.3"} | NON_JACOBI_REP_FAILS


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
    for check_id in NON_JACOBI_REP_FAILS:
        assert failed[check_id].counterexample == {
            "setup": True,
            "error": "MatrixError: images violate bracket compatibility on (p, z)",
        }


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


def _without_degree_3(spec: LieAlgebraSpec) -> LieAlgebraSpec:
    """``spec`` with every structure constant of bracket degree 3 dropped: for
    a free nilpotent algebra of class 3, a quotient with the same basis and
    dimensions that still satisfies the Jacobi identity."""
    d = spec.degrees
    structure = {(i, j): e for (i, j), e in spec.structure.items() if d[i] + d[j] != 3}
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
      "thm-4.1", "thm-4.2", "thm-4.3",
      "thm-6.1", "thm-6.2", "thm-6.3", "thm-7.0", "thm-7.1", "thm-7.2", "thm-7.3"}),
    # z2 = x2 + [x1, y1], y2 dropped; the order-1 checks have no z2
    ((liejets.jets, liejets.checks), "jet_mul",
     _edit_product(lambda x, y, z: z if len(z) < 2 else (z[0], z[1] - y[1], *z[2:])),
     {"def6.1-vs-bch-n2", "def6.1-vs-bch-n3", "def6.1-vs-matrix-n2",
      "def6.1-vs-matrix-n3", "thm-4.2", "thm-4.3",
      "thm-6.2", "thm-6.3", "thm-7.0", "thm-7.2", "thm-7.3"}),
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
    # a wrong Hall structure constant of free-nilpotent(3,3), which the
    # freeness law sees as well
    ((liejets.checks,), "free_nilpotent",
     lambda real: lambda m, c: _doubled_x_yz(real(m, c)),
     {"lemma-6.3.1", "struct-jacobi-builtins", "struct-witt-dimensions", "thm-6.3"}),
    # every free nilpotent algebra, the catalog's included, with its structure
    # constants of bracket degree 3 dropped: every symbolic verdict and the
    # Jacobi scan hold in that quotient, and only the freeness law sees it
    ((liejets.checks, liejets.hall), "free_nilpotent",
     lambda real: lambda m, c: _without_degree_3(real(m, c)),
     {"struct-witt-dimensions"}),
    # s^3/3 in place of s^3/3! among the exp-product weights
    ((liejets.checks,), "exp_weights",
     lambda real: lambda n: (*real(n)[:2], real(n)[2] + real(n)[2]) if n == 3 else real(n),
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
         "hall-constant", "hall-quotient", "exp-weight-3", "bracket-degree-3", "readback-raises",
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
        run_law(law, (), 1, 0, symbolic=tuple)


CATALOG_ORDER = [
    "thm-4.1", "thm-4.2", "thm-4.3",
    "thm-6.1", "thm-6.2", "thm-6.3", "lemma-6.3.1",
    "thm-7.0", "thm-7.1", "thm-7.2", "thm-7.3",
    "def6.1-vs-bch-n1", "def6.1-vs-bch-n2", "def6.1-vs-bch-n3",
    "def6.1-vs-matrix-n1", "def6.1-vs-matrix-n2", "def6.1-vs-matrix-n3",
    "struct-witt-dimensions", "struct-jacobi-builtins",
    "struct-ring-laws", "struct-tower-compatibility",
]


def test_catalog_order_is_the_order_the_benchmark_reads():
    """``build_checks("all")`` lists the 21 checks in this order, which the
    benchmark's catalog workload follows to place each check's time."""
    assert [check_id for check_id, _ in build_checks("all")] == CATALOG_ORDER


def _injected(*args, **kwargs):
    raise RuntimeError("injected fault")


def test_build_checks_builds_nothing(monkeypatch):
    """``build_checks`` checks only its input: with every builder of the
    rows' algebras, representations and weights broken it still lists the
    catalog, and still refuses an override without a representation."""
    for module, name in ((liejets.checks, "builtin_rep"), (liejets.checks, "exp_weights"),
                         (liejets.catalog, "heisenberg3"), (liejets.hall, "free_nilpotent"),
                         (liejets.checks, "free_nilpotent")):
        monkeypatch.setattr(module, name, _injected)
    assert [check_id for check_id, _ in build_checks("all")] == CATALOG_ORDER
    with pytest.raises(ValueError, match=r"^no built-in representation for 'abelian\(3\)'$"):
        build_checks("all", algebras=[abelian(3)])


# (objects binding the name, name): a package function on the checked path,
# replaced in every module that binds it
FAULT_SITES = [
    ((liejets.matrices.WeilMatrix,), "__mul__"),
    ((liejets.algebras, liejets.jets, liejets.bch, liejets.checks, liejets.matrices),
     "bracket"),
    ((liejets.checks,), "exp_weights"),
    ((liejets.checks,), "symbolic_jet_family"),
    ((liejets.checks,), "random_jet"),
    ((liejets.checks, liejets.hall), "free_nilpotent"),
    ((liejets.catalog,), "heisenberg3"),
]


@pytest.mark.parametrize("targets, name", FAULT_SITES, ids=[s[1] for s in FAULT_SITES])
def test_a_fault_anywhere_on_the_checked_path_ends_in_a_report(
    monkeypatch, capsys, targets, name
):
    """A package function that raises, whether it builds a row's setup, its
    symbolic inputs or a trial's draw, or runs inside a law, fails the checks
    that reach it with the error as evidence: ``verify`` prints its report
    and exits 1, never 2 and never with a traceback."""
    for target in targets:
        monkeypatch.setattr(target, name, _injected)
    assert main(["verify", "--trials", "1", "--no-timing"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    assert failed
    for check in failed:
        assert check["counterexample"]["error"] == "RuntimeError: injected fault", check


def test_kill_rows_together_fail_every_check():
    """Every check id of the catalog is failed by at least one kill row."""
    reached = set().union(
        *(row[-1] for row in CLOSED_FORM_ROWS + ORACLE_ROWS + NAME_ROWS),
        TRUNCATION_FAILS, WRONG_IMAGE_FAILS, NON_JACOBI_FAILS,
    )
    ids = {check_id for check_id, _ in build_checks("all")}
    assert len(ids) == 21
    assert reached == ids
