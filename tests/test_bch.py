"""Series engine tests: table evaluation, coefficient identities, agreement."""

from fractions import Fraction
from random import Random

import pytest

import liejets.bch
from liejets.algebras import abelian, bracket, heisenberg3, sl2
from liejets.bch import BCH_DEGREE3_TERMS, bch_mul
from liejets.checks import ROWS, run_check
from liejets.hall import free_nilpotent
from liejets.jets import JetError, jet_identity, jet_make, jet_mul
from liejets.sampling import PLAIN_RING, random_jet, symbolic_jet_family

H3 = heisenberg3()
_HALF = Fraction(1, 2)


class TestTable:
    def test_exact_classical_coefficients(self):
        table = dict(BCH_DEGREE3_TERMS)
        assert table["a"] == 1
        assert table["b"] == 1
        assert table[("a", "b")] == Fraction(1, 2)
        assert table[("a", ("a", "b"))] == Fraction(1, 12)
        assert table[("b", ("b", "a"))] == Fraction(1, 12)
        assert len(BCH_DEGREE3_TERMS) == 5


class TestBchMul:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_abelian_is_coordinatewise_sum(self, order):
        spec = abelian(3)
        rng = Random(order)
        a = random_jet(spec, PLAIN_RING, order, rng)
        b = random_jet(spec, PLAIN_RING, order, rng)
        product = bch_mul(a, b)
        assert product.coords == tuple(x + y for x, y in zip(a.coords, b.coords))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_identity_is_neutral(self, order):
        rng = Random(order + 5)
        a = random_jet(sl2(), PLAIN_RING, order, rng)
        e = jet_identity(sl2(), PLAIN_RING, order)
        assert bch_mul(a, e) == a
        assert bch_mul(e, a) == a

    def test_degree3_coefficient_identity(self):
        # For generic jets over free-nilpotent(2,3), the series' top
        # coefficient must be expressible both as the raw series combination
        #   1/6 (X3+Y3) + 1/4 ([X1,Y2]+[X2,Y1]) + 1/12 [X1,[X1,Y1]] + 1/12 [Y1,[Y1,X1]]
        # and as 1/6 of the closed form's
        #   (X3+Y3) + 3/2 ([X1,Y2]+[X2,Y1]) + 1/2 [X1-Y1,[X1,Y1]].
        generic = free_nilpotent(2, 3)
        _, jets = symbolic_jet_family(generic, 3, ("a", "b"))
        a, b = jets["a"], jets["b"]
        x1, x2, x3 = a.coords
        y1, y2, y3 = b.coords

        r = a.signature.rational
        series_top = (
            (x3 + y3) * r(Fraction(1, 6))
            + (bracket(x1, y2) + bracket(x2, y1)) * r(Fraction(1, 4))
            + bracket(x1, bracket(x1, y1)) * r(Fraction(1, 12))
            + bracket(y1, bracket(y1, x1)) * r(Fraction(1, 12))
        )
        closed_top = (
            (x3 + y3)
            + (bracket(x1, y2) + bracket(x2, y1)) * r(Fraction(3, 2))
            + bracket(x1 - y1, bracket(x1, y1)) * r(_HALF)
        ) * r(Fraction(1, 6))
        assert series_top == closed_top

        # and the engine's own degree-3 output (exp coordinate = 3! * top)
        assert bch_mul(a, b).coords[2] == series_top * r(6)

    def test_ring_name_collision_avoided(self):
        from liejets.scalars import ring_make

        ring = ring_make([("d", 1)])
        rng = Random(1)
        a = random_jet(H3, ring, 2, rng)
        b = random_jet(H3, ring, 2, rng)
        assert bch_mul(a, b) == jet_mul(a, b)

    def test_monomial_coordinates_rejected(self):
        from liejets.jets import MONOMIAL

        a = jet_make(H3, PLAIN_RING, 2, random_jet(H3, PLAIN_RING, 2, Random(0)).coords,
                     MONOMIAL)
        with pytest.raises(JetError):
            bch_mul(a, a)

    def test_tampered_table_disagrees(self, monkeypatch):
        # corrupting the degree-2 coefficient must be caught: with
        # a = (p, 0), b = (q, 0) the series gives Z2 = 2c [p, q]
        from liejets.algebras import basis_element, zero_element

        p = basis_element(H3, PLAIN_RING, "p")
        q = basis_element(H3, PLAIN_RING, "q")
        zero = zero_element(H3, PLAIN_RING)
        a = jet_make(H3, PLAIN_RING, 2, (p, zero))
        b = jet_make(H3, PLAIN_RING, 2, (q, zero))
        tampered = tuple(
            (word, Fraction(1, 3) if word == ("a", "b") else coeff)
            for word, coeff in BCH_DEGREE3_TERMS
        )
        monkeypatch.setattr(liejets.bch, "BCH_DEGREE3_TERMS", tampered)
        wrong = bch_mul(a, b)
        assert wrong != jet_mul(a, b)
        two_thirds = PLAIN_RING.rational(Fraction(2, 3))
        assert wrong.coords[1] == basis_element(H3, PLAIN_RING, "z") * two_thirds

    @pytest.mark.parametrize("order, brackets", [(1, 0), (2, 1), (3, 3)])
    def test_forms_only_the_brackets_the_truncation_keeps(
        self, monkeypatch, order, brackets
    ):
        # words of degree above the order are skipped, [a, b] is formed once
        # for both the sum and [a, [a, b]], and [b, a] in [b, [b, a]] is
        # -[a, b] rather than a fourth bracket
        calls = []

        def counted(x, y):
            calls.append(1)
            return bracket(x, y)

        monkeypatch.setattr(liejets.bch, "bracket", counted)
        rng = Random(order)
        spec = free_nilpotent(2, 3)
        a = random_jet(spec, PLAIN_RING, order, rng)
        b = random_jet(spec, PLAIN_RING, order, rng)
        assert bch_mul(a, b) == jet_mul(a, b)
        assert len(calls) == brackets

    def test_a_word_below_its_d_degree_is_refused(self, monkeypatch):
        # a "bracket" returning its left argument puts [a, b] in d^1, not d^2
        monkeypatch.setattr(liejets.bch, "bracket", lambda x, y: x)
        rng = Random(2)
        a = random_jet(H3, PLAIN_RING, 2, rng)
        b = random_jet(H3, PLAIN_RING, 2, rng)
        with pytest.raises(JetError, match="d-degree 1"):
            bch_mul(a, b)

    def test_associative_on_random_inputs(self):
        rng = Random(17)
        for spec in (H3, sl2(), free_nilpotent(2, 3)):
            for _ in range(5):
                a = random_jet(spec, PLAIN_RING, 3, rng)
                b = random_jet(spec, PLAIN_RING, 3, rng)
                c = random_jet(spec, PLAIN_RING, 3, rng)
                assert bch_mul(bch_mul(a, b), c) == bch_mul(a, bch_mul(b, c))


class TestAgreementCheck:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_symbolic_and_random_pass(self, order):
        result = run_check(ROWS["def6.1-vs-bch-n"](order, [H3], 25, 0))
        assert result.passed
        assert result.detail["h3"]["symbolic"] == "pass"
        assert result.detail["h3"]["random_trials"] == 25
        assert result.check == f"def6.1-vs-bch-n{order}"

    def test_agreement_across_builtin_catalog(self):
        from liejets.catalog import default_verification_algebras

        for spec in default_verification_algebras():
            for order in (1, 2, 3):
                assert run_check(ROWS["def6.1-vs-bch-n"](order, [spec], 10, 3)).passed
