"""Ring kernel tests: exact arithmetic, canonical form, truncation, JSON."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from liejets.scalars import (
    RingSignature,
    SignatureError,
    SignatureMismatch,
    WeilScalar,
    embed,
    rational_from_str,
    ring_make,
    split_last_generator,
)

D3 = ring_make([("d", 3)])
D1 = ring_make([("d", 1)])
D2 = ring_make([("d", 2)])
EE = ring_make([("e1", 1), ("e2", 1)])
DE = ring_make([("d", 2), ("e", 1)])
Q = ring_make([])


def naive_poly_mul(a: dict, b: dict, orders) -> dict:
    """Independent dense polynomial multiplication with truncation."""
    out = {}
    for va, ca in a.items():
        for vb, cb in b.items():
            v = tuple(x + y for x, y in zip(va, vb))
            if any(e > m for e, m in zip(v, orders)):
                continue
            out[v] = out.get(v, Fraction(0)) + ca * cb
    return {v: c for v, c in out.items() if c}


class TestRingMake:
    def test_single_generator(self):
        assert D3.signature.generators == (("d", 3),)
        assert D3.gen("d", 4) == D3.zero

    def test_two_square_zero_generators(self):
        assert EE.signature.names == ("e1", "e2")
        assert EE.gen("e1") * EE.gen("e1") == EE.zero

    def test_mixed_orders(self):
        assert DE.signature.orders == (2, 1)

    def test_duplicate_generator_rejected(self):
        with pytest.raises(SignatureError):
            ring_make([("d", 2), ("d", 1)])

    def test_nonpositive_order_rejected(self):
        with pytest.raises(SignatureError):
            ring_make([("d", 0)])


class TestAddition:
    def test_cancellation(self):
        d = D3.gen("d")
        assert (D3.one + d) + (D3.rational(2) - d) == D3.rational(3)

    def test_additive_identity(self):
        d = D3.gen("d")
        assert d + D3.zero == d

    def test_rational_coefficients(self):
        half_d2 = D3.gen("d", 2).scale(Fraction(1, 2))
        assert half_d2 + half_d2 == D3.gen("d", 2)

    def test_mismatched_rings_rejected(self):
        with pytest.raises(SignatureMismatch):
            D3.gen("d") + D1.gen("d")


class TestMultiplication:
    def test_square_zero(self):
        d = D1.gen("d")
        assert d * d == D1.zero

    def test_binomial_with_truncation(self):
        # oracle: dense polynomial multiplication
        one_plus_d = {(0,): Fraction(1), (1,): Fraction(1)}
        expected = naive_poly_mul(one_plus_d, one_plus_d, (2,))
        assert expected == {(0,): 1, (1,): 2, (2,): 1}
        s = D2.one + D2.gen("d")
        assert s * s == D2.scalar(expected)
        assert s * s == D2.one + D2.gen("d").scale(2) + D2.gen("d", 2)

    def test_distinct_square_zero_generators_multiply(self):
        e1e2 = EE.gen("e1") * EE.gen("e2")
        assert not e1e2.is_zero()
        assert e1e2 == EE.scalar({(1, 1): 1})

    def test_mismatched_rings_rejected(self):
        with pytest.raises(SignatureMismatch):
            D3.gen("d") * EE.gen("e1")


class TestConstantTerm:
    def test_constant_plus_generator(self):
        assert (D3.rational(3) + D3.gen("d")).constant_term() == 3

    def test_no_constant_part(self):
        s = D3.gen("d") + D3.gen("d", 2).scale(Fraction(1, 2))
        assert s.constant_term() == 0

    def test_zero(self):
        assert D3.zero.constant_term() == 0


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def scalars_of(ring):
    exponents = st.tuples(*[st.integers(0, m) for m in ring.signature.orders])
    return st.dictionaries(exponents, small_fractions, max_size=4).map(ring.scalar)


@pytest.mark.parametrize("ring", [Q, D3, EE, DE], ids=lambda r: repr(r))
class TestRingLaws:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_add_mul_laws(self, ring, data):
        a = data.draw(scalars_of(ring))
        b = data.draw(scalars_of(ring))
        c = data.draw(scalars_of(ring))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_no_zero_coefficients_stored(self, ring, data):
        a = data.draw(scalars_of(ring))
        b = data.draw(scalars_of(ring))
        q = data.draw(small_fractions)
        for result in (a + b, a - b, a * b, -a, a.scale(q)):
            assert result.den > 0
            assert all(c != 0 for c in result.terms.values())
            assert gcd(result.den, *result.terms.values()) == 1
            if not result.terms:
                assert result.den == 1

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mul_against_naive_oracle(self, ring, data):
        a = data.draw(scalars_of(ring))
        b = data.draw(scalars_of(ring))
        arity = ring.signature.arity
        dense = lambda s: {  # noqa: E731
            tuple(dict(k).get(g, 0) for g in range(arity)): c
            for k, c in s.coefficients().items()
        }
        expected = naive_poly_mul(dense(a), dense(b), ring.signature.orders)
        assert a * b == ring.scalar(expected)


def test_nilpotency_exact():
    for ring in (D1, D2, D3, EE, DE):
        for name, m in ring.signature.generators:
            t = ring.gen(name)
            assert t ** (m + 1) == ring.zero
            assert t**m != ring.zero


def test_coefficient_vector_faithfulness():
    # Coefficient tuples (X_0, ..., X_n) against powers of d represent
    # scalars faithfully: equal tuples <-> equal scalars.
    vectors = [
        (0, 1, 0, 2),
        (0, 1, 0, 2),
        (1, 1, 0, 2),
        (0, 1, Fraction(1, 2), 2),
    ]
    scalars = [
        D3.scalar({(i,): c for i, c in enumerate(vec)}) for vec in vectors
    ]
    for u, su in zip(vectors, scalars):
        for v, sv in zip(vectors, scalars):
            assert (tuple(map(Fraction, u)) == tuple(map(Fraction, v))) == (su == sv)


def test_canonical_idempotence():
    s = D3.scalar({(0,): 3, (1,): Fraction(1, 2), (2,): 0})
    assert len(s.terms) == 2  # the zero coefficient is never stored
    assert s == D3.scalar({(0,): 3, (1,): Fraction(1, 2)})
    # rebuilding from the canonical table changes nothing
    dense = {
        tuple(dict(k).get(0, 0) for _ in range(1)): c
        for k, c in s.coefficients().items()
    }
    assert D3.scalar(dense) == s


def test_scale_and_pow():
    d = D3.gen("d")
    assert d.scale(0) == D3.zero
    assert (D3.one + d) ** 2 == D3.one + d.scale(2) + D3.gen("d", 2)
    assert d**0 == D3.one


class TestRationalStrings:
    @pytest.mark.parametrize(
        "text,value",
        [("1/2", Fraction(1, 2)), ("3", 3), ("-7/3", Fraction(-7, 3)), ("0", 0)],
    )
    def test_parse(self, text, value):
        assert rational_from_str(text) == value

    def test_str_forms(self):
        assert str(Fraction(1, 2)) == "1/2"
        assert str(Fraction(3)) == "3"
        assert str(Fraction(-7, 3)) == "-7/3"


class TestJson:
    def test_documented_shape(self):
        s = D3.gen("d") + D3.gen("d", 2).scale(Fraction(1, 2))
        assert s.to_json() == {
            "ring": [["d", 3]],
            "terms": [[[1], "1"], [[2], "1/2"]],
        }

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_round_trip(self, data):
        ring = data.draw(st.sampled_from([Q, D3, EE, DE]))
        s = data.draw(scalars_of(ring))
        assert WeilScalar.from_json(s.to_json()) == s

    def test_duplicate_exponent_vector_rejected(self):
        with pytest.raises(SignatureError):
            WeilScalar.from_json(
                {"ring": [["d", 3]], "terms": [[[1], "1"], [[1], "2"]]}
            )


class TestEmbedSplit:
    def test_embed_preserves_terms(self):
        s = D2.one + D2.gen("d")
        wide = embed(s, D2.signature.extend("t", 1))
        assert wide.constant_term() == 1
        assert wide.signature.names == ("d", "t")

    def test_embed_requires_prefix(self):
        with pytest.raises(SignatureMismatch):
            embed(D2.gen("d"), EE.signature)

    def test_split_round_trip(self):
        ext = ring_make([("d", 2), ("t", 3)])
        s = (ext.one + ext.gen("d")) * (ext.one + ext.gen("t") + ext.gen("t", 2))
        parts = split_last_generator(s)
        rebuilt = ext.zero
        for power, base in parts.items():
            rebuilt = rebuilt + embed(base, ext.signature) * ext.gen("t", power)
        assert rebuilt == s
        assert split_last_generator(ext.zero) == {}

    def test_split_reduces_each_part(self):
        s = D2.rational(Fraction(1, 2)) + D2.gen("d").scale(Fraction(1, 3))
        parts = split_last_generator(s)
        assert parts == {0: Q.rational(Fraction(1, 2)), 1: Q.rational(Fraction(1, 3))}

    def test_split_requires_a_generator(self):
        with pytest.raises(SignatureError):
            split_last_generator(Q.one)
