"""Ring kernel tests: exact arithmetic, canonical form, truncation, JSON."""

from fractions import Fraction
from itertools import product
from math import gcd
from random import Random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from liejets.checks import _ring_label
from liejets.scalars import (
    RingSignature,
    SignatureError,
    SignatureMismatch,
    WeilScalar,
    _signed_sum,
    _weighted_sum,
    join_last_generator,
    lowest_last_power,
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
# weight 1 at every power of the last generator: join and split move terms only
UNWEIGHTED = (1, 1, 1, 1)


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


def naive_poly_sum(a: dict, b: dict, sign: int) -> dict:
    """Independent dense sum a + sign * b of {exponent vector: Fraction} tables."""
    out = dict(a)
    for v, c in b.items():
        out[v] = out.get(v, Fraction(0)) + sign * c
    return {v: c for v, c in out.items() if c}


class TestRingMake:
    def test_single_generator(self):
        assert D3.generators == (("d", 3),)
        assert D3.gen("d") ** 4 == D3.zero

    def test_two_square_zero_generators(self):
        assert EE.names == ("e1", "e2")
        assert EE.gen("e1") * EE.gen("e1") == EE.zero

    def test_mixed_orders(self):
        assert DE.orders == (2, 1)

    def test_duplicate_generator_rejected(self):
        with pytest.raises(SignatureError):
            ring_make([("d", 2), ("d", 1)])

    def test_nonpositive_order_rejected(self):
        with pytest.raises(SignatureError):
            ring_make([("d", 0)])

    @pytest.mark.parametrize(
        "entry", [("d", 2.9), ("d", 2.0), ("d", True), ("d", "2"), ("d", None), (1, 2), (None, 1)],
        ids=["float-order", "integral-float-order", "bool-order", "string-order",
             "null-order", "int-name", "null-name"],
    )
    def test_entries_are_checked_not_coerced(self, entry):
        with pytest.raises(SignatureError):
            RingSignature((entry,))
        with pytest.raises(SignatureError):
            RingSignature.from_json([list(entry)])
        with pytest.raises(SignatureError):
            D2.extend(*entry)


def seeded_signatures():
    """Signatures of arity 0-130 with orders 1-7, each with a fresh name and
    order to extend it by."""
    rng = Random(13)
    for arity in (*range(12), 31, 64, 127, 130):
        gens = tuple((f"t{i}", rng.randint(1, 7)) for i in range(arity))
        yield RingSignature(gens), f"t{arity}", rng.randint(1, 7)


class TestExtend:
    FIELDS = ("generators", "names", "orders", "arity", "shifts", "bias", "guard")

    @pytest.mark.parametrize("base,name,order", seeded_signatures())
    def test_extend_equals_a_fresh_construction(self, base, name, order):
        ext = base.extend(name, order)
        fresh = RingSignature(base.generators + ((name, order),))
        for field in self.FIELDS:
            assert getattr(ext, field) == getattr(fresh, field), field
        assert ext == fresh and hash(ext) == hash(fresh)
        assert ext.parent is base and fresh.parent is None
        assert ext.extend("u", 2) == fresh.extend("u", 2)

    @pytest.mark.parametrize(
        "name,order", [("e", 1), ("d", 1), ("d", 0), ("d", -1), ("d", 1.5)]
    )
    def test_extend_refuses_what_the_constructor_refuses(self, name, order):
        base = DE
        with pytest.raises(SignatureError) as built:
            RingSignature(base.generators + ((name, order),))
        with pytest.raises(SignatureError) as extended:
            base.extend(name, order)
        assert str(extended.value) == str(built.value)

    def test_an_extended_ring_builds_what_the_equal_ring_built_directly_builds(self):
        extended, direct = D2.extend("t", 3), ring_make([("d", 2), ("t", 3)])
        assert extended == direct and extended is not direct
        terms = {(1, 0): 2, (2, 3): Fraction(-1, 3), (0, 1): "5/7"}
        for build in (lambda r: r.zero, lambda r: r.one, lambda r: r.rational("-7/3"),
                      lambda r: r.gen("d"), lambda r: r.gen("t"), lambda r: r.scalar(terms)):
            assert build(extended) == build(direct)
        # zero and one are built on each read, so a ring stores no scalar
        assert extended.zero is not extended.zero and "zero" not in vars(extended)


class TestBoolIsNoScalar:
    """``True`` is an int to Python, but not a scalar; no number is.  A
    number enters only through ``ring.rational`` or as a merge's weight."""

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize(
        "op",
        [lambda s, b: s + b, lambda s, b: b + s, lambda s, b: s - b, lambda s, b: b - s,
         lambda s, b: s * b, lambda s, b: b * s],
        ids=["add", "radd", "sub", "rsub", "mul", "rmul"],
    )
    def test_operators_refuse_bools(self, op, value):
        with pytest.raises(TypeError):
            op(D3.gen("d"), value)

    def test_ints_still_combine(self):
        """Through the ring's constants."""
        d = D3.gen("d")
        assert D3.rational(1) * d == d
        assert d + D3.rational(1) == D3.rational(1) + d == D3.one + d
        assert d - D3.rational(1) == d + D3.rational(-1)

    def test_a_bool_equals_no_scalar(self):
        assert not D3.one == True  # noqa: E712
        assert not D3.zero == False  # noqa: E712
        assert D3.one != True  # noqa: E712
        assert D3.one == D3.rational(1) and D3.zero == D3.rational(0)

    @pytest.mark.parametrize("power", [True, False, 1.0, 1.5, "1"])
    def test_powers_are_ints(self, power):
        with pytest.raises(TypeError):
            D3.gen("d") ** power


@pytest.mark.parametrize("number", [3, 0, Fraction(1, 2)], ids=["int", "zero", "fraction"])
@pytest.mark.parametrize(
    "op",
    [lambda s, n: s + n, lambda s, n: n + s, lambda s, n: s - n,
     lambda s, n: s * n, lambda s, n: n * s],
    ids=["add", "radd", "sub", "mul", "rmul"],
)
def test_numbers_are_no_operands(op, number):
    """A scalar combines only with a scalar of its ring."""
    with pytest.raises(TypeError):
        op(D3.gen("d"), number)


def test_a_number_equals_no_scalar():
    assert (D3.one == 1) is False
    assert (D3.zero == 0) is False
    assert (Q.one == Fraction(1)) is False
    assert D3.rational(Fraction(1, 2)) != Fraction(1, 2)


def test_unknown_generator_refused():
    with pytest.raises(SignatureError):
        D3.gen("e")


class TestAddition:
    def test_cancellation(self):
        d = D3.gen("d")
        assert (D3.one + d) + (D3.rational(2) - d) == D3.rational(3)

    def test_additive_identity(self):
        d = D3.gen("d")
        assert d + D3.zero == d

    def test_rational_coefficients(self):
        half_d2 = D3.rational(Fraction(1, 2)) * D3.gen("d") ** 2
        assert half_d2 + half_d2 == D3.gen("d") ** 2

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
        assert s * s == D2.one + D2.rational(2) * D2.gen("d") + D2.gen("d") ** 2

    def test_distinct_square_zero_generators_multiply(self):
        e1e2 = EE.gen("e1") * EE.gen("e2")
        assert e1e2.terms
        assert e1e2 == EE.scalar({(1, 1): 1})

    def test_mismatched_rings_rejected(self):
        with pytest.raises(SignatureMismatch):
            D3.gen("d") * EE.gen("e1")


class TestPackedLayout:
    """Monomial products on packed keys against the dense truncation rule of
    ``naive_poly_mul``, including orders on both sides of 2, 4 and 8, where
    field widths change."""

    @pytest.mark.parametrize(
        "generators",
        [[("t", m)] for m in range(1, 10)] + [[("a", 1), ("b", 4), ("c", 7)]],
        ids=lambda g: ",".join(f"{n}{m}" for n, m in g),
    )
    def test_every_monomial_pair(self, generators):
        ring = ring_make(generators)
        orders = ring.orders
        monomials = {v: ring.scalar({v: 1}) for v in product(*(range(m + 1) for m in orders))}
        for u, su in monomials.items():
            assert su.coefficients() == {u: 1}
            for v, sv in monomials.items():
                assert (su * sv).coefficients() == naive_poly_mul({u: 1}, {v: 1}, orders)

    def test_wide_ring_sample(self):
        # 130 generators of orders 1..9: keys far wider than 64 bits
        ring = ring_make([(f"t{g}", g % 9 + 1) for g in range(130)])
        orders = ring.orders
        top = ring.gen("t129") ** orders[-1]
        assert max(top.terms) >= 1 << 64
        assert top * ring.gen("t129") == ring.zero
        assert top * ring.gen("t128") == ring.scalar(
            {(0,) * 128 + (1, orders[-1]): 1}
        )
        rng = Random(0)

        def sparse_vector():
            return tuple(rng.randint(0, m) if rng.random() < 0.1 else 0 for m in orders)

        for _ in range(300):
            u, v = sparse_vector(), sparse_vector()
            got = (ring.scalar({u: 1}) * ring.scalar({v: 1})).coefficients()
            assert got == naive_poly_mul({u: 1}, {v: 1}, orders)

    def test_last_power_round_trip(self):
        base = ring_make([("a", 1), ("b", 4), ("c", 7)])
        ext = base.extend("d", 3)
        s = base.scalar({(0, 0, 0): 2, (1, 4, 0): Fraction(-1, 3), (0, 3, 7): 5})
        total = WeilScalar(ext, {})
        for power in range(4):
            lifted = join_last_generator({power: s}, ext, UNWEIGHTED)
            assert lifted.coefficients() == {
                v + (power,): c for v, c in s.coefficients().items()
            }
            assert split_last_generator(lifted, base, UNWEIGHTED) == {power: s}
            assert lowest_last_power(lifted, WeilScalar(ext, {})) == power
            total = total + ext.rational(power + 1) * lifted
        assert split_last_generator(total, base, UNWEIGHTED) == {
            p: base.rational(p + 1) * s for p in range(4)
        }
        assert lowest_last_power(total) == 0
        assert lowest_last_power(WeilScalar(ext, {})) is None


class TestConstantTerm:
    def test_constant_plus_generator(self):
        assert (D3.rational(3) + D3.gen("d")).constant_term() == 3

    def test_no_constant_part(self):
        s = D3.gen("d") + D3.rational(Fraction(1, 2)) * D3.gen("d") ** 2
        assert s.constant_term() == 0

    def test_zero(self):
        assert D3.zero.constant_term() == 0


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def exponents_of(ring):
    return st.tuples(*[st.integers(0, m) for m in ring.orders])


def scalars_of(ring):
    return st.dictionaries(exponents_of(ring), small_fractions, max_size=4).map(ring.scalar)


def one_terms_of(ring):
    """Two one-term scalars and a third at the first one's monomial: the
    operands of the one-term branches of the product and the merge, at
    different monomials or at the same one."""
    coefficient = small_fractions.filter(bool)
    return st.tuples(exponents_of(ring), coefficient, exponents_of(ring), coefficient).map(
        lambda t: (ring.scalar({t[0]: t[1]}), ring.scalar({t[2]: t[3]}),
                   ring.scalar({t[0]: t[3]}))
    )


#: Hypothesis phases without the shrink: each ring's failing example is
#: reported as drawn.  With one defect planted in the kernel for each test
#: that uses this, shrinking ring after ring took 64 s to 290 s to report
#: the failure, and the unshrunk report about 3 s (Python 3.11, 2 vCPUs).
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


@pytest.mark.parametrize("ring", [Q, D3, EE, DE], ids=_ring_label)
class TestRingLaws:
    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
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

    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_no_zero_coefficients_stored(self, ring, data):
        a = data.draw(scalars_of(ring))
        b = data.draw(scalars_of(ring))
        q = data.draw(small_fractions)
        weighted = _signed_sum(ring.zero, a, q.numerator, q.denominator)
        for result in (a + b, a - b, a * b, -a, ring.rational(q) * a, weighted):
            assert result.den > 0
            assert all(c != 0 for c in result.terms.values())
            assert gcd(result.den, *result.terms.values()) == 1
            if not result.terms:
                assert result.den == 1

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_add_sub_against_naive_oracle(self, ring, data):
        a = data.draw(scalars_of(ring))
        b = data.draw(scalars_of(ring))
        # b / 3 meets a over unequal denominators, and (a + b) - a cancels
        # every term of a exactly
        for x, y in ((a, b), (a, ring.rational(Fraction(1, 3)) * b), (a + b, a)):
            cx, cy = x.coefficients(), y.coefficients()
            for got, want in (
                (x + y, naive_poly_sum(cx, cy, 1)),
                (x - y, naive_poly_sum(cx, cy, -1)),
                (y - x, naive_poly_sum(cy, cx, -1)),
            ):
                assert got.coefficients() == want
                assert got == ring.scalar(want)
        zero = a - a
        assert zero.terms == {} and zero.den == 1

    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_weighted_merge_is_scale_then_add(self, ring, data):
        a = data.draw(scalars_of(ring))
        b = data.draw(scalars_of(ring))
        u, v, w = data.draw(one_terms_of(ring))
        p = data.draw(st.integers(-6, 6))
        q = data.draw(st.integers(1, 6))
        # b over a denominator unlike a's, and b / 7 that no q cancels; u, v
        # and u, w are one-term pairs, at two monomials or at one
        weight = ring.rational(Fraction(p, q))
        for x, y in ((a, b), (a, ring.rational(Fraction(1, 7)) * b), (b, a), (u, v), (u, w)):
            got = _signed_sum(x, y, p, q)
            assert got == x + weight * y
            assert got.coefficients() == naive_poly_sum(
                x.coefficients(), (weight * y).coefficients(), 1
            )
            assert all(got.terms.values()) and gcd(got.den, *got.terms.values()) == 1
        # a sum that cancels to zero comes back in canonical form
        if p:
            for x in (a, u):
                zero = _signed_sum(ring.rational(Fraction(-p, q)) * x, x, p, q)
                assert zero.terms == {} and zero.den == 1
        assert _signed_sum(a, b, 0, q) is a

    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_weighted_sum_is_the_chain_of_merges(self, ring, data):
        # the reference is the chain of _signed_sum merges from zero, one per
        # operand; the operands mix tables and one-term scalars over unlike
        # denominators, and the empty scalar and a zero weight are always in
        u, v, w = data.draw(one_terms_of(ring))
        ys = data.draw(st.lists(scalars_of(ring), min_size=1, max_size=4))
        ys = data.draw(st.permutations([*ys, u, v, w, ring.zero]))
        weights = data.draw(st.lists(
            st.tuples(st.integers(-6, 6), st.integers(1, 6)), min_size=len(ys), max_size=len(ys)
        ))
        weights[data.draw(st.integers(0, len(ys) - 1))] = (0, data.draw(st.integers(1, 6)))
        # as drawn, and with the first weight 1, as the series' "a" has
        for ws in (weights, [(1, 1), *weights[1:]]):
            for count in range(2, len(ys) + 1):
                chain = ring.zero
                for y, (p, q) in zip(ys[:count], ws[:count]):
                    chain = _signed_sum(chain, y, p, q)
                got = _weighted_sum(ys[:count], ws[:count])
                assert got == chain
                assert all(got.terms.values()) and gcd(got.den, *got.terms.values()) == 1
                if not got.terms:
                    assert got.den == 1
                # adding -(chain) to the operands cancels the sum to the canonical zero
                zero = _weighted_sum([*ys[:count], chain], [*ws[:count], (-1, 1)])
                assert zero.terms == {} and zero.den == 1

    @settings(max_examples=40, deadline=None, phases=NO_SHRINK)
    @given(data=st.data())
    def test_mul_against_naive_oracle(self, ring, data):
        a = data.draw(scalars_of(ring))
        b = data.draw(scalars_of(ring))
        u, v, w = data.draw(one_terms_of(ring))
        for x, y in ((a, b), (u, v), (u, w)):
            expected = naive_poly_mul(x.coefficients(), y.coefficients(), ring.orders)
            assert x * y == ring.scalar(expected)


# (ring, x, y, p, q): one-term operands of the product x * y and the merge
# x + (p/q) y, each result compared with the naive oracle
ONE_TERM_CASES = {
    "same monomial": (D3, {(1,): "3/4"}, {(1,): "5/6"}, 1, 1),
    "different monomials": (DE, {(1, 0): "2/3"}, {(0, 1): "-9/4"}, 1, 1),
    # d^2 * d^2 = d^4 = 0 in Q[d]/(d^3); the sum keeps both terms
    "product killed by truncation": (D2, {(2,): "1/2"}, {(2,): "7"}, 3, 2),
    # 1/6 d - (3/2)(1/9 d) = 0, over denominator 1
    "sum cancels to zero": (D3, {(1,): "1/6"}, {(1,): "1/9"}, -3, 2),
    # 10 shares 2 with x's 4 and 5 with y's 15, and 6 shares 2 and 3
    "weight shares factors with both denominators": (
        EE, {(1, 1): "3/4"}, {(1, 1): "7/15"}, 10, 6),
}


@pytest.mark.parametrize("case", ONE_TERM_CASES)
def test_one_term_branches_against_naive_oracle(case):
    ring, x, y, p, q = ONE_TERM_CASES[case]
    x, y = ring.scalar(x), ring.scalar(y)
    cx, cy = x.coefficients(), y.coefficients()
    weighted = {vec: c * Fraction(p, q) for vec, c in cy.items()}
    product = naive_poly_mul(cx, cy, ring.orders)
    total = naive_poly_sum(cx, weighted, 1)
    for got, want in ((x * y, product), (_signed_sum(x, y, p, q), total)):
        assert got.coefficients() == want
        # literal equality with the canonical form: a zero result is {} over 1
        assert got == ring.scalar(want)


def test_nilpotency_exact():
    for ring in (D1, D2, D3, EE, DE):
        for name, m in ring.generators:
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
    assert s.coefficients() == {(0,): 3, (1,): Fraction(1, 2)}
    # rebuilding from the canonical table changes nothing
    assert D3.scalar(s.coefficients()) == s


def test_scale_and_pow():
    d = D3.gen("d")
    assert D3.rational(0) * d == D3.zero
    assert (D3.one + d) ** 2 == D3.one + D3.rational(2) * d + D3.gen("d") ** 2
    assert d**0 == D3.one


def test_a_merge_into_zero_is_canonical():
    """The merge into an empty scalar: weight 1 returns y itself, and a weight
    sharing a factor with y's denominator reduces, (2/3) * (3/4)d = (1/2)d."""
    d = D3.gen("d")
    assert _signed_sum(D3.zero, d, 1, 1) is d
    half = _signed_sum(D3.zero, D3.rational(Fraction(3, 4)) * d, 2, 3)
    assert half == D3.rational(Fraction(1, 2)) * d
    assert half.terms == d.terms and half.den == 2


class TestScaleRefusesInexactRationals:
    """A float or a bool is not an exact rational, as for the loaders."""

    @pytest.mark.parametrize("value", [0.1, 1.0, 0.0, True, False])
    def test_scale_and_rational(self, value):
        with pytest.raises(SignatureError):
            D3.rational(value)

    @pytest.mark.parametrize(
        "terms",
        [{(1.9,): 1}, {(1.0,): 1}, {("1",): 1}, {(True,): 1}, {(1,): 0.5}, {(1,): True},
         {1: 1}],
        ids=["float-exponent", "integral-float-exponent", "string-exponent",
             "bool-exponent", "float-coefficient", "bool-coefficient", "int-vector"],
    )
    def test_scalar_from_terms(self, terms):
        with pytest.raises(SignatureError):
            D3.scalar(terms)

    def test_strings_and_exact_values_still_read(self):
        d = D3.gen("d")
        half = D3.scalar({(1,): Fraction(1, 2)})
        assert D3.rational("1/2") * d == D3.rational(Fraction(1, 2)) * d == half
        assert D3.rational("-7/3") == D3.rational(Fraction(-7, 3))
        with pytest.raises(TypeError):
            d * 0.1


class TestRationalStrings:
    @pytest.mark.parametrize(
        "text,value",
        [("1/2", Fraction(1, 2)), ("3", 3), ("-7/3", Fraction(-7, 3)), ("0", 0)],
    )
    def test_parse(self, text, value):
        assert rational_from_str(text) == value

    @pytest.mark.parametrize("value", [3, Fraction(1, 3)])
    def test_exact_values_pass_through_unchanged(self, value):
        assert rational_from_str(value) is value

    @pytest.mark.parametrize("value", [True, 0.5, None, [1]])
    def test_inexact_values_refused(self, value):
        with pytest.raises(SignatureError):
            rational_from_str(value)

    @pytest.mark.parametrize(
        "text",
        ["1e5000", "0.5", " 1/2 ", "1_000", "1/0", "1/-2", "+1/+2", "",
         "\u0661", "1" * 5000, "1/" + "1" * 5000],
        ids=["exponent", "decimal-point", "padded", "underscore",
             "zero-denominator", "signed-denominator", "plus-denominator", "empty",
             "non-ascii-digit", "numerator-past-the-digit-limit",
             "denominator-past-the-digit-limit"],
    )
    def test_text_outside_the_grammar_refused(self, text):
        # "p" or "p/q" in ASCII digits, with an optional sign on p only.
        # Fraction reads exponents, so "1e5000" was a 5001-digit integer
        # (and "1e1000000000", not run, would be a 10^9-digit one), and it
        # reads the decimal, padded and underscore forms too.
        class CallerError(ValueError):
            pass

        with pytest.raises(CallerError):
            rational_from_str(text, CallerError)
        with pytest.raises(SignatureError):
            rational_from_str(text)

    @pytest.mark.parametrize(
        "text,value",
        [("+3", 3), ("-0", 0), ("007/014", Fraction(1, 2)), ("6/4", Fraction(3, 2)),
         ("1" * 4300, int("1" * 4300))],
    )
    def test_grammar_reads_signs_leading_zeros_and_unreduced_forms(self, text, value):
        read = rational_from_str(text)
        assert read == value and read.__class__ is Fraction

    def test_str_forms(self):
        assert str(Fraction(1, 2)) == "1/2"
        assert str(Fraction(3)) == "3"
        assert str(Fraction(-7, 3)) == "-7/3"


class TestJson:
    def test_documented_shape(self):
        s = D3.gen("d") + D3.rational(Fraction(1, 2)) * D3.gen("d") ** 2
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


class TestJoinSplit:
    def test_join_places_terms_at_the_power(self):
        s = D2.one + D2.gen("d")
        ext = ring_make([("d", 2), ("t", 1)])
        assert join_last_generator({0: s}, ext, UNWEIGHTED) == ext.one + ext.gen("d")
        assert join_last_generator({1: s}, ext, UNWEIGHTED) == (
            ext.gen("t") + ext.gen("d") * ext.gen("t")
        )
        with pytest.raises(SignatureError):
            join_last_generator({2: s}, ext, UNWEIGHTED)
        with pytest.raises(SignatureError):
            join_last_generator({-1: s}, ext, UNWEIGHTED)

    def test_join_requires_the_base_signature_as_prefix(self):
        with pytest.raises(SignatureMismatch):
            join_last_generator({1: D2.gen("d")}, EE, UNWEIGHTED)
        with pytest.raises(SignatureMismatch):
            join_last_generator({1: Q.one}, EE, UNWEIGHTED)
        with pytest.raises(SignatureMismatch):
            join_last_generator({0: Q.one}, Q, UNWEIGHTED)
        mixed = {0: D2.one, 1: D1.one}
        with pytest.raises(SignatureMismatch):
            join_last_generator(mixed, ring_make([("d", 2), ("t", 1)]), UNWEIGHTED)

    def test_split_round_trip(self):
        ext = ring_make([("d", 2), ("t", 3)])
        s = (ext.one + ext.gen("d")) * (ext.one + ext.gen("t") + ext.gen("t") ** 2)
        parts = split_last_generator(s, D2, UNWEIGHTED)
        rebuilt = ext.zero
        for power, base in parts.items():
            rebuilt = rebuilt + join_last_generator({power: base}, ext, UNWEIGHTED)
        assert rebuilt == s
        assert join_last_generator(parts, ext, UNWEIGHTED) == s
        assert split_last_generator(ext.zero, D2, UNWEIGHTED) == {}

    def test_join_is_the_inverse_of_split(self):
        base = DE
        ext = base.extend("t", 3)
        rng = Random(5)
        for _ in range(40):
            parts = {}
            for power in rng.sample(range(4), rng.randint(1, 4)):
                parts[power] = base.scalar({
                    (rng.randint(0, 2), rng.randint(0, 1)):
                        Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12))
                    for _ in range(rng.randint(1, 3))
                })
            joined = join_last_generator(parts, ext, UNWEIGHTED)
            assert split_last_generator(joined, base, UNWEIGHTED) == parts
            assert joined == sum(
                (join_last_generator({p: s}, ext, UNWEIGHTED) for p, s in parts.items()),
                WeilScalar(ext, {}),
            )
        assert join_last_generator({}, ext, UNWEIGHTED) == WeilScalar(ext, {})
        assert not join_last_generator({}, ext, UNWEIGHTED).terms

    def test_weighted_join_and_split_are_inverse(self):
        base = DE
        ext = base.extend("t", 3)
        rng = Random(11)
        for weights in ((1, 1, 2, 6), (5, 3, 4, 9), (1, 7, 1, 12)):
            for _ in range(20):
                parts = {}
                for power in rng.sample(range(4), rng.randint(1, 4)):
                    parts[power] = base.scalar({
                        (rng.randint(0, 2), rng.randint(0, 1)):
                            Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                        for _ in range(rng.randint(1, 3))
                    })
                joined = join_last_generator(parts, ext, weights)
                # part p divided by weights[p], then moved to t^p
                divided = {p: base.rational(Fraction(1, weights[p])) * s for p, s in parts.items()}
                assert joined == join_last_generator(divided, ext, UNWEIGHTED)
                split = split_last_generator(joined, base, weights)
                assert split == {p: s for p, s in parts.items() if s.terms}
                assert split_last_generator(joined, base, UNWEIGHTED) == {
                    p: s for p, s in divided.items() if s.terms
                }
                for scalar in (joined, *split.values()):
                    assert gcd(scalar.den, *scalar.terms.values()) == 1

    def test_split_reads_only_the_weighted_powers(self):
        ext = ring_make([("d", 2), ("t", 3)])
        low = (ext.one + ext.gen("d")) * (ext.one + ext.gen("t"))
        s = low + (ext.one + ext.gen("d")) * ext.gen("t") ** 3
        whole = split_last_generator(s, D2, UNWEIGHTED)
        assert sorted(whole) == [0, 1, 3]
        # weights are needed only up to the highest power present
        assert split_last_generator(low, D2, (1, 2)) == {
            0: whole[0], 1: D2.rational(2) * whole[1]
        }
        # a power with no weight is refused, not dropped
        with pytest.raises(SignatureError, match="power 3 .* has no weight"):
            split_last_generator(s, D2, (1, 2))

    def test_join_and_split_accept_an_equal_base_built_separately(self):
        base = DE
        ext = base.extend("t", 2)
        twin = RingSignature(base.generators)
        s = twin.scalar({(1, 0): 3, (2, 1): Fraction(1, 2)})
        joined = join_last_generator({0: s, 2: s}, ext, UNWEIGHTED)
        assert joined == join_last_generator(
            {0: WeilScalar(base, s.terms, s.den), 2: WeilScalar(base, s.terms, s.den)},
            ext, UNWEIGHTED,
        )
        assert split_last_generator(joined, twin, UNWEIGHTED) == {0: s, 2: s}
        assert split_last_generator(joined, base, UNWEIGHTED) == {0: s, 2: s}
        with pytest.raises(SignatureMismatch):
            join_last_generator({0: EE.one}, ext, UNWEIGHTED)
        with pytest.raises(SignatureError):
            split_last_generator(joined, EE, UNWEIGHTED)
        with pytest.raises(SignatureError):
            split_last_generator(joined, ext, UNWEIGHTED)

    def test_split_reduces_each_part(self):
        s = D2.rational(Fraction(1, 2)) + D2.rational(Fraction(1, 3)) * D2.gen("d")
        parts = split_last_generator(s, Q, UNWEIGHTED)
        assert parts == {0: Q.rational(Fraction(1, 2)), 1: Q.rational(Fraction(1, 3))}

    def test_split_requires_a_generator(self):
        with pytest.raises(SignatureError):
            split_last_generator(Q.one, Q, UNWEIGHTED)
        with pytest.raises(SignatureError):
            split_last_generator(EE.one, Q, UNWEIGHTED)
