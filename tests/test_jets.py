"""Group law tests: products, units, inverses, brackets, commutators, JSON."""

from fractions import Fraction
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from liejets.algebras import LieElement, basis_element, bracket, zero_element
from liejets.algebras import heisenberg3, sl2, so3, abelian
from liejets.bch import bch_mul
from liejets.hall import free_nilpotent
from liejets.jets import (
    EXP,
    MONOMIAL,
    Jet,
    JetError,
    jet_bracket,
    jet_convert,
    jet_group_commutator,
    jet_identity,
    jet_inverse,
    jet_make,
    jet_mul,
    jet_scale,
    jet_truncate,
    lift_curves,
    read_curve,
)
from liejets.sampling import PLAIN_RING, random_jet, symbolic_jet_family
from liejets.scalars import (
    SignatureError,
    WeilScalar,
    join_last_generator,
    ring_make,
    split_last_generator,
)

H3 = heisenberg3()
EE = ring_make([("e1", 1), ("e2", 1)])

BUILTINS = [heisenberg3(), sl2(), so3(), abelian(3), free_nilpotent(2, 3)]
P_PLUS_Q = LieElement(H3, PLAIN_RING, (PLAIN_RING.one,) * 2 + (PLAIN_RING.zero,))


def random_monomial_jet(algebra, order, rng):
    """The coordinates of a random exp-coordinate jet, read as monomial ones."""
    coords = random_jet(algebra, PLAIN_RING, order, rng).coords
    return jet_make(algebra, PLAIN_RING, order, coords, MONOMIAL)


def h3_jet(order, *coord_names, ring=PLAIN_RING, system=EXP):
    """Jet with named single-basis coordinates ('0' for zero)."""
    coords = []
    for name in coord_names:
        if name == "0":
            coords.append(zero_element(H3, ring))
        else:
            coords.append(basis_element(H3, ring, name))
    return jet_make(H3, ring, order, coords, system)


def to_exp(j: Jet) -> Jet:
    """Monomial coordinates back to exp ones, X_i * i!: the inverse of
    :func:`jet_convert`'s rescale, which the package does not need."""
    ring = j.signature
    coords = tuple(c * ring.rational(factorial(i)) for i, c in enumerate(j.coords, 1))
    return Jet(j.algebra, j.signature, j.order, EXP, coords)


class TestConvert:
    def test_exp_to_monomial_divides_by_factorials(self):
        j = h3_jet(2, "p", "q")
        m = jet_convert(j, MONOMIAL)
        assert m.coords[0] == basis_element(H3, PLAIN_RING, "p")
        half = PLAIN_RING.rational(Fraction(1, 2))
        assert m.coords[1] == basis_element(H3, PLAIN_RING, "q") * half

    def test_round_trip_is_identity(self):
        rng = Random(5)
        for _ in range(20):
            order = rng.choice((1, 2, 3))
            j = random_jet(H3, PLAIN_RING, order, rng)
            assert to_exp(jet_convert(j, MONOMIAL)) == j
            assert jet_convert(j, EXP) is j

    def test_unknown_system_rejected(self):
        with pytest.raises(JetError):
            jet_convert(h3_jet(1, "p"), "taylor")
        with pytest.raises(JetError):
            jet_convert(h3_jet(1, "p", system=MONOMIAL), EXP)


# -- the oracles' curve lift and readback against a two-step reference ---------

# weight 1 at every power of d: join and split move terms only
UNWEIGHTED = (1, 1, 1, 1)
D2 = ring_make([("d", 2)])


def reference_lift(j: Jet, sig) -> LieElement:
    """The curve of ``j`` in two steps: the monomial jet, then each basis
    coordinate's n monomial coordinates moved to d^1..d^n."""
    columns = zip(*(x.coords for x in jet_convert(j, MONOMIAL).coords))
    return LieElement(j.algebra, sig, tuple(
        join_last_generator(dict(enumerate(column, 1)), sig, UNWEIGHTED)
        for column in columns
    ))


def reference_read(x: LieElement, like: Jet) -> Jet:
    """The exp jet of curve ``x`` in two steps: the monomial jet of its
    d^1..d^n parts, then converted."""
    sig = like.signature
    parts = [split_last_generator(c, sig, UNWEIGHTED) for c in x.coords]
    zero = WeilScalar(sig, {})
    coords = tuple(
        LieElement(like.algebra, sig, tuple(p.get(i, zero) for p in parts))
        for i in range(1, like.order + 1)
    )
    return to_exp(Jet(like.algebra, sig, like.order, MONOMIAL, coords))


def d_ring_jet(algebra, order, rng) -> Jet:
    """Jet over Q[d]/(d^3) whose every coordinate mixes 1, d and d^2, so the
    lift must name its fresh generator d_."""
    coords = tuple(
        LieElement(algebra, D2, tuple(
            D2.scalar({(e,): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                       for e in range(3)})
            for _ in range(algebra.dim)
        ))
        for _ in range(order)
    )
    return jet_make(algebra, D2, order, coords)


def curve_pairs(order: int) -> list:
    """Seeded plain and d-ring pairs on every built-in algebra, and one
    generic symbolic pair over free-nilpotent(2,3)."""
    rng = Random(40 + order)
    pairs = []
    for spec in BUILTINS:
        pairs.append((random_jet(spec, PLAIN_RING, order, rng),
                      random_jet(spec, PLAIN_RING, order, rng)))
        pairs.append((d_ring_jet(spec, order, rng), d_ring_jet(spec, order, rng)))
    _, generic = symbolic_jet_family(free_nilpotent(2, 3), order, ("a", "b"))
    pairs.append((generic["a"], generic["b"]))
    return pairs


@pytest.mark.parametrize("order", [1, 2, 3])
def test_lift_and_readback_match_the_two_step_reference(order):
    for a, b in curve_pairs(order):
        A, B = lift_curves(a, b)
        sig = A.signature
        # one extended signature, made from the jets' own, under every scalar
        assert sig.parent is a.signature
        assert all(c.signature is sig for x in (A, B) for c in x.coords)
        assert sig.generators[:-1] == a.signature.generators
        assert sig.names[-1] not in a.signature.names and sig.orders[-1] == order
        assert A == reference_lift(a, sig) and B == reference_lift(b, sig)
        assert read_curve(A, a) == reference_read(A, a) == a
        # a curve with mixed denominators in every degree the order keeps
        mixed = A.add_scaled(B, Fraction(-2, 3)).add_scaled(bracket(A, B), Fraction(1, 2))
        assert read_curve(mixed, a) == reference_read(mixed, a)


def test_readback_refuses_a_curve_with_a_degree_0_part():
    a = jet_make(H3, PLAIN_RING, 2, (basis_element(H3, PLAIN_RING, "p"),
                                     zero_element(H3, PLAIN_RING)))
    (curve,) = lift_curves(a)
    constant = basis_element(H3, curve.signature, "q")
    with pytest.raises(JetError, match="degree-0"):
        read_curve(curve + constant, a)


def test_readback_refuses_a_curve_above_its_order():
    a = jet_make(H3, PLAIN_RING, 3, (basis_element(H3, PLAIN_RING, "p"),
                                     zero_element(H3, PLAIN_RING),
                                     basis_element(H3, PLAIN_RING, "q")))
    (curve,) = lift_curves(a)
    # the order-3 curve has a part at d^3, which no order-2 jet holds
    with pytest.raises(SignatureError, match="power 3"):
        read_curve(curve, jet_truncate(a, 2))


def reference_mul(a: Jet, b: Jet) -> Jet:
    """The closed form as written: each weighted term multiplied by its ring
    constant on its own, then all terms added."""
    x, y, r = a.coords, b.coords, a.signature.rational
    z = [x[0] + y[0]]
    if a.order >= 2:
        z.append(x[1] + y[1] + bracket(x[0], y[0]))
    if a.order == 3:
        cross = bracket(x[0], y[1]) + bracket(x[1], y[0])
        nested = bracket(x[0] - y[0], bracket(x[0], y[0]))
        z.append(x[2] + y[2] + cross * r(Fraction(3, 2)) + nested * r(Fraction(1, 2)))
    return Jet(a.algebra, a.signature, a.order, EXP, tuple(z))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_mul_equals_the_closed_form_as_written(order):
    # plain and Q[d]/(d^3) jets on every built-in algebra, and a generic pair
    for a, b in curve_pairs(order):
        assert jet_mul(a, b) == reference_mul(a, b)


class TestMul:
    def test_order1_is_addition(self):
        product = jet_mul(h3_jet(1, "p"), h3_jet(1, "q"))
        assert product.coords == (P_PLUS_Q,)

    def test_order2_picks_up_the_bracket(self):
        product = jet_mul(h3_jet(2, "p", "0"), h3_jet(2, "q", "0"))
        assert product.coords[0] == P_PLUS_Q
        assert product.coords[1] == basis_element(H3, PLAIN_RING, "z")

    def test_order3_central_bracket_dies(self):
        # [p - q, [p, q]] = [p - q, z] = 0 because z is central
        a, b = h3_jet(3, "p", "0", "0"), h3_jet(3, "q", "0", "0")
        product = jet_mul(a, b)
        assert product.coords[0] == P_PLUS_Q
        assert product.coords[1] == basis_element(H3, PLAIN_RING, "z")
        assert product.coords[2].is_zero()
        # cross-check with the independent series engine
        assert bch_mul(a, b) == product

    def test_requires_exp_coordinates(self):
        a = h3_jet(2, "p", "0", system=MONOMIAL)
        with pytest.raises(JetError):
            jet_mul(a, a)

    def test_order_mismatch_rejected(self):
        with pytest.raises(JetError):
            jet_mul(h3_jet(1, "p"), h3_jet(2, "p", "0"))

    def test_algebra_mismatch_rejected(self):
        other = jet_identity(sl2(), PLAIN_RING, 2)
        with pytest.raises(JetError):
            jet_mul(h3_jet(2, "p", "0"), other)

    def test_ring_mismatch_rejected(self):
        with pytest.raises(JetError):
            jet_mul(h3_jet(2, "p", "0"), h3_jet(2, "p", "0", ring=EE))


class TestUnitAndInverse:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_identity_laws_random(self, order):
        rng = Random(order)
        e = jet_identity(H3, PLAIN_RING, order)
        for _ in range(10):
            a = random_jet(H3, PLAIN_RING, order, rng)
            assert jet_mul(e, a) == a
            assert jet_mul(a, e) == a
        assert jet_mul(e, e) == e

    def test_identity_is_all_zeros(self):
        e = jet_identity(H3, PLAIN_RING, 2)
        assert all(c.is_zero() for c in e.coords)

    def test_inverse_negates_coordinates(self):
        j = h3_jet(3, "p", "q", "z")
        inv = jet_inverse(j)
        assert inv.coords == tuple(-c for c in j.coords)

    def test_inverse_cancels_order2(self):
        a = h3_jet(2, "p", "0")
        assert jet_mul(a, jet_inverse(a)) == jet_identity(H3, PLAIN_RING, 2)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_inverse_law_random(self, order):
        rng = Random(order + 10)
        e = jet_identity(H3, PLAIN_RING, order)
        for _ in range(10):
            a = random_jet(H3, PLAIN_RING, order, rng)
            assert jet_mul(a, jet_inverse(a)) == e
            assert jet_mul(jet_inverse(a), a) == e


class TestJetBracket:
    def test_order2_convolution(self):
        a = h3_jet(2, "p", "0", system=MONOMIAL)
        b = h3_jet(2, "q", "0", system=MONOMIAL)
        result = jet_bracket(a, b)
        assert result.coords[0].is_zero()
        assert result.coords[1] == basis_element(H3, PLAIN_RING, "z")

    def test_self_bracket_vanishes(self):
        rng = Random(2)
        a = random_monomial_jet(H3, 3, rng)
        assert jet_bracket(a, a) == jet_identity(H3, PLAIN_RING, 3, MONOMIAL)

    def test_order1_always_zero(self):
        rng = Random(3)
        a = random_monomial_jet(sl2(), 1, rng)
        b = random_monomial_jet(sl2(), 1, rng)
        assert jet_bracket(a, b) == jet_identity(sl2(), PLAIN_RING, 1, MONOMIAL)

    def test_requires_monomial(self):
        a = h3_jet(2, "p", "0")
        with pytest.raises(JetError):
            jet_bracket(a, a)

    def test_independent_of_source_coordinates(self):
        # bracketing monomial jets directly agrees with routing the same
        # underlying curves through exp coordinates and back
        rng = Random(4)
        for _ in range(10):
            ma = random_monomial_jet(sl2(), 3, rng)
            mb = random_monomial_jet(sl2(), 3, rng)
            direct = jet_bracket(ma, mb)
            rerouted = jet_bracket(
                jet_convert(to_exp(ma), MONOMIAL),
                jet_convert(to_exp(mb), MONOMIAL),
            )
            assert rerouted == direct

    def test_antisymmetric_bilinear_jacobi(self):
        rng = Random(6)
        zero = jet_identity(sl2(), PLAIN_RING, 3, MONOMIAL)
        for _ in range(10):
            a = random_monomial_jet(sl2(), 3, rng)
            b = random_monomial_jet(sl2(), 3, rng)
            c = random_monomial_jet(sl2(), 3, rng)
            ab = jet_bracket(a, b)
            ba = jet_bracket(b, a)
            assert all(
                (u + v).is_zero() for u, v in zip(ab.coords, ba.coords)
            )
            # bilinearity in the first slot
            assert jet_bracket(jet_scale(a, PLAIN_RING.rational(3)), b).coords == tuple(
                u * PLAIN_RING.rational(3) for u in ab.coords
            )
            jac_coords = tuple(
                u + v + w
                for u, v, w in zip(
                    jet_bracket(a, jet_bracket(b, c)).coords,
                    jet_bracket(b, jet_bracket(c, a)).coords,
                    jet_bracket(c, jet_bracket(a, b)).coords,
                )
            )
            assert all(u.is_zero() for u in jac_coords), zero


class TestGroupCommutator:
    def test_square_zero_scaled_commutator_in_h3(self):
        # with a = (e1 p, 0) and b = (e2 q, 0), the four-fold product has
        # exp coordinates (0, 2 e1 e2 z)
        e1, e2 = EE.gen("e1"), EE.gen("e2")
        a = jet_scale(h3_jet(2, "p", "0", ring=EE), e1)
        b = jet_scale(h3_jet(2, "q", "0", ring=EE), e2)
        result = jet_group_commutator(a, b)
        assert result.coords[0].is_zero()
        assert result.coords[1] == basis_element(H3, EE, "z") * (e1 * e2 * EE.rational(2))
        # monomial view: d^2 e1 e2 z
        mono = jet_convert(result, MONOMIAL)
        assert mono.coords[1] == basis_element(H3, EE, "z") * (e1 * e2)

    def test_element_commutes_with_itself(self):
        rng = Random(9)
        a = random_jet(so3(), PLAIN_RING, 3, rng)
        assert jet_group_commutator(a, a) == jet_identity(so3(), PLAIN_RING, 3)


@pytest.mark.parametrize("spec", BUILTINS, ids=lambda s: s.name)
def test_tower_compatibility(spec):
    rng = Random(13)
    for _ in range(10):
        a = random_jet(spec, PLAIN_RING, 3, rng)
        b = random_jet(spec, PLAIN_RING, 3, rng)
        product = jet_mul(a, b)
        for lower in (2, 1):
            assert jet_truncate(product, lower) == jet_mul(
                jet_truncate(a, lower), jet_truncate(b, lower)
            )
        two = jet_mul(jet_truncate(a, 2), jet_truncate(b, 2))
        assert jet_truncate(two, 1) == jet_mul(jet_truncate(a, 1), jet_truncate(b, 1))


class TestConstruction:
    def test_order_out_of_range(self):
        p = basis_element(H3, PLAIN_RING, "p")
        with pytest.raises(JetError):
            jet_make(H3, PLAIN_RING, 4, (p, p, p, p))
        with pytest.raises(JetError):
            jet_make(H3, PLAIN_RING, 0, ())

    def test_wrong_coordinate_count(self):
        p = basis_element(H3, PLAIN_RING, "p")
        with pytest.raises(JetError):
            jet_make(H3, PLAIN_RING, 2, (p,))

    def test_bad_system(self):
        p = basis_element(H3, PLAIN_RING, "p")
        with pytest.raises(JetError):
            jet_make(H3, PLAIN_RING, 1, (p,), "cartesian")

    @pytest.mark.parametrize("order", [True, 1.0])
    def test_order_must_be_an_int(self, order):
        with pytest.raises(JetError):
            jet_make(H3, PLAIN_RING, order, (basis_element(H3, PLAIN_RING, "p"),))

    @pytest.mark.parametrize("order", [0, 4])
    def test_random_jet_refuses_an_order_before_drawing(self, order):
        # jet_make's rule and message, and the rng left as it was
        rng = Random(0)
        state = rng.getstate()
        with pytest.raises(JetError) as refused:
            random_jet(H3, PLAIN_RING, order, rng)
        with pytest.raises(JetError) as made:
            jet_make(H3, PLAIN_RING, order, ())
        assert str(refused.value) == str(made.value) == (
            f"jet order must be an int 1..3, got {order}"
        )
        assert rng.getstate() == state

    def test_truncate_range(self):
        for order in (0, 3, True):
            with pytest.raises(JetError):
                jet_truncate(h3_jet(2, "p", "0"), order)


orders = st.sampled_from([1, 2, 3])


@settings(max_examples=30, deadline=None)
@given(order=orders, seed=st.integers(0, 10_000))
def test_json_round_trip(order, seed):
    j = random_jet(H3, PLAIN_RING, order, Random(seed))
    doc = j.to_json()
    assert doc["coordinates"] == EXP
    assert doc["order"] == order
    assert Jet.from_json(doc, H3) == j


def test_json_documented_shape():
    doc = h3_jet(2, "p", "0").to_json()
    assert doc == {
        "algebra": "h3",
        "order": 2,
        "coordinates": "exp",
        "coords": [
            {"algebra": "h3", "ring": [], "coords": {"p": {"ring": [], "terms": [[[], "1"]]}}},
            {"algebra": "h3", "ring": [], "coords": {}},
        ],
    }
