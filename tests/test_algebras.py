"""Structure-constant algebra tests: bracket, Jacobi validation, catalog, JSON."""

import operator
from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from liejets.algebras import (
    MAX_DIMENSION,
    AlgebraError,
    LieAlgebraSpec,
    LieElement,
    abelian,
    basis_element,
    bracket,
    heisenberg3,
    make_algebra,
    sl2,
    so3,
    validate_algebra,
    zero_element,
)
from liejets.catalog import resolve_algebra
from liejets.hall import free_nilpotent
from liejets.sampling import PLAIN_RING, random_element
from liejets.scalars import SignatureError, SignatureMismatch, WeilScalar, ring_make

H3 = heisenberg3()
EE = ring_make([("e1", 1), ("e2", 1)])

BUILTINS = [heisenberg3(), sl2(), so3(), abelian(4), free_nilpotent(2, 3)]


def h3_element(ring, *coords):
    """Element of h3 with coordinates (p, q, z), each a rational or a
    scalar of ``ring``."""
    return LieElement(H3, ring, tuple(
        c if isinstance(c, WeilScalar) else ring.rational(c) for c in coords
    ))


# -- independent name-level bracket oracle ------------------------------------


def oracle_bracket(table: dict, va: dict, vb: dict) -> dict:
    """Bracket of name-keyed coordinate dicts against a name-keyed table
    holding both orientations."""
    out: dict = {}
    for na, ca in va.items():
        for nb, cb in vb.items():
            for nk, s in table.get((na, nb), {}).items():
                out[nk] = out.get(nk, Fraction(0)) + ca * cb * s
    return {k: c for k, c in out.items() if c}


def oracle_jacobi(table: dict, a: str, b: str, c: str) -> dict:
    total: dict = {}
    for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
        inner = oracle_bracket(table, {v: Fraction(1)}, {w: Fraction(1)})
        for k, coeff in oracle_bracket(table, {u: Fraction(1)}, inner).items():
            total[k] = total.get(k, Fraction(0)) + coeff
    return {k: c for k, c in total.items() if c}


def both_orientations(table: dict) -> dict:
    out = {}
    for (a, b), val in table.items():
        out[(a, b)] = dict(val)
        out[(b, a)] = {k: -c for k, c in val.items()}
    return out


class TestBracket:
    def test_h3_structure(self):
        p = basis_element(H3, PLAIN_RING, "p")
        q = basis_element(H3, PLAIN_RING, "q")
        z = basis_element(H3, PLAIN_RING, "z")
        assert bracket(p, q) == z

    def test_antisymmetry_on_basis(self):
        p = basis_element(H3, PLAIN_RING, "p")
        assert bracket(p, p).is_zero()

    def test_bilinearity_over_square_zero_scalars(self):
        e1p = basis_element(H3, EE, "p") * EE.gen("e1")
        e2q = basis_element(H3, EE, "q") * EE.gen("e2")
        expected = basis_element(H3, EE, "z") * (EE.gen("e1") * EE.gen("e2"))
        assert bracket(e1p, e2q) == expected

    def test_mixed_algebra_rejected(self):
        p = basis_element(H3, PLAIN_RING, "p")
        e = basis_element(sl2(), PLAIN_RING, "e")
        with pytest.raises(AlgebraError):
            bracket(p, e)

    def test_mixed_ring_rejected(self):
        p = basis_element(H3, PLAIN_RING, "p")
        q = basis_element(H3, EE, "q")
        with pytest.raises(SignatureMismatch):
            bracket(p, q)


class TestValidate:
    @pytest.mark.parametrize("spec", BUILTINS, ids=lambda s: s.name)
    def test_builtins_pass(self, spec):
        assert validate_algebra(spec) is None

    def test_corrupted_h3_fails_where_the_oracle_says(self):
        # independent evaluation first: with [p,q] = z and [p,z] = p the
        # Jacobi sum over (p, q, z) is [q, [z, p]] = [q, -p] = z
        table = both_orientations({("p", "q"): {"z": 1}, ("p", "z"): {"p": 1}})
        defect = oracle_jacobi(table, "p", "q", "z")
        assert defect == {"z": Fraction(1)}

        corrupted = make_algebra(
            "h3-corrupted",
            ("p", "q", "z"),
            {("p", "q"): [("z", 1)], ("p", "z"): [("p", 1)]},
        )
        assert validate_algebra(corrupted) == {
            "failing_triple": ["p", "q", "z"], "defect": {"z": "1"},
        }

    def test_scan_matches_the_oracle_on_random_specs(self):
        # Random brackets with small integer constants on 3-5 basis elements:
        # most are no Lie algebra.  The scan must agree with the name-level
        # oracle on the verdict, the first failing triple in i < j < k order,
        # and the defect.
        rng = Random(5)
        verdicts = []
        for n in range(200):
            basis = tuple(f"b{i}" for i in range(rng.randint(3, 5)))
            table = {
                pair: {k: Fraction(rng.randint(-2, 2)) for k in rng.sample(basis, 2)}
                for pair in combinations(basis, 2)
                if rng.random() < 0.6
            }
            spec = make_algebra(f"random-{n}", basis, {
                pair: list(value.items()) for pair, value in table.items()
            })
            oriented = both_orientations(table)
            want = next(
                (
                    (triple, defect)
                    for triple in combinations(basis, 3)
                    if (defect := oracle_jacobi(oriented, *triple))
                ),
                None,
            )
            evidence = validate_algebra(spec)
            assert (evidence is None) == (want is None)
            if want is not None:
                triple, defect = want
                assert evidence == {
                    "failing_triple": list(triple),
                    "defect": {b: str(c) for b, c in defect.items()},
                }
                assert list(evidence["defect"]) == [b for b in basis if b in defect]
            verdicts.append(evidence is None)
        assert 0 < verdicts.count(True) < verdicts.count(False)

    @pytest.mark.parametrize("spec", BUILTINS, ids=lambda s: s.name)
    def test_structure_matches_name_oracle(self, spec):
        table = both_orientations(
            {
                (spec.basis[i], spec.basis[j]): {
                    spec.basis[k]: c for k, c in entries
                }
                for (i, j), entries in spec.structure.items()
            }
        )
        rng = Random(7)
        for _ in range(20):
            x = random_element(spec, PLAIN_RING, rng)
            y = random_element(spec, PLAIN_RING, rng)
            got = bracket(x, y)
            want = oracle_bracket(
                table,
                {b: c.constant_term() for b, c in zip(spec.basis, x.coords)},
                {b: c.constant_term() for b, c in zip(spec.basis, y.coords)},
            )
            assert {
                b: c.constant_term() for b, c in zip(spec.basis, got.coords) if c.terms
            } == want


@pytest.mark.parametrize("spec", BUILTINS, ids=lambda s: s.name)
def test_antisymmetry_and_jacobi_on_random_elements(spec):
    rng = Random(11)
    for _ in range(25):
        x = random_element(spec, PLAIN_RING, rng)
        y = random_element(spec, PLAIN_RING, rng)
        z = random_element(spec, PLAIN_RING, rng)
        assert (bracket(x, y) + bracket(y, x)).is_zero()
        jac = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert jac.is_zero()


def test_scalar_extension_commutes_with_bracket():
    ring = ring_make([("d", 2), ("e", 1)])
    s = ring.one + ring.gen("d") * ring.gen("e")
    rng = Random(3)
    for _ in range(10):
        x = random_element(H3, ring, rng)
        y = random_element(H3, ring, rng)
        assert bracket(x * s, y) == bracket(x, y) * s


def random_coords(spec, ring, rng: Random) -> tuple:
    """One scalar per basis element, each a random dense table over ``ring``."""
    vectors = list(product(*(range(m + 1) for m in ring.orders)))
    return tuple(
        ring.scalar({
            v: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            for v in rng.sample(vectors, rng.randint(0, len(vectors)))
        })
        for _ in range(spec.dim)
    )


@pytest.mark.parametrize("ring", [PLAIN_RING, EE], ids=["Q", "EE"])
def test_sum_and_difference_are_coordinatewise(ring):
    # oracle: dense Fraction sums of each coordinate's coefficient table
    rng = Random(17)
    for spec in BUILTINS:
        for _ in range(10):
            xc, yc = random_coords(spec, ring, rng), random_coords(spec, ring, rng)
            x, y = LieElement(spec, ring, xc), LieElement(spec, ring, yc)
            for got, sign in ((x + y, 1), (x - y, -1)):
                for g, a, b in zip(got.coords, xc, yc):
                    want = a.coefficients()
                    for v, c in b.coefficients().items():
                        want[v] = want.get(v, Fraction(0)) + sign * c
                    assert g.coefficients() == {v: c for v, c in want.items() if c}
            assert (x - x).is_zero()
    p = basis_element(H3, PLAIN_RING, "p")
    e = basis_element(sl2(), PLAIN_RING, "e")
    for op in (operator.add, operator.sub):
        with pytest.raises(AlgebraError):
            op(p, e)
        with pytest.raises(SignatureMismatch):
            op(p, basis_element(H3, EE, "p"))
        with pytest.raises(TypeError):
            op(p, 1)


@pytest.mark.parametrize("ring", [PLAIN_RING, EE], ids=["Q", "EE"])
def test_add_scaled_is_scale_then_add(ring):
    rng = Random(23)
    for spec in BUILTINS:
        for _ in range(6):
            x = LieElement(spec, ring, random_coords(spec, ring, rng))
            y = LieElement(spec, ring, random_coords(spec, ring, rng))
            for c in (Fraction(1), Fraction(-1), Fraction(1, 12), Fraction(-5, 6), 3, 0):
                assert x.add_scaled(y, c) == x + y * ring.rational(c)
            assert x.add_scaled(x, -1).is_zero()
    p = basis_element(H3, PLAIN_RING, "p")
    with pytest.raises(AlgebraError):
        p.add_scaled(basis_element(sl2(), PLAIN_RING, "e"), 1)
    with pytest.raises(TypeError):
        p.add_scaled(1, 1)


def test_scale_reads_only_exact_rationals():
    p = basis_element(H3, PLAIN_RING, "p")
    half = h3_element(PLAIN_RING, Fraction(1, 2), 0, 0)
    assert zero_element(H3, PLAIN_RING).add_scaled(p, "1/2") == half
    assert p.add_scaled(half, "-2").is_zero()
    # the weight 0 leaves every coordinate as it was
    assert all(a is b for a, b in zip(p.add_scaled(half, 0).coords, p.coords))
    for value in (0.1, 1.0, True):
        with pytest.raises(SignatureError):
            p.add_scaled(p, value)


@pytest.mark.parametrize(
    "number", [3, 0, Fraction(1, 2), True], ids=["int", "zero", "fraction", "bool"]
)
def test_numbers_are_no_factors(number):
    """An element is multiplied only by a scalar of its ring; a rational is
    ``ring.rational`` or the weight of ``add_scaled``."""
    p = basis_element(H3, PLAIN_RING, "p")
    with pytest.raises(TypeError):
        p * number
    with pytest.raises(TypeError):
        number * p


coords3 = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=3, max_size=3
)


@settings(max_examples=50, deadline=None)
@given(xc=coords3, yc=coords3)
def test_bracket_bilinear_in_rational_coords(xc, yc):
    x = h3_element(PLAIN_RING, *xc)
    y = h3_element(PLAIN_RING, *yc)
    two = PLAIN_RING.rational(2)
    assert bracket(x * two, y) == bracket(x, y) * two
    assert bracket(x + y, y) == bracket(x, y)  # [y, y] = 0


class TestMakeAlgebra:
    def test_orientation_normalized(self):
        flipped = make_algebra("h3", ("p", "q", "z"), {("q", "p"): [("z", -1)]})
        assert flipped == H3

    def test_self_bracket_rejected(self):
        with pytest.raises(AlgebraError):
            make_algebra("bad", ("a", "b"), {("a", "a"): [("b", 1)]})

    def test_unknown_names_rejected(self):
        with pytest.raises(AlgebraError):
            make_algebra("bad", ("a", "b"), {("a", "c"): [("b", 1)]})
        with pytest.raises(AlgebraError):
            make_algebra("bad", ("a", "b"), {("a", "b"): [("c", 1)]})

    def test_duplicate_basis_rejected(self):
        with pytest.raises(AlgebraError):
            make_algebra("bad", ("a", "a"), {})

    @pytest.mark.parametrize("value", [0.1, 1.0, True, None])
    def test_constants_are_exact_rationals(self, value):
        with pytest.raises(AlgebraError):
            make_algebra("bad", ("a", "b"), {("a", "b"): [("b", value)]})
        with pytest.raises(AlgebraError):
            make_algebra("bad", ("a", "b"), {("a", "a"): [("b", value)]})

    @pytest.mark.parametrize(
        "basis, brackets",
        [
            ((1.5, True), {}),
            (("a", "b"), {("a", "b"): 5}),
            (("a", "b"), {("a", "b"): [("b",)]}),
            (("a", "b"), {("a", "b"): [(["b"], 1)]}),
            (("a", "b"), {("a", "b"): [("b", 1)], ("b", "a"): [("b", 1)]}),
        ],
        ids=["non-string-basis", "value-not-pairs", "short-pair", "list-name",
             "pair-given-twice"],
    )
    def test_malformed_input_refused(self, basis, brackets):
        with pytest.raises(AlgebraError):
            make_algebra("bad", basis, brackets)

    def test_string_constants_read_exactly(self):
        spec = make_algebra("half", ("a", "b"), {("a", "b"): [("b", "1/2")]})
        assert spec.structure == {(0, 1): ((1, Fraction(1, 2)),)}


def spec_doc(spec: LieAlgebraSpec) -> dict:
    """The JSON document of ``spec``, in the shape README's JSON formats give."""
    return {
        "name": spec.name,
        "basis": list(spec.basis),
        "brackets": [
            {"left": spec.basis[i], "right": spec.basis[j],
             "value": [[spec.basis[k], str(c)] for k, c in entries]}
            for (i, j), entries in sorted(spec.structure.items())
        ],
    }


class TestJson:
    def test_spec_documented_shape(self):
        # README's h3 document, verbatim
        assert LieAlgebraSpec.from_json({
            "name": "h3",
            "basis": ["p", "q", "z"],
            "brackets": [{"left": "p", "right": "q", "value": [["z", "1"]]}],
        }) == H3

    @pytest.mark.parametrize("spec", BUILTINS, ids=lambda s: s.name)
    def test_spec_round_trip(self, spec):
        assert LieAlgebraSpec.from_json(spec_doc(spec)) == spec

    def test_element_round_trip_omits_zeros(self):
        x = h3_element(EE, EE.gen("e1"), 0, Fraction(1, 2))
        doc = x.to_json()
        assert set(doc["coords"]) == {"p", "z"}
        assert LieElement.from_json(doc, H3) == x

    def test_element_zero_round_trip(self):
        x = zero_element(H3, PLAIN_RING)
        doc = x.to_json()
        assert doc["coords"] == {}
        assert LieElement.from_json(doc, H3) == x

    def test_element_wrong_algebra_rejected(self):
        x = basis_element(H3, PLAIN_RING, "p")
        with pytest.raises(AlgebraError):
            LieElement.from_json(x.to_json(), sl2())

    def test_malformed_spec_rejected(self):
        with pytest.raises(AlgebraError):
            LieAlgebraSpec.from_json({"name": "x"})


def test_abelian_requires_positive_dimension():
    with pytest.raises(AlgebraError):
        abelian(0)


@pytest.mark.parametrize(
    "build", [lambda: abelian(True), lambda: abelian(2.0), lambda: free_nilpotent(True, 3),
              lambda: free_nilpotent(2, 3.0)],
    ids=["abelian-bool", "abelian-float", "free-bool", "free-float"],
)
def test_family_parameters_must_be_ints(build):
    # a bool or float would otherwise pass the range test and name the algebra
    with pytest.raises(AlgebraError):
        build()


def test_dimensions_above_the_limit_are_refused():
    assert abelian(MAX_DIMENSION).dim == MAX_DIMENSION
    with pytest.raises(AlgebraError):
        abelian(MAX_DIMENSION + 1)
    with pytest.raises(AlgebraError):
        make_algebra("big", [f"b{i}" for i in range(MAX_DIMENSION + 1)], {})


@pytest.mark.parametrize(
    "spec",
    [heisenberg3(), sl2(), so3(), *(abelian(n) for n in range(1, 5)),
     *(free_nilpotent(m, c) for m in (1, 2, 3) for c in (1, 2, 3))],
    ids=lambda spec: spec.name,
)
def test_resolve_algebra_reads_back_each_name(spec):
    # a name alone fixes the algebra: the family names carry their parameters
    assert resolve_algebra(spec.name) == spec
