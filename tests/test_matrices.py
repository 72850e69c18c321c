"""Matrix oracle tests: exact exp/log, representations, the Theorem 4 and
matrix-comparison rows."""

import json
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add
from random import Random

import pytest

import liejets.algebras
import liejets.matrices
from liejets.algebras import (
    abelian, basis_element, heisenberg3, make_algebra, validate_algebra, zero_element,
)
from liejets.bch import bch_mul
from liejets.catalog import resolve_algebra
from liejets.checks import ROWS, _ring_label, exp_product_holds, run_check, run_suite
from liejets.cli import main
from liejets.jets import jet_make, jet_mul
from liejets.matrices import (
    MatrixError,
    WeilMatrix,
    _power_series,
    builtin_rep,
    exp_weights,
    matrix_mul,
    matrix_rep,
    weil_exp,
    weil_log,
)
from liejets.sampling import PLAIN_RING, random_element, random_jet, random_rational
from liejets.scalars import SignatureMismatch, ring_make
from liejets.scalars import rational_from_str

H3 = heisenberg3()


def rational_matrix(ring, rows):
    """The matrix over ``ring`` with these rational entries."""
    return WeilMatrix(ring, tuple(tuple(ring.rational(e) for e in row) for row in rows))


def weighted_grid(ring, rows, weight):
    """These rationals times the scalar ``weight``, as a grid of scalars of
    ``ring``."""
    return tuple(tuple(ring.rational(e) * weight for e in row) for row in rows)


def weighted_matrix(ring, rows, weight):
    """The matrix over ``ring`` whose entries are these rationals times the
    scalar ``weight``, built as a grid of scalars: a matrix takes no scalar
    factor."""
    return WeilMatrix(ring, weighted_grid(ring, rows, weight))


def zero_matrix(ring, n):
    return rational_matrix(ring, [[0] * n] * n)


def rmat_mul(a, b):
    """Independent rational matrix product for expected-value construction."""
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def random_nilpotent_matrix(ring, n, rng):
    """Matrix whose entries are random scalars with zero constant term."""
    orders = ring.orders
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {}
            for _ in range(2):
                vec = tuple(rng.randint(0, m) for m in orders)
                if not any(vec):
                    continue
                terms[vec] = terms.get(vec, 0) + Fraction(rng.randint(-3, 3))
            row.append(ring.scalar(terms))
        rows.append(tuple(row))
    return WeilMatrix(ring, tuple(rows))


# -- the entrywise reference: grids of WeilScalar entries -----------------------


def grid_mul(a, b):
    """Entrywise product: each entry a sum over k of WeilScalar products."""
    n = len(a)
    zero = a[0][0].signature.zero
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), zero) for j in range(n))
        for i in range(n)
    )


def grid_add(a, b, sign=1):
    """a + sign * b, entry by entry, for a rational ``sign``."""
    return tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, grid_scale(b, sign))
    )


def grid_sum(*grids):
    """The entrywise sum of grids of scalars: expected values are summed
    here, since a matrix has no ``+``."""
    return tuple(
        tuple(sum(entries[1:], entries[0]) for entries in zip(*rows)) for rows in zip(*grids)
    )


def grid_scale(a, q):
    """Every entry times the constant ``q`` of the entries' ring."""
    c = a[0][0].signature.rational(q)
    return tuple(tuple(c * x for x in row) for row in a)


def grid_identity(ring, n):
    return tuple(
        tuple(ring.one if i == j else ring.zero for j in range(n)) for i in range(n)
    )


def grid_is_zero(a):
    return all(not x.terms for row in a for x in row)


def grid_exp(a, ring):
    """I + A + A^2/2! + ..., up to the first zero term."""
    acc = term = grid_identity(ring, len(a))
    k = 1
    while True:
        term = grid_scale(grid_mul(term, a), Fraction(1, k))
        if grid_is_zero(term):
            return acc
        acc = grid_add(acc, term)
        k += 1


def grid_log(u, ring):
    """(U-I) - (U-I)^2/2 + ..., up to the first zero power."""
    n = len(u)
    nil = grid_add(u, grid_identity(ring, n), -1)
    acc = grid_scale(nil, 0)
    power = grid_identity(ring, n)
    k = 1
    while True:
        power = grid_mul(power, nil)
        if grid_is_zero(power):
            return acc
        acc = grid_add(acc, grid_scale(power, Fraction((-1) ** (k + 1), k)))
        k += 1


def random_grid(ring, n, rng, constant=True):
    """Random entries with non-integer rational coefficients; some entries
    are zero, and without ``constant`` every entry has zero constant term."""
    orders = ring.orders
    grid = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {}
            for _ in range(rng.randint(0, 3)):
                vec = tuple(rng.randint(0, m) for m in orders)
                if not constant and not any(vec):
                    continue
                c = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 9)))
                terms[vec] = terms.get(vec, 0) + c
            row.append(ring.scalar(terms))
        grid.append(tuple(row))
    return tuple(grid)


def assert_canonical(m):
    """No all-zero coefficient matrix, a positive denominator coprime to
    every numerator, and denominator 1 for zero."""
    assert m.den > 0
    for cell in m.coeffs.values():
        assert len(cell) == m.size * m.size
        assert any(cell)
    assert gcd(m.den, *(c for cell in m.coeffs.values() for c in cell)) == 1
    if not m.coeffs:
        assert m.den == 1


REFERENCE_RINGS = [
    ring_make([("d", 3)]),
    ring_make([("d1", 1), ("d2", 1), ("d3", 1)]),
    ring_make([("e1", 3), ("e2", 1)]),
]


@pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=_ring_label)
class TestAgainstEntrywiseReference:
    def check(self, result, grid):
        assert_canonical(result)
        assert result == WeilMatrix(result.signature, grid)
        assert result.rows == grid

    @pytest.mark.parametrize("n", [2, 3])
    def test_arithmetic(self, ring, n):
        rng = Random(17 + n)
        zero = grid_scale(grid_identity(ring, n), 0)
        one = grid_identity(ring, n)
        for _ in range(12):
            a, b = random_grid(ring, n, rng), random_grid(ring, n, rng)
            q = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
            A, B = WeilMatrix(ring, a), WeilMatrix(ring, b)
            Z, I = zero_matrix(ring, n), WeilMatrix.identity(ring, n)
            assert_canonical(A)
            self.check(A * B, grid_mul(a, b))
            self.check(B * A, grid_mul(b, a))
            self.check(A - B, grid_add(a, b, -1))
            self.check(A - A, zero)
            # the q-scaled grids bring weights and unequal denominators
            self.check(A - WeilMatrix(ring, grid_scale(b, q)), grid_add(a, b, -q))
            self.check(Z - WeilMatrix(ring, grid_scale(a, q)), grid_scale(a, -q))
            self.check(A - WeilMatrix(ring, grid_scale(a, -2)), grid_scale(a, 3))
            self.check(A - WeilMatrix(ring, grid_scale(b, 0)), a)
            self.check(A * Z, zero)
            self.check(Z * A, zero)
            self.check(A - Z, a)
            self.check(A * I, a)
            self.check(I * A, a)
            self.check(I * I, one)

    @pytest.mark.parametrize("n", [2, 3])
    def test_exp_and_log(self, ring, n):
        rng = Random(29 + n)
        for _ in range(6):
            a = random_grid(ring, n, rng, constant=False)
            A = WeilMatrix(ring, a)
            self.check(weil_exp(A), grid_exp(a, ring))
            u = grid_add(grid_identity(ring, n), a)
            self.check(weil_log(WeilMatrix(ring, u)), grid_log(u, ring))
        self.check(weil_exp(zero_matrix(ring, n)), grid_identity(ring, n))
        self.check(weil_log(WeilMatrix.identity(ring, n)), grid_scale(grid_identity(ring, n), 0))


def test_mismatched_shapes_and_rings_rejected():
    ring, other = ring_make([("d", 2)]), ring_make([("e", 1)])
    with pytest.raises(MatrixError):
        WeilMatrix(ring, ((ring.one, ring.zero),))
    with pytest.raises(MatrixError):
        # two rows of three cells would otherwise read as a 2x2 matrix
        WeilMatrix(ring, ((ring.zero, ring.one, ring.zero),) * 2)
    with pytest.raises(SignatureMismatch):
        WeilMatrix(ring, ((other.one,),))
    A = WeilMatrix.identity(ring, 2)
    with pytest.raises(MatrixError):
        A * WeilMatrix.identity(ring, 3)
    with pytest.raises(SignatureMismatch):
        A - WeilMatrix.identity(other, 2)
    with pytest.raises(MatrixError):
        builtin_rep("sl2").extract(zero_matrix(ring, 3))


@pytest.mark.parametrize(
    "number", [3, 0, Fraction(1, 2), True], ids=["int", "zero", "fraction", "bool"]
)
def test_numbers_are_no_right_factors(number):
    """A matrix is multiplied only by a matrix, and only a matrix is
    subtracted from it."""
    A = rational_matrix(PLAIN_RING, [[0, 1], [2, 0]])
    with pytest.raises(TypeError):
        A * number
    with pytest.raises(TypeError):
        A - number


def test_a_scalar_is_no_right_factor():
    """Not even a scalar of the matrix's own ring multiplies it: a weighted
    matrix is built as a grid of scalars (see ``weighted_matrix``)."""
    ring = ring_make([("d", 2)])
    with pytest.raises(TypeError):
        WeilMatrix.identity(ring, 2) * ring.gen("d")
    with pytest.raises(TypeError):
        WeilMatrix.identity(ring, 2) - ring.gen("d")


class TestExp:
    def test_exp_of_zero(self):
        ring = ring_make([("d", 2)])
        assert weil_exp(zero_matrix(ring, 3)) == WeilMatrix.identity(ring, 3)

    def test_series_truncates_at_first_power(self):
        ring = ring_make([("d", 1)])
        d = ring.gen("d")
        M = weighted_matrix(ring, [[0, 1], [0, 0]], d)
        assert weil_exp(M) == WeilMatrix(ring, grid_sum(grid_identity(ring, 2), M.rows))

    def test_sl2_diagonal_generator_order3(self):
        # expected value built from independently computed powers of H
        H = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
        H2 = rmat_mul(H, H)
        H3_ = rmat_mul(H2, H)
        assert H2 == [[1, 0], [0, 1]] and H3_ == H
        ring = ring_make([("d", 3)])
        d = ring.gen("d")
        expected = WeilMatrix(ring, grid_sum(
            grid_identity(ring, 2),
            weighted_grid(ring, H, d),
            weighted_grid(ring, H2, d * d * ring.rational(Fraction(1, 2))),
            weighted_grid(ring, H3_, d * d * d * ring.rational(Fraction(1, 6))),
        ))
        assert weil_exp(weighted_matrix(ring, H, d)) == expected

    def test_rejects_nonzero_constant_term(self):
        ring = ring_make([("d", 2)])
        with pytest.raises(MatrixError):
            weil_exp(WeilMatrix.identity(ring, 2))

    def test_a_series_that_does_not_terminate_is_refused(self):
        # the identity is no nilpotent matrix: each of its powers is nonzero
        with pytest.raises(MatrixError, match="terminate"):
            _power_series(WeilMatrix.identity(PLAIN_RING, 2), 1, lambda k: (1, 1))


class TestLog:
    def test_log_of_identity(self):
        ring = ring_make([("d", 2)])
        assert weil_log(WeilMatrix.identity(ring, 3)) == zero_matrix(ring, 3)

    def test_log_exp_round_trip(self):
        ring = ring_make([("d", 2), ("e", 1)])
        rng = Random(5)
        for _ in range(10):
            M = random_nilpotent_matrix(ring, 3, rng)
            assert weil_log(weil_exp(M)) == M

    def test_exp_log_round_trip_on_unipotent(self):
        ring = ring_make([("d", 3)])
        rng = Random(6)
        for _ in range(10):
            N = random_nilpotent_matrix(ring, 3, rng)
            U = WeilMatrix(ring, grid_sum(grid_identity(ring, 3), N.rows))
            assert weil_exp(weil_log(U)) == U

    def test_log_of_exp_with_suppressed_top_power(self):
        # log(I + dN + 1/2 d^2 N^2) recovers dN when N^2 is nonzero
        ring = ring_make([("d", 2)])
        d = ring.gen("d")
        N = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        N2 = rmat_mul(N, N)
        assert any(any(row) for row in N2)
        M = WeilMatrix(ring, grid_sum(
            grid_identity(ring, 3),
            weighted_grid(ring, N, d),
            weighted_grid(ring, N2, d * d * ring.rational(Fraction(1, 2))),
        ))
        assert weil_log(M) == weighted_matrix(ring, N, d)

    def test_rejects_non_unipotent(self):
        ring = ring_make([("d", 2)])
        with pytest.raises(MatrixError):
            weil_log(zero_matrix(ring, 2))


def test_exp_inverse_property():
    ring = ring_make([("e1", 1), ("e2", 1)])
    rng = Random(8)
    for _ in range(10):
        M = random_nilpotent_matrix(ring, 3, rng)
        assert weil_exp(M) * weil_exp(zero_matrix(ring, 3) - M) == WeilMatrix.identity(ring, 3)


def test_order1_homomorphism():
    # with one square-zero d: exp(dA) exp(dB) = exp(d(A + B))
    ring = ring_make([("d", 1)])
    d = ring.gen("d")
    rng = Random(9)
    for _ in range(10):
        a, b = ([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)] for _ in range(2))
        A, B = weighted_matrix(ring, a, d), weighted_matrix(ring, b, d)
        assert weil_exp(A) * weil_exp(B) == weil_exp(
            WeilMatrix(ring, grid_sum(weighted_grid(ring, a, d), weighted_grid(ring, b, d)))
        )


class TestRep:
    @pytest.mark.parametrize("name", ["h3", "sl2", "so3"])
    def test_builtins_validate(self, name):
        rep = builtin_rep(name)
        assert rep.algebra.name == name
        assert rep.dimension in (2, 3)

    def test_bracket_incompatibility_detected(self):
        with pytest.raises(MatrixError, match="bracket compatibility"):
            matrix_rep(
                H3,
                {
                    "p": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                    "q": [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
                    "z": [[0, 0, 2], [0, 0, 0], [0, 0, 0]],  # [p,q] != image(z)
                },
            )

    @pytest.mark.parametrize(
        "images",
        [
            {b: [[0]] for b in "pqz"},
            {"p": [[0, 1], [0, 0]], "q": [[0, 0], [0, 0]], "z": [[0, 0], [0, 0]]},
        ],
        ids=["zero", "p-only"],
    )
    def test_unfaithful_rep_refused(self, images):
        # bracket-compatible, but coordinates could not be read back from it,
        # and the matrix checks would pass over it without checking anything
        with pytest.raises(MatrixError, match="linearly dependent"):
            matrix_rep(H3, images)

    @pytest.mark.parametrize(
        "images",
        [
            {**builtin_rep("h3").images, "p": 7},
            {**builtin_rep("h3").images, "p": [7, 0, 0]},
            {**builtin_rep("h3").images, "p": ["010", "000", "000"]},
            {**builtin_rep("h3").images, "w": [[0, 0, 0]] * 3},
        ],
        ids=["number", "flat-list", "string-rows", "outside-the-basis"],
    )
    def test_malformed_images_refused(self, images):
        with pytest.raises(MatrixError):
            matrix_rep(H3, images)

    @pytest.mark.parametrize("value", [1.0, True])
    def test_inexact_image_entry_refused(self, value):
        # 1.0 and True would otherwise read as the 1 of h3's true images
        with pytest.raises(MatrixError):
            matrix_rep(H3, {
                "p": [[0, value, 0], [0, 0, 0], [0, 0, 0]],
                "q": [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
                "z": [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
            })

    def test_missing_image_detected(self):
        with pytest.raises(MatrixError):
            matrix_rep(H3, {"p": [[0]], "q": [[0]]})

    def test_non_square_detected(self):
        with pytest.raises(MatrixError):
            matrix_rep(
                H3,
                {"p": [[0, 1]], "q": [[0, 0]], "z": [[0, 0]]},
            )

    def test_unknown_builtin(self):
        with pytest.raises(MatrixError):
            builtin_rep("e8")

    @pytest.mark.parametrize("name", ["h3", "sl2", "so3"])
    def test_realize_extract_round_trip(self, name):
        rep = builtin_rep(name)
        ring = ring_make([("d", 2)])
        rng = Random(4)
        for _ in range(10):
            x = random_element(rep.algebra, ring, rng)
            assert rep.extract(rep.realize(x)) == x

    @pytest.mark.parametrize("name, outside", [
        ("h3", [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        ("sl2", [[1, 0], [0, 1]]),
        ("so3", [[0, 1, 0], [1, 0, 0], [0, 0, 2]]),
        ("h3-scaled", [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
    ], ids=["h3", "sl2", "so3", "h3-scaled"])
    def test_extract_rejects_outside_span(self, name, outside):
        # realize(x) + O e over Q[e]/(e^2), with O outside the image span: the
        # constant term reads back, the coefficient of e does not
        rep = matrix_rep(H3, SCALED_H3_IMAGES) if name == "h3-scaled" else builtin_rep(name)
        ring = ring_make([("e", 1)])
        x = random_element(rep.algebra, ring, Random(5))
        assert rep.extract(rep.realize(x)) == x
        M = WeilMatrix(ring, grid_sum(rep.realize(x).rows,
                                      weighted_grid(ring, outside, ring.gen("e"))))
        with pytest.raises(MatrixError, match="^matrix does not lie in the image span$"):
            rep.extract(M)

    @pytest.mark.parametrize("algebra, images", [
        (abelian(2), {"a1": [[0, 1], [0, 0]], "a2": [[0, 1], [0, 0]]}),
        (abelian(3), {
            "a1": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            "a2": [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
            "a3": [[0, 1, Fraction(1, 2)], [0, 0, 0], [0, 0, 0]],
        }),
    ], ids=["identical", "dependent-after-elimination"])
    def test_extract_rejects_dependent_images(self, algebra, images):
        # commuting, bracket-compatible, but linearly dependent images: refused
        # at load, before any extraction could go wrong; E12 + E13/2 has
        # nonzero cells left only until E12 and E13 are eliminated
        with pytest.raises(MatrixError, match="linearly dependent"):
            matrix_rep(algebra, images)

    @pytest.mark.parametrize("name", ["h3", "sl2", "so3"])
    def test_json_round_trip_through_text(self, name):
        # the images with "p/q" string entries, as JSON text carries them
        rep = builtin_rep(name)
        text = json.dumps({b: [[str(e) for e in row] for row in rows]
                           for b, rows in rep.images.items()})
        assert matrix_rep(rep.algebra, json.loads(text)).images == rep.images


class TestTheorem4:
    @pytest.mark.parametrize("name", ["sl2", "h3"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_passes(self, name, n):
        result = run_check(ROWS["thm-4."](n, [resolve_algebra(name)], 15, 0))
        assert result.passed
        assert result.check == f"thm-4.{n}"

    def test_h3_instance_matches_frozen_matrix(self):
        # X1 = p, X2 = 0, Y1 = q, Y2 = 0 over Q[d1,d2]/(d1^2,d2^2), with
        # P = E12 + E13/2, Q = 2 E23, Z = 2 E13 and s = d1 + d2 (s^3 = 0).
        # P^2 = Q^2 = QP = 0 and PQ = 2 E13, so exp(sP) exp(sQ) is
        # I + sP + sQ + s^2 PQ; and with M = s(P + Q) + s^2 Z/2, M^2 = 2 s^2 E13
        # and M^3 = 0, so exp(M) = I + M + M^2/2.  By hand, both sides equal
        # I + s E12 + 2s E23 + (s/2 + 2 s^2) E13.
        ring = ring_make([("d1", 1), ("d2", 1)])
        s = ring.gen("d1") + ring.gen("d2")
        s2 = s * s
        half, two = ring.rational(Fraction(1, 2)), ring.rational(2)
        frozen = WeilMatrix(
            ring,
            (
                (ring.one, s, s * half + s2 * two),
                (ring.zero, ring.one, s * two),
                (ring.zero, ring.zero, ring.one),
            ),
        )
        images = builtin_rep("h3").images
        sP, sQ = (weighted_grid(ring, images[b], s) for b in "pq")
        lhs = weil_exp(WeilMatrix(ring, sP)) * weil_exp(WeilMatrix(ring, sQ))
        rhs = weil_exp(WeilMatrix(ring, grid_sum(
            sP, sQ, weighted_grid(ring, images["z"], s2 * half)
        )))
        assert lhs == frozen
        assert rhs == frozen

    def test_order_out_of_range(self):
        with pytest.raises(MatrixError, match="order must be the int 1, 2, or 3, got 4"):
            exp_weights(4)
        # the row builds its weights in its setup, so the refusal is its failure
        result = run_check(ROWS["thm-4."](4, [resolve_algebra("sl2")], 1, 0))
        assert not result.passed
        assert result.counterexample == {
            "setup": True, "error": "MatrixError: order must be the int 1, 2, or 3, got 4",
        }

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_weights_need_an_int_order(self, n):
        with pytest.raises(MatrixError):
            exp_weights(n)

    def test_the_order_2_law_over_the_order_3_ring_fails_with_both_jets(self):
        # with a = (2/3 p, 0) and b = (0, -3q), Z3 = 3/2 [X1, Y2] = -3z: the
        # order-2 law over its own ring holds, but in the order-3 ring it
        # misses the s^3 Z3 / 3! term, so it fails with the two jets
        rep = builtin_rep("h3")
        for n in (2, 3):
            weights = exp_weights(n)[:2]
            ring = weights[0].signature
            zero = zero_element(H3, ring)
            p, q = (basis_element(H3, ring, b) for b in "pq")
            a = jet_make(H3, ring, 2, (p * ring.rational(Fraction(2, 3)), zero))
            b = jet_make(H3, ring, 2, (zero, q * ring.rational(-3)))
            evidence = exp_product_holds(rep, weights, a, b)
            assert evidence == (None if n == 2 else {"a": a.to_json(), "b": b.to_json()})
        assert evidence["a"]["coords"][0]["coords"]["p"]["terms"] == [[[0, 0, 0], "2/3"]]


class TestDef61VsMatrix:
    @pytest.mark.parametrize("name", ["h3", "sl2", "so3"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_passes(self, name, order):
        result = run_check(ROWS["def6.1-vs-matrix-n"](order, [resolve_algebra(name)], 15, 0))
        assert result.passed
        assert result.check == f"def6.1-vs-matrix-n{order}"


#: h3 with p -> 2 E12, q -> E23, z -> 2 E13: the solver reads the p and z
#: coordinates over denominator 2, so a readback that drops the solver's
#: denominator doubles them.
SCALED_H3_IMAGES = {
    "p": [[0, 2, 0], [0, 0, 0], [0, 0, 0]],
    "q": [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
    "z": [[0, 0, 2], [0, 0, 0], [0, 0, 0]],
}


class TestMatrixMul:
    @pytest.mark.parametrize("name", ["h3", "sl2", "so3", "h3-scaled"])
    def test_agrees_with_closed_form(self, name):
        if name == "h3-scaled":
            rep = matrix_rep(H3, SCALED_H3_IMAGES)
            assert [d for _, d in rep._solver[1]] == [2, 1, 2]
        else:
            rep = builtin_rep(name)
        rng = Random(12)
        for order in (1, 2, 3):
            a = random_jet(rep.algebra, PLAIN_RING, order, rng)
            b = random_jet(rep.algebra, PLAIN_RING, order, rng)
            assert matrix_mul(a, b, rep) == jet_mul(a, b)

    def test_works_over_extended_rings(self):
        rep = builtin_rep("h3")
        ring = ring_make([("e1", 1), ("e2", 1)])
        rng = Random(13)
        a = random_jet(H3, ring, 3, rng)
        b = random_jet(H3, ring, 3, rng)
        assert matrix_mul(a, b, rep) == jet_mul(a, b)

    def test_wrong_algebra_rejected(self):
        from liejets.jets import JetError

        rep = builtin_rep("sl2")
        p = basis_element(H3, PLAIN_RING, "p")
        zero = zero_element(H3, PLAIN_RING)
        a = jet_make(H3, PLAIN_RING, 2, (p, zero))
        with pytest.raises(JetError):
            matrix_mul(a, a, rep)


# sl2 on the basis (e/2, f, h): no catalog algebra has a structure constant
# that is not an integer, so only this one shows a bracket that loses the
# constant's denominator; jet_mul and bch_mul share the bracket, the matrix
# oracle does not
HALF_E_SL2 = make_algebra("sl2-half-e", ("e", "f", "h"), {
    ("e", "f"): [("h", Fraction(1, 2))],
    ("h", "e"): [("e", 2)],
    ("h", "f"): [("f", -2)],
})
HALF_E_SL2_IMAGES = {
    "e": [[0, Fraction(1, 2)], [0, 0]],
    "f": [[0, 0], [1, 0]],
    "h": [[1, 0], [0, -1]],
}


def test_a_fractional_structure_constant_agrees_with_the_matrix_oracle():
    rep = matrix_rep(HALF_E_SL2, HALF_E_SL2_IMAGES)
    rng = Random(21)
    for order in (1, 2, 3):
        a = random_jet(HALF_E_SL2, PLAIN_RING, order, rng, integer=True)
        b = random_jet(HALF_E_SL2, PLAIN_RING, order, rng, integer=True)
        assert matrix_mul(a, b, rep) == jet_mul(a, b)


def test_a_bracket_that_drops_the_constants_denominator_is_refused(monkeypatch):
    real = liejets.algebras._signed_sum
    monkeypatch.setattr(liejets.algebras, "_signed_sum",
                        lambda x, y, p, q: real(x, y, p, 1))
    with pytest.raises(MatrixError,
                       match=r"^images violate bracket compatibility on \(e, f\)$"):
        matrix_rep(HALF_E_SL2, HALF_E_SL2_IMAGES)


def _integer_cells_unscaled(values):
    """``matrices._integer_cells`` with each numerator left over its own
    denominator rather than brought to the common one."""
    values = [rational_from_str(v, MatrixError) for v in values]
    return tuple(v.numerator for v in values), lcm(*(v.denominator for v in values))


def _realize_without_image_den(in_lcm: bool, in_factor: bool):
    """``MatrixRep.realize`` with each image's denominator d left out of the
    shared denominator (``in_lcm`` false) or out of the factor that brings a
    term to it (``in_factor`` false)."""
    def realize(rep, x):
        terms = []
        for name, s in zip(rep.algebra.basis, x.coords):
            image, d = rep._numerators[name]
            terms += [(k, c, s.den, d, image) for k, c in s.terms.items()]
        den = lcm(*(e * (d if in_lcm else 1) for _, _, e, d, _ in terms))
        cells: dict = {}
        for k, c, e, d, image in terms:
            term = [c * (den // (e * (d if in_factor else 1))) * v for v in image]
            acc = cells.get(k)
            cells[k] = term if acc is None else list(map(add, acc, term))
        coeffs = {k: tuple(cell) for k, cell in cells.items() if any(cell)}
        return liejets.matrices._matrix(x.signature, rep.dimension, coeffs, den)
    return realize


IMAGE_MUTANTS = pytest.mark.parametrize("name, mutant", [
    ("_integer_cells", _integer_cells_unscaled),
    ("MatrixRep.realize", _realize_without_image_den(False, True)),
    ("MatrixRep.realize", _realize_without_image_den(True, False)),
], ids=["cells-unscaled", "lcm-without-image-den", "factor-without-image-den"])

#: The checks that build the h3 representation, each in its setup.
H3_REP_CHECKS = {
    f"{prefix}{n}" for prefix in ("thm-4.", "def6.1-vs-matrix-n") for n in (1, 2, 3)
}


@IMAGE_MUTANTS
def test_a_misread_rational_image_is_refused_when_the_catalog_loads_h3(
    monkeypatch, name, mutant
):
    # the built-in h3 images carry a 1/2, so a rational path that mishandles
    # an image's denominator realizes [p, q] and z differently; the refusal
    # is a defect of the package, so it fails the checks that load h3
    monkeypatch.setattr(f"liejets.matrices.{name}", mutant)
    report = run_suite("all", trials=3, seed=0)
    failed = {c.check: c.counterexample for c in report.checks if not c.passed}
    assert set(failed) == H3_REP_CHECKS
    for counterexample in failed.values():
        assert counterexample == {
            "setup": True,
            "error": "MatrixError: images violate bracket compatibility on (p, q)",
        }


@IMAGE_MUTANTS
def test_a_misread_rational_image_fails_the_matrix_engine_with_exit_1(
    monkeypatch, tmp_path, capsys, name, mutant
):
    rng = Random(0)
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        path.write_text(json.dumps(random_jet(H3, PLAIN_RING, 2, rng).to_json()))
    monkeypatch.setattr(f"liejets.matrices.{name}", mutant)
    assert main(["mul", *map(str, paths), "--via", "matrix"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: images violate bracket compatibility on (p, q)\n"


# -- generated algebras: Lie algebras of random rational matrices ---------------


def _reduce(echelon, v):
    """``v`` less its part in the span of the ``echelon`` rows, and that
    part's coordinates over them; each row is (pivot cell, cells) with a 1 at
    its pivot and a 0 at every earlier row's pivot."""
    coords = []
    for p, row in echelon:
        f = v[p]
        coords.append(f)
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return v, coords


def generated_algebra(seed: int, n: int, strict: bool):
    """The span of two seeded random rational n x n upper triangular matrices
    (strictly so when ``strict``) closed under commutators, as an algebra with
    its structure constants read by an exact solve, and the basis matrices."""
    rng = Random(seed)
    echelon = []

    def extend(v):
        r, _ = _reduce(echelon, v)
        p = next((c for c, e in enumerate(r) if e), None)
        if p is not None:
            echelon.append((p, [e / r[p] for e in r]))

    def grid(v):
        return [v[i * n:(i + 1) * n] for i in range(n)]

    def commutator(x, y):
        x, y = grid(x), grid(y)
        return [a - b for ra, rb in zip(rmat_mul(x, y), rmat_mul(y, x)) for a, b in zip(ra, rb)]

    for _ in range(2):
        extend([random_rational(rng) if j > i or (j == i and not strict) else Fraction(0)
                for i in range(n) for j in range(n)])
    k = 0
    while k < len(echelon):  # bracket each basis matrix with every earlier one
        for j in range(k):
            extend(commutator(echelon[j][1], echelon[k][1]))
        k += 1
    names = [f"m{k + 1}" for k in range(len(echelon))]
    structure = {}
    for (i, (_, x)), (j, (_, y)) in combinations(enumerate(echelon), 2):
        r, coords = _reduce(echelon, commutator(x, y))
        assert not any(r)
        structure[names[i], names[j]] = [(m, c) for m, c in zip(names, coords) if c]
    algebra = make_algebra(f"generated-{seed}", names, structure)
    images = {m: grid(row) for m, (_, row) in zip(names, echelon)}
    return algebra, images


#: (seed, size, strictly upper triangular): nilpotent and solvable algebras of
#: dimensions 3 to 8, every one with structure constants and image entries
#: that are not integers
GENERATED = [(0, 3, True), (1, 3, False), (2, 4, True), (3, 4, False), (4, 4, True),
             (5, 4, False)]


def generated_algebra_agrees(seed: int, n: int, strict: bool) -> None:
    """The generated algebra validates, its inclusion reads elements back, and
    the three engines agree on seeded jets at orders 1-3."""
    algebra, images = generated_algebra(seed, n, strict)
    assert any(c.denominator != 1 for entries in algebra.structure.values() for _, c in entries)
    assert validate_algebra(algebra) is None
    rep = matrix_rep(algebra, images)
    rng = Random(seed)
    ring = ring_make([("d", 2)])
    for _ in range(3):
        x = random_element(algebra, ring, rng)
        assert rep.extract(rep.realize(x)) == x
    for order in (1, 2, 3):
        for _ in range(2):
            a, b = (random_jet(algebra, PLAIN_RING, order, rng) for _ in range(2))
            product = jet_mul(a, b)
            assert bch_mul(a, b) == product
            assert matrix_mul(a, b, rep) == product


@pytest.mark.parametrize("seed, n, strict", GENERATED)
def test_a_generated_matrix_algebra_agrees_with_its_inclusion(seed, n, strict):
    generated_algebra_agrees(seed, n, strict)


def test_a_bracket_that_drops_the_constants_denominator_fails_a_generated_algebra(
    monkeypatch
):
    real = liejets.algebras._signed_sum
    monkeypatch.setattr(liejets.algebras, "_signed_sum",
                        lambda x, y, p, q: real(x, y, p, 1))
    with pytest.raises((AssertionError, MatrixError)):
        for row in GENERATED:
            generated_algebra_agrees(*row)


@IMAGE_MUTANTS
def test_a_misread_rational_image_fails_a_generated_algebra(monkeypatch, name, mutant):
    monkeypatch.setattr(f"liejets.matrices.{name}", mutant)
    with pytest.raises((AssertionError, MatrixError)):
        for row in GENERATED:
            generated_algebra_agrees(*row)
