"""Matrix oracle tests: exact exp/log, representations, theorem drivers."""

from fractions import Fraction
from random import Random

import pytest

from liejets.algebras import basis_element, heisenberg3, zero_element
from liejets.checks import check_def61_vs_matrix, verify_theorem_4
from liejets.jets import jet_make, jet_mul
from liejets.matrices import (
    MatrixError,
    WeilMatrix,
    builtin_rep,
    matrix_mul,
    matrix_rep,
    weil_exp,
    weil_log,
    MatrixRep,
)
from liejets.sampling import PLAIN_RING, random_element, random_jet
from liejets.scalars import ring_make

H3 = heisenberg3()


def rmat_mul(a, b):
    """Independent rational matrix product for expected-value construction."""
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def random_nilpotent_matrix(ring, n, rng):
    """Matrix whose entries are random scalars with zero constant term."""
    orders = ring.signature.orders
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
    return WeilMatrix(ring.signature, tuple(rows))


class TestExp:
    def test_exp_of_zero(self):
        ring = ring_make([("d", 2)])
        assert weil_exp(WeilMatrix.zero(ring, 3)) == WeilMatrix.identity(ring, 3)

    def test_series_truncates_at_first_power(self):
        ring = ring_make([("d", 1)])
        d = ring.gen("d")
        N = WeilMatrix.from_rational(ring, [[0, 1], [0, 0]])
        M = N * d
        assert weil_exp(M) == WeilMatrix.identity(ring, 2) + M

    def test_sl2_diagonal_generator_order3(self):
        # expected value built from independently computed powers of H
        H = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
        H2 = rmat_mul(H, H)
        H3_ = rmat_mul(H2, H)
        assert H2 == [[1, 0], [0, 1]] and H3_ == H
        ring = ring_make([("d", 3)])
        d = ring.gen("d")
        expected = (
            WeilMatrix.identity(ring, 2)
            + WeilMatrix.from_rational(ring, H) * d
            + WeilMatrix.from_rational(ring, H2) * (d * d).scale(Fraction(1, 2))
            + WeilMatrix.from_rational(ring, H3_) * (d * d * d).scale(Fraction(1, 6))
        )
        assert weil_exp(WeilMatrix.from_rational(ring, H) * d) == expected

    def test_rejects_nonzero_constant_term(self):
        ring = ring_make([("d", 2)])
        with pytest.raises(MatrixError):
            weil_exp(WeilMatrix.identity(ring, 2))


class TestLog:
    def test_log_of_identity(self):
        ring = ring_make([("d", 2)])
        assert weil_log(WeilMatrix.identity(ring, 3)) == WeilMatrix.zero(ring, 3)

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
            U = WeilMatrix.identity(ring, 3) + random_nilpotent_matrix(ring, 3, rng)
            assert weil_exp(weil_log(U)) == U

    def test_log_of_exp_with_suppressed_top_power(self):
        # log(I + dN + 1/2 d^2 N^2) recovers dN when N^2 is nonzero
        ring = ring_make([("d", 2)])
        d = ring.gen("d")
        N = WeilMatrix.from_rational(ring, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert not (N * N).is_zero()
        M = WeilMatrix.identity(ring, 3) + N * d + (N * N) * (d * d).scale(
            Fraction(1, 2)
        )
        assert weil_log(M) == N * d

    def test_rejects_non_unipotent(self):
        ring = ring_make([("d", 2)])
        with pytest.raises(MatrixError):
            weil_log(WeilMatrix.zero(ring, 2))


def test_exp_inverse_property():
    ring = ring_make([("e1", 1), ("e2", 1)])
    rng = Random(8)
    for _ in range(10):
        M = random_nilpotent_matrix(ring, 3, rng)
        assert weil_exp(M) * weil_exp(-M) == WeilMatrix.identity(ring, 3)


def test_order1_homomorphism():
    # with one square-zero d: exp(dA) exp(dB) = exp(d(A + B))
    ring = ring_make([("d", 1)])
    d = ring.gen("d")
    rng = Random(9)
    for _ in range(10):
        A = WeilMatrix.from_rational(
            ring, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        )
        B = WeilMatrix.from_rational(
            ring, [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        )
        assert weil_exp(A * d) * weil_exp(B * d) == weil_exp((A + B) * d)


class TestRep:
    @pytest.mark.parametrize("name", ["h3", "sl2", "so3"])
    def test_builtins_validate(self, name):
        rep = builtin_rep(name)
        assert rep.algebra.name == name
        assert rep.dimension in (2, 3)

    def test_bracket_incompatibility_detected(self):
        with pytest.raises(MatrixError):
            matrix_rep(
                H3,
                {
                    "p": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                    "q": [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
                    "z": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],  # [p,q] != image(z)
                },
            )

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

    def test_extract_rejects_outside_span(self):
        rep = builtin_rep("h3")
        ring = ring_make([])
        M = WeilMatrix.from_rational(ring, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        with pytest.raises(MatrixError):
            rep.extract(M)

    def test_extract_rejects_dependent_images(self):
        from liejets.algebras import abelian

        # commuting, bracket-compatible, but linearly dependent images
        rep = matrix_rep(
            abelian(2), {"a1": [[0, 1], [0, 0]], "a2": [[0, 1], [0, 0]]}
        )
        ring = ring_make([])
        with pytest.raises(MatrixError):
            rep.extract(WeilMatrix.from_rational(ring, [[0, 1], [0, 0]]))

    def test_json_round_trip(self):
        rep = builtin_rep("sl2")
        doc = rep.to_json()
        assert doc["dimension"] == 2
        assert doc["images"]["h"] == [["1", "0"], ["0", "-1"]]
        again = MatrixRep.from_json(doc, rep.algebra)
        assert again.images == rep.images

    def test_json_wrong_algebra_rejected(self):
        rep = builtin_rep("sl2")
        with pytest.raises(MatrixError):
            MatrixRep.from_json(rep.to_json(), H3)


class TestTheorem4:
    @pytest.mark.parametrize("name", ["sl2", "h3"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_passes(self, name, n):
        result = verify_theorem_4(n, [builtin_rep(name)], trials=15, seed=0)
        assert result.passed
        assert result.check == f"thm-4.{n}"

    def test_h3_instance_matches_frozen_matrix(self):
        # X1 = p, X2 = 0, Y1 = q, Y2 = 0 over Q[d1,d2]/(d1^2,d2^2):
        # both sides must equal I + s E12 + s E23 + s^2 E13 with s = d1 + d2,
        # derived by hand from P^2 = Q^2 = QP = 0 and PQ = E13.
        ring = ring_make([("d1", 1), ("d2", 1)])
        s = ring.gen("d1") + ring.gen("d2")
        s2 = s * s
        frozen = WeilMatrix(
            ring.signature,
            (
                (ring.one, s, s2),
                (ring.zero, ring.one, s),
                (ring.zero, ring.zero, ring.one),
            ),
        )
        rep = builtin_rep("h3")
        P = WeilMatrix.from_rational(ring, rep.images["p"])
        Q = WeilMatrix.from_rational(ring, rep.images["q"])
        Z = WeilMatrix.from_rational(ring, rep.images["z"])
        lhs = weil_exp(P * s) * weil_exp(Q * s)
        rhs = weil_exp((P + Q) * s + Z * s2.scale(Fraction(1, 2)))
        assert lhs == frozen
        assert rhs == frozen

    def test_order_out_of_range(self):
        with pytest.raises(MatrixError):
            verify_theorem_4(4, [builtin_rep("sl2")])


class TestDef61VsMatrix:
    @pytest.mark.parametrize("name", ["h3", "sl2", "so3"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_passes(self, name, order):
        result = check_def61_vs_matrix(order, [builtin_rep(name)], trials=15, seed=0)
        assert result.passed
        assert result.check == f"def6.1-vs-matrix-n{order}"


class TestMatrixMul:
    @pytest.mark.parametrize("name", ["h3", "sl2", "so3"])
    def test_agrees_with_closed_form(self, name):
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
