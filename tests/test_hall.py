"""Free nilpotent algebra tests against two independent oracles.

* necklace-count (Moebius sum) dimension formula per degree;
* expansion in the free associative algebra: the structure constants must
  reproduce the commutator of basis expansions as noncommutative polynomials.
"""

from fractions import Fraction

import pytest

from liejets.algebras import AlgebraError, validate_algebra
from liejets.hall import (
    expand_tree,
    free_nilpotent,
    hall_basis,
    lyndon_words,
    standard_bracketing,
)

MOBIUS = {1: 1, 2: -1, 3: -1}


def witt_oracle(m: int, degree: int) -> int:
    """Independent dimension count: (1/d) sum_{e | d} mu(e) m^{d/e}."""
    total = sum(
        MOBIUS[e] * m ** (degree // e) for e in range(1, degree + 1) if degree % e == 0
    )
    assert total % degree == 0
    return total // degree


# -- independent tensor oracle --------------------------------------------------


def tensor_of_tree(tree) -> dict:
    """Expansion of a bracket tree as words -> coefficients, untruncated
    (degrees here never exceed 3 anyway).  Written without reusing the
    library's truncating expander."""
    if isinstance(tree, int):
        return {(tree,): Fraction(1)}
    left = tensor_of_tree(tree[0])
    right = tensor_of_tree(tree[1])
    out: dict = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            for w, sign in ((w1 + w2, 1), (w2 + w1, -1)):
                acc = out.get(w, Fraction(0)) + sign * c1 * c2
                if acc:
                    out[w] = acc
                else:
                    out.pop(w, None)
    return out


def tensor_commutator(a: dict, b: dict, cap: int) -> dict:
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            if len(w1) + len(w2) > cap:
                continue
            for w, sign in ((w1 + w2, 1), (w2 + w1, -1)):
                acc = out.get(w, Fraction(0)) + sign * c1 * c2
                if acc:
                    out[w] = acc
                else:
                    out.pop(w, None)
    return out


class TestLyndonMachinery:
    def test_words_over_two_letters(self):
        words = lyndon_words(2, 3)
        assert words == [(0,), (1,), (0, 1), (0, 0, 1), (0, 1, 1)]

    def test_standard_bracketing_shapes(self):
        assert standard_bracketing((0, 1)) == (0, 1)
        assert standard_bracketing((0, 0, 1)) == (0, (0, 1))
        assert standard_bracketing((0, 1, 1)) == ((0, 1), 1)

    def test_basis_names(self):
        basis = hall_basis(2, 3)
        assert basis.names == ("x", "y", "[x,y]", "[x,[x,y]]", "[[x,y],y]")

    def test_expand_tree_matches_untruncated_oracle(self):
        for word in lyndon_words(3, 3):
            tree = standard_bracketing(word)
            assert expand_tree(tree, 3) == tensor_of_tree(tree)


class TestDimensions:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_witt_formula(self, m, c):
        spec = free_nilpotent(m, c)
        per_degree = [spec.degrees.count(d) for d in range(1, c + 1)]
        assert per_degree == [witt_oracle(m, d) for d in range(1, c + 1)]

    def test_frozen_dimensions(self):
        assert free_nilpotent(2, 3).dim == 5  # 2 + 1 + 2
        assert free_nilpotent(3, 3).dim == 14  # 3 + 3 + 8
        assert free_nilpotent(1, 3).dim == 1
        assert free_nilpotent(2, 2).dim == 3
        assert free_nilpotent(3, 2).dim == 6

    def test_one_generator_is_abelian(self):
        spec = free_nilpotent(1, 3)
        assert spec.structure == {}


@pytest.mark.parametrize("m,c", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_structure_constants_match_tensor_oracle(m, c):
    spec = free_nilpotent(m, c)
    basis = hall_basis(m, c)
    expansions = [tensor_of_tree(t) for t in basis.trees]
    for i in range(spec.dim):
        for j in range(i + 1, spec.dim):
            lhs = tensor_commutator(expansions[i], expansions[j], c)
            rhs: dict = {}
            for k, coeff in spec.structure.get((i, j), ()):
                for w, q in expansions[k].items():
                    acc = rhs.get(w, Fraction(0)) + coeff * q
                    if acc:
                        rhs[w] = acc
                    else:
                        rhs.pop(w, None)
            assert lhs == rhs, (basis.names[i], basis.names[j])


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_jacobi_holds(m, c):
    assert validate_algebra(free_nilpotent(m, c)).ok


def test_degree_additivity():
    spec = free_nilpotent(3, 3)
    for (i, j), entries in spec.structure.items():
        total = spec.degrees[i] + spec.degrees[j]
        assert total <= 3
        for k, _ in entries:
            assert spec.degrees[k] == total


def test_range_errors():
    for m, c in ((0, 2), (4, 2), (2, 0), (2, 4)):
        with pytest.raises(AlgebraError):
            free_nilpotent(m, c)


def test_generator_metadata():
    spec = free_nilpotent(2, 3)
    assert spec.name == "free-nilpotent(2,3)"
    assert spec.basis[:2] == ("x", "y")
