"""Independent series oracle for the jet group law.

Multiplies two jets by literally evaluating the classical truncated
Baker-Campbell-Hausdorff series

    log(exp A exp B) = A + B + 1/2 [A,B] + 1/12 [A,[A,B]] + 1/12 [B,[B,A]]
                       (+ terms of bracket degree >= 4)

in g tensored with the scalar ring extended by one nilpotent generator d of
order n.  A and B are the curves sum_i d^i X_i / i!; the product's jet
coordinates are read back from the d-degree components, which exist and are
unique because the extension is a free module over the base ring with basis
1, d, ..., d^n.

Only the words the truncated ring can see are evaluated.  A bracket word of
degree k in curves that lie in d^1 lies in d^k, so it is exactly zero when
k > n, and :func:`bch_mul` skips it.  Skipping cannot change a product or a
verdict: every evaluated word is checked to lie in d^k, and the words "a" and
"b" of degree 1 are always evaluated, so a curve with a d^0 part is refused
before a skipped word could have been nonzero.  Within one product every
subword is formed once: [A, B] is shared by [A, [A, B]] and the sum itself.

The coefficient table is fixed, audited data through bracket degree 3, read
when :func:`bch_mul` is called.  Each word's coefficient is folded into the
one merge that adds the word to the sum (``LieElement.add_scaled``).  The
oracles share only the curve lift and readback
(:func:`liejets.jets.lift_curves`, :func:`liejets.jets.read_curve`), which
apply the factorial weights inside the one pass that joins or splits each
coordinate by powers of d, and which the closed-form product never calls;
that independence is the point of an oracle.  Every d-degree is read through
:mod:`liejets.scalars`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .algebras import LieElement, bracket, zero_element
from .jets import Jet, JetError, lift_curves, read_curve
from .scalars import lowest_last_power

__all__ = ["BCH_DEGREE3_TERMS", "bch_mul"]

#: Bracket words over the two arguments "a", "b" with their classical Dynkin
#: coefficients, complete through bracket degree 3.  A word is either a leaf
#: name or a pair (left word, right word) meaning their bracket.
BCH_DEGREE3_TERMS: tuple = (
    ("a", Fraction(1)),
    ("b", Fraction(1)),
    (("a", "b"), Fraction(1, 2)),
    (("a", ("a", "b")), Fraction(1, 12)),
    (("b", ("b", "a")), Fraction(1, 12)),
)


@cache
def _word_degree(word) -> int:
    if isinstance(word, str):
        return 1
    return _word_degree(word[0]) + _word_degree(word[1])


def _eval_word(word, values: dict) -> LieElement:
    """The word's value, from and into ``values``, which maps every word
    formed so far (the leaves "a" and "b" to begin with) to its value."""
    value = values.get(word)
    if value is None:
        value = bracket(_eval_word(word[0], values), _eval_word(word[1], values))
        values[word] = value
    return value


def bch_mul(a: Jet, b: Jet) -> Jet:
    """Product of two exp-coordinate jets via the truncated series."""
    if a.order > 3 or b.order > 3:
        raise JetError("series table only covers orders up to 3")
    A, B = lift_curves(a, b)
    values = {"a": A, "b": B}
    total = zero_element(A.algebra, A.signature)
    for word, coeff in BCH_DEGREE3_TERMS:
        degree = _word_degree(word)
        if degree > a.order:
            continue
        value = _eval_word(word, values)
        lowest = lowest_last_power(*value.coords)
        if lowest is not None and lowest < degree:
            raise JetError(
                f"bracket word {word} produced a term of d-degree {lowest}"
            )
        total = total.add_scaled(value, coeff)
    return read_curve(total, a)
