"""Truncated polynomial curves in a Lie algebra and their group law.

A jet of order n over an algebra g is a coordinate tuple (X_1, ..., X_n) of
elements of g (the degree-zero coefficient is always 0).  Two coordinate
systems are supported:

* ``exp``:      the jet stands for d -> d X_1 + d^2/2! X_2 + ... + d^n/n! X_n
* ``monomial``: the jet stands for d -> d X_1 + d^2 X_2 + ... + d^n X_n

``exp`` is the canonical system: the closed-form group law below is stated in
it, and the factorial rescale lives in one audited converter.  The group law
is hard-coded per order (1, 2, 3); the independent series evaluation in
:mod:`liejets.bch` deliberately shares none of this code.

Orders above 3 are rejected: no closed product formula is provided for them.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping

from .algebras import AlgebraError, LieAlgebraSpec, LieElement, bracket, zero_element
from .scalars import SignatureMismatch, WeilRing, WeilScalar

__all__ = [
    "EXP",
    "MONOMIAL",
    "MAX_ORDER",
    "JetError",
    "Jet",
    "jet_make",
    "jet_identity",
    "jet_convert",
    "jet_mul",
    "jet_inverse",
    "jet_bracket",
    "jet_group_commutator",
    "jet_truncate",
    "jet_scale",
]

EXP = "exp"
MONOMIAL = "monomial"
MAX_ORDER = 3

_HALF = Fraction(1, 2)
_THREE_HALVES = Fraction(3, 2)


class JetError(ValueError):
    """Raised for invalid jets or incompatible jet operands."""


class Jet:
    """Immutable jet: algebra, scalar ring, order, coordinate system, coords."""

    __slots__ = ("algebra", "signature", "order", "system", "coords")

    def __init__(self, algebra, signature, order, system, coords):
        self.algebra = algebra
        self.signature = signature
        self.order = order
        self.system = system
        self.coords = coords

    def is_identity(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (
            (self.algebra is other.algebra or self.algebra == other.algebra)
            and self.signature == other.signature
            and self.order == other.order
            and self.system == other.system
            and self.coords == other.coords
        )

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return jet_mul(self, other)

    def inverse(self) -> "Jet":
        return jet_inverse(self)

    def __repr__(self):
        coords = ", ".join(str(c) for c in self.coords)
        return f"Jet[{self.algebra.name}, n={self.order}, {self.system}]({coords})"

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra.name,
            "order": self.order,
            "coordinates": self.system,
            "coords": [c.to_json() for c in self.coords],
        }

    @classmethod
    def from_json(cls, doc: Mapping, algebra: LieAlgebraSpec) -> "Jet":
        try:
            order = int(doc["order"])
            system = doc["coordinates"]
            coord_docs = doc["coords"]
        except (KeyError, TypeError, ValueError) as exc:
            raise JetError(f"malformed jet document: {exc}") from exc
        if not isinstance(coord_docs, list):
            raise JetError("malformed jet document: 'coords' must be a list of elements")
        coords = tuple(LieElement.from_json(c, algebra) for c in coord_docs)
        return jet_make(algebra, None, order, coords, system)


def jet_make(
    algebra: LieAlgebraSpec,
    ring: WeilRing | None,
    order: int,
    coords: Iterable[LieElement],
    system: str = EXP,
) -> Jet:
    """Validated jet constructor.  ``ring`` may be None when the coords carry
    their signature already."""
    if not 1 <= order <= MAX_ORDER:
        raise JetError(f"jet order must be 1..{MAX_ORDER}, got {order}")
    if system not in (EXP, MONOMIAL):
        raise JetError(f"unknown coordinate system {system!r}")
    coords = tuple(coords)
    if len(coords) != order:
        raise JetError(f"order {order} jet needs {order} coordinates, got {len(coords)}")
    sig = ring.signature if ring is not None else coords[0].signature
    for c in coords:
        if c.algebra is not algebra and c.algebra != algebra:
            raise AlgebraError("jet coordinates must belong to one algebra")
        if c.signature != sig:
            raise SignatureMismatch("jet coordinates must share one scalar ring")
    return Jet(algebra, sig, order, system, coords)


def jet_identity(algebra: LieAlgebraSpec, ring: WeilRing, order: int,
                 system: str = EXP) -> Jet:
    """The jet with all coordinates zero (the group unit in exp coordinates)."""
    zero = zero_element(algebra, ring)
    return jet_make(algebra, ring, order, (zero,) * order, system)


def _check_pair(a: Jet, b: Jet, system: str | None = None):
    if a.algebra is not b.algebra and a.algebra != b.algebra:
        raise JetError(f"jets over {a.algebra.name} and {b.algebra.name} cannot mix")
    if a.signature != b.signature:
        raise JetError("jets over different scalar rings cannot mix")
    if a.order != b.order:
        raise JetError(f"jet orders differ: {a.order} vs {b.order}")
    if system is not None:
        for j in (a, b):
            if j.system != system:
                raise JetError(f"operation requires {system} coordinates, got {j.system}")


def jet_convert(j: Jet, target: str) -> Jet:
    """Exact factorial rescale between coordinate systems.

    monomial X_i = exp X_i / i!, so the round trip is the identity.
    """
    if target not in (EXP, MONOMIAL):
        raise JetError(f"unknown coordinate system {target!r}")
    if j.system == target:
        return j
    if target == MONOMIAL:
        coords = tuple(
            c.scale(Fraction(1, factorial(i + 1))) for i, c in enumerate(j.coords)
        )
    else:
        coords = tuple(c.scale(factorial(i + 1)) for i, c in enumerate(j.coords))
    return Jet(j.algebra, j.signature, j.order, target, coords)


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Closed-form group product in exp coordinates.

    Order 1:  Z1 = X1 + Y1
    Order 2:  additionally Z2 = X2 + Y2 + [X1, Y1]
    Order 3:  additionally
              Z3 = X3 + Y3 + 3/2 ([X1, Y2] + [X2, Y1]) + 1/2 [X1 - Y1, [X1, Y1]]
    """
    _check_pair(a, b, system=EXP)
    x, y = a.coords, b.coords
    z1 = x[0] + y[0]
    if a.order == 1:
        return Jet(a.algebra, a.signature, 1, EXP, (z1,))
    b11 = bracket(x[0], y[0])
    z2 = x[1] + y[1] + b11
    if a.order == 2:
        return Jet(a.algebra, a.signature, 2, EXP, (z1, z2))
    cross = bracket(x[0], y[1]) + bracket(x[1], y[0])
    z3 = (
        x[2]
        + y[2]
        + cross.scale(_THREE_HALVES)
        + bracket(x[0] - y[0], b11).scale(_HALF)
    )
    return Jet(a.algebra, a.signature, 3, EXP, (z1, z2, z3))


def jet_inverse(a: Jet) -> Jet:
    """Group inverse: negate every exp coordinate."""
    if a.system != EXP:
        raise JetError("jet_inverse requires exp coordinates")
    return Jet(a.algebra, a.signature, a.order, EXP, tuple(-c for c in a.coords))


def jet_bracket(a: Jet, b: Jet) -> Jet:
    """Pointwise Lie bracket in monomial coordinates.

    Degree k of the result collects [X_i, Y_j] over i + j = k (i, j >= 1);
    degrees above the order are truncated away.  Convert exp jets first.
    """
    _check_pair(a, b, system=MONOMIAL)
    x, y = a.coords, b.coords
    zero = zero_element(a.algebra, WeilRing(a.signature))
    coords = []
    for k in range(1, a.order + 1):
        acc = zero
        for i in range(1, k):
            j = k - i
            acc = acc + bracket(x[i - 1], y[j - 1])
        coords.append(acc)
    return Jet(a.algebra, a.signature, a.order, MONOMIAL, tuple(coords))


def jet_group_commutator(a: Jet, b: Jet) -> Jet:
    """a . b . a^-1 . b^-1 via the closed-form product."""
    return jet_mul(jet_mul(jet_mul(a, b), jet_inverse(a)), jet_inverse(b))


def jet_truncate(j: Jet, order: int) -> Jet:
    """Drop coordinates above ``order`` (tower projection)."""
    if not 1 <= order <= j.order:
        raise JetError(f"cannot truncate order {j.order} jet to order {order}")
    return Jet(j.algebra, j.signature, order, j.system, j.coords[:order])


def jet_scale(j: Jet, scalar) -> Jet:
    """Multiply every coordinate by one scalar (WeilScalar, Fraction, or int)."""
    return Jet(j.algebra, j.signature, j.order, j.system,
               tuple(c * scalar for c in j.coords))
