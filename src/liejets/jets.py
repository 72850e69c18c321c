"""Truncated polynomial curves in a Lie algebra and their group law.

A jet of order n over an algebra g is a coordinate tuple (X_1, ..., X_n) of
elements of g (the degree-zero coefficient is always 0).  Two coordinate
systems are supported:

* ``exp``:      the jet stands for d -> d X_1 + d^2/2! X_2 + ... + d^n/n! X_n
* ``monomial``: the jet stands for d -> d X_1 + d^2 X_2 + ... + d^n X_n

``exp`` is the canonical system: the closed-form group law below is stated in
it.  The factorials between the two systems come from one audited helper,
:func:`factorial_weights`, which the converter :func:`jet_convert` and the
oracles' curve code read.  The group law is hard-coded per order (1, 2, 3).

The two oracles (:mod:`liejets.bch` and :mod:`liejets.matrices`) read a jet as
a curve over the scalar ring extended by a fresh nilpotent d: coordinate i
divided by i! and moved to d^i.  They share only the lift to that curve and
the readback from it (:func:`lift_curves`, :func:`read_curve`), which divide
and multiply by the factorial weights inside the one pass that joins or
splits each coordinate by powers of d.  The closed-form product never calls
them, so a fault in any of them shows up as a disagreement with the closed
form.

Orders above 3 are rejected: no closed product formula is provided for them.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping

from .algebras import AlgebraError, LieAlgebraSpec, LieElement, bracket, zero_element
from .scalars import (
    RingSignature,
    SignatureMismatch,
    json_int,
    join_last_generator,
    split_last_generator,
)

__all__ = [
    "EXP",
    "MONOMIAL",
    "MAX_ORDER",
    "JetError",
    "Jet",
    "jet_make",
    "jet_identity",
    "jet_convert",
    "factorial_weights",
    "jet_mul",
    "jet_inverse",
    "jet_bracket",
    "jet_group_commutator",
    "jet_truncate",
    "jet_scale",
    "lift_curves",
    "read_curve",
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
            order = json_int(doc["order"])
            system = doc["coordinates"]
            coord_docs = doc["coords"]
        except (KeyError, TypeError, ValueError) as exc:
            raise JetError(f"malformed jet document: {exc}") from exc
        if not isinstance(coord_docs, list):
            raise JetError("malformed jet document: 'coords' must be a list of elements")
        coords = tuple(LieElement.from_json(c, algebra) for c in coord_docs)
        return jet_make(algebra, None, order, coords, system)


def _check_order(order) -> None:
    """Raise ``JetError`` unless ``order`` is an ``int`` from 1 to
    ``MAX_ORDER``: the rule of :func:`jet_make`, which
    :func:`liejets.sampling.random_jet` applies before it draws."""
    if order.__class__ is not int or not 1 <= order <= MAX_ORDER:
        raise JetError(f"jet order must be an int 1..{MAX_ORDER}, got {order!r}")


def jet_make(
    algebra: LieAlgebraSpec,
    ring: RingSignature | None,
    order: int,
    coords: Iterable[LieElement],
    system: str = EXP,
) -> Jet:
    """Validated jet constructor.  ``ring`` may be None when the coords carry
    their signature already."""
    _check_order(order)
    if system not in (EXP, MONOMIAL):
        raise JetError(f"unknown coordinate system {system!r}")
    coords = tuple(coords)
    if len(coords) != order:
        raise JetError(f"order {order} jet needs {order} coordinates, got {len(coords)}")
    sig = ring if ring is not None else coords[0].signature
    for c in coords:
        if c.algebra is not algebra and c.algebra != algebra:
            raise AlgebraError("jet coordinates must belong to one algebra")
        if c.signature != sig:
            raise SignatureMismatch("jet coordinates must share one scalar ring")
    return Jet(algebra, sig, order, system, coords)


def jet_identity(algebra: LieAlgebraSpec, ring: RingSignature, order: int,
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


def factorial_weights(order: int) -> tuple[int, ...]:
    """(0!, 1!, ..., order!): entry i is the factor between exp coordinate i
    and monomial coordinate i, indexed as the powers of d in the oracles'
    curves.  Read at every call, so it is the one place the factorials come
    from."""
    return tuple(factorial(i) for i in range(order + 1))


def jet_convert(j: Jet, target: str) -> Jet:
    """The jet in ``target`` coordinates: ``j`` itself when it is in them
    already, and otherwise monomial X_i = exp X_i / i!, X_i merged into zero
    with the weight 1/i!.  No caller converts monomial coordinates back to
    exp, so that is refused with the unknown systems.
    """
    if j.system == target:
        return j
    if target != MONOMIAL:
        raise JetError(f"cannot convert {j.system} coordinates to {target!r}")
    weights, zero = factorial_weights(j.order), zero_element(j.algebra, j.signature)
    coords = tuple(zero.add_scaled(c, Fraction(1, weights[i])) for i, c in enumerate(j.coords, 1))
    return Jet(j.algebra, j.signature, j.order, MONOMIAL, coords)


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Closed-form group product in exp coordinates.

    Order 1:  Z1 = X1 + Y1
    Order 2:  additionally Z2 = X2 + Y2 + [X1, Y1]
    Order 3:  additionally
              Z3 = X3 + Y3 + 3/2 ([X1, Y2] + [X2, Y1]) + 1/2 [X1 - Y1, [X1, Y1]]

    The 3/2 and the 1/2 are the weights of the merges that add their terms
    (``LieElement.add_scaled``), as the series oracle folds its BCH
    coefficients, so no term is rescaled on its own.  This is the one copy
    of the group law: Theorem 4's check takes its right side from here.
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
    z3 = (x[2] + y[2]).add_scaled(cross, _THREE_HALVES).add_scaled(
        bracket(x[0] - y[0], b11), _HALF
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
    zero = zero_element(a.algebra, a.signature)
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
    if order.__class__ is not int or not 1 <= order <= j.order:
        raise JetError(f"cannot truncate order {j.order} jet to order {order!r}")
    return Jet(j.algebra, j.signature, order, j.system, j.coords[:order])


def jet_scale(j: Jet, scalar) -> Jet:
    """Multiply every coordinate by one scalar of the jet's ring."""
    return Jet(j.algebra, j.signature, j.order, j.system,
               tuple(c * scalar for c in j.coords))


def lift_curves(*jets: Jet) -> tuple[LieElement, ...]:
    """The curves d -> sum_i d^i/i! X_i of exp-coordinate jets, over the
    jets' common ring extended by a fresh last generator d of their common
    order.  Each basis coordinate of a curve is joined from that coordinate
    of the n jet coordinates, each divided by its factorial weight, in one
    :func:`~liejets.scalars.join_last_generator`.  All curves share one
    extended signature object, so the scalar layer's same-ring fast path
    applies when they are combined.
    """
    first = jets[0]
    for j in jets:
        _check_pair(first, j, system=EXP)
    name = "d"
    while name in first.signature.names:
        name += "_"
    sig = first.signature.extend(name, first.order)
    weights = factorial_weights(first.order)

    def lift(j: Jet) -> LieElement:
        columns = zip(*(x.coords for x in j.coords))
        return LieElement(j.algebra, sig, tuple(
            join_last_generator(dict(enumerate(column, 1)), sig, weights)
            for column in columns
        ))

    return tuple(lift(j) for j in jets)


def read_curve(x: LieElement, like: Jet) -> Jet:
    """The exp-coordinate jet whose curve is ``x``, over ``like``'s ring and
    order: the inverse of :func:`lift_curves`.

    Splits every coordinate by powers of d, the last generator, multiplying
    the part at d^i by i! in the same pass; exp coordinate i collects the
    parts at d^i.  A curve with a part at a power above n, which ``like``'s
    order cannot hold, is refused with ``SignatureError`` by the split, and
    one with a part at d^0 with ``JetError``.  The parts exist and are
    unique because the extended ring is a free module over the base ring
    with basis 1, d, ..., d^n.
    """
    sig = like.signature
    weights = factorial_weights(like.order)
    parts = [split_last_generator(c, sig, weights) for c in x.coords]
    if any(0 in p for p in parts):
        raise JetError("curve has a nonzero degree-0 component")
    zero = sig.zero
    coords = tuple(
        LieElement(like.algebra, sig, tuple(p.get(i, zero) for p in parts))
        for i in range(1, like.order + 1)
    )
    return Jet(like.algebra, sig, like.order, EXP, coords)
