"""Seeded random and fully generic symbolic inputs for the verifiers.

Random sampling draws small rationals (or small integers for the matrix
oracle) so that exact arithmetic stays cheap; any nonzero discrepancy is
decisive regardless of magnitude.

Generic symbolic jets adjoin one nilpotent coefficient symbol per (jet,
coordinate slot, basis element) and set each slot to the all-basis linear
combination of its symbols.  The symbols have order 3: every symbol sits in
a slot of degree at least 1 and no law goes above degree 3, so no term holds
any symbol more than three times and the truncation drops no term.  Equality
of two symbolic results is then equality of honest polynomial identities in
the coefficients: it implies the identity for every choice of elements over
every commutative coefficient ring.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .algebras import LieAlgebraSpec, LieElement
from .jets import EXP, Jet, _check_order, jet_make
from .scalars import RingSignature, WeilRing

__all__ = [
    "random_rational",
    "random_element",
    "random_jet",
    "symbolic_jet_family",
    "PLAIN_RING",
]

#: The ring of plain rationals (no nilpotent generators).
PLAIN_RING = WeilRing(RingSignature(()))


#: Random rationals are p/q with |p| <= NUMERATOR_BOUND and
#: 1 <= q <= DENOMINATOR_BOUND; random integer coordinates lie in
#: [-INT_BOUND, INT_BOUND].
NUMERATOR_BOUND = 9
DENOMINATOR_BOUND = 3
INT_BOUND = 3


def random_rational(rng: Random) -> Fraction:
    return Fraction(
        rng.randint(-NUMERATOR_BOUND, NUMERATOR_BOUND),
        rng.randint(1, DENOMINATOR_BOUND),
    )


def random_element(algebra: LieAlgebraSpec, ring: WeilRing, rng: Random,
                   integer: bool = False) -> LieElement:
    """Element with random small rational (or integer) coordinates."""
    coords = []
    for _ in range(algebra.dim):
        q = rng.randint(-INT_BOUND, INT_BOUND) if integer else random_rational(rng)
        coords.append(ring.rational(q))
    return LieElement(algebra, ring.signature, tuple(coords))


def random_jet(algebra: LieAlgebraSpec, ring: WeilRing, order: int, rng: Random,
               integer: bool = False) -> Jet:
    """Exp-coordinate jet with random coordinates, as :func:`random_element`.
    The order is checked before anything is drawn; the coordinates, drawn
    here over ``algebra`` and ``ring``, are not checked again."""
    _check_order(order)
    coords = tuple(
        random_element(algebra, ring, rng, integer=integer) for _ in range(order)
    )
    return Jet(algebra, ring.signature, order, EXP, coords)


def symbolic_jet_family(
    algebra: LieAlgebraSpec,
    order: int,
    labels: tuple[str, ...],
    extra_generators: tuple[tuple[str, int], ...] = (),
) -> tuple[WeilRing, dict[str, Jet]]:
    """One fully generic exp-coordinate jet per label, over a shared ring.

    The ring starts with ``extra_generators`` and then one order-3 symbol per
    (label, slot, basis element), named ``{label}{slot}_{k}``.  Slot i of the
    jet for a label is the linear combination of all basis elements with that
    slot's symbols as coefficients.
    """
    gens = list(extra_generators)
    for label in labels:
        for slot in range(1, order + 1):
            for k in range(algebra.dim):
                gens.append((f"{label}{slot}_{k}", 3))
    ring = WeilRing(RingSignature(tuple(gens)))
    sig = ring.signature

    jets = {}
    for label in labels:
        coords = []
        for slot in range(1, order + 1):
            vec = tuple(
                ring.gen(f"{label}{slot}_{k}") for k in range(algebra.dim)
            )
            coords.append(LieElement(algebra, sig, vec))
        jets[label] = jet_make(algebra, ring, order, tuple(coords), EXP)
    return ring, jets
