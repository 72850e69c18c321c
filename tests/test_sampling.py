"""The draw kernel: seeded inputs drawn from ``getrandbits`` alone equal the
ones ``Random.randint`` draws, value for value and bit for bit."""

from fractions import Fraction
from random import Random

import pytest

import liejets.sampling as sampling
from liejets.algebras import LieElement, heisenberg3, sl2
from liejets.hall import free_nilpotent
from liejets.jets import EXP, Jet
from liejets.sampling import (
    PLAIN_RING, draw_int, random_element, random_jet, random_rational,
)
from liejets.scalars import ring_make

SEEDS = [0, 1, 7, 2**40 + 3]

#: Every width from 1 to 40, so 1, the powers of two, 3, 7 and 19 (the
#: numerator bound's width) among them.
WIDTHS = range(1, 41)


def _same_stream(draw, reference, seed):
    """``draw`` and ``reference`` return the same values from two generators
    of one seed, and leave them in the same state."""
    mine, theirs = Random(seed), Random(seed)
    assert draw(mine) == reference(theirs)
    assert mine.getstate() == theirs.getstate()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("low", [-9, 0, 1])
def test_the_kernel_draws_what_randint_draws(seed, low):
    for width in WIDTHS:
        high = low + width - 1
        _same_stream(
            lambda rng: [draw_int(rng.getrandbits, low, high) for _ in range(50)],
            lambda rng: [rng.randint(low, high) for _ in range(50)],
            seed,
        )


def reference_rational(rng: Random) -> Fraction:
    return Fraction(rng.randint(-sampling.NUMERATOR_BOUND, sampling.NUMERATOR_BOUND),
                    rng.randint(1, sampling.DENOMINATOR_BOUND))


def reference_element(algebra, ring, rng: Random, integer: bool = False) -> LieElement:
    """The element drawn with ``randint`` and built through ``ring.rational``."""
    bound = sampling.INT_BOUND
    return LieElement(algebra, ring, tuple(
        ring.rational(rng.randint(-bound, bound) if integer else reference_rational(rng))
        for _ in range(algebra.dim)
    ))


def reference_jet(algebra, ring, order: int, rng: Random, integer: bool = False) -> Jet:
    coords = tuple(reference_element(algebra, ring, rng, integer) for _ in range(order))
    return Jet(algebra, ring, order, EXP, coords)


ALGEBRAS = pytest.mark.parametrize("algebra", [heisenberg3(), sl2(), free_nilpotent(2, 3)],
                                   ids=lambda a: a.name)
RINGS = pytest.mark.parametrize("ring", [PLAIN_RING, ring_make((("d", 2),))],
                                ids=["Q", "d3"])
INTEGER = pytest.mark.parametrize("integer", [False, True], ids=["rational", "integer"])


@pytest.mark.parametrize("seed", SEEDS)
def test_random_rational_matches_randint(seed):
    _same_stream(lambda rng: [random_rational(rng) for _ in range(200)],
                 lambda rng: [reference_rational(rng) for _ in range(200)], seed)


@ALGEBRAS
@RINGS
@INTEGER
def test_random_element_matches_randint(algebra, ring, integer):
    for seed in SEEDS:
        _same_stream(
            lambda rng: [random_element(algebra, ring, rng, integer) for _ in range(20)],
            lambda rng: [reference_element(algebra, ring, rng, integer) for _ in range(20)],
            seed,
        )


@ALGEBRAS
@RINGS
@INTEGER
def test_random_jet_matches_randint(algebra, ring, integer):
    for seed in SEEDS:
        for order in (1, 2, 3):
            _same_stream(
                lambda rng: [random_jet(algebra, ring, order, rng, integer) for _ in range(5)],
                lambda rng: [reference_jet(algebra, ring, order, rng, integer)
                             for _ in range(5)],
                seed,
            )


def test_the_bounds_are_read_when_each_draw_is_made(monkeypatch):
    monkeypatch.setattr(sampling, "NUMERATOR_BOUND", 0)
    monkeypatch.setattr(sampling, "INT_BOUND", 0)
    rng = Random(0)
    assert {random_rational(rng) for _ in range(50)} == {0}
    for integer in (False, True):
        for order in (1, 2, 3):
            jet = random_jet(heisenberg3(), PLAIN_RING, order, rng, integer)
            assert all(c.terms == {} and c.den == 1 for x in jet.coords for c in x.coords)
