"""Oracle independence, traced: the closed-form product reaches no oracle code,
neither oracle reaches the closed-form product, and Theorem 4's check takes
its right side from the closed-form product."""

import sys
from random import Random

import pytest

from liejets.algebras import heisenberg3
from liejets.bch import bch_mul
from liejets.checks import exp_product_holds
from liejets.hall import free_nilpotent
from liejets.jets import jet_mul
from liejets.matrices import builtin_rep, exp_weights, matrix_mul
from liejets.sampling import PLAIN_RING, random_jet, symbolic_jet_family

H3 = heisenberg3()
ORACLE_MODULES = {"liejets.bch", "liejets.matrices"}
# the code the oracles run on a jet: the lift to a curve and the readback
# from it, the factorial weights they apply and the extension of the ring by d
CURVE_CODE = {
    ("liejets.jets", name) for name in ("lift_curves", "read_curve", "factorial_weights")
} | {("liejets.scalars", "extend")}
# the converter between coordinate systems, which shares the factorial
# weights with the curve code and which the closed form does not run either
JET_CONVERT = ("liejets.jets", "jet_convert")


def reached(fn, *args) -> set:
    """(module, function name) of every Python function that ``fn(*args)``
    runs, itself included."""
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((frame.f_globals.get("__name__"), frame.f_code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


def h3_pairs(order: int) -> list:
    rng = Random(order)
    return [
        (random_jet(H3, PLAIN_RING, order, rng), random_jet(H3, PLAIN_RING, order, rng))
        for _ in range(3)
    ]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_closed_form_reaches_no_oracle_code(order):
    _, generic = symbolic_jet_family(free_nilpotent(2, 3), order, ("a", "b"))
    for a, b in h3_pairs(order) + [tuple(generic.values())]:
        calls = reached(jet_mul, a, b)
        assert ("liejets.jets", "jet_mul") in calls
        assert {call for call in calls if call[0] in ORACLE_MODULES} == set()
        assert calls & (CURVE_CODE | {JET_CONVERT}) == set()


@pytest.mark.parametrize("order", [1, 2, 3])
def test_oracles_never_reach_the_closed_form(order):
    rep = builtin_rep("h3")
    for a, b in h3_pairs(order):
        for engine, args in ((bch_mul, (a, b)), (matrix_mul, (a, b, rep))):
            calls = reached(engine, *args)
            assert CURVE_CODE <= calls
            assert ("liejets.jets", "jet_mul") not in calls


@pytest.mark.parametrize("order", [1, 2, 3])
def test_theorem_4_takes_its_right_side_from_the_closed_form(order):
    rep, weights = builtin_rep("h3"), exp_weights(order)
    rng = Random(order)
    a, b = (random_jet(H3, weights[0].signature, order, rng) for _ in range(2))
    calls = reached(exp_product_holds, rep, weights, a, b)
    assert ("liejets.jets", "jet_mul") in calls
    assert ("liejets.matrices", "weil_exp") in calls
