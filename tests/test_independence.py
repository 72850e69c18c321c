"""Oracle independence, traced: the closed-form product reaches no oracle code,
and neither oracle reaches the closed-form product."""

import sys
from random import Random

import pytest

from liejets.algebras import heisenberg3
from liejets.bch import bch_mul
from liejets.hall import free_nilpotent
from liejets.jets import jet_mul
from liejets.matrices import builtin_rep, matrix_mul
from liejets.sampling import PLAIN_RING, random_jet, symbolic_jet_family

H3 = heisenberg3()
ORACLE_MODULES = {"liejets.bch", "liejets.matrices"}
# the lift to a curve and the readback from it, the factorial weights they
# apply and the extension of the ring by d, which only the oracles use
CURVE_CODE = {
    ("liejets.jets", name)
    for name in ("lift_curves", "read_curve", "jet_convert", "factorial_weights")
} | {("liejets.scalars", "extend")}


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
        assert calls & CURVE_CODE == set()


@pytest.mark.parametrize("order", [1, 2, 3])
def test_oracles_never_reach_the_closed_form(order):
    rep = builtin_rep("h3")
    for a, b in h3_pairs(order):
        for engine, args in ((bch_mul, (a, b)), (matrix_mul, (a, b, rep))):
            calls = reached(engine, *args)
            # every name in CURVE_CODE is one the oracles do run
            assert CURVE_CODE - {("liejets.jets", "jet_convert")} <= calls
            assert ("liejets.jets", "jet_mul") not in calls
