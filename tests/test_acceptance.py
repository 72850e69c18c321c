"""Acceptance gate: every contracted claim at its stated scale and budget.

Each criterion runs exact (zero-tolerance) comparisons, prints one pass/fail
line, and must finish inside its stated time budget.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import time

from liejets.catalog import default_verification_algebras, resolve_algebra
from liejets.checks import (
    associative,
    check_def61_vs_bch,
    check_def61_vs_matrix,
    struct_jacobi_builtins,
    struct_ring_laws,
    struct_tower_compatibility,
    struct_witt_dimensions,
    verify_bracket_recovery,
    verify_group_axioms,
    verify_lemma_631,
    verify_theorem_4,
)
from liejets.hall import free_nilpotent
from liejets.matrices import builtin_rep
from liejets.sampling import symbolic_jet_family

SEED = 0


def _report(number, description, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({elapsed:.2f}s / {budget:.0f}s)")
    assert ok, f"criterion {number} failed: {description}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_associativity_symbolic():
    start = time.perf_counter()
    ok = True
    for order in (1, 2, 3):
        _, jets = symbolic_jet_family(free_nilpotent(3, 3), order, ("a", "b", "c"))
        ok = ok and associative(*jets.values()) is None
    _report(
        1,
        "product is associative for generic symbolic jets over "
        "free-nilpotent(3,3), orders 1-3",
        ok,
        time.perf_counter() - start,
        10.0,
    )


def test_criterion_2_cubic_bracket_identity():
    start = time.perf_counter()
    ok = verify_lemma_631().passed
    _report(
        2,
        "cubic bracket identity reduces to zero in free-nilpotent(3,3)",
        ok,
        time.perf_counter() - start,
        1.0,
    )


def test_criterion_3_group_axioms():
    algebras = [
        resolve_algebra(name)
        for name in ("h3", "sl2", "so3", "free-nilpotent(2,3)")
    ]
    start = time.perf_counter()
    ok = verify_group_axioms(algebras, (1, 2, 3), trials=1000, seed=SEED).passed
    _report(
        3,
        "unit and inverse laws on 1000 seeded jets per algebra per order",
        ok,
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_4_series_oracle_agreement():
    start = time.perf_counter()
    ok = True
    for order in (1, 2, 3):
        for algebra in default_verification_algebras():
            result = check_def61_vs_bch(order, [algebra], trials=1000, seed=SEED)
            ok = ok and result.passed
    _report(
        4,
        "closed form matches the truncated series: symbolic in "
        "free-nilpotent(2,n) plus 1000 seeded trials per built-in algebra",
        ok,
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_5_matrix_oracle_agreement():
    start = time.perf_counter()
    ok = True
    for name in ("h3", "sl2", "so3"):
        rep = builtin_rep(name)
        for order in (1, 2, 3):
            ok = ok and check_def61_vs_matrix(order, [rep], trials=100, seed=SEED).passed
    _report(
        5,
        "closed form matches matrix exp/log for h3, sl2, so3 at orders 1-3, "
        "100 seeded trials each",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_6_exp_product_identities():
    start = time.perf_counter()
    ok = True
    for name in ("sl2", "h3"):
        rep = builtin_rep(name)
        for n in (1, 2, 3):
            ok = ok and verify_theorem_4(n, [rep], trials=100, seed=SEED).passed
    _report(
        6,
        "exp-product identities over Q[d_i]/(d_i^2) for n = 1, 2, 3 on sl2 "
        "and h3, 100 seeded trials each",
        ok,
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_7_bracket_recovery():
    start = time.perf_counter()
    ok = True
    for order in (1, 2, 3):
        for name in ("h3", "sl2"):
            result = verify_bracket_recovery(
                order, [resolve_algebra(name)], trials=100, seed=SEED
            )
            # the driver also pins the order-3 closed form
            ok = ok and result.passed
    _report(
        7,
        "group commutator of square-zero-scaled jets equals the jet bracket "
        "and its closed form, symbolic plus 100 seeded h3/sl2 trials",
        ok,
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_8_structural_suite():
    start = time.perf_counter()
    witt = struct_witt_dimensions()
    ok = witt.passed
    ok = ok and free_nilpotent(2, 3).dim == 5
    ok = ok and free_nilpotent(3, 3).dim == 14
    ok = ok and struct_jacobi_builtins().passed
    ok = ok and struct_ring_laws(trials=100, seed=SEED).passed
    ok = ok and struct_tower_compatibility(
        default_verification_algebras(), trials=100, seed=SEED
    ).passed
    _report(
        8,
        "Hall dimensions, Jacobi validation, ring laws, and 3->2->1 tower "
        "compatibility",
        ok,
        time.perf_counter() - start,
        10.0,
    )
