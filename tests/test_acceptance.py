"""Acceptance gate: every contracted claim at its stated scale and budget.

Each criterion runs exact (zero-tolerance) comparisons, prints one pass/fail
line, and must finish inside its stated time budget.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import time

from liejets.catalog import default_verification_algebras, resolve_algebra
from liejets.checks import ROWS, associative, run_check
from liejets.hall import free_nilpotent
from liejets.sampling import symbolic_jet_family

SEED = 0


def passed(key: str, *args) -> bool:
    """Whether the catalog row that ``ROWS[key]`` builds from ``args`` passes."""
    return run_check(ROWS[key](*args)).passed


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
    ok = passed("lemma-6.3.1")
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
    ok = passed("thm-7.0", (1, 2, 3), algebras, 1000, SEED)
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
            ok = ok and passed("def6.1-vs-bch-n", order, [algebra], 1000, SEED)
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
        algebra = resolve_algebra(name)
        for order in (1, 2, 3):
            ok = ok and passed("def6.1-vs-matrix-n", order, [algebra], 100, SEED)
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
        algebra = resolve_algebra(name)
        for n in (1, 2, 3):
            ok = ok and passed("thm-4.", n, [algebra], 100, SEED)
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
            # the row also pins the order-3 closed form
            ok = ok and passed("thm-7.", order, [resolve_algebra(name)], 100, SEED)
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
    ok = passed("struct-witt-dimensions")
    ok = ok and free_nilpotent(2, 3).dim == 5
    ok = ok and free_nilpotent(3, 3).dim == 14
    ok = ok and passed("struct-jacobi-builtins")
    ok = ok and passed("struct-ring-laws", 100, SEED)
    ok = ok and passed("struct-tower-compatibility", default_verification_algebras(), 100, SEED)
    _report(
        8,
        "Hall dimensions, Jacobi validation, ring laws, and 3->2->1 tower "
        "compatibility",
        ok,
        time.perf_counter() - start,
        10.0,
    )
