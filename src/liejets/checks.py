"""The verification drivers and the claim catalog.

Each driver machine-checks one identity about the jet group law and returns
a :class:`~liejets.report.CheckResult`.  Checks come in two flavors:

* symbolic: fully generic elements over a free nilpotent algebra (see
  :func:`liejets.sampling.symbolic_jet_family`), where equality of results is
  a polynomial identity in the coefficients and therefore covers all inputs;
* randomized: seeded trials with small rational coordinates, where exact
  arithmetic makes any single discrepancy decisive.

``run_suite`` assembles named groups of checks into a deterministic report
ordered by check id.
"""

from __future__ import annotations

import platform
import time
from fractions import Fraction
from random import Random

from . import __version__
from .algebras import LieAlgebraSpec, basis_element, bracket, validate_algebra
from .bch import check_def61_vs_bch
from .catalog import default_verification_algebras, resolve_algebra
from .hall import free_nilpotent
from .jets import (
    MONOMIAL,
    Jet,
    jet_bracket,
    jet_convert,
    jet_group_commutator,
    jet_identity,
    jet_inverse,
    jet_mul,
    jet_scale,
    jet_truncate,
)
from .matrices import builtin_rep, check_def61_vs_matrix, verify_theorem_4
from .report import FAIL, PASS, CheckResult, VerificationReport, merge_results
from .sampling import PLAIN_RING, random_jet, random_rational, symbolic_jet_family
from .scalars import WeilRing, ring_make

__all__ = [
    "verify_associativity",
    "verify_lemma_631",
    "verify_group_axioms",
    "verify_bracket_recovery",
    "struct_witt_dimensions",
    "struct_jacobi_builtins",
    "struct_ring_laws",
    "struct_tower_compatibility",
    "SUITE_NAMES",
    "run_suite",
]

_HALF = Fraction(1, 2)
_THREE_HALVES = Fraction(3, 2)


# -- associativity -------------------------------------------------------------


def associativity_symbolic(order: int) -> tuple[bool, dict | None]:
    """(a.b).c == a.(b.c) for a fully generic triple over free-nilpotent(3,3)."""
    algebra = free_nilpotent(3, 3)
    _, jets = symbolic_jet_family(algebra, order, ("a", "b", "c"))
    a, b, c = jets["a"], jets["b"], jets["c"]
    left = jet_mul(jet_mul(a, b), c)
    right = jet_mul(a, jet_mul(b, c))
    if left == right:
        return True, None
    return False, {"symbolic": True, "left": left.to_json(), "right": right.to_json()}


def associativity_random(
    algebra: LieAlgebraSpec, order: int, trials: int, seed: int
) -> tuple[bool, dict | None]:
    rng = Random(seed)
    for trial in range(trials):
        a = random_jet(algebra, PLAIN_RING, order, rng)
        b = random_jet(algebra, PLAIN_RING, order, rng)
        c = random_jet(algebra, PLAIN_RING, order, rng)
        if jet_mul(jet_mul(a, b), c) != jet_mul(a, jet_mul(b, c)):
            return False, {
                "trial": trial,
                "algebra": algebra.name,
                "a": a.to_json(),
                "b": b.to_json(),
                "c": c.to_json(),
            }
    return True, None


def verify_associativity(
    order: int,
    algebras: list[LieAlgebraSpec] | None = None,
    trials: int = 100,
    seed: int = 0,
) -> CheckResult:
    check_id = f"thm-6.{order}"
    detail: dict = {"order": order, "symbolic_algebra": "free-nilpotent(3,3)"}
    ok, ce = associativity_symbolic(order)
    detail["symbolic"] = PASS if ok else FAIL
    if not ok:
        return CheckResult(check_id, FAIL, detail, counterexample=ce)
    random_detail = {}
    for algebra in algebras if algebras is not None else default_verification_algebras():
        ok, ce = associativity_random(algebra, order, trials, seed)
        random_detail[algebra.name] = {"trials": trials, "status": PASS if ok else FAIL}
        if not ok:
            detail["random"] = random_detail
            return CheckResult(check_id, FAIL, detail, counterexample=ce)
    detail["random"] = random_detail
    return CheckResult(check_id, PASS, detail)


def verify_lemma_631() -> CheckResult:
    """The cubic bracket identity behind order-3 associativity reduces to zero.

    Checked on the generators of free-nilpotent(3,3); the expression is
    multilinear, so vanishing there settles it for all elements everywhere.
    """
    algebra = free_nilpotent(3, 3)
    x = basis_element(algebra, PLAIN_RING, "x")
    y = basis_element(algebra, PLAIN_RING, "y")
    z = basis_element(algebra, PLAIN_RING, "z")
    expr = (
        bracket(bracket(x, y), z).scale(_THREE_HALVES)
        + (bracket(x, bracket(y, z)) + bracket(y, bracket(x, z))).scale(_HALF)
        - bracket(x, bracket(y, z)).scale(_THREE_HALVES)
        + (bracket(y, bracket(x, z)) + bracket(z, bracket(x, y))).scale(_HALF)
    )
    if expr.is_zero():
        return CheckResult("lemma-6.3.1", PASS, {"algebra": algebra.name})
    return CheckResult(
        "lemma-6.3.1",
        FAIL,
        {"algebra": algebra.name},
        counterexample={"residual": expr.to_json()},
    )


# -- group axioms ----------------------------------------------------------------


def _axioms_hold(a, identity) -> str | None:
    """Name of the first violated axiom for one jet, or None."""
    if jet_mul(identity, a) != a or jet_mul(a, identity) != a:
        return "unit"
    inv = jet_inverse(a)
    if jet_mul(a, inv) != identity or jet_mul(inv, a) != identity:
        return "inverse"
    return None


def verify_group_axioms(
    algebras: list[LieAlgebraSpec] | None = None,
    orders: tuple[int, ...] = (1, 2, 3),
    trials: int = 1000,
    seed: int = 0,
) -> CheckResult:
    """Unit and inverse laws: symbolically over free-nilpotent(2,3) and on
    seeded random jets in every requested algebra."""
    detail: dict = {"orders": list(orders), "trials": trials}
    generic_algebra = free_nilpotent(2, 3)
    for order in orders:
        ring, jets = symbolic_jet_family(generic_algebra, order, ("a",))
        a = jets["a"]
        identity = jet_identity(generic_algebra, ring, order)
        violated = _axioms_hold(a, identity)
        if violated is not None:
            return CheckResult(
                "thm-7.0",
                FAIL,
                detail,
                counterexample={"symbolic": True, "order": order, "axiom": violated},
            )
    detail["symbolic"] = PASS
    random_detail = {}
    for algebra in algebras if algebras is not None else default_verification_algebras():
        rng = Random(seed)
        identity_by_order = {
            order: jet_identity(algebra, PLAIN_RING, order) for order in orders
        }
        for order in orders:
            identity = identity_by_order[order]
            for trial in range(trials):
                a = random_jet(algebra, PLAIN_RING, order, rng)
                violated = _axioms_hold(a, identity)
                if violated is not None:
                    return CheckResult(
                        "thm-7.0",
                        FAIL,
                        detail,
                        counterexample={
                            "algebra": algebra.name,
                            "order": order,
                            "trial": trial,
                            "axiom": violated,
                            "a": a.to_json(),
                        },
                    )
        random_detail[algebra.name] = PASS
    detail["random"] = random_detail
    return CheckResult("thm-7.0", PASS, detail)


# -- bracket recovery --------------------------------------------------------------


def _recovery_outcome(a_raw, b_raw, e1, e2) -> tuple[bool, bool, dict | None]:
    """Compare the group commutator of e1/e2-scaled jets with the pointwise
    bracket, and both against the expected closed form.

    Returns (commutator_equals_bracket, matches_expected_form, counterexample).
    """
    a = jet_scale(a_raw, e1)
    b = jet_scale(b_raw, e2)
    commutator = jet_convert(jet_group_commutator(a, b), MONOMIAL)
    pointwise = jet_bracket(jet_convert(a, MONOMIAL), jet_convert(b, MONOMIAL))
    order = a.order
    ring = WeilRing(a.signature)
    e12 = e1 * e2
    zero = jet_identity(a.algebra, ring, order, MONOMIAL)
    expected_coords = list(zero.coords)
    if order >= 2:
        expected_coords[1] = bracket(a_raw.coords[0], b_raw.coords[0]) * e12
    if order >= 3:
        expected_coords[2] = (
            bracket(a_raw.coords[0], b_raw.coords[1])
            + bracket(a_raw.coords[1], b_raw.coords[0])
        ).scale(_HALF) * e12
    expected = Jet(zero.algebra, zero.signature, order, MONOMIAL, tuple(expected_coords))
    agree = commutator == pointwise
    matches = commutator == expected and pointwise == expected
    if agree and matches:
        return True, True, None
    return agree, matches, {
        "a": a.to_json(),
        "b": b.to_json(),
        "group_commutator": commutator.to_json(),
        "pointwise_bracket": pointwise.to_json(),
        "expected": expected.to_json(),
    }


def verify_bracket_recovery(
    algebra: LieAlgebraSpec, order: int, trials: int = 100, seed: int = 0
) -> CheckResult:
    """Group commutator of square-zero-scaled jets recovers the jet bracket.

    Symbolic part over free-nilpotent(2,3) with fully generic coefficients,
    then seeded random trials over ``algebra``; both must also match the
    expected closed form (zero at order 1; at orders 2 and 3 the bracket
    terms scaled by e1*e2).
    """
    check_id = f"thm-7.{order}"
    detail: dict = {"algebra": algebra.name, "order": order}

    generic = free_nilpotent(2, 3)
    ring, jets = symbolic_jet_family(
        generic, order, ("a", "b"), extra_generators=(("e1", 1), ("e2", 1))
    )
    agree, matches, ce = _recovery_outcome(
        jets["a"], jets["b"], ring.gen("e1"), ring.gen("e2")
    )
    detail["symbolic"] = PASS if (agree and matches) else FAIL
    if not (agree and matches):
        ce["symbolic"] = True
        return CheckResult(check_id, FAIL, detail, counterexample=ce)

    rng = Random(seed)
    ring2 = ring_make((("e1", 1), ("e2", 1)))
    e1, e2 = ring2.gen("e1"), ring2.gen("e2")
    for trial in range(trials):
        a_raw = random_jet(algebra, ring2, order, rng)
        b_raw = random_jet(algebra, ring2, order, rng)
        agree, matches, ce = _recovery_outcome(a_raw, b_raw, e1, e2)
        if not (agree and matches):
            ce["trial"] = trial
            return CheckResult(check_id, FAIL, detail, counterexample=ce)
    detail["random_trials"] = trials
    detail["expected_form"] = PASS
    return CheckResult(check_id, PASS, detail)


# -- structural checks ---------------------------------------------------------------


def _mobius(n: int) -> int:
    return {1: 1, 2: -1, 3: -1}[n]


def _witt_dimension(generators: int, degree: int) -> int:
    """Number of basis elements of one degree, by the necklace-count formula."""
    total = sum(
        _mobius(e) * generators ** (degree // e)
        for e in range(1, degree + 1)
        if degree % e == 0
    )
    assert total % degree == 0
    return total // degree


def struct_witt_dimensions() -> CheckResult:
    """Hall basis sizes per degree match the necklace-count formula."""
    detail: dict = {}
    for m in range(1, 4):
        for c in range(1, 4):
            spec = free_nilpotent(m, c)
            got = [spec.degrees.count(d) for d in range(1, c + 1)]
            want = [_witt_dimension(m, d) for d in range(1, c + 1)]
            detail[spec.name] = {"dim": spec.dim, "by_degree": got}
            if got != want:
                return CheckResult(
                    "struct-witt-dimensions",
                    FAIL,
                    detail,
                    counterexample={"algebra": spec.name, "got": got, "want": want},
                )
    return CheckResult("struct-witt-dimensions", PASS, detail)


def struct_jacobi_builtins() -> CheckResult:
    """Every cataloged algebra satisfies the Jacobi identity on basis triples."""
    detail: dict = {}
    specs = default_verification_algebras() + [free_nilpotent(3, 3)]
    for spec in specs:
        report = validate_algebra(spec)
        detail[spec.name] = PASS if report.ok else FAIL
        if not report.ok:
            return CheckResult(
                "struct-jacobi-builtins", FAIL, detail,
                counterexample=report.to_json(),
            )
    return CheckResult("struct-jacobi-builtins", PASS, detail)


def _random_scalar(ring: WeilRing, rng: Random):
    orders = ring.signature.orders
    terms = {}
    for _ in range(3):
        vec = tuple(rng.randint(0, m) for m in orders)
        terms[vec] = terms.get(vec, Fraction(0)) + random_rational(rng)
    return ring.scalar(terms)


def struct_ring_laws(trials: int = 100, seed: int = 0) -> CheckResult:
    """Ring axioms, nilpotency, and canonical storage on random scalars."""
    rings = [
        ring_make((("d", 3),)),
        ring_make((("e1", 1), ("e2", 1))),
        ring_make((("d", 2), ("e", 1))),
    ]
    rng = Random(seed)
    detail = {"rings": [repr(r) for r in rings], "trials": trials}
    for ring in rings:
        for name, m in ring.signature.generators:
            if ring.gen(name) ** (m + 1) != ring.zero:
                return CheckResult(
                    "struct-ring-laws", FAIL, detail,
                    counterexample={"law": "nilpotency", "generator": name},
                )
        for trial in range(trials):
            a = _random_scalar(ring, rng)
            b = _random_scalar(ring, rng)
            c = _random_scalar(ring, rng)
            laws = {
                "add-assoc": (a + b) + c == a + (b + c),
                "add-comm": a + b == b + a,
                "mul-assoc": (a * b) * c == a * (b * c),
                "mul-comm": a * b == b * a,
                "distrib": a * (b + c) == a * b + a * c,
                "canonical": all(
                    coeff != 0 for s in (a + b, a * b, a - b) for coeff in s.terms.values()
                ),
            }
            for law, holds in laws.items():
                if not holds:
                    return CheckResult(
                        "struct-ring-laws", FAIL, detail,
                        counterexample={
                            "law": law, "trial": trial, "ring": repr(ring),
                            "a": a.to_json(), "b": b.to_json(), "c": c.to_json(),
                        },
                    )
    return CheckResult("struct-ring-laws", PASS, detail)


def struct_tower_compatibility(
    algebras: list[LieAlgebraSpec] | None = None,
    trials: int = 100,
    seed: int = 0,
) -> CheckResult:
    """Truncating a product equals multiplying the truncations (3 -> 2 -> 1)."""
    detail: dict = {"trials": trials}
    for algebra in algebras if algebras is not None else default_verification_algebras():
        rng = Random(seed)
        for trial in range(trials):
            a = random_jet(algebra, PLAIN_RING, 3, rng)
            b = random_jet(algebra, PLAIN_RING, 3, rng)
            full = jet_mul(a, b)
            for lower in (2, 1):
                direct = jet_mul(jet_truncate(a, lower), jet_truncate(b, lower))
                if jet_truncate(full, lower) != direct:
                    return CheckResult(
                        "struct-tower-compatibility", FAIL, detail,
                        counterexample={
                            "algebra": algebra.name, "trial": trial,
                            "target_order": lower,
                            "a": a.to_json(), "b": b.to_json(),
                        },
                    )
        detail[algebra.name] = PASS
    return CheckResult("struct-tower-compatibility", PASS, detail)


# -- suites ---------------------------------------------------------------------------

SUITE_NAMES = ("all", "s4", "s6", "s7")

_REP_ALGEBRAS = ("h3", "sl2")


def _matrix_reps(algebras: list[LieAlgebraSpec] | None, default_names) -> list:
    if algebras is None:
        return [builtin_rep(name) for name in default_names]
    reps = []
    for algebra in algebras:
        reps.append(builtin_rep(algebra.name))
    return reps


def build_checks(
    suite: str,
    algebras: list[LieAlgebraSpec] | None = None,
    order: int | None = None,
    trials: int = 100,
    seed: int = 0,
) -> list:
    """List of (check id, thunk) for one suite, in catalog order.

    ``algebras`` overrides the default random-trial algebra set; checks that
    need a matrix representation then require every override to have one.
    Raises ``ValueError`` for an unknown suite or fewer than one trial, so
    that no suite can pass without running its random trials.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    orders = (1, 2, 3) if order is None else (order,)
    thunks: list = []

    def add(check_id, thunk):
        thunks.append((check_id, thunk))

    if suite in ("all", "s4"):
        reps = _matrix_reps(algebras, _REP_ALGEBRAS)
        for n in orders:
            add(
                f"thm-4.{n}",
                lambda n=n, reps=reps: merge_results(
                    f"thm-4.{n}",
                    [verify_theorem_4(n, rep, trials, seed) for rep in reps],
                ),
            )
    if suite in ("all", "s6"):
        for n in orders:
            add(
                f"thm-6.{n}",
                lambda n=n: verify_associativity(n, algebras, trials, seed),
            )
        if order in (None, 3):
            add("lemma-6.3.1", verify_lemma_631)
    if suite in ("all", "s7"):
        add(
            "thm-7.0",
            lambda: verify_group_axioms(algebras, orders, trials, seed),
        )
        for n in orders:
            add(
                f"thm-7.{n}",
                lambda n=n: merge_results(
                    f"thm-7.{n}",
                    [
                        verify_bracket_recovery(a, n, trials, seed)
                        for a in (
                            algebras
                            if algebras is not None
                            else [resolve_algebra("h3"), resolve_algebra("sl2")]
                        )
                    ],
                ),
            )
    if suite == "all":
        verification_set = (
            algebras if algebras is not None else default_verification_algebras()
        )
        for n in orders:
            add(
                f"def6.1-vs-bch-n{n}",
                lambda n=n: merge_results(
                    f"def6.1-vs-bch-n{n}",
                    [check_def61_vs_bch(a, n, trials, seed) for a in verification_set],
                ),
            )
        matrix_reps = _matrix_reps(algebras, ("h3", "sl2", "so3"))
        for n in orders:
            add(
                f"def6.1-vs-matrix-n{n}",
                lambda n=n: merge_results(
                    f"def6.1-vs-matrix-n{n}",
                    [check_def61_vs_matrix(rep, n, trials, seed) for rep in matrix_reps],
                ),
            )
        add("struct-witt-dimensions", struct_witt_dimensions)
        add("struct-jacobi-builtins", struct_jacobi_builtins)
        add("struct-ring-laws", lambda: struct_ring_laws(trials, seed))
        add(
            "struct-tower-compatibility",
            lambda: struct_tower_compatibility(algebras, trials, seed),
        )
    return thunks


def run_suite(
    suite: str = "all",
    algebras: list[LieAlgebraSpec] | None = None,
    order: int | None = None,
    trials: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Run a suite sequentially and assemble the report, ordered by check id."""
    return run_checks(build_checks(suite, algebras, order, trials, seed), seed)


def run_checks(checks: list, seed: int) -> VerificationReport:
    """Run the (check id, thunk) pairs of ``build_checks`` in order and
    assemble the report, ordered by check id."""
    results = []
    for check_id, thunk in checks:
        start = time.perf_counter()
        result = thunk()
        result.seconds = time.perf_counter() - start
        assert result.check == check_id
        results.append(result)
    results.sort(key=lambda r: r.check)
    versions = {"liejets": __version__, "python": platform.python_version()}
    return VerificationReport(checks=results, seed=seed, versions=versions)
