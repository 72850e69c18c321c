"""The claim catalog: each claim is a law, and one runner checks every law.

A law takes one tuple of inputs and returns ``None`` when its identity holds
there, or else its evidence, a JSON-ready dict; a law that raises an
``Exception`` fails there, with the error as its evidence.  :func:`run_law`
checks a law two ways and stops at the first failure:

* symbolic: on fully generic elements over a free nilpotent algebra (see
  :func:`liejets.sampling.symbolic_jet_family`), where equality of results is
  a polynomial identity in the coefficients and therefore covers all inputs;
* randomized: on seeded trials from each input family (one algebra,
  representation or ring), where exact arithmetic makes any single
  discrepancy decisive; a family of fixed inputs (a Hall basis, an algebra
  to scan) runs as one trial at seed 0.

Every verdict comes from :func:`run_law`.  Each check function pairs a law
with its inputs and shapes its report entry; ``build_checks`` lists the
checks per suite and ``run_suite`` runs them into a deterministic report
ordered by check id.
"""

from __future__ import annotations

import platform
import time
from fractions import Fraction
from functools import partial
from operator import add, le
from random import Random

from . import __version__
from .algebras import LieAlgebraSpec, basis_element, bracket, validate_algebra
from .bch import bch_mul
from .catalog import SUITE_NAMES, default_verification_algebras, resolve_algebra
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
from .matrices import BUILTIN_REP_NAMES, MatrixRep, builtin_rep, exp_weights
from .matrices import matrix_mul, theorem_4_sides
from .report import FAIL, PASS, CheckResult, VerificationReport
from .sampling import PLAIN_RING, random_element, random_jet, random_rational
from .sampling import symbolic_jet_family
from .scalars import WeilRing, ring_make

__all__ = [
    "run_law",
    "verify_theorem_4",
    "verify_associativity",
    "verify_lemma_631",
    "verify_group_axioms",
    "verify_bracket_recovery",
    "check_def61_vs_bch",
    "check_def61_vs_matrix",
    "struct_witt_dimensions",
    "struct_jacobi_builtins",
    "struct_ring_laws",
    "struct_tower_compatibility",
    "SUITE_NAMES",
    "build_checks",
    "run_suite",
]

_HALF = Fraction(1, 2)
_THREE_HALVES = Fraction(3, 2)

#: Longest error evidence kept from a law that raised.
MAX_ERROR_CHARS = 200


# -- the runner ------------------------------------------------------------------


class Outcome:
    """What :func:`run_law` found.

    ``trials`` is the number of seeded trials asked of each instance;
    ``symbolic`` is the verdict on the symbolic inputs (None when there were
    none); ``instances`` maps each instance reached, in order, to its verdict;
    ``counterexample`` is the first failure, or None when the law held.
    """

    __slots__ = ("trials", "symbolic", "instances", "counterexample")

    def __init__(self, trials: int):
        self.trials = trials
        self.symbolic: str | None = None
        self.instances: dict = {}
        self.counterexample: dict | None = None

    def result(self, check_id: str, detail: dict) -> CheckResult:
        status = PASS if self.counterexample is None else FAIL
        return CheckResult(check_id, status, detail, self.counterexample)

    def by_instance(self, order: int, entry) -> dict:
        """Detail keyed by instance name, with ``entry(held, status)`` fields
        for each instance reached, ``held`` being its trials that held; a
        symbolic failure reaches none."""
        if not self.instances:
            return {"symbolic": self.symbolic}
        failed_at = (self.counterexample or {}).get("trial")
        return {
            name: {
                "algebra": name, "order": order,
                **entry(failed_at if status == FAIL else self.trials, status),
            }
            for name, status in self.instances.items()
        }


def _judge(law, inputs: tuple) -> dict | None:
    """``law`` on ``inputs``; an ``Exception`` it raises is its failure there,
    with ``{"error": "<Type>: <message>"}``, cut at ``MAX_ERROR_CHARS``, as
    evidence.  ``KeyboardInterrupt`` and other non-``Exception``s propagate."""
    try:
        return law(*inputs)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"[:MAX_ERROR_CHARS]}


def run_law(law, families, trials: int, seed: int, symbolic: tuple | None = None
            ) -> Outcome:
    """Check ``law`` on the ``symbolic`` inputs, then on ``trials`` seeded
    draws from each family, and stop at the first failure.

    ``families`` are (label, draw) pairs: ``label`` is a dict naming the
    instance, whose first value is the instance's name and which is copied
    into a failure's counterexample; ``draw(rng)`` returns one input tuple.
    Each family draws from its own ``Random(seed)``, so no family's inputs
    depend on which families run before it.  A counterexample is the law's
    evidence plus ``"symbolic": True`` or the label and the trial index;
    a law that raises fails with its error as evidence (see :func:`_judge`).
    """
    out = Outcome(trials)
    if symbolic is not None:
        evidence = _judge(law, symbolic)
        out.symbolic = PASS if evidence is None else FAIL
        if evidence is not None:
            out.counterexample = {"symbolic": True, **evidence}
            return out
    for label, draw in families:
        name = next(iter(label.values()))
        out.instances[name] = FAIL
        rng = Random(seed)
        for trial in range(trials):
            evidence = _judge(law, draw(rng))
            if evidence is not None:
                out.counterexample = {**label, "trial": trial, **evidence}
                return out
        out.instances[name] = PASS
    return out


# -- inputs -------------------------------------------------------------------------


def _symbolic(algebra: LieAlgebraSpec, order: int, labels: str, **kwargs) -> tuple:
    """One fully generic jet per label character, over one shared ring."""
    return tuple(symbolic_jet_family(algebra, order, tuple(labels), **kwargs)[1].values())


def _jets(algebra, order, count, rng, ring=PLAIN_RING, integer=False) -> tuple:
    return tuple(
        random_jet(algebra, ring, order, rng, integer=integer) for _ in range(count)
    )


def _jet_families(algebras, order: int, count: int, **kwargs) -> list:
    return [
        ({"algebra": a.name}, partial(_jets, a, order, count, **kwargs))
        for a in algebras
    ]


# -- Theorem 4 ----------------------------------------------------------------------


def exp_product_holds(weights: tuple, xs: list, ys: list) -> dict | None:
    """Theorem 4's exp-product identity for constant matrices xs, ys."""
    lhs, rhs = theorem_4_sides(xs, ys, weights)
    if lhs == rhs:
        return None
    return {
        key: [[[str(e) for e in row] for row in m.rows] for m in mats]
        for key, mats in (("X", xs), ("Y", ys))
    }


def _images(rep: MatrixRep, ring: WeilRing, order: int, rng: Random) -> tuple:
    """Images of 2 * ``order`` random integer elements: the X_i, then the Y_i."""
    mats = [
        rep.realize(random_element(rep.algebra, ring, rng, integer=True))
        for _ in range(2 * order)
    ]
    return mats[:order], mats[order:]


def verify_theorem_4(order: int, reps: list, trials: int, seed: int) -> CheckResult:
    """Exp-product identities over Q[d_1..d_n]/(d_i^2), as exact matrix
    identities, on random integer-coordinate elements of each representation."""
    weights = exp_weights(order)
    ring = WeilRing(weights[0].signature)
    families = [
        ({"algebra": r.algebra.name}, partial(_images, r, ring, order)) for r in reps
    ]
    out = run_law(partial(exp_product_holds, weights), families, trials, seed)
    detail = out.by_instance(order, lambda held, status: {"trials": trials})
    return out.result(f"thm-4.{order}", detail)


# -- Section 6: associativity ----------------------------------------------------


def associative(a: Jet, b: Jet, c: Jet) -> dict | None:
    """(a.b).c == a.(b.c)."""
    left = jet_mul(jet_mul(a, b), c)
    right = jet_mul(a, jet_mul(b, c))
    if left == right:
        return None
    return {
        "a": a.to_json(), "b": b.to_json(), "c": c.to_json(),
        "left": left.to_json(), "right": right.to_json(),
    }


def verify_associativity(order: int, algebras: list[LieAlgebraSpec], trials: int,
                         seed: int) -> CheckResult:
    """Associativity: symbolic over free-nilpotent(3,3), then seeded random
    triples in every given algebra."""
    out = run_law(
        associative, _jet_families(algebras, order, 3), trials, seed,
        symbolic=_symbolic(free_nilpotent(3, 3), order, "abc"),
    )
    detail = {"order": order, "symbolic_algebra": "free-nilpotent(3,3)",
              "symbolic": out.symbolic}
    if out.instances:
        detail["random"] = {
            name: {"trials": trials, "status": status}
            for name, status in out.instances.items()
        }
    return out.result(f"thm-6.{order}", detail)


def cubic_identity(x, y, z) -> dict | None:
    """The cubic bracket identity behind order-3 associativity reduces to zero."""
    expr = (
        bracket(bracket(x, y), z).scale(_THREE_HALVES)
        + (bracket(x, bracket(y, z)) + bracket(y, bracket(x, z))).scale(_HALF)
        - bracket(x, bracket(y, z)).scale(_THREE_HALVES)
        + (bracket(y, bracket(x, z)) + bracket(z, bracket(x, y))).scale(_HALF)
    )
    return None if expr.is_zero() else {"residual": expr.to_json()}


def verify_lemma_631() -> CheckResult:
    """:func:`cubic_identity` on the generators of free-nilpotent(3,3); the
    expression is multilinear, so vanishing there settles it for all elements
    everywhere."""
    algebra = free_nilpotent(3, 3)
    gens = tuple(basis_element(algebra, PLAIN_RING, name) for name in "xyz")
    out = run_law(cubic_identity, (), 1, 0, symbolic=gens)
    return out.result("lemma-6.3.1", {"algebra": algebra.name})


def _agrees(engine: str, product: Jet, a: Jet, b: Jet) -> dict | None:
    """None when ``product``, an oracle's product of a and b, equals the
    closed-form product; else both products as evidence, the oracle's under
    ``engine``."""
    closed = jet_mul(a, b)
    if closed == product:
        return None
    return {
        "a": a.to_json(), "b": b.to_json(),
        "closed_form": closed.to_json(), engine: product.to_json(),
    }


def series_agrees(a: Jet, b: Jet) -> dict | None:
    """The closed-form product equals the truncated BCH series product."""
    return _agrees("series", bch_mul(a, b), a, b)


def check_def61_vs_bch(order: int, algebras: list[LieAlgebraSpec], trials: int,
                       seed: int) -> CheckResult:
    """Closed-form product vs. series product: one fully generic symbolic
    comparison over free-nilpotent(2, order), then seeded random rational
    comparisons over each algebra.  Exact equality everywhere."""
    out = run_law(
        series_agrees, _jet_families(algebras, order, 2), trials, seed,
        symbolic=_symbolic(free_nilpotent(2, order), order, "ab"),
    )
    detail = out.by_instance(order, lambda held, status: {
        "symbolic": out.symbolic, "random_trials": held,
    })
    return out.result(f"def6.1-vs-bch-n{order}", detail)


def matrix_agrees(rep: MatrixRep, a: Jet, b: Jet) -> dict | None:
    """The closed-form product equals the product that ``matrix_mul`` reads
    back from log(exp(A) exp(B)) in ``rep``."""
    return _agrees("matrix", matrix_mul(a, b, rep), a, b)


def _rep_jets(rep: MatrixRep, order: int, rng: Random) -> tuple:
    return (rep, *_jets(rep.algebra, order, 2, rng, integer=True))


def check_def61_vs_matrix(order: int, reps: list, trials: int, seed: int) -> CheckResult:
    """Closed-form product vs. matrix exp/log over Q[d]/(d^{order+1}), on
    random integer-coordinate jets of each representation's algebra."""
    families = [
        ({"algebra": r.algebra.name}, partial(_rep_jets, r, order)) for r in reps
    ]
    out = run_law(matrix_agrees, families, trials, seed)
    detail = out.by_instance(order, lambda held, status: {"trials": trials})
    return out.result(f"def6.1-vs-matrix-n{order}", detail)


# -- Section 7: group axioms and bracket recovery ---------------------------------


def unit_and_inverse(*jets: Jet) -> dict | None:
    """The zero jet is a two-sided unit and negation a two-sided inverse."""
    for a in jets:
        identity = jet_identity(a.algebra, WeilRing(a.signature), a.order)
        inv = jet_inverse(a)
        if jet_mul(identity, a) != a or jet_mul(a, identity) != a:
            axiom = "unit"
        elif jet_mul(a, inv) != identity or jet_mul(inv, a) != identity:
            axiom = "inverse"
        else:
            continue
        return {"order": a.order, "axiom": axiom, "a": a.to_json()}
    return None


def verify_group_axioms(algebras: list[LieAlgebraSpec], orders: tuple, trials: int,
                        seed: int) -> CheckResult:
    """Unit and inverse laws: symbolically over free-nilpotent(2,3) and on
    seeded random jets of every order in every given algebra."""
    families = [
        ({"algebra": a.name, "order": n}, partial(_jets, a, n, 1))
        for a in algebras
        for n in orders
    ]
    generic = tuple(_symbolic(free_nilpotent(2, 3), n, "a")[0] for n in orders)
    out = run_law(unit_and_inverse, families, trials, seed, symbolic=generic)
    detail = {"orders": list(orders), "trials": trials, "symbolic": out.symbolic}
    if out.instances:
        detail["random"] = out.instances
    return out.result("thm-7.0", detail)


def bracket_recovered(a_raw: Jet, b_raw: Jet) -> dict | None:
    """The group commutator of the e1- and e2-scaled jets equals their
    pointwise bracket and the expected closed form: zero at order 1, at
    orders 2 and 3 the bracket terms scaled by e1*e2.

    The jets' ring must have square-zero generators named ``e1`` and ``e2``.
    """
    ring = WeilRing(a_raw.signature)
    e1, e2 = ring.gen("e1"), ring.gen("e2")
    a = jet_scale(a_raw, e1)
    b = jet_scale(b_raw, e2)
    commutator = jet_convert(jet_group_commutator(a, b), MONOMIAL)
    pointwise = jet_bracket(jet_convert(a, MONOMIAL), jet_convert(b, MONOMIAL))
    x, y, e12 = a_raw.coords, b_raw.coords, e1 * e2
    zero = jet_identity(a.algebra, ring, a.order, MONOMIAL)
    coords = list(zero.coords)
    if a.order >= 2:
        coords[1] = bracket(x[0], y[0]) * e12
    if a.order >= 3:
        coords[2] = (bracket(x[0], y[1]) + bracket(x[1], y[0])) * e12.scale(_HALF)
    expected = Jet(zero.algebra, zero.signature, a.order, MONOMIAL, tuple(coords))
    if commutator == pointwise == expected:
        return None
    return {
        "a": a.to_json(),
        "b": b.to_json(),
        "group_commutator": commutator.to_json(),
        "pointwise_bracket": pointwise.to_json(),
        "expected": expected.to_json(),
    }


def verify_bracket_recovery(order: int, algebras: list[LieAlgebraSpec], trials: int,
                            seed: int) -> CheckResult:
    """Group commutator of square-zero-scaled jets recovers the jet bracket:
    symbolic over free-nilpotent(2,3) with fully generic coefficients, then
    seeded random trials over each algebra (see :func:`bracket_recovered`)."""
    square_zero = (("e1", 1), ("e2", 1))
    generic = _symbolic(free_nilpotent(2, 3), order, "ab", extra_generators=square_zero)
    families = _jet_families(algebras, order, 2, ring=ring_make(square_zero))
    out = run_law(bracket_recovered, families, trials, seed, symbolic=generic)
    detail = out.by_instance(order, lambda held, status: {
        "symbolic": out.symbolic, "random_trials": held, "expected_form": status,
    })
    return out.result(f"thm-7.{order}", detail)


# -- structural checks ---------------------------------------------------------------


def _mobius(n: int) -> int:
    return {1: 1, 2: -1, 3: -1}[n]


def _fixed(label: dict, *inputs) -> tuple:
    """A family whose one draw is ``inputs``, whatever the rng."""
    return label, lambda rng: inputs


def _by_degree(spec: LieAlgebraSpec, cls: int) -> list:
    return [spec.degrees.count(d) for d in range(1, cls + 1)]


def witt_dimensions_hold(spec: LieAlgebraSpec, generators: int, cls: int) -> dict | None:
    """The Hall basis of free-nilpotent(generators, cls) has, in each degree,
    as many elements as the necklace-count formula gives."""
    got = _by_degree(spec, cls)
    want = [Fraction(sum(_mobius(e) * generators ** (d // e)
                         for e in range(1, d + 1) if d % e == 0), d)
            for d in range(1, cls + 1)]
    # a necklace total that its degree does not divide is a fractional want
    return None if got == want else {"got": got, "want": [str(w) for w in want]}


def struct_witt_dimensions() -> CheckResult:
    """Hall basis sizes per degree match the necklace-count formula."""
    cases = [(free_nilpotent(m, c), m, c) for m in range(1, 4) for c in range(1, 4)]
    families = [_fixed({"algebra": spec.name}, spec, m, c) for spec, m, c in cases]
    out = run_law(witt_dimensions_hold, families, 1, 0)
    detail = {spec.name: {"dim": spec.dim, "by_degree": _by_degree(spec, c)}
              for spec, _, c in cases}
    return out.result("struct-witt-dimensions", detail)


def struct_jacobi_builtins() -> CheckResult:
    """Every cataloged algebra satisfies the Jacobi identity on basis triples."""
    specs = default_verification_algebras() + [free_nilpotent(3, 3)]
    families = [_fixed({"algebra": spec.name}, spec) for spec in specs]
    out = run_law(validate_algebra, families, 1, 0)
    return out.result("struct-jacobi-builtins", out.instances)


def _dense_product(a, b) -> dict:
    """a * b as {dense exponent tuple: nonzero Fraction}, multiplied term by
    term from ``coefficients()``: a reference that never reads the packed
    layout, dropping every product with an exponent above its order.  Each
    sum is kept as an integer pair and reduced once."""
    orders = a.signature.orders
    ys = [(v, y.numerator, y.denominator) for v, y in b.coefficients().items()]
    sums: dict = {}
    for u, x in a.coefficients().items():
        p, q = x.numerator, x.denominator
        for v, r, s in ys:
            w = tuple(map(add, u, v))
            if all(map(le, w, orders)):
                n, d = sums.get(w, (0, 1))
                sums[w] = (n * q * s + p * r * d, d * q * s)
    return {w: Fraction(n, d) for w, (n, d) in sums.items() if n}


def generator_orders_hold(ring: WeilRing) -> dict | None:
    """Nilpotency and exact order: each generator g of order m has
    g^(m+1) = 0 and g^m != 0.  Every nilpotency is checked before any exact
    order."""
    tops = []
    for name, m in ring.signature.generators:
        g = ring.gen(name)
        top = g ** m
        if top * g != ring.zero:
            return {"law": "nilpotency", "generator": name}
        tops.append((name, top))
    for name, top in tops:
        if top == ring.zero:
            return {"law": "exact order", "generator": name}
    return None


def ring_laws_hold(a, b, c) -> dict | None:
    """The product against a dense reference, ring axioms and canonical
    storage on three scalars of one ring."""
    total, product = a + b, a * b
    laws = {
        "dense product": product.coefficients() == _dense_product(a, b),
        "add-assoc": total + c == a + (b + c),
        "add-comm": total == b + a,
        "mul-assoc": product * c == a * (b * c),
        "mul-comm": product == b * a,
        "distrib": a * (b + c) == product + a * c,
        "canonical": all(
            coeff != 0 for s in (total, product, a - b) for coeff in s.terms.values()
        ),
    }
    for law, holds in laws.items():
        if not holds:
            return {"law": law, "a": a.to_json(), "b": b.to_json(), "c": c.to_json()}
    return None


def _scalars(ring: WeilRing, rng: Random) -> tuple:
    """Three random scalars of three random terms each."""
    scalars = []
    for _ in range(3):
        terms = {}
        for _ in range(3):
            vec = tuple(rng.randint(0, m) for m in ring.signature.orders)
            terms[vec] = terms.get(vec, Fraction(0)) + random_rational(rng)
        scalars.append(ring.scalar(terms))
    return tuple(scalars)


def struct_ring_laws(trials: int, seed: int) -> CheckResult:
    """Nilpotency and exact order once per ring, which involve no scalar
    but the generators; then, only if they hold, ring axioms, the dense
    product and canonical storage on seeded random scalars."""
    rings = [
        ring_make((("d", 3),)),
        ring_make((("e1", 1), ("e2", 1))),
        ring_make((("d", 2), ("e", 1))),
    ]
    detail = {"rings": [repr(r) for r in rings], "trials": trials}
    out = run_law(generator_orders_hold, [_fixed({"ring": repr(r)}, r) for r in rings], 1, 0)
    if out.counterexample is None:
        families = [({"ring": repr(r)}, partial(_scalars, r)) for r in rings]
        out = run_law(ring_laws_hold, families, trials, seed)
    return out.result("struct-ring-laws", detail)


def tower_commutes(a: Jet, b: Jet) -> dict | None:
    """Truncating a product equals multiplying the truncations (3 -> 2 -> 1)."""
    full = jet_mul(a, b)
    for lower in (2, 1):
        direct = jet_mul(jet_truncate(a, lower), jet_truncate(b, lower))
        if jet_truncate(full, lower) != direct:
            return {"target_order": lower, "a": a.to_json(), "b": b.to_json()}
    return None


def struct_tower_compatibility(algebras: list[LieAlgebraSpec], trials: int,
                               seed: int) -> CheckResult:
    """Truncating a product equals multiplying the truncations, on seeded
    random order-3 jets in every given algebra."""
    out = run_law(tower_commutes, _jet_families(algebras, 3, 2), trials, seed)
    return out.result("struct-tower-compatibility", {"trials": trials, **out.instances})


# -- suites ---------------------------------------------------------------------------


def build_checks(
    suite: str,
    algebras: list[LieAlgebraSpec] | None = None,
    order: int | None = None,
    trials: int = 100,
    seed: int = 0,
) -> list:
    """List of (check id, thunk) for one suite, in catalog order.

    ``algebras`` overrides the default random-trial algebra sets; checks that
    need a matrix representation then require every override to have one.
    Raises ``ValueError`` for an unknown suite, fewer than one trial or an
    empty ``algebras`` list, so that no suite can pass without running its
    random trials.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if algebras is not None and not algebras:
        raise ValueError("the algebras override names no algebra")
    orders = (1, 2, 3) if order is None else (order,)
    every = algebras or default_verification_algebras()
    pair = algebras or [resolve_algebra("h3"), resolve_algebra("sl2")]
    triple = algebras or [resolve_algebra(name) for name in BUILTIN_REP_NAMES]

    def per_order(prefix: str, check, instances: list) -> list:
        return [
            (f"{prefix}{n}", partial(check, n, instances, trials, seed)) for n in orders
        ]

    rows: list = []
    if suite in ("all", "s4"):
        rows += per_order("thm-4.", verify_theorem_4, [builtin_rep(a.name) for a in pair])
    if suite in ("all", "s6"):
        rows += per_order("thm-6.", verify_associativity, every)
        if order in (None, 3):
            rows.append(("lemma-6.3.1", verify_lemma_631))
    if suite in ("all", "s7"):
        rows.append(("thm-7.0", partial(verify_group_axioms, every, orders, trials, seed)))
        rows += per_order("thm-7.", verify_bracket_recovery, pair)
    if suite == "all":
        rows += per_order("def6.1-vs-bch-n", check_def61_vs_bch, every)
        reps = [builtin_rep(a.name) for a in triple]
        rows += per_order("def6.1-vs-matrix-n", check_def61_vs_matrix, reps)
        rows += [
            ("struct-witt-dimensions", struct_witt_dimensions),
            ("struct-jacobi-builtins", struct_jacobi_builtins),
            ("struct-ring-laws", partial(struct_ring_laws, trials, seed)),
            ("struct-tower-compatibility",
             partial(struct_tower_compatibility, every, trials, seed)),
        ]
    return rows


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
        if result.check != check_id:
            raise RuntimeError(f"check {check_id!r} reported itself as {result.check!r}")
        results.append(result)
    results.sort(key=lambda r: r.check)
    versions = {"liejets": __version__, "python": platform.python_version()}
    return VerificationReport(checks=results, seed=seed, versions=versions)
