"""The claim catalog: one table of checks, and one runner that decides them.

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

Each check is one :data:`Check` row, which names its id, its law, the
builders of its inputs, its trials and seed, and the detail it reports.
``ROWS`` is the table of row builders, one per claim; ``build_checks``
checks the user's input and selects a suite's rows, building nothing;
:func:`run_check` runs a row's setup (its families), symbolic inputs, then
trials, all judged; ``run_suite`` runs the rows into a report by check id.
"""

from __future__ import annotations

import platform
import time
from collections import namedtuple
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations
from math import gcd
from operator import add, le, mul
from random import Random

from . import __version__
from .algebras import LieAlgebraSpec, basis_element, bracket, validate_algebra, zero_element
from .bch import bch_mul
from .catalog import BUILTIN_NAMES, SUITE_NAMES, default_verification_algebras, resolve_algebra
from .hall import _commutator, expand_tree, free_nilpotent, lyndon_words, standard_bracketing
from .jets import (
    MAX_ORDER,
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
from .matrices import matrix_mul, weil_exp
from .report import FAIL, PASS, CheckResult, VerificationReport
from .sampling import PLAIN_RING, draw_int, random_jet, random_rational
from .sampling import symbolic_jet_family
from .scalars import RingSignature, ring_make

__all__ = [
    "run_law",
    "Check",
    "run_check",
    "ROWS",
    "SUITE_NAMES",
    "build_checks",
    "run_suite",
]

_HALF = Fraction(1, 2)
_THREE_HALVES = Fraction(3, 2)
_PAIR = ("h3", "sl2")  # the algebras of thm-4.* and thm-7.1-7.3 without an override

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


def _judge(law, build, *args) -> dict | None:
    """``law(*build(*args))``, or, if either raises an ``Exception``, the evidence
    ``{"error": "<Type>: <message>"}`` cut at ``MAX_ERROR_CHARS``.
    ``KeyboardInterrupt`` and other non-``Exception``s propagate."""
    try:
        return law(*build(*args))
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"[:MAX_ERROR_CHARS]}


def run_law(law, families, trials: int, seed: int, symbolic=None) -> Outcome:
    """Check ``law`` on the inputs that ``symbolic()`` builds, then on
    ``trials`` seeded draws from each family, and stop at the first failure.

    ``families`` are (label, draw) pairs: ``label`` is a dict naming the
    instance, whose first value is the instance's name and which is copied
    into a failure's counterexample; ``draw(rng)`` returns one input tuple.
    Each family draws from its own ``Random(seed)``, so no family's inputs
    depend on which families run before it.  A counterexample is the law's
    evidence plus ``"symbolic": True`` or the label and the trial index;
    a law, builder or draw that raises fails with its error as evidence
    (see :func:`_judge`).
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
            evidence = _judge(law, draw, rng)
            if evidence is not None:
                out.counterexample = {**label, "trial": trial, **evidence}
                return out
        out.instances[name] = PASS
    return out


#: One row of the catalog.  ``families()`` and the optional ``symbolic()``
#: build the row's inputs, as :func:`run_law` takes them, when the check
#: runs, so that its seconds include them; ``detail(out, families)`` is the
#: report's detail for the :class:`Outcome` and the families built.
Check = namedtuple("Check", "id law families trials seed detail symbolic", defaults=(None,))


def run_check(check: Check) -> CheckResult:
    """The result of one row: its families built, then judged by :func:`run_law`;
    a setup that raises fails with ``{"setup": True, "error": ...}``."""
    families: list = []  # the setup's law keeps the families it is given
    setup = _judge(families.extend, lambda: (check.families(),))
    if setup is None:
        out = run_law(check.law, families, check.trials, check.seed, check.symbolic)
    else:
        out = Outcome(check.trials)
        out.counterexample = {"setup": True, **setup}
    status = PASS if out.counterexample is None else FAIL
    return CheckResult(check.id, status, check.detail(out, families), out.counterexample)


# -- inputs and details ----------------------------------------------------------


def _symbolic(shape: tuple, order: int, labels: str, **kwargs) -> tuple:
    """One fully generic jet per label character, over one shared ring and
    the free nilpotent algebra of ``shape`` (generators, class)."""
    algebra = free_nilpotent(*shape)
    return tuple(symbolic_jet_family(algebra, order, tuple(labels), **kwargs)[1].values())


def _jets(algebra, order, count, rng, ring=PLAIN_RING, integer=False) -> tuple:
    return tuple(
        random_jet(algebra, ring, order, rng, integer=integer) for _ in range(count)
    )


def _jet_families(algebras, order, count, generators=(), names=BUILTIN_NAMES) -> list:
    """One family per algebra, or per algebra of ``names`` when ``algebras``
    is None, drawing ``count`` jets over Q, or over the ring of ``generators``."""
    ring = ring_make(generators) if generators else PLAIN_RING
    return [
        ({"algebra": a.name}, partial(_jets, a, order, count, ring=ring))
        for a in algebras or map(resolve_algebra, names)
    ]


def _fixed(label: dict, *inputs) -> tuple:
    """A family whose one draw is ``inputs``, whatever the rng."""
    return label, lambda rng: inputs


def _per_instance(order: int, keys: tuple, out: Outcome, families) -> dict:
    """Detail keyed by the name of each instance reached, with its name, the
    ``order`` and the ``keys`` of: the symbolic verdict, the trials asked,
    the ``random_trials`` that held and the instance's verdict as its
    ``expected_form``.  A symbolic failure reaches no instance."""
    if not out.instances:
        return {"symbolic": out.symbolic}
    detail = {}
    for name, status in out.instances.items():
        held = out.counterexample["trial"] if status == FAIL else out.trials
        fields = {"symbolic": out.symbolic, "trials": out.trials,
                  "random_trials": held, "expected_form": status}
        detail[name] = {"algebra": name, "order": order, **{k: fields[k] for k in keys}}
    return detail


# -- Theorem 4 ----------------------------------------------------------------------


def exp_product_holds(rep: MatrixRep, weights: tuple, a: Jet, b: Jet) -> dict | None:
    """Theorem 4's exp-product identity in ``rep``, with the closed-form product
    on its right: side(a) side(b) == side(a.b), where side(j) = exp(sum_i w_i X_i)
    over the :func:`exp_weights` w_i of the order and the coordinates X_i of j."""
    def side(j: Jet):
        return weil_exp(rep.realize(reduce(add, map(mul, j.coords, weights))))

    if side(a) * side(b) == side(jet_mul(a, b)):
        return None
    return {"a": a.to_json(), "b": b.to_json()}


def _theorem_4_families(order: int, algebras) -> list:
    weights = exp_weights(order)
    return [({"algebra": a.name},
             partial(_rep_jets, (builtin_rep(a.name), weights), weights[0].signature, order))
            for a in algebras or map(resolve_algebra, _PAIR)]


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


def _associativity_detail(order: int, out: Outcome, families) -> dict:
    random = {name: {"trials": out.trials, "status": s} for name, s in out.instances.items()}
    return {"order": order, "symbolic_algebra": "free-nilpotent(3,3)",
            "symbolic": out.symbolic, **({"random": random} if random else {})}


def cubic_identity(x, y, z) -> dict | None:
    """The cubic bracket identity behind order-3 associativity reduces to zero."""
    expr = (
        zero_element(x.algebra, x.signature)
        .add_scaled(bracket(bracket(x, y), z), _THREE_HALVES)
        .add_scaled(bracket(x, bracket(y, z)) + bracket(y, bracket(x, z)), _HALF)
        .add_scaled(bracket(x, bracket(y, z)), -_THREE_HALVES)
        .add_scaled(bracket(y, bracket(x, z)) + bracket(z, bracket(x, y)), _HALF)
    )
    return None if expr.is_zero() else {"residual": expr.to_json()}


def _free_generators() -> tuple:
    """x, y and z of free-nilpotent(3,3), over Q."""
    algebra = free_nilpotent(3, 3)
    return tuple(basis_element(algebra, PLAIN_RING, name) for name in "xyz")


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


def matrix_agrees(rep: MatrixRep, a: Jet, b: Jet) -> dict | None:
    """The closed-form product equals the product that ``matrix_mul`` reads
    back from log(exp(A) exp(B)) in ``rep``."""
    return _agrees("matrix", matrix_mul(a, b, rep), a, b)


def _rep_jets(head: tuple, ring: RingSignature, order: int, rng: Random) -> tuple:
    """``head``, led by a representation, then two integer jets over its algebra."""
    return (*head, *_jets(head[0].algebra, order, 2, rng, ring, integer=True))


# -- Section 7: group axioms and bracket recovery ---------------------------------


def unit_and_inverse(*jets: Jet) -> dict | None:
    """The zero jet is a two-sided unit and negation a two-sided inverse."""
    for a in jets:
        identity = jet_identity(a.algebra, a.signature, a.order)
        inv = jet_inverse(a)
        if jet_mul(identity, a) != a or jet_mul(a, identity) != a:
            axiom = "unit"
        elif jet_mul(a, inv) != identity or jet_mul(inv, a) != identity:
            axiom = "inverse"
        else:
            continue
        return {"order": a.order, "axiom": axiom, "a": a.to_json()}
    return None


def bracket_recovered(a_raw: Jet, b_raw: Jet) -> dict | None:
    """The group commutator of the e1- and e2-scaled jets equals their
    pointwise bracket and the expected closed form: zero at order 1, at
    orders 2 and 3 the bracket terms scaled by e1*e2.

    The jets' ring must have square-zero generators named ``e1`` and ``e2``.
    """
    ring = a_raw.signature
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
        coords[2] = (bracket(x[0], y[1]) + bracket(x[1], y[0])) * (e12 * ring.rational(_HALF))
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


#: The square-zero generators that scale the jets of :func:`bracket_recovered`.
_SQUARE_ZERO = (("e1", 1), ("e2", 1))


# -- structural checks ---------------------------------------------------------------


def _mobius(n: int) -> int:
    return {1: 1, 2: -1, 3: -1}[n]


def _by_degree(spec: LieAlgebraSpec, cls: int) -> list:
    return [spec.degrees.count(d) for d in range(1, cls + 1)]


def witt_dimensions_hold(spec: LieAlgebraSpec, generators: int, cls: int) -> dict | None:
    """The Hall basis of free-nilpotent(generators, cls) has, in each degree,
    as many elements as the necklace-count formula gives, and the algebra is
    free: sending each basis element to the tensor expansion of its Lyndon
    word's standard bracketing, rebuilt here from the words, takes every
    basis bracket, zero ones included, to the commutator of the expansions.
    That map is injective (distinct leading words), which makes the algebra
    the free nilpotent one (Reutenauer, "Free Lie Algebras", 1993)."""
    got = _by_degree(spec, cls)
    want = [Fraction(sum(_mobius(e) * generators ** (d // e)
                         for e in range(1, d + 1) if d % e == 0), d)
            for d in range(1, cls + 1)]
    if got != want:
        # a necklace total that its degree does not divide is a fractional want
        return {"got": got, "want": list(map(str, want))}
    expansions = [expand_tree(standard_bracketing(w), cls)
                  for w in lyndon_words(generators, cls)]
    for i, j in combinations(range(spec.dim), 2):
        image: dict = {}
        for k, c in spec.structure.get((i, j), ()):
            for word, e in expansions[k].items():
                image[word] = image.get(word, 0) + c * e
        image = {w: e for w, e in image.items() if e}
        if image != _commutator(expansions[i], expansions[j], cls):
            return {"law": "free", "pair": [spec.basis[i], spec.basis[j]]}
    return None


def _witt_families() -> list:
    cases = [(free_nilpotent(m, c), m, c) for m in range(1, 4) for c in range(1, 4)]
    return [_fixed({"algebra": case[0].name}, *case) for case in cases]


def _witt_detail(out: Outcome, families) -> dict:
    """Each Hall basis's dimension and size per degree, read off its family's
    fixed inputs."""
    cases = (draw(None) for _, draw in families)
    return {spec.name: {"dim": spec.dim, "by_degree": _by_degree(spec, c)}
            for spec, _, c in cases}


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


def generator_orders_hold(ring: RingSignature) -> dict | None:
    """Nilpotency and exact order: each generator g of order m has
    g^(m+1) = 0 and g^m != 0.  Every nilpotency is checked before any exact
    order."""
    tops = []
    for name, m in ring.generators:
        g = ring.gen(name)
        top = g ** m
        if top * g != ring.zero:
            return {"law": "nilpotency", "generator": name}
        tops.append((name, top))
    for name, top in tops:
        if top == ring.zero:
            return {"law": "exact order", "generator": name}
    return None


def _canonical(s) -> bool:
    """Stored in canonical form: nonzero numerators over a positive
    denominator coprime to them, which is 1 for zero."""
    values = s.terms.values()
    return s.den > 0 and all(values) and gcd(s.den, *values) == 1


def ring_laws_hold(a, b, c, drawn: list) -> dict | None:
    """On three scalars of one ring and the term tables they were built from:
    the ring's generator orders hold, each reads back as its table without
    zeros, the product agrees with a dense reference, storage is canonical
    and the ring axioms hold.  Canonical storage is checked on a + b, a * b
    and a - b, and on what the one-term branches of the product and the
    merge compute for the plain-Q coordinates they serve: with xa and xb
    the first coefficients of a's and b's tables as constants, xa * xb,
    xa + xb and xa - xa (the nilpotency law runs the one-term product's
    guard test).  The axioms compare storage literally, so one whose sides
    differ while either is not canonical is reported as "canonical", not as
    whichever axiom the unreduced storage happens to break."""
    ring = a.signature
    orders = generator_orders_hold(ring)
    if orders is not None:
        return orders
    total, product = a + b, a * b
    xa, xb = (ring.rational(next(iter(terms.values()))) for terms in drawn[:2])
    sides = {
        "add-assoc": (total + c, a + (b + c)),
        "add-comm": (total, b + a),
        "mul-assoc": (product * c, a * (b * c)),
        "mul-comm": (product, b * a),
        "distrib": (a * (b + c), product + a * c),
    }
    laws = {
        "round trip": all(
            s.coefficients() == {v: x for v, x in terms.items() if x}
            for s, terms in zip((a, b, c), drawn)
        ),
        "dense product": product.coefficients() == _dense_product(a, b),
        "canonical": all(map(_canonical, (total, product, a - b, xa * xb, xa + xb, xa - xa))),
        **{law: left == right for law, (left, right) in sides.items()},
    }
    for law, holds in laws.items():
        if not holds:
            if law in sides and not all(map(_canonical, sides[law])):
                law = "canonical"
            return {"law": law, "a": a.to_json(), "b": b.to_json(), "c": c.to_json()}
    return None


def _scalars(ring: RingSignature, rng: Random) -> tuple:
    """Three random scalars of three random terms each, then the list of
    the term tables they were built from."""
    bits, drawn = rng.getrandbits, []
    for _ in range(3):
        terms = {}
        for _ in range(3):
            vec = tuple(draw_int(bits, 0, m) for m in ring.orders)
            terms[vec] = terms.get(vec, 0) + random_rational(rng)
        drawn.append(terms)
    return (*map(ring.scalar, drawn), drawn)


#: The generators of each ring that the ring laws check.
_RINGS = ((("d", 3),), (("e1", 1), ("e2", 1)), (("d", 2), ("e", 1)))


def _ring_label(ring: RingSignature) -> str:
    """A ring's name in the report, as "WeilRing(d^4=0)", or "WeilRing(Q)"."""
    return f"WeilRing({', '.join(f'{n}^{m + 1}=0' for n, m in ring.generators) or 'Q'})"


def tower_commutes(a: Jet, b: Jet) -> dict | None:
    """Truncating a product equals multiplying the truncations (3 -> 2 -> 1)."""
    full = jet_mul(a, b)
    for lower in (2, 1):
        direct = jet_mul(jet_truncate(a, lower), jet_truncate(b, lower))
        if jet_truncate(full, lower) != direct:
            return {"target_order": lower, "a": a.to_json(), "b": b.to_json()}
    return None


# -- the table -------------------------------------------------------------------

#: The row builder of each claim, by check id; a key ending in "." or "n" is
#: the prefix of one check per order n.  ``algebras`` is the override or
#: None, for the row's own default set, which its families build.
ROWS = {
    # exp-product identities over Q[d_1..d_n]/(d_i^2), on seeded integer jet pairs
    "thm-4.": lambda n, algebras, trials, seed: Check(
        f"thm-4.{n}", exp_product_holds, partial(_theorem_4_families, n, algebras),
        trials, seed, partial(_per_instance, n, ("trials",))),
    # associativity: symbolic over free-nilpotent(3,3), then seeded triples
    "thm-6.": lambda n, algebras, trials, seed: Check(
        f"thm-6.{n}", associative, partial(_jet_families, algebras, n, 3),
        trials, seed, partial(_associativity_detail, n),
        partial(_symbolic, (3, 3), n, "abc")),
    # the cubic identity, multilinear, on the generators of free-nilpotent(3,3)
    "lemma-6.3.1": lambda: Check(
        "lemma-6.3.1", cubic_identity, list, 1, 0,
        lambda out, families: {"algebra": "free-nilpotent(3,3)"}, _free_generators),
    # unit and inverse laws: symbolic over free-nilpotent(2,3), then seeded jets
    "thm-7.0": lambda orders, algebras, trials, seed: Check(
        "thm-7.0", unit_and_inverse,
        lambda: [({"algebra": a.name, "order": n}, partial(_jets, a, n, 1))
                 for a in algebras or map(resolve_algebra, BUILTIN_NAMES) for n in orders],
        trials, seed,
        lambda out, families: {"orders": list(orders), "trials": trials,
                               "symbolic": out.symbolic,
                               **({"random": out.instances} if out.instances else {})},
        lambda: tuple(_symbolic((2, 3), n, "a")[0] for n in orders)),
    # square-zero-scaled group commutators recover the bracket: symbolic, then seeded
    "thm-7.": lambda n, algebras, trials, seed: Check(
        f"thm-7.{n}", bracket_recovered,
        partial(_jet_families, algebras, n, 2, _SQUARE_ZERO, _PAIR),
        trials, seed,
        partial(_per_instance, n, ("symbolic", "random_trials", "expected_form")),
        partial(_symbolic, (2, 3), n, "ab", extra_generators=_SQUARE_ZERO)),
    # closed form vs. series: symbolic over free-nilpotent(2,n), then seeded pairs
    "def6.1-vs-bch-n": lambda n, algebras, trials, seed: Check(
        f"def6.1-vs-bch-n{n}", series_agrees, partial(_jet_families, algebras, n, 2),
        trials, seed, partial(_per_instance, n, ("symbolic", "random_trials")),
        partial(_symbolic, (2, n), n, "ab")),
    # closed form vs. matrix exp/log over Q[d]/(d^(n+1)), on seeded integer pairs
    "def6.1-vs-matrix-n": lambda n, algebras, trials, seed: Check(
        f"def6.1-vs-matrix-n{n}", matrix_agrees,
        lambda: [({"algebra": a.name}, partial(_rep_jets, (builtin_rep(a.name),), PLAIN_RING, n))
                 for a in algebras or map(resolve_algebra, BUILTIN_REP_NAMES)],
        trials, seed, partial(_per_instance, n, ("trials",))),
    # Hall basis sizes per degree match the necklace-count formula
    "struct-witt-dimensions": lambda: Check(
        "struct-witt-dimensions", witt_dimensions_hold, _witt_families, 1, 0, _witt_detail),
    # every cataloged algebra satisfies the Jacobi identity on basis triples
    "struct-jacobi-builtins": lambda: Check(
        "struct-jacobi-builtins", validate_algebra,
        lambda: [_fixed({"algebra": spec.name}, spec)
                 for spec in default_verification_algebras() + [free_nilpotent(3, 3)]],
        1, 0, lambda out, families: out.instances),
    # nilpotency and exact order, then the round trip, dense product,
    # canonical storage and ring axioms, on seeded scalars of each ring
    "struct-ring-laws": lambda trials, seed: Check(
        "struct-ring-laws", ring_laws_hold,
        lambda: [({"ring": _ring_label(r)}, partial(_scalars, r))
                 for r in map(ring_make, _RINGS)],
        trials, seed,
        lambda out, families: {"rings": [label["ring"] for label, _ in families],
                               "trials": trials}),
    # truncating an order-3 product equals multiplying the truncations
    "struct-tower-compatibility": lambda algebras, trials, seed: Check(
        "struct-tower-compatibility", tower_commutes, partial(_jet_families, algebras, 3, 2),
        trials, seed, lambda out, families: {"trials": trials, **out.instances}),
}


# -- suites ---------------------------------------------------------------------------


def build_checks(
    suite: str,
    algebras: list[LieAlgebraSpec] | None = None,
    order: int | None = None,
    trials: int = 100,
    seed: int = 0,
) -> list:
    """List of (check id, thunk) for one suite, in catalog order; each thunk
    is :func:`run_check` on one row of ``ROWS``, which builds its own inputs.

    ``algebras`` overrides the default random-trial algebra sets; checks that
    need a matrix representation then require every override to have one.
    Raises ``ValueError`` for an unknown suite; an ``order`` other than
    None or an ``int`` from 1 to ``jets.MAX_ORDER``; ``trials`` or ``seed``
    that is not an ``int``, bools included, which the report would print
    as they are; fewer than one trial; a negative seed (``Random(-s)`` draws
    what ``Random(s)`` draws, so the report would name a run that never
    happened); an empty ``algebras`` list (no suite may pass without its
    random trials) or an override without a representation that its suite
    needs.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}")
    if order is not None and (order.__class__ is not int or not 1 <= order <= MAX_ORDER):
        raise ValueError(f"order must be None or an int 1..{MAX_ORDER}, got {order!r}")
    for what, value, least in (("trials", trials, 1), ("seed", seed, 0)):
        if value.__class__ is not int:
            raise ValueError(f"{what} must be an int, got {value!r}")
        if value < least:
            raise ValueError(f"{what} must be at least {least}, got {value}")
    if algebras is not None and not algebras:
        raise ValueError("the algebras override names no algebra")
    unrepresented = [a.name for a in algebras or () if a.name not in BUILTIN_REP_NAMES]
    if unrepresented and suite in ("all", "s4"):
        raise ValueError(f"no built-in representation for {unrepresented[0]!r}")
    orders = (1, 2, 3) if order is None else (order,)

    def per_order(*prefixes: str) -> list:
        return [ROWS[p](n, algebras, trials, seed) for p in prefixes for n in orders]

    rows: list = []
    if suite in ("all", "s4"):
        rows += per_order("thm-4.")
    if suite in ("all", "s6"):
        rows += per_order("thm-6.")
        if order in (None, 3):
            rows.append(ROWS["lemma-6.3.1"]())
    if suite in ("all", "s7"):
        rows += [ROWS["thm-7.0"](orders, algebras, trials, seed), *per_order("thm-7.")]
    if suite == "all":
        rows += per_order("def6.1-vs-bch-n", "def6.1-vs-matrix-n")
        rows += [ROWS["struct-witt-dimensions"](), ROWS["struct-jacobi-builtins"](),
                 ROWS["struct-ring-laws"](trials, seed),
                 ROWS["struct-tower-compatibility"](algebras, trials, seed)]
    return [(row.id, partial(run_check, row)) for row in rows]


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
    for _, thunk in checks:
        start = time.perf_counter()
        result = thunk()
        result.seconds = time.perf_counter() - start
        results.append(result)
    results.sort(key=lambda r: r.check)
    versions = {"liejets": __version__, "python": platform.python_version()}
    return VerificationReport(checks=results, seed=seed, versions=versions)
