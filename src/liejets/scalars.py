"""Exact truncated polynomial rings over the rationals.

A ring signature names a list of commuting generators t_1, ..., t_k together
with nilpotency orders m_1, ..., m_k, and denotes the quotient ring

    Q[t_1, ..., t_k] / (t_1^{m_1 + 1}, ..., t_k^{m_k + 1}).

An element (``WeilScalar``) is stored as a sparse table mapping monomials to
nonzero integer numerators, over one positive integer denominator shared by
every term.  The form is canonical: the denominator is coprime to the gcd of
the numerators, and it is 1 for the zero scalar.  Equality is therefore
literal comparison of signature, denominator and table, and every operation
is exact: integer products and sums of the numerators, then a single gcd to
reduce the result.  ``+`` and ``-`` share one merge, x + (p/q) y, so a
difference is a sum with the second operand's numerators negated, and a
sum with a rational weight costs no separate rescale.  That merge of two
operands also serves every sum of two Lie elements; a weighted sum of three
or more scalars, the series oracle's words, is one merge of its own
(``_weighted_sum``) over one common denominator.  A scalar combines
only with a scalar of its ring: a rational enters through
``ring.rational`` or as the weight of that merge.  ``coefficients()``
gives the terms as ``Fraction`` values keyed by dense exponent vectors.

A ring is one object, the :class:`RingSignature` that each of its scalars
stores and that builds them; its ``zero`` and ``one`` are built on each
read, so a signature holds no scalar.

The product and the merge each have a one-term branch.  Over plain Q every
Lie-element coordinate is a single term, and such scalars make most of the
claim catalog's products and half its merges.  A product of two one-term
scalars, or a merge of two at one monomial, is one key add (with its guard
test) or one key lookup, one integer product or cross-multiplied sum, and
one gcd unless the denominator is 1, building the canonical result
directly; every other pair of operands goes through the table loop and
``_reduced``.  The branch is picked by the operands' term counts alone,
after the early exits for a zero operand, and stores the same canonical
form as the table path.

A monomial is one non-negative ``int`` with the exponents packed side by
side (Monagan & Pearce, "Polynomial division using dynamic arrays, heaps,
and packed exponent vectors", CASC 2007).  Generator g of order m owns a
field of m.bit_length() + 1 bits at offset ``signature.shifts[g]``,
generator 0 the lowest, so a signature with one generator appended keeps
every key valid.  The sum of two exponents at most m fits its field, so a
monomial product is one integer add.  Each field's top bit is a guard bit
and its bias is 2^b - 1 - m for b = m.bit_length().  An exponent e exceeds
m exactly when e + bias reaches the guard bit, so the product k1 + k2 is
killed by truncation exactly when ``(k1 + k2 + bias) & guard`` is nonzero.
The constant monomial is 0.  Dense exponent vectors appear only at the
boundary: ``RingSignature.scalar``, ``coefficients()``, JSON and display.

A signature with no generators, ``PLAIN_RING``, is the ring Q itself.
Rings with one generator of order n model rings of nilpotent infinitesimals
of order n; several generators model products of such rings.  The oracles'
curve lift and readback (``liejets.jets``) join scalars into, and split them by,
powers of a fresh last generator with :func:`join_last_generator` and
:func:`split_last_generator`, which divide and multiply the part at t^p by
a given integer weight (the jets' p!) in the same pass, and
:func:`lowest_last_power` reads the lowest such power.  Extending a ring
by that generator (:meth:`RingSignature.extend`) costs one field's layout,
placed above the parent's fields, whatever the ring's size, and the
extended signature records its ``parent``: the join and the split accept
the parent by one identity test, and compare generator tuples only for an
equal ring built separately.

All values are immutable after construction and safe to share freely.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

__all__ = [
    "SignatureError",
    "SignatureMismatch",
    "RingSignature",
    "WeilScalar",
    "PLAIN_RING",
    "ring_make",
    "rational_from_str",
    "json_int",
    "json_list",
    "join_last_generator",
    "lowest_last_power",
    "split_last_generator",
]


class SignatureError(ValueError):
    """Raised for malformed ring signatures and scalar documents."""


class SignatureMismatch(ValueError):
    """Raised when two scalars from different rings meet in one operation."""


#: The text of an exact rational: "p" or "p/q", ASCII digits with an
#: optional sign on p and nothing else, no spaces, exponents, decimal points
#: or underscores.
_RATIONAL_TEXT = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rational_from_str(text, error: type = SignatureError) -> int | Fraction:
    """An exact rational: an ``int`` or ``Fraction`` unchanged, a string
    read as "p" or "p/q" (see ``_RATIONAL_TEXT``) to a ``Fraction``.  Raise
    ``error`` (the calling module's own error type) for anything else:
    floats and booleans, which are no exact rational input, other text such
    as "1e5000", "0.5" or " 1/2 ", a zero denominator, and digit strings
    longer than ``int`` reads (``sys.get_int_max_str_digits()``)."""
    if text.__class__ is int or text.__class__ is Fraction:
        return text
    match = _RATIONAL_TEXT.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise error(f"invalid rational {text!r}; write it as \"p/q\" or \"p\"")
    numerator, denominator = match.groups()
    try:
        return Fraction(int(numerator), int(denominator or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise error(f"invalid rational {text!r}") from exc


def json_int(value) -> int:
    """``value`` if it is an integer; ``TypeError`` for anything else, floats
    and booleans included, which ``int()`` would silently truncate or coerce."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_list(value) -> list:
    """``value`` if it is a list, as ``json.load`` reads an array; ``TypeError``
    for anything else, such as a string or object that iteration would misread."""
    if not isinstance(value, list):
        raise TypeError(f"expected an array, got {value!r}")
    return value


def _layout(orders: tuple[int, ...]) -> tuple[tuple[int, ...], int, int]:
    """Field offsets, bias mask and guard mask of packed monomial keys over
    generators of these nilpotency orders."""
    shifts = []
    bias = guard = shift = 0
    for m in orders:
        b = m.bit_length()
        shifts.append(shift)
        bias |= ((1 << b) - 1 - m) << shift
        guard |= 1 << (shift + b)
        shift += b + 1
    return tuple(shifts), bias, guard


def _entry(name, order) -> tuple[str, int]:
    """One generator entry, checked: the name a ``str`` and the order an
    ``int`` of at least 1, never a float, bool or string read as one."""
    if not isinstance(name, str):
        raise SignatureError(f"generator name must be a string, got {name!r}")
    try:
        order = json_int(order)
    except TypeError as exc:
        raise SignatureError(f"nilpotency order of {name!r}: {exc}") from exc
    if order < 1:
        raise SignatureError(f"nilpotency order of {name!r} must be >= 1, got {order}")
    return name, order


class RingSignature:
    """A truncated polynomial ring: its generators, and the builder of its scalars.

    Each entry is (name, order) with order m meaning t^{m+1} = 0; the name
    must be a ``str`` and the order an ``int`` of at least 1, and anything
    else raises ``SignatureError`` rather than being coerced.  ``names``,
    ``orders``, ``arity`` and the monomial key layout (``shifts``, ``bias``,
    ``guard``) are derived once at construction.  ``parent`` is the
    signature this one was made from by :meth:`extend`, or None for one
    built directly.  None of these take part in equality, hashing or repr.
    Instances are immutable; equality and hashing are those of the
    ``generators`` tuple, tested by identity first because scalar arithmetic
    compares the signatures of its operands.
    """

    def __init__(self, generators: tuple[tuple[str, int], ...]):
        gens = tuple(_entry(n, m) for n, m in generators)
        names = tuple(n for n, _ in gens)
        if len(set(names)) != len(names):
            raise SignatureError(f"duplicate generator name in {list(names)}")
        orders = tuple(m for _, m in gens)
        self._fill(gens, names, orders, *_layout(orders), None)

    def _fill(self, generators, names, orders, shifts, bias, guard, parent):
        self.__dict__.update(
            generators=generators, names=names, orders=orders, arity=len(generators),
            shifts=shifts, bias=bias, guard=guard, parent=parent,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self):
        return hash((self.generators,))

    def __repr__(self):
        return f"RingSignature(generators={self.generators!r})"

    @property
    def signature(self) -> "RingSignature":
        """The ring itself, which ``perfbench/tracing.py`` reads as ``ring.signature``."""
        return self

    @property
    def zero(self) -> "WeilScalar":
        """The zero scalar, built on each read, as a signature stores no scalar."""
        return WeilScalar(self, {})

    @property
    def one(self) -> "WeilScalar":
        """The unit scalar, built on each read like ``zero``."""
        return WeilScalar(self, {0: 1})

    def rational(self, value) -> "WeilScalar":
        """The constant scalar ``value``, as :func:`rational_from_str` reads it."""
        q = rational_from_str(value)
        p = q.numerator
        return WeilScalar(self, {0: p}, q.denominator) if p else self.zero

    def gen(self, name: str) -> "WeilScalar":
        """The generator ``name``; its powers are ``gen(name) ** k``."""
        return WeilScalar(self, {1 << self.shifts[self.index(name)]: 1})

    def scalar(self, dense_terms: Mapping[tuple, object]) -> "WeilScalar":
        """Canonicalizing constructor from {int exponent vector: exact rational}."""
        orders, shifts, arity = self.orders, self.shifts, self.arity
        out: dict = {}
        for vec, coeff in dense_terms.items():
            if not isinstance(vec, tuple) or len(vec) != arity:
                raise SignatureError(
                    f"exponent vector {vec!r} is not a tuple of {arity} exponents"
                )
            key = 0
            for g, e in enumerate(vec):
                if e.__class__ is not int or e < 0 or e > orders[g]:
                    raise SignatureError(
                        f"exponent {e!r} of generator {self.names[g]!r} "
                        f"is not an int in 0..{orders[g]}"
                    )
                key |= e << shifts[g]
            c = rational_from_str(coeff)
            # distinct vectors in range pack to distinct keys: no merge needed
            if c:
                out[key] = c
        # Over the lcm of the reduced denominators the numerators are already
        # coprime to the shared denominator.
        den = lcm(*(c.denominator for c in out.values()))
        return WeilScalar(
            self, {k: c.numerator * (den // c.denominator) for k, c in out.items()}, den
        )

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.generators):
            if n == name:
                return i
        raise SignatureError(f"{name!r} is not a generator of {self.generators}")

    def extend(self, name: str, order: int) -> "RingSignature":
        """Signature with one more generator appended at the end, equal to the
        one built from ``generators + ((name, order),)``.  The parent's fields
        keep their offsets, so only the new field is laid out, above the
        parent's total width ``guard.bit_length()``; the rest is tuple
        concatenation and integer ORs, with no pass over the parent's
        generators.  The result records ``self`` as its ``parent``."""
        name, order = _entry(name, order)
        if name in self.names:
            raise SignatureError(f"duplicate generator name in {list(self.names) + [name]}")
        (shift,), bias, guard = _layout((order,))
        offset = self.guard.bit_length()
        sig = object.__new__(RingSignature)
        sig._fill(
            self.generators + ((name, order),), self.names + (name,), self.orders + (order,),
            self.shifts + (shift + offset,), self.bias | bias << offset,
            self.guard | guard << offset, self,
        )
        return sig

    def to_json(self) -> list:
        return [[n, m] for n, m in self.generators]

    @classmethod
    def from_json(cls, doc: list) -> "RingSignature":
        try:
            gens = tuple((n, m) for n, m in map(json_list, json_list(doc)))
        except (TypeError, ValueError) as exc:
            raise SignatureError(f"ring must be a list of [name, order] pairs: {exc}") from exc
        return cls(gens)


def _reduced(signature: RingSignature, terms: dict, den: int) -> "WeilScalar":
    """Scalar from nonzero integer numerators over ``den`` > 0, with their
    common factor divided out (so the zero scalar gets denominator 1)."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    return WeilScalar(signature, terms, den)


def _signed_sum(x: "WeilScalar", y: "WeilScalar", p: int, q: int) -> "WeilScalar":
    """x + (p/q) * y for scalars over one ring, integers p and q > 0: the one
    merge behind ``+`` (p/q = 1), ``-`` (p/q = -1), every sum of Lie
    elements (``LieElement.add_scaled``) and each structure constant's term
    in ``bracket``.  y's terms, scaled by p and brought with x's to the lcm
    of ``x.den`` and ``q * y.den``, are merged into a copy of x's, and one
    reduction makes the result canonical.  Two one-term operands at one
    monomial, the plain-Q coordinates of Lie elements, skip the table: their
    numerators are cross-multiplied over ``x.den * q * y.den`` and one gcd
    reduces the sum (none over denominator 1), or it is the zero scalar."""
    a, b = x.terms, y.terms
    if not b or not p:
        return x
    if not a:  # an empty x, as bracket's accumulators start: p != 0 makes no product zero
        if p == 1 and q == 1:
            return y
        return _reduced(y.signature, b if p == 1 else {k: c * p for k, c in b.items()}, y.den * q)
    da, db = x.den, y.den * q
    if len(a) == 1 == len(b):
        # One term each at one monomial, as every plain-Q coordinate is: one
        # cross-multiplied sum and one gcd, with no table to copy or reduce.
        # Reading one key keeps the test cheap for one-term pairs at two
        # monomials, a third of the merges over symbolic rings.
        k, = a
        if k in b:
            c = a[k] * db + b[k] * p * da
            if not c:
                return WeilScalar(x.signature, {})
            den = da * db
            if den != 1:
                g = gcd(c, den)
                if g != 1:
                    return WeilScalar(x.signature, {k: c // g}, den // g)
            return WeilScalar(x.signature, {k: c}, den)
    if da == db:
        den, fb = da, p
        if p == 1 and len(a) < len(b):
            a, b = b, a  # copy the larger table, merge the smaller
        out = dict(a)
    else:
        g = gcd(da, db)
        fa, fb = db // g, da // g * p
        den = da * fa
        out = {k: c * fa for k, c in a.items()}
    for k, c in b.items():
        c = c * fb
        acc = out.get(k)
        if acc is None:
            out[k] = c
        else:
            acc = acc + c
            if acc:
                out[k] = acc
            else:
                del out[k]
    return _reduced(x.signature, out, den)


def _weighted_sum(
    ys: Sequence["WeilScalar"], weights: Sequence[tuple[int, int]]
) -> "WeilScalar":
    """The sum of (p/q) * y over at least two scalars y of one ring, with
    their weights (p, q) in ``weights``, integers p and q > 0: the merge
    behind the series oracle's sum of words.  Two operands, the first of
    weight 1 as the series' "a" is, are one ``_signed_sum`` (a first operand
    of another weight is merged into zero first).  Three or more
    are brought to the lcm of every nonzero operand's ``q * y.den`` in one
    pass, their numerators, each scaled by p and its share of the lcm, are
    merged in one table, and one reduction makes the sum canonical, where a
    chain of merges would build and reduce a scalar per operand."""
    if len(ys) == 2:
        (x, y), ((p, q), (r, s)) = ys, weights
        if p != 1 or q != 1:
            x = _signed_sum(WeilScalar(x.signature, {}), x, p, q)
        return _signed_sum(x, y, r, s)
    sig = ys[0].signature
    den = 1
    for y, (p, q) in zip(ys, weights):
        if y.terms and p:
            d = y.den * q
            if d != den:
                den = lcm(den, d)
    out: dict = {}
    for y, (p, q) in zip(ys, weights):
        if y.terms and p:
            f = den // (y.den * q) * p
            for k, c in y.terms.items():
                c = c * f
                acc = out.get(k)
                if acc is None:
                    out[k] = c
                else:
                    acc = acc + c
                    if acc:
                        out[k] = acc
                    else:
                        del out[k]
    return _reduced(sig, out, den)


class WeilScalar:
    """Element of a truncated polynomial ring, in canonical sparse form.

    ``terms`` maps monomials to nonzero integer numerators and ``den`` is
    their shared positive denominator, coprime to the numerators' gcd and 1
    for zero.  Two scalars are equal exactly when their signatures,
    denominators and term tables are equal.  Construct through the ring,
    :class:`RingSignature`; the raw constructor trusts its arguments.
    """

    __slots__ = ("signature", "terms", "den")

    def __init__(self, signature: RingSignature, terms: dict, den: int = 1):
        self.signature = signature
        self.terms = terms
        self.den = den

    # -- readback ------------------------------------------------------

    def coefficients(self) -> dict:
        """The term table as {dense exponent vector: nonzero Fraction
        coefficient}, the form :meth:`RingSignature.scalar` reads."""
        sig, den = self.signature, self.den
        fields = [(s, (1 << m.bit_length()) - 1) for s, m in zip(sig.shifts, sig.orders)]
        return {
            tuple((k >> s) & mask for s, mask in fields): Fraction(c, den)
            for k, c in self.terms.items()
        }

    def constant_term(self) -> Fraction:
        """Value at all generators = 0."""
        return Fraction(self.terms.get(0, 0), self.den)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        """``other`` if it is a scalar over this ring; None for anything
        else, numbers included."""
        if not isinstance(other, WeilScalar):
            return None
        if other.signature is not self.signature and other.signature != self.signature:
            raise SignatureMismatch(
                f"cannot mix rings {self.signature.generators} and "
                f"{other.signature.generators}"
            )
        return other

    def __add__(self, other):
        if other.__class__ is not WeilScalar or other.signature is not self.signature:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _signed_sum(self, other, 1, 1)

    def __neg__(self):
        return WeilScalar(self.signature, {k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        if other.__class__ is not WeilScalar or other.signature is not self.signature:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _signed_sum(self, other, -1, 1)

    def __mul__(self, other):
        """The truncated product: every pair of terms whose packed keys add
        without setting a guard bit, summed in a table that ``_reduced``
        makes canonical.  Two one-term operands, the plain-Q coordinates of
        Lie elements, skip the table: one key add and guard test, one
        integer product and one gcd (none over denominator 1)."""
        if other.__class__ is not WeilScalar or other.signature is not self.signature:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return WeilScalar(self.signature, {})
        sig = self.signature
        bias, guard = sig.bias, sig.guard
        if len(a) == 1 == len(b):
            # One term each, as every plain-Q coordinate is: one key add and
            # guard test, one integer product and, as in _reduced, a gcd
            # only over a denominator other than 1.
            k1, = a
            k2, = b
            k = k1 + k2
            if (k + bias) & guard:
                return WeilScalar(sig, {})
            c, den = a[k1] * b[k2], self.den * other.den
            if den != 1:
                g = gcd(c, den)
                if g != 1:
                    return WeilScalar(sig, {k: c // g}, den // g)
            return WeilScalar(sig, {k: c}, den)
        out: dict = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                if (k + bias) & guard:
                    continue
                c = c1 * c2
                acc = out.get(k)
                if acc is None:
                    out[k] = c
                else:
                    acc = acc + c
                    if acc:
                        out[k] = acc
                    else:
                        del out[k]
        return _reduced(self.signature, out, self.den * other.den)

    def __pow__(self, n: int):
        if n.__class__ is not int or n < 0:
            return NotImplemented
        acc = self.signature.one
        for _ in range(n):
            acc = acc * self
        return acc

    # -- comparison and display -----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, WeilScalar):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.den == other.den
            and self.terms == other.terms
        )

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.signature.names
        coeffs = self.coefficients()
        parts = []
        for vec in sorted(coeffs):
            c = coeffs[vec]
            mono = "*".join(
                names[g] if e == 1 else f"{names[g]}^{e}" for g, e in enumerate(vec) if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"WeilScalar({self!s})"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        terms = sorted((list(v), str(c)) for v, c in self.coefficients().items())
        return {"ring": self.signature.to_json(), "terms": [[v, c] for v, c in terms]}

    @classmethod
    def from_json(cls, doc: Mapping) -> "WeilScalar":
        if not isinstance(doc, Mapping) or "ring" not in doc or "terms" not in doc:
            raise SignatureError("a scalar must be an object with 'ring' and 'terms'")
        sig = RingSignature.from_json(doc["ring"])
        dense = {}
        try:
            rows = [(tuple(json_int(e) for e in json_list(vec)), coeff)
                    for vec, coeff in map(json_list, json_list(doc["terms"]))]
        except (TypeError, ValueError) as exc:
            raise SignatureError(
                f"terms must be a list of [exponent vector, rational] pairs: {exc}"
            ) from exc
        for key, coeff in rows:
            if key in dense:
                raise SignatureError(f"duplicate exponent vector {key} in term table")
            dense[key] = rational_from_str(coeff)
        return sig.scalar(dense)


#: The ring of plain rationals, with no nilpotent generators.
PLAIN_RING = RingSignature(())


def ring_make(generators: Iterable[tuple[str, int]]) -> RingSignature:
    """Build the ring Q[t_i]/(t_i^{m_i+1}) for generators [(name, m_i), ...]."""
    return RingSignature(tuple(generators))


def join_last_generator(
    parts: Mapping[int, WeilScalar], target: RingSignature, weights: Sequence[int]
) -> WeilScalar:
    """The sum of ``parts[p] / weights[p] * t^p`` over ``target``, the
    parts' signature plus one last generator t, for powers 0 <= p <= the
    order of t and positive integer weights: the inverse of
    :func:`split_last_generator` with the same weights.

    Valid because the original generators keep their bit fields in the
    extended signature, so a key moves to t^p by adding p times the new
    generator's field, and keys of different powers never collide.  Part p
    counts over the denominator ``weights[p]`` times its own; all parts are
    brought to the lcm of those in one pass, and one reduction makes the sum
    canonical.
    """
    # a target without generators has no t: every part fails the ring check
    top, shift = (target.orders[-1], target.shifts[-1]) if target.arity else (-1, 0)
    base = None
    den = 1
    for power, s in parts.items():
        if s.signature is not base:
            base = s.signature
            if base is not target.parent and (
                base.arity != target.arity - 1 or base.generators != target.generators[:-1]
            ):
                raise SignatureMismatch(
                    f"{target.generators} is not {base.generators} plus one generator"
                )
        if not 0 <= power <= top:
            raise SignatureError(f"power {power} exceeds the bounds of the last generator")
        if s.terms:
            d = s.den * weights[power]
            if d != den:
                den = lcm(den, d)
    terms: dict = {}
    for power, s in parts.items():
        if s.terms:
            tail, f = power << shift, den // (s.den * weights[power])
            for k, c in s.terms.items():
                terms[k + tail] = c * f
    return _reduced(target, terms, den)


def lowest_last_power(*scalars: WeilScalar) -> int | None:
    """Smallest power of the final generator among the terms of scalars over
    one ring (None when every scalar is zero)."""
    shift = scalars[0].signature.shifts[-1]
    return min((k >> shift for s in scalars for k in s.terms), default=None)


def split_last_generator(
    scalar: WeilScalar, base: RingSignature, weights: Sequence[int]
) -> dict[int, WeilScalar]:
    """Decompose by powers of the final generator of a scalar whose ring is
    ``base`` plus one generator, multiplying the coefficient of t^p by
    ``weights[p]``: the inverse of :func:`join_last_generator` with the same
    weights.

    Returns {power: weighted coefficient scalar} over ``base``; absent
    powers have zero coefficient.  A term at a power with no weight, at or
    above ``len(weights)``, raises ``SignatureError`` rather than being
    dropped, as :func:`join_last_generator` refuses a power above the order
    of t.  The weights are applied in the same pass that splits the terms,
    and each part is reduced on its own, since its numerators can share a
    factor with the shared denominator.
    """
    sig = scalar.signature
    if sig.parent is not base and (
        sig.arity != base.arity + 1 or sig.generators[:-1] != base.generators
    ):
        raise SignatureError(f"{sig.generators} is not {base.generators} plus one generator")
    shift = sig.shifts[-1]
    low = (1 << shift) - 1
    count = len(weights)
    parts: dict[int, dict] = {}
    for key, coeff in scalar.terms.items():
        power = key >> shift
        if power >= count:
            raise SignatureError(f"power {power} of the last generator has no weight")
        part = parts.get(power)
        if part is None:
            part = parts[power] = {}
        part[key & low] = coeff * weights[power]
    return {p: _reduced(base, terms, scalar.den) for p, terms in parts.items()}
