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
reduce the result.  ``coefficients()`` gives the terms as ``Fraction`` values.

A signature with no generators is the ring Q itself.  Rings with one
generator of order n model rings of nilpotent infinitesimals of order n;
several generators model products of such rings.

All values are immutable after construction and safe to share freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

Rational = Fraction

#: Sparse monomial key: ((generator_index, exponent), ...) sorted by index,
#: exponents >= 1.  The empty tuple is the constant monomial.
Monomial = tuple

__all__ = [
    "Rational",
    "SignatureError",
    "SignatureMismatch",
    "RingSignature",
    "WeilScalar",
    "WeilRing",
    "ring_make",
    "rational_from_str",
    "embed",
    "split_last_generator",
]


class SignatureError(ValueError):
    """Raised for malformed ring signatures and scalar documents."""


class SignatureMismatch(ValueError):
    """Raised when two scalars from different rings meet in one operation."""


def rational_from_str(text: str | int) -> Fraction:
    """Parse a rational from "p/q" or "p" form (also accepts ints); raise
    ``SignatureError`` for anything that is not a rational."""
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SignatureError(f"invalid rational {text!r}") from exc


@dataclass(frozen=True)
class RingSignature:
    """Ordered generators of a truncated polynomial ring.

    Each entry is (name, order) with order m meaning t^{m+1} = 0.  ``names``,
    ``orders`` and ``arity`` are derived once at construction and take no
    part in equality, hashing or repr.
    """

    generators: tuple[tuple[str, int], ...]
    names: tuple[str, ...] = field(init=False, compare=False, repr=False)
    orders: tuple[int, ...] = field(init=False, compare=False, repr=False)
    arity: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        gens = tuple((str(n), int(m)) for n, m in self.generators)
        object.__setattr__(self, "generators", gens)
        names = tuple(n for n, _ in gens)
        if len(set(names)) != len(names):
            raise SignatureError(f"duplicate generator name in {list(names)}")
        for n, m in gens:
            if m < 1:
                raise SignatureError(f"nilpotency order of {n!r} must be >= 1, got {m}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "orders", tuple(m for _, m in gens))
        object.__setattr__(self, "arity", len(gens))

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.generators):
            if n == name:
                return i
        raise KeyError(name)

    def extend(self, name: str, order: int) -> "RingSignature":
        """Signature with one more generator appended at the end."""
        return RingSignature(self.generators + ((name, order),))

    def to_json(self) -> list:
        return [[n, m] for n, m in self.generators]

    @classmethod
    def from_json(cls, doc: Iterable) -> "RingSignature":
        try:
            gens = tuple((str(n), int(m)) for n, m in doc)
        except (TypeError, ValueError) as exc:
            raise SignatureError(
                f"ring must be a list of [name, order] pairs with integer orders: {exc}"
            ) from exc
        return cls(gens)


def _mono_mul(k1: Monomial, k2: Monomial, orders: tuple[int, ...]) -> Monomial | None:
    """Product of two sparse monomials, or None if a nilpotency bound kills it."""
    out = []
    i = j = 0
    n1, n2 = len(k1), len(k2)
    while i < n1 and j < n2:
        g1, e1 = k1[i]
        g2, e2 = k2[j]
        if g1 == g2:
            e = e1 + e2
            if e > orders[g1]:
                return None
            out.append((g1, e))
            i += 1
            j += 1
        elif g1 < g2:
            out.append(k1[i])
            i += 1
        else:
            out.append(k2[j])
            j += 1
    out.extend(k1[i:])
    out.extend(k2[j:])
    return tuple(out)


def _dense(key: Monomial, arity: int) -> tuple[int, ...]:
    vec = [0] * arity
    for g, e in key:
        vec[g] = e
    return tuple(vec)


def _sparse(vec: Iterable[int]) -> Monomial:
    return tuple((g, int(e)) for g, e in enumerate(vec) if e)


def _reduced(signature: RingSignature, terms: dict, den: int) -> "WeilScalar":
    """Scalar from nonzero integer numerators over ``den`` > 0, with their
    common factor divided out (so the zero scalar gets denominator 1)."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {k: c // g for k, c in terms.items()}
    return WeilScalar(signature, terms, den)


def _constant(signature: RingSignature, q) -> "WeilScalar":
    """The constant scalar for an int or Fraction ``q``."""
    n = q.numerator
    if not n:
        return WeilScalar(signature, {})
    return WeilScalar(signature, {(): n}, q.denominator)


class WeilScalar:
    """Element of a truncated polynomial ring, in canonical sparse form.

    ``terms`` maps monomials to nonzero integer numerators and ``den`` is
    their shared positive denominator, coprime to the numerators' gcd and 1
    for zero.  Two scalars are equal exactly when their signatures,
    denominators and term tables are equal.  Construct through
    :class:`WeilRing` or :meth:`from_terms`; the raw constructor trusts its
    arguments.
    """

    __slots__ = ("signature", "terms", "den")

    def __init__(self, signature: RingSignature, terms: dict, den: int = 1):
        self.signature = signature
        self.terms = terms
        self.den = den

    @classmethod
    def from_terms(
        cls, signature: RingSignature, dense_terms: Mapping[tuple, object]
    ) -> "WeilScalar":
        """Canonicalizing constructor from {dense exponent vector: coefficient}."""
        orders = signature.orders
        arity = signature.arity
        out: dict = {}
        for vec, coeff in dense_terms.items():
            vec = tuple(int(e) for e in vec)
            if len(vec) != arity:
                raise SignatureError(
                    f"exponent vector {vec} has length {len(vec)}, expected {arity}"
                )
            for g, e in enumerate(vec):
                if e < 0 or e > orders[g]:
                    raise SignatureError(
                        f"exponent {e} of generator {signature.names[g]!r} "
                        f"violates bound {orders[g]}"
                    )
            c = Fraction(coeff)
            if not c:
                continue
            key = _sparse(vec)
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                acc = acc + c
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        # Over the lcm of the reduced denominators the numerators are already
        # coprime to the shared denominator.
        den = lcm(*(c.denominator for c in out.values()))
        return cls(
            signature, {k: c.numerator * (den // c.denominator) for k, c in out.items()}, den
        )

    # -- predicates and readback ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficients(self) -> dict:
        """The term table as {monomial: nonzero Fraction coefficient}."""
        den = self.den
        return {k: Fraction(c, den) for k, c in self.terms.items()}

    def constant_term(self) -> Fraction:
        """Value at all generators = 0."""
        return Fraction(self.terms.get((), 0), self.den)

    def min_degree(self) -> int:
        """Smallest total degree of any stored monomial (0 for the zero scalar)."""
        if not self.terms:
            return 0
        return min(sum(e for _, e in key) for key in self.terms)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, WeilScalar):
            if other.signature is not self.signature and other.signature != self.signature:
                raise SignatureMismatch(
                    f"cannot mix rings {self.signature.generators} and "
                    f"{other.signature.generators}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return _constant(self.signature, other)
        return None

    def __add__(self, other):
        if other.__class__ is not WeilScalar or other.signature is not self.signature:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.terms, other.terms
        if not a:
            return other
        if not b:
            return self
        da, db = self.den, other.den
        if da == db:
            den, fb = da, 1
            if len(a) < len(b):
                a, b = b, a
            out = dict(a)
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
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
        return _reduced(self.signature, out, den)

    __radd__ = __add__

    def __neg__(self):
        return WeilScalar(self.signature, {k: -c for k, c in self.terms.items()}, self.den)

    def __sub__(self, other):
        if other.__class__ is not WeilScalar or other.signature is not self.signature:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        b = other.terms
        if not b:
            return self
        da, db = self.den, other.den
        if da == db:
            den, fb = da, 1
            out = dict(self.terms)
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            den = da * fa
            out = {k: c * fa for k, c in self.terms.items()}
        for k, c in b.items():
            c = c * fb
            acc = out.get(k)
            if acc is None:
                out[k] = -c
            else:
                acc = acc - c
                if acc:
                    out[k] = acc
                else:
                    del out[k]
        return _reduced(self.signature, out, den)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if other.__class__ is not WeilScalar or other.signature is not self.signature:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return WeilScalar(self.signature, {})
        orders = self.signature.orders
        out: dict = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                if not k1:
                    k = k2
                elif not k2:
                    k = k1
                else:
                    k = _mono_mul(k1, k2, orders)
                    if k is None:
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

    __rmul__ = __mul__

    def scale(self, rational) -> "WeilScalar":
        """Multiply every coefficient by a plain rational."""
        if not isinstance(rational, (int, Fraction)):
            rational = Fraction(rational)
        p, q = rational.numerator, rational.denominator
        if not p:
            return WeilScalar(self.signature, {})
        if p == 1 and q == 1:
            return self
        terms = self.terms if p == 1 else {k: v * p for k, v in self.terms.items()}
        return _reduced(self.signature, terms, self.den * q)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        acc = WeilScalar(self.signature, {(): 1})
        for _ in range(n):
            acc = acc * self
        return acc

    # -- comparison and display -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            return self.den == other.denominator and self.terms == ({(): n} if n else {})
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
        for key in sorted(coeffs, key=lambda k: _dense(k, self.signature.arity)):
            c = coeffs[key]
            mono = "*".join(
                names[g] if e == 1 else f"{names[g]}^{e}" for g, e in key
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
        arity = self.signature.arity
        terms = sorted(
            (list(_dense(k, arity)), str(c)) for k, c in self.coefficients().items()
        )
        return {"ring": self.signature.to_json(), "terms": [[v, c] for v, c in terms]}

    @classmethod
    def from_json(cls, doc: Mapping) -> "WeilScalar":
        if not isinstance(doc, Mapping) or "ring" not in doc or "terms" not in doc:
            raise SignatureError("a scalar must be an object with 'ring' and 'terms'")
        sig = RingSignature.from_json(doc["ring"])
        dense = {}
        try:
            rows = [(tuple(int(e) for e in vec), coeff) for vec, coeff in doc["terms"]]
        except (TypeError, ValueError) as exc:
            raise SignatureError(
                f"terms must be a list of [exponent vector, rational] pairs: {exc}"
            ) from exc
        for key, coeff in rows:
            if key in dense:
                raise SignatureError(f"duplicate exponent vector {key} in term table")
            dense[key] = rational_from_str(coeff)
        return cls.from_terms(sig, dense)


class WeilRing:
    """Handle for one truncated polynomial ring; builds its scalars."""

    __slots__ = ("signature", "zero", "one")

    def __init__(self, signature: RingSignature):
        self.signature = signature
        self.zero = WeilScalar(signature, {})
        self.one = WeilScalar(signature, {(): 1})

    def rational(self, value) -> WeilScalar:
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return _constant(self.signature, value)

    def gen(self, name: str, power: int = 1) -> WeilScalar:
        """The monomial name**power (zero if the power exceeds the order)."""
        g = self.signature.index(name)
        if power < 0:
            raise SignatureError("generator powers must be non-negative")
        if power == 0:
            return self.one
        if power > self.signature.orders[g]:
            return self.zero
        return WeilScalar(self.signature, {((g, power),): 1})

    def scalar(self, dense_terms: Mapping[tuple, object]) -> WeilScalar:
        return WeilScalar.from_terms(self.signature, dense_terms)

    def __eq__(self, other):
        return isinstance(other, WeilRing) and self.signature == other.signature

    def __repr__(self):
        gens = ", ".join(f"{n}^{m + 1}=0" for n, m in self.signature.generators)
        return f"WeilRing({gens})" if gens else "WeilRing(Q)"


def ring_make(generators: Iterable[tuple[str, int]]) -> WeilRing:
    """Build the ring Q[t_i]/(t_i^{m_i+1}) for generators [(name, m_i), ...]."""
    return WeilRing(RingSignature(tuple(generators)))


def embed(scalar: WeilScalar, target: RingSignature) -> WeilScalar:
    """Reinterpret a scalar in a signature that extends its own at the end.

    Valid because sparse monomial keys index generators by position, and the
    original generators keep their positions; the canonical numerators and
    denominator carry over unchanged.
    """
    own = scalar.signature.generators
    if target.generators[: len(own)] != own:
        raise SignatureMismatch(
            f"{target.generators} does not extend {own} at the end"
        )
    return WeilScalar(target, dict(scalar.terms), scalar.den)


def split_last_generator(scalar: WeilScalar) -> dict[int, WeilScalar]:
    """Decompose by powers of the final generator.

    Returns {power: coefficient scalar} over the ring without that generator;
    absent powers have zero coefficient.  Each part is reduced on its own,
    since its numerators can share a factor with the shared denominator.
    """
    sig = scalar.signature
    if sig.arity == 0:
        raise SignatureError("scalar has no generators to split on")
    last = sig.arity - 1
    base = RingSignature(sig.generators[:-1])
    parts: dict[int, dict] = {}
    for key, coeff in scalar.terms.items():
        if key and key[-1][0] == last:
            power = key[-1][1]
            rest = key[:-1]
        else:
            power = 0
            rest = key
        parts.setdefault(power, {})[rest] = coeff
    return {p: _reduced(base, terms, scalar.den) for p, terms in parts.items()}
