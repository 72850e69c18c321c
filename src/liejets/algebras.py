"""Finite-dimensional Lie algebras over Q given by structure constants.

An algebra is a named basis plus a table of brackets [b_i, b_j] for i < j;
antisymmetry fills in the rest and [b_i, b_i] = 0.  Elements carry coordinate
vectors of :class:`~liejets.scalars.WeilScalar`, and :func:`bracket` is the
one place structure constants meet coordinates: it serves plain rational
elements and elements over nilpotent scalar extensions, the engines, the
checks and the Jacobi scan of :func:`validate_algebra` alike.  Each constant is
the weight of one merge, :func:`~liejets.scalars._signed_sum`, the one sum
behind ``+``, ``-`` and :meth:`LieElement.add_scaled` as well.

Specs and elements are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from .scalars import (
    PLAIN_RING,
    RingSignature,
    SignatureMismatch,
    WeilScalar,
    _signed_sum,
    json_list,
    rational_from_str,
)

__all__ = [
    "AlgebraError",
    "LieAlgebraSpec",
    "LieElement",
    "make_algebra",
    "bracket",
    "validate_algebra",
    "zero_element",
    "basis_element",
    "heisenberg3",
    "sl2",
    "so3",
    "abelian",
    "MAX_DIMENSION",
]

#: Largest algebra dimension accepted.  The Jacobi scan is cubic in the
#: dimension; the largest algebra in the catalog, free-nilpotent(3,3), has 14.
MAX_DIMENSION = 32


class AlgebraError(ValueError):
    """Raised for malformed algebra specs or mismatched operands."""


def _name(value) -> str:
    """A basis or algebra name from a spec document, which must be a string."""
    if not isinstance(value, str):
        raise AlgebraError(f"names must be strings, got {value!r}")
    return value


class LieAlgebraSpec:
    """Lie algebra on a named basis with rational structure constants.

    ``structure`` maps index pairs (i, j) with i < j to tuples of
    (k, coefficient) meaning [b_i, b_j] = sum c * b_k, each coefficient an
    ``int`` when it is integral and a ``Fraction`` otherwise.  Pairs that
    bracket to zero are absent.  ``degrees`` is optional grading metadata,
    set by :func:`liejets.hall.free_nilpotent`, and does not affect equality.
    """

    __slots__ = ("name", "basis", "structure", "degrees", "_index")

    def __init__(
        self,
        name: str,
        basis: tuple[str, ...],
        structure: dict,
        degrees: tuple[int, ...] | None = None,
    ):
        self.name = name
        self.basis = basis
        # an integral constant is kept as an int, whose numerator and
        # denominator the bracket reads without Fraction's property calls
        self.structure = {
            pair: tuple((k, c.numerator if c.denominator == 1 else c) for k, c in entries)
            for pair, entries in structure.items()
        }
        self.degrees = degrees
        self._index = {b: i for i, b in enumerate(basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AlgebraError(f"{name!r} is not a basis element of {self.name}") from None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, LieAlgebraSpec):
            return NotImplemented
        return (
            self.name == other.name
            and self.basis == other.basis
            and self.structure == other.structure
        )

    def __repr__(self):
        return f"LieAlgebraSpec({self.name!r}, dim={self.dim})"

    @classmethod
    def from_json(cls, doc: Mapping) -> "LieAlgebraSpec":
        try:
            name = _name(doc["name"])
            basis = [_name(b) for b in json_list(doc["basis"])]
            brackets: dict = {}
            for entry in json_list(doc.get("brackets", [])):
                pair = (_name(entry["left"]), _name(entry["right"]))
                if pair in brackets:
                    raise AlgebraError(f"bracket [{pair[0]}, {pair[1]}] is given twice")
                brackets[pair] = [
                    (_name(b), rational_from_str(c))
                    for b, c in map(json_list, json_list(entry["value"]))
                ]
        except (KeyError, TypeError, ValueError) as exc:
            raise AlgebraError(f"malformed algebra spec: {exc}") from exc
        return make_algebra(name, basis, brackets)


def make_algebra(
    name: str,
    basis: Iterable[str],
    brackets: Mapping[tuple[str, str], Iterable[tuple[str, object]]],
) -> LieAlgebraSpec:
    """Build a spec from named brackets, normalizing order and signs.  Each
    unordered pair of basis elements is bracketed at most once."""
    basis = tuple(_name(b) for b in basis)
    if len(basis) > MAX_DIMENSION:
        raise AlgebraError(f"algebra dimension {len(basis)} exceeds {MAX_DIMENSION}")
    if len(set(basis)) != len(basis):
        raise AlgebraError(f"duplicate basis names in {basis}")
    index = {b: i for i, b in enumerate(basis)}
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for key, entries in brackets.items():
        try:
            (left, right), entries = key, [(b, c) for b, c in entries]
        except (TypeError, ValueError) as exc:
            raise AlgebraError(
                f"bracket {key!r} must map a (left, right) pair to (name, rational) "
                f"pairs: {exc}"
            ) from exc
        if left not in index or right not in index:
            raise AlgebraError(f"bracket ({left}, {right}) names unknown basis elements")
        i, j = index[left], index[right]
        sign = 1
        if i == j:
            for _, c in entries:
                if rational_from_str(c, AlgebraError):
                    raise AlgebraError(f"[{left}, {left}] must be zero")
            continue
        if i > j:
            i, j, sign = j, i, -1
        if (i, j) in table:
            raise AlgebraError(f"bracket [{left}, {right}] is given twice")
        acc = table[i, j] = {}
        for b, c in entries:
            if _name(b) not in index:
                raise AlgebraError(f"bracket value names unknown basis element {b!r}")
            c = rational_from_str(c, AlgebraError) * sign
            k = index[b]
            acc[k] = acc.get(k, Fraction(0)) + c
    structure = {
        pair: tuple(sorted((k, c) for k, c in acc.items() if c))
        for pair, acc in table.items()
    }
    structure = {pair: entries for pair, entries in structure.items() if entries}
    return LieAlgebraSpec(name, basis, structure)


def validate_algebra(spec: LieAlgebraSpec) -> dict | None:
    """The Jacobi identity [x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0 on every
    basis triple, over Q, through :func:`bracket`, as a law: None when it
    holds, else the evidence of the first failing triple, ``{"failing_triple":
    [a, b, c], "defect": {basis name: rational string}}``.

    Antisymmetry holds by construction (only i < j brackets are stored), so
    triples i < j < k suffice.
    """
    named = [(b, basis_element(spec, PLAIN_RING, b)) for b in spec.basis]
    for (a, x), (b, y), (c, z) in combinations(named, 3):
        jac = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
               + bracket(z, bracket(x, y)))
        if not jac.is_zero():
            defect = {}
            for n, s in zip(spec.basis, jac.coords):
                if s.terms:
                    defect[n] = str(s.constant_term())
            return {"failing_triple": [a, b, c], "defect": defect}
    return None


class LieElement:
    """Element of an algebra with one WeilScalar coordinate per basis element."""

    __slots__ = ("algebra", "signature", "coords")

    def __init__(
        self, algebra: LieAlgebraSpec, signature: RingSignature, coords: tuple
    ):
        self.algebra = algebra
        self.signature = signature
        self.coords = coords

    def is_zero(self) -> bool:
        return all(not c.terms for c in self.coords)

    def _check_compatible(self, other: "LieElement"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraError(
                f"elements of {self.algebra.name} and {other.algebra.name} cannot mix"
            )
        if self.signature != other.signature:
            raise SignatureMismatch(
                f"elements over {self.signature.generators} and "
                f"{other.signature.generators} cannot mix"
            )

    def add_scaled(self, other, rational) -> "LieElement":
        """self + rational * other, the one body of ``+`` (rational 1) and
        ``-`` (rational -1): each coordinate is one merge with the rational
        as its weight, rather than a sum after a separate rescale."""
        if not isinstance(other, LieElement):
            raise TypeError(f"cannot add a scaled {type(other).__name__} to a LieElement")
        if rational.__class__ is int:
            p, q = rational, 1
        else:
            rational = rational_from_str(rational)
            p, q = rational.numerator, rational.denominator
        if other.algebra is not self.algebra or other.signature is not self.signature:
            self._check_compatible(other)
        return LieElement(self.algebra, self.signature, tuple(
            _signed_sum(x, y, p, q) for x, y in zip(self.coords, other.coords)
        ))

    def __add__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        return self.add_scaled(other, 1)

    def __sub__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        return self.add_scaled(other, -1)

    def __neg__(self):
        return LieElement(self.algebra, self.signature, tuple(-a for a in self.coords))

    def __mul__(self, scalar):
        """Every coordinate times one scalar of the element's ring, never a number."""
        if not isinstance(scalar, WeilScalar):
            return NotImplemented
        return LieElement(
            self.algebra, self.signature, tuple(c * scalar for c in self.coords)
        )

    def __eq__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        return (
            (self.algebra is other.algebra or self.algebra == other.algebra)
            and self.signature == other.signature
            and self.coords == other.coords
        )

    def __str__(self):
        parts = [
            f"({c})*{b}"
            for b, c in zip(self.algebra.basis, self.coords)
            if c.terms
        ]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"LieElement[{self.algebra.name}]({self!s})"

    def to_json(self) -> dict:
        coords = {
            b: c.to_json()
            for b, c in zip(self.algebra.basis, self.coords)
            if c.terms
        }
        return {
            "algebra": self.algebra.name,
            "ring": self.signature.to_json(),
            "coords": coords,
        }

    @classmethod
    def from_json(cls, doc: Mapping, algebra: LieAlgebraSpec) -> "LieElement":
        if not isinstance(doc, Mapping) or not isinstance(doc.get("coords", {}), Mapping):
            raise AlgebraError(
                "an element must be an object whose 'coords' map basis names to scalars"
            )
        name = doc.get("algebra")
        if name != algebra.name:
            from .catalog import resolve_algebra  # the catalog imports this module
            try:  # another spelling of the name, as a jet's own name is read
                same = isinstance(name, str) and resolve_algebra(name) == algebra
            except ValueError:  # no catalog name, or parameters out of its bounds
                same = False
            if not same:
                raise AlgebraError(f"element belongs to {name!r}, expected {algebra.name!r}")
        if "ring" not in doc:
            raise AlgebraError("an element needs its 'ring'")
        sig = RingSignature.from_json(doc["ring"])
        coords = [sig.zero] * algebra.dim
        for name, scalar_doc in doc.get("coords", {}).items():
            s = WeilScalar.from_json(scalar_doc)
            if s.signature != sig:
                raise SignatureMismatch(
                    f"coordinate {name!r} uses ring {s.signature.generators}, "
                    f"element declares {sig.generators}"
                )
            coords[algebra.index(name)] = s
        return cls(algebra, sig, tuple(coords))


def zero_element(algebra: LieAlgebraSpec, ring: RingSignature) -> LieElement:
    return LieElement(algebra, ring, (ring.zero,) * algebra.dim)


def basis_element(algebra: LieAlgebraSpec, ring: RingSignature, name: str) -> LieElement:
    coords = [ring.zero] * algebra.dim
    coords[algebra.index(name)] = ring.one
    return LieElement(algebra, ring, tuple(coords))


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Lie bracket [x, y], bilinear over the scalar ring.  Each structure
    pair (i, j) forms t = x_i y_j - x_j y_i once, and each of its constants,
    c in [b_i, b_j] = ... + c b_k + ..., is the weight of the one merge that
    adds c t to coordinate k."""
    x._check_compatible(y)
    spec = x.algebra
    acc = [WeilScalar(x.signature, {})] * spec.dim
    xc, yc = x.coords, y.coords
    for (i, j), entries in spec.structure.items():
        # a product with a zero factor is not formed
        xi, yj, xj, yi = xc[i], yc[j], xc[j], yc[i]
        if xi.terms and yj.terms:
            t = xi * yj - xj * yi if xj.terms and yi.terms else xi * yj
        elif xj.terms and yi.terms:
            t = -(xj * yi)
        else:
            continue
        if not t.terms:
            continue
        for k, c in entries:
            acc[k] = _signed_sum(acc[k], t, c.numerator, c.denominator)
    return LieElement(spec, x.signature, tuple(acc))


# -- built-in algebra catalog -------------------------------------------------


def heisenberg3() -> LieAlgebraSpec:
    """Heisenberg algebra: basis p, q, z with [p, q] = z and z central."""
    return make_algebra("h3", ("p", "q", "z"), {("p", "q"): [("z", 1)]})


def sl2() -> LieAlgebraSpec:
    """sl(2): basis e, f, h with [h, e] = 2e, [h, f] = -2f, [e, f] = h."""
    return make_algebra(
        "sl2",
        ("e", "f", "h"),
        {
            ("e", "f"): [("h", 1)],
            ("h", "e"): [("e", 2)],
            ("h", "f"): [("f", -2)],
        },
    )


def so3() -> LieAlgebraSpec:
    """so(3): rotation generators with [L1, L2] = L3 cyclically."""
    return make_algebra(
        "so3",
        ("L1", "L2", "L3"),
        {
            ("L1", "L2"): [("L3", 1)],
            ("L2", "L3"): [("L1", 1)],
            ("L3", "L1"): [("L2", 1)],
        },
    )


def abelian(n: int) -> LieAlgebraSpec:
    """Abelian algebra of dimension n (all brackets vanish)."""
    if n.__class__ is not int or not 1 <= n <= MAX_DIMENSION:
        raise AlgebraError(
            f"abelian algebra needs an int dimension 1..{MAX_DIMENSION}, got {n!r}"
        )
    return make_algebra(f"abelian({n})", tuple(f"a{i + 1}" for i in range(n)), {})
