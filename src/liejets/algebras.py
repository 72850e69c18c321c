"""Finite-dimensional Lie algebras over Q given by structure constants.

An algebra is a named basis plus a table of brackets [b_i, b_j] for i < j;
antisymmetry fills in the rest and [b_i, b_i] = 0.  Elements carry coordinate
vectors of :class:`~liejets.scalars.WeilScalar`, so the same bracket code
serves both plain rational elements and elements over nilpotent scalar
extensions.

Specs and elements are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .scalars import (
    RingSignature,
    SignatureMismatch,
    WeilRing,
    WeilScalar,
    rational_from_str,
)

__all__ = [
    "AlgebraError",
    "LieAlgebraSpec",
    "LieElement",
    "ValidationReport",
    "make_algebra",
    "bracket",
    "validate_algebra",
    "zero_element",
    "basis_element",
    "element",
    "heisenberg3",
    "sl2",
    "so3",
    "abelian",
]


class AlgebraError(ValueError):
    """Raised for malformed algebra specs or mismatched operands."""


class LieAlgebraSpec:
    """Lie algebra on a named basis with rational structure constants.

    ``structure`` maps index pairs (i, j) with i < j to tuples of
    (k, coefficient) meaning [b_i, b_j] = sum c * b_k.  Pairs that bracket to
    zero are absent.  ``degrees`` and ``generator_count`` are optional grading
    metadata (set for free nilpotent algebras) and do not affect equality.
    """

    __slots__ = ("name", "basis", "structure", "degrees", "generator_count", "_index")

    def __init__(
        self,
        name: str,
        basis: tuple[str, ...],
        structure: dict,
        degrees: tuple[int, ...] | None = None,
        generator_count: int | None = None,
    ):
        self.name = name
        self.basis = basis
        self.structure = structure
        self.degrees = degrees
        self.generator_count = generator_count
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

    # -- basis-level bracket as rational coordinate dicts -----------------

    def basis_bracket(self, i: int, j: int) -> dict[int, Fraction]:
        """[b_i, b_j] as a sparse rational coordinate dict."""
        if i == j:
            return {}
        if i < j:
            return {k: c for k, c in self.structure.get((i, j), ())}
        return {k: -c for k, c in self.structure.get((j, i), ())}

    def vector_bracket(
        self, va: Mapping[int, Fraction], vb: Mapping[int, Fraction]
    ) -> dict[int, Fraction]:
        """Bracket of two sparse rational coordinate dicts."""
        out: dict[int, Fraction] = {}
        for i, a in va.items():
            for j, b in vb.items():
                c = a * b
                if not c:
                    continue
                for k, s in self.basis_bracket(i, j).items():
                    acc = out.get(k, 0) + s * c
                    if acc:
                        out[k] = acc
                    else:
                        out.pop(k, None)
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        brackets = []
        for (i, j), entries in sorted(self.structure.items()):
            brackets.append(
                {
                    "left": self.basis[i],
                    "right": self.basis[j],
                    "value": [[self.basis[k], str(c)] for k, c in entries],
                }
            )
        return {"name": self.name, "basis": list(self.basis), "brackets": brackets}

    @classmethod
    def from_json(cls, doc: Mapping) -> "LieAlgebraSpec":
        try:
            name = doc["name"]
            basis = [str(b) for b in doc["basis"]]
            brackets = {
                (entry["left"], entry["right"]): [
                    (str(b), rational_from_str(c)) for b, c in entry["value"]
                ]
                for entry in doc.get("brackets", [])
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise AlgebraError(f"malformed algebra spec: {exc}") from exc
        return make_algebra(name, basis, brackets)


def make_algebra(
    name: str,
    basis: Iterable[str],
    brackets: Mapping[tuple[str, str], Iterable[tuple[str, object]]],
    degrees: tuple[int, ...] | None = None,
    generator_count: int | None = None,
) -> LieAlgebraSpec:
    """Build a spec from named brackets, normalizing order and signs."""
    basis = tuple(str(b) for b in basis)
    if len(set(basis)) != len(basis):
        raise AlgebraError(f"duplicate basis names in {basis}")
    index = {b: i for i, b in enumerate(basis)}
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (left, right), entries in brackets.items():
        if left not in index or right not in index:
            raise AlgebraError(f"bracket ({left}, {right}) names unknown basis elements")
        i, j = index[left], index[right]
        sign = 1
        if i == j:
            if any(Fraction(c) for _, c in entries):
                raise AlgebraError(f"[{left}, {left}] must be zero")
            continue
        if i > j:
            i, j, sign = j, i, -1
        acc = table.setdefault((i, j), {})
        for b, c in entries:
            if b not in index:
                raise AlgebraError(f"bracket value names unknown basis element {b!r}")
            c = Fraction(c) * sign
            k = index[b]
            acc[k] = acc.get(k, Fraction(0)) + c
    structure = {
        pair: tuple(sorted((k, c) for k, c in acc.items() if c))
        for pair, acc in table.items()
    }
    structure = {pair: entries for pair, entries in structure.items() if entries}
    return LieAlgebraSpec(name, basis, structure, degrees, generator_count)


@dataclass
class ValidationReport:
    """Outcome of a Jacobi-identity scan over all basis triples."""

    ok: bool
    failing_triple: tuple[str, str, str] | None = None
    defect: dict[str, Fraction] | None = None

    def to_json(self) -> dict:
        doc: dict = {"status": "pass" if self.ok else "fail"}
        if not self.ok:
            doc["failing_triple"] = list(self.failing_triple)
            doc["defect"] = {b: str(c) for b, c in self.defect.items()}
        return doc


def validate_algebra(spec: LieAlgebraSpec) -> ValidationReport:
    """Check the Jacobi identity on every basis triple.

    Antisymmetry holds by construction (only i < j brackets are stored), so
    triples i < j < k suffice.
    """
    one = Fraction(1)
    for i in range(spec.dim):
        for j in range(i + 1, spec.dim):
            for k in range(j + 1, spec.dim):
                jac: dict[int, Fraction] = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = spec.basis_bracket(b, c)
                    for m, coeff in spec.vector_bracket({a: one}, inner).items():
                        acc = jac.get(m, 0) + coeff
                        if acc:
                            jac[m] = acc
                        else:
                            jac.pop(m, None)
                if jac:
                    return ValidationReport(
                        ok=False,
                        failing_triple=(spec.basis[i], spec.basis[j], spec.basis[k]),
                        defect={spec.basis[m]: c for m, c in sorted(jac.items())},
                    )
    return ValidationReport(ok=True)


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

    def __add__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        self._check_compatible(other)
        return LieElement(
            self.algebra,
            self.signature,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
        )

    def __sub__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        self._check_compatible(other)
        return LieElement(
            self.algebra,
            self.signature,
            tuple(a - b for a, b in zip(self.coords, other.coords)),
        )

    def __neg__(self):
        return LieElement(self.algebra, self.signature, tuple(-a for a in self.coords))

    def __mul__(self, scalar):
        if isinstance(scalar, WeilScalar):
            return LieElement(
                self.algebra, self.signature, tuple(c * scalar for c in self.coords)
            )
        if isinstance(scalar, (int, Fraction)):
            q = Fraction(scalar)
            return LieElement(
                self.algebra, self.signature, tuple(c.scale(q) for c in self.coords)
            )
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, rational) -> "LieElement":
        q = Fraction(rational)
        return LieElement(
            self.algebra, self.signature, tuple(c.scale(q) for c in self.coords)
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
        if doc.get("algebra") != algebra.name:
            raise AlgebraError(
                f"element belongs to {doc.get('algebra')!r}, expected {algebra.name!r}"
            )
        sig = RingSignature.from_json(doc["ring"])
        zero = WeilScalar(sig, {})
        coords = [zero] * algebra.dim
        for name, scalar_doc in doc.get("coords", {}).items():
            s = WeilScalar.from_json(scalar_doc)
            if s.signature != sig:
                raise SignatureMismatch(
                    f"coordinate {name!r} uses ring {s.signature.generators}, "
                    f"element declares {sig.generators}"
                )
            coords[algebra.index(name)] = s
        return cls(algebra, sig, tuple(coords))


def zero_element(algebra: LieAlgebraSpec, ring: WeilRing) -> LieElement:
    return LieElement(algebra, ring.signature, (ring.zero,) * algebra.dim)


def basis_element(algebra: LieAlgebraSpec, ring: WeilRing, name: str) -> LieElement:
    coords = [ring.zero] * algebra.dim
    coords[algebra.index(name)] = ring.one
    return LieElement(algebra, ring.signature, tuple(coords))


def element(
    algebra: LieAlgebraSpec, ring: WeilRing, coords: Mapping[str, object]
) -> LieElement:
    """Element from {basis name: coefficient}; coefficients may be ints,
    Fractions, strings, or WeilScalars of the same ring."""
    vec = [ring.zero] * algebra.dim
    for name, c in coords.items():
        if isinstance(c, WeilScalar):
            if c.signature != ring.signature:
                raise SignatureMismatch(
                    f"coefficient for {name!r} lives in a different ring"
                )
            vec[algebra.index(name)] = c
        else:
            vec[algebra.index(name)] = ring.rational(rational_from_str(c))
    return LieElement(algebra, ring.signature, tuple(vec))


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Lie bracket [x, y], bilinear over the scalar ring."""
    x._check_compatible(y)
    spec = x.algebra
    zero = WeilScalar(x.signature, {})
    acc: list = [None] * spec.dim
    xc, yc = x.coords, y.coords
    for (i, j), entries in spec.structure.items():
        t = xc[i] * yc[j] - xc[j] * yc[i]
        if not t.terms:
            continue
        for k, c in entries:
            term = t.scale(c)
            prev = acc[k]
            acc[k] = term if prev is None else prev + term
    return LieElement(
        spec, x.signature, tuple(a if a is not None else zero for a in acc)
    )


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
    if n < 1:
        raise AlgebraError("abelian algebra needs dimension >= 1")
    return make_algebra(f"abelian({n})", tuple(f"a{i + 1}" for i in range(n)), {})
