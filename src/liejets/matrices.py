"""Independent matrix oracle: exact exp/log over nilpotent scalar extensions.

A matrix whose entries all have zero constant term is nilpotent for scalar
reasons: each power raises the minimum total degree in the ring generators,
and the ring kills every monomial beyond the sum of the nilpotency orders.
Its exponential is therefore a finite sum, computed exactly, and the group
identities for the jet product become literal matrix identities that can be
checked entry by entry over the truncated ring.

A :class:`MatrixRep` sends basis elements of an algebra to rational matrices
and is validated at load time: the image of every basis bracket must equal
the commutator of the images.  Built-in representations ship for h3 (strictly
upper triangular 3x3), sl2 (2x2), and so3 (3x3).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .algebras import LieAlgebraSpec, LieElement, basis_element, bracket
from .jets import Jet, JetError, lift_curves, read_curve
from .scalars import RingSignature, WeilRing, WeilScalar, rational_from_str, ring_make

__all__ = [
    "MatrixError",
    "WeilMatrix",
    "weil_exp",
    "weil_log",
    "MatrixRep",
    "matrix_rep",
    "builtin_rep",
    "BUILTIN_REP_NAMES",
    "log_of_exp_product",
    "matrix_mul",
    "exp_weights",
    "theorem_4_sides",
]


class MatrixError(ValueError):
    """Raised for invalid matrices, failed preconditions, or bad reps."""


class WeilMatrix:
    """Square matrix with WeilScalar entries, all over one ring."""

    __slots__ = ("signature", "size", "rows")

    def __init__(self, signature: RingSignature, rows: tuple):
        self.signature = signature
        self.rows = rows
        self.size = len(rows)

    @classmethod
    def identity(cls, ring: WeilRing, n: int) -> "WeilMatrix":
        return cls(
            ring.signature,
            tuple(
                tuple(ring.one if i == j else ring.zero for j in range(n))
                for i in range(n)
            ),
        )

    @classmethod
    def zero(cls, ring: WeilRing, n: int) -> "WeilMatrix":
        return cls(ring.signature, tuple((ring.zero,) * n for _ in range(n)))

    @classmethod
    def from_rational(cls, ring: WeilRing, rows) -> "WeilMatrix":
        return cls(
            ring.signature,
            tuple(tuple(ring.rational(e) for e in row) for row in rows),
        )

    def is_zero(self) -> bool:
        return all(not e.terms for row in self.rows for e in row)

    def is_scalar_nilpotent(self) -> bool:
        """True when every entry has zero constant term."""
        return all(not e.constant_term() for row in self.rows for e in row)

    def __add__(self, other):
        if not isinstance(other, WeilMatrix):
            return NotImplemented
        return WeilMatrix(
            self.signature,
            tuple(
                tuple(x + y for x, y in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other):
        if not isinstance(other, WeilMatrix):
            return NotImplemented
        return WeilMatrix(
            self.signature,
            tuple(
                tuple(x - y for x, y in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __neg__(self):
        return WeilMatrix(
            self.signature, tuple(tuple(-x for x in row) for row in self.rows)
        )

    def __mul__(self, other):
        if isinstance(other, WeilMatrix):
            n = self.size
            rows = []
            for i in range(n):
                row = []
                for j in range(n):
                    acc = None
                    for k in range(n):
                        t = self.rows[i][k] * other.rows[k][j]
                        if t.terms:
                            acc = t if acc is None else acc + t
                    row.append(acc if acc is not None else WeilScalar(self.signature, {}))
                rows.append(tuple(row))
            return WeilMatrix(self.signature, tuple(rows))
        if isinstance(other, (WeilScalar, int, Fraction)):
            return WeilMatrix(
                self.signature,
                tuple(tuple(x * other for x in row) for row in self.rows),
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (WeilScalar, int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def scale(self, rational) -> "WeilMatrix":
        q = Fraction(rational)
        return WeilMatrix(
            self.signature, tuple(tuple(x.scale(q) for x in row) for row in self.rows)
        )

    def __eq__(self, other):
        if not isinstance(other, WeilMatrix):
            return NotImplemented
        return self.signature == other.signature and self.rows == other.rows

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"WeilMatrix[{self.size}]({body})"


def _degree_cap(sig: RingSignature) -> int:
    return sum(sig.orders)


def weil_exp(M: WeilMatrix) -> WeilMatrix:
    """I + M + M^2/2! + ...; finite because M is scalar-nilpotent."""
    if not M.is_scalar_nilpotent():
        raise MatrixError("weil_exp needs every entry to have zero constant term")
    ring = WeilRing(M.signature)
    acc = WeilMatrix.identity(ring, M.size)
    term = acc
    cap = _degree_cap(M.signature)
    for k in range(1, cap + 2):
        term = (term * M).scale(Fraction(1, k))
        if term.is_zero():
            return acc
        acc = acc + term
    raise AssertionError("exponential series failed to terminate")


def weil_log(M: WeilMatrix) -> WeilMatrix:
    """(M-I) - (M-I)^2/2 + (M-I)^3/3 - ...; finite for unipotent M."""
    ring = WeilRing(M.signature)
    N = M - WeilMatrix.identity(ring, M.size)
    if not N.is_scalar_nilpotent():
        raise MatrixError("weil_log needs M - I to have entries with zero constant term")
    acc = WeilMatrix.zero(ring, M.size)
    power = WeilMatrix.identity(ring, M.size)
    cap = _degree_cap(M.signature)
    for k in range(1, cap + 2):
        power = power * N
        if power.is_zero():
            return acc
        acc = acc + power.scale(Fraction((-1) ** (k + 1), k))
    raise AssertionError("logarithm series failed to terminate")


# -- representations -----------------------------------------------------------


@dataclass
class MatrixRep:
    """Rational matrix images of an algebra's basis, bracket-compatible."""

    algebra: LieAlgebraSpec
    dimension: int
    images: dict

    def realize(self, x: LieElement) -> WeilMatrix:
        """WeilMatrix image of an element with WeilScalar coordinates."""
        ring = WeilRing(x.signature)
        n = self.dimension
        cells = [[ring.zero] * n for _ in range(n)]
        for name, s in zip(self.algebra.basis, x.coords):
            if not s.terms:
                continue
            img = self.images[name]
            for r in range(n):
                for c in range(n):
                    e = img[r][c]
                    if e:
                        cells[r][c] = cells[r][c] + s.scale(e)
        return WeilMatrix(ring.signature, tuple(tuple(row) for row in cells))

    def extract(self, M: WeilMatrix) -> LieElement:
        """Solve sum_k x_k * image(b_k) = M for the coordinates x_k.

        Gaussian elimination on the rational image span, applied to the
        WeilScalar right-hand sides.  Raises if M lies outside the span.
        """
        dim = self.algebra.dim
        n = self.dimension
        rows = []
        for r in range(n):
            for c in range(n):
                coeffs = [self.images[b][r][c] for b in self.algebra.basis]
                rows.append((coeffs, M.rows[r][c]))
        solution: list = [None] * dim
        row_at = 0
        for col in range(dim):
            pivot = next(
                (i for i in range(row_at, len(rows)) if rows[i][0][col]), None
            )
            if pivot is None:
                raise MatrixError(
                    "basis images are linearly dependent; coordinates undetermined"
                )
            rows[row_at], rows[pivot] = rows[pivot], rows[row_at]
            coeffs, rhs = rows[row_at]
            inv = Fraction(1) / coeffs[col]
            coeffs = [e * inv for e in coeffs]
            rhs = rhs.scale(inv)
            rows[row_at] = (coeffs, rhs)
            for i in range(len(rows)):
                if i == row_at:
                    continue
                ci, ri = rows[i]
                f = ci[col]
                if f:
                    ci = [e - f * p for e, p in zip(ci, coeffs)]
                    ri = ri - rhs.scale(f)
                    rows[i] = (ci, ri)
            row_at += 1
        for i, (coeffs, rhs) in enumerate(rows):
            if i < dim:
                solution[coeffs.index(1)] = rhs
            elif rhs.terms:
                raise MatrixError("matrix does not lie in the image span")
        return LieElement(self.algebra, M.signature, tuple(solution))

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra.name,
            "dimension": self.dimension,
            "images": {
                b: [[str(e) for e in row] for row in self.images[b]]
                for b in self.algebra.basis
            },
        }

    @classmethod
    def from_json(cls, doc, algebra: LieAlgebraSpec) -> "MatrixRep":
        if doc.get("algebra") != algebra.name:
            raise MatrixError(
                f"representation is for {doc.get('algebra')!r}, expected {algebra.name!r}"
            )
        images = {
            name: [[rational_from_str(e) for e in row] for row in rows]
            for name, rows in doc["images"].items()
        }
        return matrix_rep(algebra, images, int(doc["dimension"]))


def matrix_rep(
    algebra: LieAlgebraSpec, images: dict, dimension: int | None = None
) -> MatrixRep:
    """Validated constructor: checks shapes and bracket compatibility."""
    missing = set(algebra.basis) - set(images)
    if missing:
        raise MatrixError(f"missing images for basis elements {sorted(missing)}")
    mats = {
        name: tuple(tuple(Fraction(e) for e in row) for row in images[name])
        for name in algebra.basis
    }
    sizes = {len(m) for m in mats.values()} | {
        len(row) for m in mats.values() for row in m
    }
    if len(sizes) != 1:
        raise MatrixError(f"images must all be square of one size, got sizes {sizes}")
    n = sizes.pop()
    if dimension is not None and dimension != n:
        raise MatrixError(f"declared dimension {dimension} but images are {n}x{n}")
    rep = MatrixRep(algebra=algebra, dimension=n, images=mats)
    q = ring_make(())
    for i, bi in enumerate(algebra.basis):
        for bj in algebra.basis[i + 1:]:
            x, y = basis_element(algebra, q, bi), basis_element(algebra, q, bj)
            X, Y = rep.realize(x), rep.realize(y)
            if X * Y - Y * X != rep.realize(bracket(x, y)):
                raise MatrixError(f"images violate bracket compatibility on ({bi}, {bj})")
    return rep


#: Names with a built-in representation.
BUILTIN_REP_NAMES = ("h3", "sl2", "so3")


def builtin_rep(name: str) -> MatrixRep:
    """Built-in faithful representations for h3, sl2, and so3."""
    from .algebras import heisenberg3, sl2, so3

    if name == "h3":
        return matrix_rep(
            heisenberg3(),
            {
                "p": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                "q": [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
                "z": [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
            },
        )
    if name == "sl2":
        return matrix_rep(
            sl2(),
            {
                "e": [[0, 1], [0, 0]],
                "f": [[0, 0], [1, 0]],
                "h": [[1, 0], [0, -1]],
            },
        )
    if name == "so3":
        return matrix_rep(
            so3(),
            {
                "L1": [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
                "L2": [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                "L3": [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
            },
        )
    raise MatrixError(f"no built-in representation for {name!r}")


# -- jet multiplication through the matrix group -------------------------------


def log_of_exp_product(rep: MatrixRep, x: LieElement, y: LieElement) -> WeilMatrix:
    """weil_log(weil_exp(image x) * weil_exp(image y)) for elements whose
    coordinates have zero constant term."""
    return weil_log(weil_exp(rep.realize(x)) * weil_exp(rep.realize(y)))


def matrix_mul(a: Jet, b: Jet, rep: MatrixRep) -> Jet:
    """Multiply jets by exp/log in the matrix group, reading coordinates back.

    Computes the log of the product of the exponentials of both jets' curves
    over the ring extended by a nilpotency-order-n generator d, solves it
    against the basis images, and reads the jet off the powers of d.
    """
    if a.algebra != rep.algebra:
        raise JetError(f"representation is for {rep.algebra.name}, jet is over "
                       f"{a.algebra.name}")
    x, y = lift_curves(a, b)
    return read_curve(rep.extract(log_of_exp_product(rep, x, y)), a)


# -- Theorem 4: exp-product identities ------------------------------------------


def exp_weights(n: int) -> tuple[WeilScalar, ...]:
    """s^i/i! for i = 1..n over Q[d_1..d_n]/(d_i^2), with s = d_1 + ... + d_n."""
    if n not in (1, 2, 3):
        raise MatrixError(f"order must be 1, 2, or 3, got {n}")
    ring = ring_make(tuple((f"d{i}", 1) for i in range(1, n + 1)))
    s = sum((ring.gen(f"d{i}") for i in range(1, n + 1)), ring.zero)
    return tuple((s**i).scale(Fraction(1, factorial(i))) for i in range(1, n + 1))


def theorem_4_sides(xs, ys, weights) -> tuple[WeilMatrix, WeilMatrix]:
    """Both sides of exp(sum w_i X_i) * exp(sum w_i Y_i) == exp(sum w_i Z_i).

    ``xs`` and ``ys`` are constant matrices X_1..X_n and Y_1..Y_n over the
    ring of ``weights``, the :func:`exp_weights` of n, and Z_i are the
    closed-form product coefficients, built here from matrix commutators only.
    """
    n = len(weights)

    def side(mats) -> WeilMatrix:
        acc = mats[0] * weights[0]
        for m, w in zip(mats[1:], weights[1:]):
            acc = acc + m * w
        return weil_exp(acc)

    def comm(p, q):
        return p * q - q * p

    zs = [xs[0] + ys[0]]
    if n >= 2:
        zs.append(xs[1] + ys[1] + comm(xs[0], ys[0]))
    if n == 3:
        cross = comm(xs[0], ys[1]) + comm(xs[1], ys[0])
        nested = comm(xs[0] - ys[0], comm(xs[0], ys[0]))
        zs.append(xs[2] + ys[2] + (cross * 3 + nested).scale(Fraction(1, 2)))
    return side(xs) * side(ys), side(zs)
