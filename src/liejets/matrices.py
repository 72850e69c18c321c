"""Independent matrix oracle: exact exp/log over nilpotent scalar extensions.

A matrix whose entries all have zero constant term is nilpotent for scalar
reasons: each power raises the minimum total degree in the ring generators,
and the ring kills every monomial beyond the sum of the nilpotency orders.
Its exponential is therefore a finite sum, computed exactly, and the group
identities for the jet product become literal matrix identities over the
truncated ring.

A matrix over the truncated ring is stored as a polynomial with matrix
coefficients: a table mapping each monomial to a flat row-major tuple of
integer numerators, over one positive denominator shared by the whole
matrix.  The form is canonical, in the same way as a ``WeilScalar``: no
all-zero coefficient matrix is stored, and the denominator is coprime to the
gcd of every numerator (1 for the zero matrix), so equality is literal
comparison.  A product loops over pairs of monomials, multiplying each pair
once and adding one small integer matrix product per pair, then reduces the
whole result with a single gcd.  ``+``, ``-`` and :meth:`WeilMatrix.add_scaled`
share one merge, self + (p/q) other.  Every other matrix is built by
:func:`_linear_combination`, a sum of scalars times integer matrices, and
:func:`weil_exp` and :func:`weil_log` sum one series, :func:`_nilpotent_series`.

A :class:`MatrixRep` sends basis elements of an algebra to rational matrices
and is validated at load time: the images must be linearly independent, so
that coordinates can be read back, and the image of every basis bracket must
equal the commutator of the images.  Built-in representations ship for h3
(strictly upper triangular 3x3), sl2 (2x2), and so3 (3x3), in one table of
images by catalog name.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from operator import add, mul

from .algebras import LieAlgebraSpec, LieElement, basis_element, bracket
from .catalog import resolve_algebra
from .jets import Jet, JetError, lift_curves, read_curve
from .scalars import (
    PLAIN_RING,
    RingSignature,
    SignatureMismatch,
    WeilScalar,
    _reduced,
    rational_from_str,
    ring_make,
)

__all__ = [
    "MatrixError",
    "WeilMatrix",
    "weil_exp",
    "weil_log",
    "MatrixRep",
    "matrix_rep",
    "builtin_rep",
    "BUILTIN_REP_NAMES",
    "matrix_mul",
    "exp_weights",
]


class MatrixError(ValueError):
    """Raised for invalid matrices, failed preconditions, or bad reps."""


def _integer_cells(values) -> tuple[tuple[int, ...], int]:
    """Rationals as integer numerators over their least common denominator."""
    values = [rational_from_str(v, MatrixError) for v in values]
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _side(rows) -> int:
    """The side n of a square grid: a list or tuple of n rows, each a list or
    tuple of n entries."""
    if not isinstance(rows, (list, tuple)) or any(
        not isinstance(row, (list, tuple)) or len(row) != len(rows) for row in rows
    ):
        raise MatrixError("the rows of a matrix must form a square grid")
    return len(rows)


def _matrix(signature: RingSignature, size: int, coeffs: dict, den: int) -> "WeilMatrix":
    """Matrix from nonzero coefficient tuples over ``den`` > 0, with their
    common factor divided out (so the zero matrix gets denominator 1)."""
    if not coeffs:
        den = 1
    elif den != 1:
        g = den
        for cell in coeffs.values():
            g = gcd(g, *cell)
            if g == 1:
                break
        else:
            den //= g
            coeffs = {k: tuple(c // g for c in cell) for k, cell in coeffs.items()}
    m = object.__new__(WeilMatrix)
    m.signature = signature
    m.size = size
    m.coeffs = coeffs
    m.den = den
    return m


def _linear_combination(signature: RingSignature, size: int, parts) -> "WeilMatrix":
    """The sum of s * cells / d over ``parts``, each a (WeilScalar s, flat
    row-major integer cells, positive denominator d) triple: every product
    brought to the lcm of the s.den * d, then reduced once."""
    parts = [p for p in parts if p[0].terms]
    den = lcm(*(s.den * d for s, _, d in parts))
    cells: dict = {}
    for s, image, d in parts:
        f = den // (s.den * d)
        for k, c in s.terms.items():
            c *= f
            term = [c * e for e in image]
            acc = cells.get(k)
            cells[k] = term if acc is None else list(map(add, acc, term))
    coeffs = {k: tuple(cell) for k, cell in cells.items() if any(cell)}
    return _matrix(signature, size, coeffs, den)


class WeilMatrix:
    """Square matrix over one truncated ring, in canonical polynomial form.

    ``coeffs`` maps monomials to flat row-major tuples of ``size * size``
    integer numerators, none of them all zero, and ``den`` is their shared
    positive denominator, coprime to the gcd of every numerator and 1 for
    zero.  The constructor converts a grid of ``WeilScalar`` rows; ``rows``
    reads one back.
    """

    __slots__ = ("signature", "size", "coeffs", "den")

    def __init__(self, signature: RingSignature, rows):
        n = _side(rows)
        self.signature = signature
        for row in rows:
            for e in row:
                self._check_ring(e.signature)
        units = [tuple(int(c == i) for c in range(n * n)) for i in range(n * n)]
        m = _linear_combination(signature, n, [
            (e, units[i * n + j], 1) for i, row in enumerate(rows) for j, e in enumerate(row)
        ])
        self.size, self.coeffs, self.den = n, m.coeffs, m.den

    @classmethod
    def identity(cls, ring: RingSignature, n: int) -> "WeilMatrix":
        unit = tuple(int(i == j) for i in range(n) for j in range(n))
        return _matrix(ring, n, {0: unit} if n else {}, 1)

    @property
    def rows(self) -> tuple:
        """The entries as a grid of ``WeilScalar`` values."""
        n, sig, den = self.size, self.signature, self.den
        return tuple(
            tuple(
                _reduced(sig, {k: c for k, cell in self.coeffs.items()
                               if (c := cell[i * n + j])}, den)
                for j in range(n)
            )
            for i in range(n)
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_scalar_nilpotent(self) -> bool:
        """True when every entry has zero constant term."""
        return 0 not in self.coeffs

    def _check_ring(self, signature: RingSignature) -> None:
        if signature is not self.signature and signature != self.signature:
            raise SignatureMismatch(
                f"cannot mix rings {self.signature.generators} and {signature.generators}"
            )

    def _check(self, other: "WeilMatrix") -> None:
        self._check_ring(other.signature)
        if other.size != self.size:
            raise MatrixError(f"cannot combine {self.size}x{self.size} and "
                              f"{other.size}x{other.size} matrices")

    def _combine(self, other: "WeilMatrix", p: int, q: int) -> "WeilMatrix":
        """self + (p/q) * other for integers p and q > 0: the one merge behind
        ``+`` (p/q = 1), ``-`` (p/q = -1) and :meth:`add_scaled`, as
        :func:`~liejets.scalars._signed_sum` is for scalars.  other's cells,
        scaled by p and brought with self's to the lcm of ``self.den`` and
        ``q * other.den``, are merged into a copy of self's, and one
        reduction makes the result canonical."""
        self._check(other)
        if not p:
            return self
        da, db = self.den, other.den * q
        if da == db:
            den, fb = da, p
            out = dict(self.coeffs)
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g * p
            den = da * fa
            out = {k: tuple(c * fa for c in cell) for k, cell in self.coeffs.items()}
        for k, cell in other.coeffs.items():
            if fb != 1:
                cell = tuple(c * fb for c in cell)
            acc = out.get(k)
            if acc is None:
                out[k] = cell
            else:
                acc = tuple(map(add, acc, cell))
                if any(acc):
                    out[k] = acc
                else:
                    del out[k]
        return _matrix(self.signature, self.size, out, den)

    def __add__(self, other):
        if not isinstance(other, WeilMatrix):
            return NotImplemented
        return self._combine(other, 1, 1)

    def __sub__(self, other):
        if not isinstance(other, WeilMatrix):
            return NotImplemented
        return self._combine(other, -1, 1)

    def add_scaled(self, other: "WeilMatrix", rational) -> "WeilMatrix":
        """self + rational * other, the rational read by
        :func:`~liejets.scalars.rational_from_str` (never a float or a bool)
        and folded into the one merge rather than applied by a rescale."""
        if not isinstance(other, WeilMatrix):
            raise TypeError(f"cannot add a scaled {type(other).__name__} to a WeilMatrix")
        rational = rational_from_str(rational)
        return self._combine(other, rational.numerator, rational.denominator)

    def __mul__(self, other):
        if not isinstance(other, WeilMatrix):
            return NotImplemented
        self._check(other)
        n = self.size
        size = n * n
        # Only nonzero entries take part: the right factor's rows as lists of
        # (column, value), once per product, and the left factor's entries as
        # (row offset, column, value), once per monomial.
        rights = [
            (k, [[(j, v) for j in range(n) if (v := cell[r + j])]
                 for r in range(0, size, n)])
            for k, cell in other.coeffs.items()
        ]
        bias, guard = self.signature.bias, self.signature.guard
        out: dict = {}
        for k1, x in self.coeffs.items():
            entries = [(i - i % n, i % n, v) for i, v in enumerate(x) if v]
            for k2, rows in rights:
                k = k1 + k2
                if (k + bias) & guard:
                    continue
                acc = out.get(k)
                if acc is None:
                    acc = out[k] = [0] * size
                for r, c, v in entries:
                    for j, w in rows[c]:
                        acc[r + j] += v * w
        coeffs = {k: tuple(cell) for k, cell in out.items() if any(cell)}
        return _matrix(self.signature, n, coeffs, self.den * other.den)

    def __eq__(self, other):
        if not isinstance(other, WeilMatrix):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.size == other.size
            and self.den == other.den
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"WeilMatrix[{self.size}]({body})"


def _nilpotent_series(N: WeilMatrix, coefficient) -> WeilMatrix:
    """N + coefficient(2) N^2 + coefficient(3) N^3 + ... for scalar-nilpotent N,
    whose series start with coefficient 1.  Each power is one product with N,
    and a nonzero power joins the sum in one merge weighted by its
    coefficient."""
    acc = power = N
    # N^(cap + 1) = 0, so the series ends by k = max(2, cap + 1)
    cap = sum(N.signature.orders)
    for k in range(2, cap + 3):
        power = power * N
        if power.is_zero():
            return acc
        acc = acc.add_scaled(power, coefficient(k))
    raise MatrixError("nilpotent power series failed to terminate")


def weil_exp(M: WeilMatrix) -> WeilMatrix:
    """I + M + M^2/2! + ...; finite because M is scalar-nilpotent."""
    if not M.is_scalar_nilpotent():
        raise MatrixError("weil_exp needs every entry to have zero constant term")
    series = _nilpotent_series(M, lambda k: Fraction(1, factorial(k)))
    return WeilMatrix.identity(M.signature, M.size) + series


def weil_log(M: WeilMatrix) -> WeilMatrix:
    """(M-I) - (M-I)^2/2 + (M-I)^3/3 - ...; finite for unipotent M."""
    N = M - WeilMatrix.identity(M.signature, M.size)
    if not N.is_scalar_nilpotent():
        raise MatrixError("weil_log needs M - I to have entries with zero constant term")
    return _nilpotent_series(N, lambda k: Fraction((-1) ** (k + 1), k))


# -- representations -----------------------------------------------------------


class MatrixRep:
    """Rational matrix images of an algebra's basis, bracket-compatible; the
    dimension is the images' common size.

    The images must not change after construction: their integer forms and
    the solver for coordinates are derived from them then, and the solver
    refuses linearly dependent images.
    """

    def __init__(self, algebra: LieAlgebraSpec, images: dict):
        self.algebra = algebra
        self.dimension = len(images[algebra.basis[0]])
        self.images = images
        # each image as (flat row-major integer numerators, denominator)
        self._numerators = {
            name: _integer_cells(e for row in rows for e in row)
            for name, rows in images.items()
        }
        self._solver = self._solve()

    def __repr__(self):
        return f"MatrixRep(algebra={self.algebra!r}, images={self.images!r})"

    def _solve(self) -> tuple[list, list]:
        """Integer forms of the rational maps that recover coordinates.

        Gauss-Jordan elimination of [A | I], where the columns of A are the
        flattened images, leaves a row (e_k | L_k) for each basis element, so
        that x_k = L_k v for every v = A x in the span, and rows (0 | R) with
        R v = 0 exactly on the span.  Returns the L_k as (numerators,
        denominator) pairs and the R as numerators.
        """
        basis = self.algebra.basis
        n, dim = self.dimension, len(basis)
        size = n * n
        rows = [
            [Fraction(self.images[b][e // n][e % n]) for b in basis]
            + [Fraction(int(e == f)) for f in range(size)]
            for e in range(size)
        ]
        for col in range(dim):
            pivot = next((i for i in range(col, size) if rows[i][col]), None)
            if pivot is None:
                raise MatrixError(
                    "basis images are linearly dependent; coordinates undetermined"
                )
            rows[col], rows[pivot] = rows[pivot], rows[col]
            inv = 1 / rows[col][col]
            lead = rows[col] = [e * inv for e in rows[col]]
            for i in range(size):
                f = rows[i][col]
                if i != col and f:
                    rows[i] = [e - f * p for e, p in zip(rows[i], lead)]
        inverse = [_integer_cells(row[dim:]) for row in rows[:dim]]
        residuals = [_integer_cells(row[dim:])[0] for row in rows[dim:]]
        return inverse, residuals

    def realize(self, x: LieElement) -> WeilMatrix:
        """WeilMatrix image of an element with WeilScalar coordinates, built
        from the coordinates' integer numerators."""
        images = self._numerators
        return _linear_combination(x.signature, self.dimension, [
            (s, *images[name]) for name, s in zip(self.algebra.basis, x.coords)
        ])

    def extract(self, M: WeilMatrix) -> LieElement:
        """Solve sum_k x_k * image(b_k) = M for the coordinates x_k.

        Each monomial's coefficient matrix is solved against the rational
        image span.  Raises if M lies outside the span.
        """
        if M.size != self.dimension:
            raise MatrixError(
                f"a {M.size}x{M.size} matrix is not in a {self.dimension}-dimensional "
                "representation"
            )
        inverse, residuals = self._solver
        for cell in M.coeffs.values():
            if any(sum(map(mul, r, cell)) for r in residuals):
                raise MatrixError("matrix does not lie in the image span")
        coords = []
        for row, d in inverse:
            terms = {}
            for k, cell in M.coeffs.items():
                c = sum(map(mul, row, cell))
                if c:
                    terms[k] = c
            coords.append(_reduced(M.signature, terms, d * M.den))
        return LieElement(self.algebra, M.signature, tuple(coords))


def matrix_rep(algebra: LieAlgebraSpec, images: dict) -> MatrixRep:
    """Validated constructor: checks names, shapes, linear independence and
    bracket compatibility.  The dimension is the images' common size."""
    extra = [name for name in images if name not in algebra.basis]
    if extra:
        raise MatrixError(f"images for names outside the basis of {algebra.name}: {extra}")
    missing = set(algebra.basis) - set(images)
    if missing:
        raise MatrixError(f"missing images for basis elements {sorted(missing)}")
    sizes = {_side(images[name]) for name in algebra.basis}
    if len(sizes) != 1:
        raise MatrixError(f"images must all be square of one size, got sizes {sizes}")
    mats = {
        name: tuple(tuple(rational_from_str(e, MatrixError) for e in row)
                    for row in images[name])
        for name in algebra.basis
    }
    rep = MatrixRep(algebra=algebra, images=mats)
    for i, bi in enumerate(algebra.basis):
        for bj in algebra.basis[i + 1:]:
            x, y = (basis_element(algebra, PLAIN_RING, b) for b in (bi, bj))
            X, Y = rep.realize(x), rep.realize(y)
            if X * Y - Y * X != rep.realize(bracket(x, y)):
                raise MatrixError(f"images violate bracket compatibility on ({bi}, {bj})")
    return rep


# The images of the built-in faithful representations, by catalog name: each
# is a representation of the algebra that resolve_algebra builds for the name.
_BUILTIN_IMAGES = {
    # [p, q] = 2 E13 = z, with a 1/2 for the oracle's rational paths to carry
    "h3": {
        "p": [[0, 1, Fraction(1, 2)], [0, 0, 0], [0, 0, 0]],
        "q": [[0, 0, 0], [0, 0, 2], [0, 0, 0]],
        "z": [[0, 0, 2], [0, 0, 0], [0, 0, 0]],
    },
    "sl2": {
        "e": [[0, 1], [0, 0]],
        "f": [[0, 0], [1, 0]],
        "h": [[1, 0], [0, -1]],
    },
    "so3": {
        "L1": [[0, 0, 0], [0, 0, -1], [0, 1, 0]],
        "L2": [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
        "L3": [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
    },
}

#: Names with a built-in representation.
BUILTIN_REP_NAMES = tuple(_BUILTIN_IMAGES)


def builtin_rep(name: str) -> MatrixRep:
    """The built-in faithful representation of a name in BUILTIN_REP_NAMES,
    on the algebra :func:`~liejets.catalog.resolve_algebra` builds for it."""
    if name not in _BUILTIN_IMAGES:
        raise MatrixError(f"no built-in representation for {name!r}")
    return matrix_rep(resolve_algebra(name), _BUILTIN_IMAGES[name])


# -- jet multiplication through the matrix group -------------------------------


def matrix_mul(a: Jet, b: Jet, rep: MatrixRep) -> Jet:
    """Multiply jets by exp/log in the matrix group, reading coordinates back.

    Computes log(exp(X) exp(Y)) for the images X, Y of both jets' curves
    over the ring extended by a nilpotency-order-n generator d, solves it
    against the basis images, and reads the jet off the powers of d.
    """
    if a.algebra != rep.algebra:
        raise JetError(f"representation is for {rep.algebra.name}, jet is over "
                       f"{a.algebra.name}")
    x, y = lift_curves(a, b)
    product = weil_log(weil_exp(rep.realize(x)) * weil_exp(rep.realize(y)))
    return read_curve(rep.extract(product), a)


# -- Theorem 4: the weights of its exp-product identity ------------------------


def exp_weights(n: int) -> tuple[WeilScalar, ...]:
    """s^i/i! for i = 1..n over Q[d_1..d_n]/(d_i^2), with s = d_1 + ... + d_n."""
    if n.__class__ is not int or n not in (1, 2, 3):
        raise MatrixError(f"order must be the int 1, 2, or 3, got {n!r}")
    ring = ring_make(tuple((f"d{i}", 1) for i in range(1, n + 1)))
    s = sum((ring.gen(f"d{i}") for i in range(1, n + 1)), ring.zero)
    return tuple(s**i * ring.rational(Fraction(1, factorial(i))) for i in range(1, n + 1))
