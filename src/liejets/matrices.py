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
whole result with a single gcd.  Every sum of matrices is one call of
:func:`_linear_combination`, which adds monomial terms c/d * cells * t^k
over the lcm of their d and reduces once: the grid constructor and
:meth:`MatrixRep.realize` pass each entry's or coordinate's terms, ``-``
passes the terms of both operands, and :func:`weil_exp` and
:func:`weil_log` pass every power of one series, c_0 I + c_1 N + c_2 N^2 +
..., with an integer c_0 and the other coefficients as integer pairs.

A :class:`MatrixRep` sends basis elements of an algebra to rational matrices
and is validated at load time: the images must be linearly independent, so
that coordinates can be read back, and the image of every basis bracket must
equal the commutator of the images.  Coordinates are read from one pivot
cell per basis element, where the images restrict to an invertible block, and
a matrix lies in the image span exactly when the coordinates read from it
realize it again.  Built-in representations ship for h3
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


def _linear_combination(signature: RingSignature, size: int, terms) -> "WeilMatrix":
    """The sum of c/d * cells * t^k over ``terms``, each a (packed monomial
    k, integer c, positive integer d, flat row-major integer cells) tuple:
    every term brought to the lcm of the d, then reduced once."""
    # the distinct d only: a tuple of every term's d, as long as the terms,
    # raised the catalog's peak memory by 9%
    den = lcm(*{d for _, _, d, _ in terms})
    cells: dict = {}
    for k, c, d, image in terms:
        c *= den // d
        if c != 1:
            image = [c * e for e in image]
        acc = cells.get(k)
        cells[k] = image if acc is None else list(map(add, acc, image))
    coeffs = {k: tuple(cell) for k, cell in cells.items() if any(cell)}
    return _matrix(signature, size, coeffs, den)


def _terms(m: "WeilMatrix", c: int, d: int) -> list:
    """The terms of c/d * m, for :func:`_linear_combination`."""
    d *= m.den
    return [(k, c, d, cell) for k, cell in m.coeffs.items()]


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
            (k, c, e.den, units[i * n + j])
            for i, row in enumerate(rows) for j, e in enumerate(row)
            for k, c in e.terms.items()
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

    def __sub__(self, other):
        if not isinstance(other, WeilMatrix):
            return NotImplemented
        self._check(other)
        return _linear_combination(self.signature, self.size,
                                   _terms(self, 1, 1) + _terms(other, -1, 1))

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


def _power_series(N: WeilMatrix, c0: int, coefficient) -> WeilMatrix:
    """c0 I + c_1 N + c_2 N^2 + ... for scalar-nilpotent N and an integer c0,
    where ``coefficient(k)`` is c_k as an integer pair (p, q > 0).  Each power
    is one product with N, and the nonzero powers are summed in one
    :func:`_linear_combination`."""
    terms = _terms(WeilMatrix.identity(N.signature, N.size), c0, 1)
    # N^(cap + 1) = 0, so a nonzero N^(cap + 2) means N is not nilpotent
    cap = sum(N.signature.orders)
    power, k = N, 1
    while not power.is_zero():
        if k > cap + 1:
            raise MatrixError("nilpotent power series failed to terminate")
        terms += _terms(power, *coefficient(k))
        power, k = power * N, k + 1
    return _linear_combination(N.signature, N.size, terms)


def weil_exp(M: WeilMatrix) -> WeilMatrix:
    """I + M + M^2/2! + ...; finite because M is scalar-nilpotent."""
    if not M.is_scalar_nilpotent():
        raise MatrixError("weil_exp needs every entry to have zero constant term")
    return _power_series(M, 1, lambda k: (1, factorial(k)))


def weil_log(M: WeilMatrix) -> WeilMatrix:
    """(M-I) - (M-I)^2/2 + (M-I)^3/3 - ...; finite for unipotent M."""
    N = M - WeilMatrix.identity(M.signature, M.size)
    if not N.is_scalar_nilpotent():
        raise MatrixError("weil_log needs M - I to have entries with zero constant term")
    return _power_series(N, 0, lambda k: ((-1) ** (k + 1), k))


# -- representations -----------------------------------------------------------


class MatrixRep:
    """Rational matrix images of an algebra's basis, bracket-compatible; the
    dimension is the images' common size.

    The images must not change after construction: their integer forms, and
    the pivot cells that coordinates are read from, are derived from them
    then, and linearly dependent images are refused.
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
        """The pivot cells, and the rows L_k that read coordinates off them.

        Gauss-Jordan elimination of [A^T | I], whose row k is the flattened
        image of basis element k, pivots row k on its first cell that is
        nonzero once the earlier pivots are eliminated.  The I half is then
        the inverse of A^T restricted to the pivot cells P, so x_k = L_k v_P
        for every v = A x in the span, where L_k is that half's column k.
        Returns P, and the L_k as (numerators, denominator) pairs.
        """
        basis = self.algebra.basis
        dim, size = len(basis), self.dimension ** 2
        rows = [[Fraction(e) for row in self.images[b] for e in row]
                + [Fraction(int(k == j)) for j in range(dim)] for k, b in enumerate(basis)]
        pivots = []
        for k in range(dim):
            cell = next((c for c in range(size) if rows[k][c]), None)
            if cell is None:
                raise MatrixError(
                    "basis images are linearly dependent; coordinates undetermined"
                )
            inv = 1 / rows[k][cell]
            lead = rows[k] = [e * inv for e in rows[k]]
            for i in range(dim):
                f = rows[i][cell]
                if i != k and f:
                    rows[i] = [e - f * p for e, p in zip(rows[i], lead)]
            pivots.append(cell)
        return pivots, [_integer_cells(row[size + k] for row in rows) for k in range(dim)]

    def realize(self, x: LieElement) -> WeilMatrix:
        """WeilMatrix image of an element with WeilScalar coordinates, built
        from the coordinates' integer numerators: each term is over its
        coordinate's denominator times its image's."""
        terms = []
        for name, s in zip(self.algebra.basis, x.coords):
            image, d = self._numerators[name]
            d *= s.den
            terms += [(k, c, d, image) for k, c in s.terms.items()]
        return _linear_combination(x.signature, self.dimension, terms)

    def extract(self, M: WeilMatrix) -> LieElement:
        """Solve sum_k x_k * image(b_k) = M for the coordinates x_k.

        Each monomial's coefficient matrix is read at the pivot cells only.
        Raises unless the coordinates realize M again, that is, unless M lies
        in the image span.
        """
        if M.size != self.dimension:
            raise MatrixError(
                f"a {M.size}x{M.size} matrix is not in a {self.dimension}-dimensional "
                "representation"
            )
        pivots, readback = self._solver
        picked = [(k, [cell[p] for p in pivots]) for k, cell in M.coeffs.items()]
        coords = tuple(
            _reduced(M.signature,
                     {k: c for k, v in picked if (c := sum(map(mul, row, v)))},
                     d * M.den)
            for row, d in readback
        )
        x = LieElement(self.algebra, M.signature, coords)
        if self.realize(x) != M:
            raise MatrixError("matrix does not lie in the image span")
        return x


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
