"""Exact linear algebra over the rationals and Gaussian rationals.

Everything in the combinatorial and structural layers of this package runs on
exact arithmetic so that identities either hold on the nose or fail loudly.
Scalars are ``fractions.Fraction`` or :class:`QI` (a + bi with rational a, b);
both support the operations the elimination routines below rely on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Scalar = Fraction  # or QI; routines are generic over either.


class QI:
    """Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    @staticmethod
    def of(value) -> "QI":
        if isinstance(value, QI):
            return value
        return QI(value)

    def __add__(self, other):
        other = QI.of(other)
        return QI(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __sub__(self, other):
        other = QI.of(other)
        return QI(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return QI.of(other) - self

    def __mul__(self, other):
        other = QI.of(other)
        if not self.im and not other.im:
            return QI(self.re * other.re)
        return QI(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QI.of(other)
        if not other.im:
            if not other.re:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return QI(self.re / other.re, self.im / other.re)
        n = other.re * other.re + other.im * other.im
        return QI(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return QI.of(other) / self

    def conjugate(self) -> "QI":
        return QI(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.re == other and not self.im
        if isinstance(other, QI):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if not self.im:
            return f"QI({self.re})"
        return f"QI({self.re}, {self.im})"


QI_ZERO = QI(0)
QI_ONE = QI(1)


def exact_sqrt(q: Fraction) -> Fraction | None:
    """Square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0)
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def _as_rows(mat) -> list[list]:
    return [list(row) for row in mat]


def rref(mat: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = _as_rows(mat)
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        # the systems here are mostly zeros; a zero entry leaves a row as it is
        rows[r] = [x / pv if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(mat: Sequence[Sequence]) -> int:
    return len(rref(mat)[1])


def kernel_basis(mat: Sequence[Sequence], ncols: int | None = None) -> list[list]:
    """Basis of the right kernel of ``mat`` (rows = equations)."""
    rows = _as_rows(mat)
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty system")
        return [_unit(ncols, j, Fraction(1)) for j in range(ncols)]
    n = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [_zero_like(rows[0][0])] * n
        vec[fc] = _one_like(rows[0][0])
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def _zero_like(x):
    return QI_ZERO if isinstance(x, QI) else Fraction(0)


def _one_like(x):
    return QI_ONE if isinstance(x, QI) else Fraction(1)


def _unit(n, j, one):
    v = [0] * n
    v[j] = one
    return v


def solve(mat: Sequence[Sequence], rhs: Sequence) -> list | None:
    """One solution of ``mat @ x = rhs``, or None if inconsistent."""
    rows = [list(row) + [rhs[i]] for i, row in enumerate(mat)]
    n = len(mat[0])
    red, pivots = rref(rows)
    for row in red:
        if not any(row[:n]) and row[n]:
            return None
    x = [_zero_like(rows[0][0])] * n
    for r, pc in enumerate(pivots):
        if pc == n:
            return None
        x[pc] = red[r][n]
    return x


def span_contains(basis: Sequence[Sequence], vec: Sequence) -> bool:
    if not basis:
        return not any(vec)
    cols = [list(b) for b in basis]
    mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(vec))]
    return solve(mat, list(vec)) is not None


def same_span(basis_a: Sequence[Sequence], basis_b: Sequence[Sequence]) -> bool:
    if len(basis_a) != len(basis_b):
        return False
    ra = rank(list(basis_a))
    rb = rank(list(basis_b))
    rc = rank(list(basis_a) + list(basis_b))
    return ra == rb == rc


def dot(u: Sequence, v: Sequence):
    """Sum of u_i v_i over the terms where both factors are nonzero."""
    total = None
    for a, b in zip(u, v):
        if a and b:
            total = a * b if total is None else total + a * b
    return u[0] * v[0] if total is None else total


def mat_vec(mat: Sequence[Sequence], v: Sequence) -> list:
    return [dot(row, v) for row in mat]


def orthogonalize(vectors: Sequence[Sequence], form) -> list[list]:
    """Gram-Schmidt orthogonalization (no normalization) under ``form``.

    ``form(u, v)`` must be an exact symmetric bilinear form that is definite
    on the span, so the diagonal never vanishes.
    """
    out: list[list] = []
    for v in vectors:
        w = list(v)
        for u in out:
            c = form(w, u) / form(u, u)
            w = [a - c * b for a, b in zip(w, u)]
        if any(w):
            out.append(w)
    return out
