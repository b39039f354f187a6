"""Exact linear algebra over the Gaussian rationals.

Everything in the combinatorial and structural layers of this package runs on
exact arithmetic so that identities either hold on the nose or fail loudly.
Every scalar is one :class:`GaussianRational` (a + bi)/d in Python integers;
a real value is one with b = 0, and it orders, hashes and prints as the
``Fraction`` of the same value.  ``int`` and ``Fraction`` operands mix in.
Integer parts take fast paths that return the same reduced parts: nothing is
reduced over d = 1, a product of two real integers skips the crosswise gcds,
and a sum or difference over one denominator adds or subtracts the parts.
:func:`eliminate` is the one Gauss-Jordan elimination, over sparse rows that
hold and visit only nonzero entries.  ``rank``, ``kernel_basis`` and
``inverse`` are views on it: each takes dense rows and coerces them once to
sparse ones (``_sparse_rows``), and ``inverse`` reads A^-1 off the pivot rows
of [A | I].  The span solves of
:class:`~minorbit.matmodel.model.LieAlgebraModel` build sparse rows of nonzero
Gaussian rationals themselves, hand them to :func:`eliminate`, and read each
kernel vector off its pivot rows.  The reduced row echelon form of a row
space is unique, so no result depends on how it is found.
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction
from typing import Sequence

_gcd = math.gcd


@functools.total_ordering
class GaussianRational:
    """(a + b i) / d in integers with gcd(a, b, d) = 1 and d > 0; real when b = 0.

    The parts may be rationals: ``GaussianRational(Fraction(1, 2))`` is 1/2 and
    ``GaussianRational(0, 1)`` is i.  A real value orders, takes ``abs``,
    ``int`` and ``float``, hashes and prints as the ``Fraction`` a/d does.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d=1):
        if not type(a) is type(b) is type(d) is int:
            re, im = Fraction(a) / d, Fraction(b) / d
            d = math.lcm(re.denominator, im.denominator)
            a, b = int(re * d), int(im * d)
        elif not d:
            raise ZeroDivisionError("Gaussian rational with zero denominator")
        g = _gcd(a, b, d) if d > 0 else -_gcd(a, b, d)
        self.a, self.b, self.d = a // g, b // g, d // g

    # the fast paths below return parts that are already reduced
    def __add__(self, other):
        if type(other) is not GaussianRational:
            if type(other) is int:
                return _make(self.a + other * self.d, self.b, self.d)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.a + other.a, self.b + other.b, d1)
        s, t = d2 // _gcd(d1, d2), d1 // _gcd(d1, d2)
        return _reduced(self.a * s + other.a * t, self.b * s + other.b * t, d1 * s)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is GaussianRational and self.d == other.d:
            return _reduced(self.a - other.a, self.b - other.b, self.d)
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a1, b1, d1, a2, b2, d2 = self.a, self.b, self.d, other.a, other.b, other.d
        if b1 or b2:
            return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)
        if d1 == d2 == 1:
            return _make(a1 * a2, 0, 1)
        # real times real: cancel crosswise, as Fraction does
        g1, g2 = _gcd(a1, d2), _gcd(a2, d1)
        return _make((a1 // g1) * (a2 // g2), 0, (d1 // g2) * (d2 // g1))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a2, b2, d2 = other.a, other.b, other.d
        if not (a2 or b2):
            raise ZeroDivisionError("division by zero Gaussian rational")
        # times the conjugate d2 (a2 - b2 i), over |a2 + b2 i|^2
        a1, b1, n = self.a * d2, self.b * d2, a2 * a2 + b2 * b2
        if not b2:
            a1, b1, n = (a1, b1, a2) if a2 > 0 else (-a1, -b1, -a2)
            return _reduced(a1, b1, self.d * n)
        return _reduced(a1 * a2 + b1 * b2, b1 * a2 - a1 * b2, self.d * n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else other / self

    def conjugate(self) -> GaussianRational:
        return _make(self.a, -self.b, self.d) if self.b else self

    @property
    def real(self) -> GaussianRational:
        return _reduced(self.a, 0, self.d) if self.b else self

    @property
    def imag(self) -> GaussianRational:
        return _reduced(self.b, 0, self.d)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            if type(other) is int:
                return self.a == other and not self.b and self.d == 1
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if self.b:
            return hash((self.a, self.b, self.d))
        return hash(self.a) if self.d == 1 else hash(Fraction(self.a, self.d))

    def __lt__(self, other):
        if type(other) is not GaussianRational and (other := _coerce(other)) is None:
            return NotImplemented
        if self.b or other.b:
            raise TypeError("only real Gaussian rationals are ordered")
        return self.a * other.d < other.a * self.d

    def _fraction(self) -> Fraction:
        if self.b:
            raise TypeError(f"{self} is not real")
        return Fraction(self.a, self.d)

    def __abs__(self):
        return _coerce(abs(self._fraction()))

    def __int__(self):
        return int(self._fraction())

    def __float__(self):
        return float(self._fraction())

    def __complex__(self):
        return complex(self.a / self.d, self.b / self.d)

    def __str__(self):
        if not self.b:
            return str(self.a) if self.d == 1 else f"{self.a}/{self.d}"
        return f"({self.a}{self.b:+}i)" + (f"/{self.d}" if self.d != 1 else "")

    def __repr__(self):
        return f"GaussianRational({self.a}, {self.b}, {self.d})"


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The value of parts already reduced, d > 0."""
    x = object.__new__(GaussianRational)
    x.a, x.b, x.d = a, b, d
    return x


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i) / d for any d > 0, reduced by gcd(a, b, d)."""
    if d == 1:
        return _make(a, b, 1)
    g = _gcd(a, b, d)
    return _make(a // g, b // g, d // g) if g != 1 else _make(a, b, d)


def _coerce(x) -> GaussianRational | None:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, numbers.Rational):  # int, Fraction, numpy integers
        return _make(int(x.numerator), 0, int(x.denominator))
    return None


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def exact_sqrt(q) -> GaussianRational | None:
    """Square root of a nonnegative rational, or None if irrational."""
    q = _coerce(q)._fraction()
    if q < 0:
        raise ValueError("negative radicand")
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    exact = num * num == q.numerator and den * den == q.denominator
    return _make(num, 0, den) if exact else None


def _sparse_rows(mat: Sequence[Sequence], ncols: int) -> list[dict]:
    """The dense rows of ``mat``, each of ``ncols`` entries, as {column:
    nonzero scalar}.  Every entry becomes a :class:`GaussianRational` here,
    so ints stay exact."""
    rows = []
    for row in mat:
        if len(row) != ncols:
            raise ValueError(f"a row has {len(row)} entries, not {ncols}")
        out = {}
        for c, x in enumerate(row):
            if type(x) is not GaussianRational and (x := _coerce(x)) is None:
                raise TypeError("entries must be rational or Gaussian-rational")
            if x.a or x.b:
                out[c] = x
        rows.append(out)
    return rows


def eliminate(rows: list[dict]) -> dict[int, dict]:
    """Gauss-Jordan on sparse rows, in place, one row at a time: {pivot: row}.

    Each row is a {column: value} dict of nonzero :class:`GaussianRational`
    values, and nothing here checks that: a zero leading entry would be a
    division by zero.  A row is reduced by the pivot rows so far; its leading
    column becomes a pivot, cleared from them.  The result is the reduced row
    echelon form of the rows, sparse: row p is 1 at column p, 0 at every other
    pivot, and the kernel vector of a free column fc is 1 there and -row[fc]
    at each pivot p."""
    pivots: dict[int, dict] = {}
    for row in rows:
        for p in [c for c in row if c in pivots]:
            _add_multiple(row, -row[p], pivots[p])
        if not row:
            continue
        c = min(row)
        if (pv := row[c]) != 1:
            for j, x in row.items():
                row[j] = x / pv
        for other in pivots.values():
            if c in other:
                _add_multiple(other, -other[c], row)
        pivots[c] = row
    return pivots


def _add_multiple(row: dict, f, pivot: dict) -> None:
    """row += f * pivot, dropping the entries that cancel."""
    for j, x in pivot.items():
        s = row[j] + f * x if j in row else f * x
        if s.a or s.b:
            row[j] = s
        else:
            del row[j]


def rank(mat: Sequence[Sequence]) -> int:
    return len(eliminate(_sparse_rows(mat, len(mat[0])))) if len(mat) else 0


def kernel_basis(mat: Sequence[Sequence]) -> list[list]:
    """Basis of the right kernel of ``mat`` (dense rows = equations, so at
    least one), one dense vector per free column, 1 there and 0 at the others."""
    if not len(mat):
        raise ValueError("a system of no rows has no column count")
    ncols = len(mat[0])
    red = eliminate(_sparse_rows(mat, ncols))
    return [[ONE if j == fc else -red[j][fc] if fc in red.get(j, ()) else ZERO
             for j in range(ncols)] for fc in range(ncols) if fc not in red]


def inverse(mat: Sequence[Sequence]) -> list[list] | None:
    """The inverse of a square matrix, or None if it is singular: [A | I] has
    n pivots, all in A's columns if A is invertible, and then pivot row p
    holds row p of A^-1 in I's columns."""
    n = len(mat)
    rows = _sparse_rows(mat, n)
    for i, row in enumerate(rows):
        row[n + i] = ONE
    red = eliminate(rows)
    if any(p >= n for p in red):
        return None
    return [[red[p].get(n + j, ZERO) for j in range(n)] for p in range(n)]


def span_contains(basis: Sequence[Sequence], vec: Sequence) -> bool:
    return rank(list(basis) + [vec]) == rank(basis)


def same_span(basis_a: Sequence[Sequence], basis_b: Sequence[Sequence]) -> bool:
    return len(basis_a) == len(basis_b) and (
        rank(basis_a) == rank(basis_b) == rank(list(basis_a) + list(basis_b)))


def orthogonalize(vectors: Sequence[Sequence], form) -> list[list]:
    """Gram-Schmidt orthogonalization (no normalization) under ``form``.

    ``form(u, v)`` must be an exact symmetric bilinear form that is definite
    on the span, so the diagonal never vanishes.  Where u is zero, w keeps its
    entry, the same object.
    """
    out: list[list] = []
    for v in vectors:
        w = list(v)
        for u in out:
            c = form(w, u) / form(u, u)
            w = [a - c * b if b else a for a, b in zip(w, u)]
        if any(w):
            out.append(w)
    return out
