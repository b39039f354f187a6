"""Small dense matrices over Gaussian rationals, and the conjugation of a real form."""

from __future__ import annotations

from dataclasses import dataclass

from ..exactla import QI, QI_ZERO

Mat = list[list[QI]]


def zeros(n: int, m: int | None = None) -> Mat:
    m = n if m is None else m
    return [[QI_ZERO for _ in range(m)] for _ in range(n)]


def unit(n: int, i: int, j: int, value=1) -> Mat:
    out = zeros(n)
    out[i][j] = QI.of(value)
    return out


def add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sub(a: Mat, b: Mat) -> Mat:
    return [[x - y if y else x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def matmul(a: Mat, b: Mat) -> Mat:
    out = zeros(len(a), len(b[0]))
    for ai, row in zip(a, out):
        for x, bt in zip(ai, b):
            if x:
                for j, y in enumerate(bt):
                    if y:
                        row[j] = row[j] + x * y
    return out


def commutator(a: Mat, b: Mat) -> Mat:
    return sub(matmul(a, b), matmul(b, a))


def entries(a: Mat) -> list[tuple[int, int, QI]]:
    """The nonzero entries (row, column, value) of a."""
    return [(i, k, x) for i, row in enumerate(a) for k, x in enumerate(row) if x]


def trace_product(a_entries: list[tuple[int, int, QI]], b: Mat) -> QI:
    """trace(a @ b) from the nonzero entries of a, without forming the product."""
    acc = QI_ZERO
    for i, k, x in a_entries:
        if b[k][i]:
            acc = acc + x * b[k][i]
    return acc


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


def conj(a: Mat) -> Mat:
    return [[x.conjugate() for x in row] for row in a]


def adjoint(a: Mat) -> Mat:
    """The conjugate transpose a^*."""
    return conj(transpose(a))


def neg(a: Mat) -> Mat:
    return [[-x for x in row] for row in a]


def lincomb(coeffs, mats) -> Mat:
    out = zeros(len(mats[0]), len(mats[0][0]))
    for c, m in zip(coeffs, mats):
        if not c:
            continue
        c = QI.of(c)
        for i, row in enumerate(m):
            orow = out[i]
            for j, x in enumerate(row):
                if x:
                    orow[j] = orow[j] + c * x
    return out


def to_complex(a: Mat) -> list[list[complex]]:
    return [[complex(x) for x in row] for row in a]


@dataclass(frozen=True)
class Involution:
    """The conjugation sigma of a real form: X -> sign * J op(X) J^T.

    ``op`` transposes and/or conjugates entrywise; ``J`` is orthogonal, and
    None stands for the identity.  The spec is plain data so that the exact
    lane (``apply``) and the float lane (``numeric``) read one description.
    The Cartan involution needs no spec: it is -X^* on every model.
    """

    sign: int
    transpose: bool = False
    conjugate: bool = False
    J: Mat | None = None

    def apply(self, X: Mat) -> Mat:
        if self.transpose:
            X = transpose(X)
        if self.conjugate:
            X = conj(X)
        if self.J is not None:
            X = matmul(self.J, matmul(X, transpose(self.J)))
        return neg(X) if self.sign < 0 else X
