from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorbit.exactla import (
    QI, dot, exact_sqrt, kernel_basis, mat_vec, orthogonalize, rank, rref, solve,
)


def test_qi_arithmetic():
    a = QI(1, 2)
    b = QI(Fraction(1, 2), -1)
    assert a + b == QI(Fraction(3, 2), 1)
    assert a * b == QI(Fraction(5, 2), 0)
    assert (a / b) * b == a
    assert a.conjugate() == QI(1, -2)
    assert QI(3) == 3 and QI(3) == Fraction(3)
    assert not QI(0, 0)
    with pytest.raises(ZeroDivisionError):
        a / QI(0)


def test_qi_mixed_coercion():
    assert Fraction(1, 2) * QI(0, 2) == QI(0, 1)
    assert 1 + QI(1, 1) == QI(2, 1)
    assert Fraction(2) - QI(1, 1) == QI(1, -1)


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(0)) == 0
    assert exact_sqrt(Fraction(2)) is None
    with pytest.raises(ValueError):
        exact_sqrt(Fraction(-1))


def test_rref_and_rank():
    mat = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    red, pivots = rref(mat)
    assert pivots == [0]
    assert rank(mat) == 1
    assert rank([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 2


def test_kernel_basis():
    mat = [[Fraction(1), Fraction(2), Fraction(3)]]
    basis = kernel_basis(mat)
    assert len(basis) == 2
    for v in basis:
        assert sum(m * x for m, x in zip(mat[0], v)) == 0


def test_solve():
    mat = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    sol = solve(mat, [Fraction(5), Fraction(10)])
    assert sol == [Fraction(1), Fraction(3)]
    inconsistent = solve(
        [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]],
        [Fraction(1), Fraction(3)],
    )
    assert inconsistent is None


def test_kernel_over_gaussian_rationals():
    mat = [[QI(1), QI(0, 1)]]
    basis = kernel_basis(mat)
    assert len(basis) == 1
    v = basis[0]
    assert mat[0][0] * v[0] + mat[0][1] * v[1] == QI(0)


def test_orthogonalize():
    def form(u, v):
        return sum(a * b for a, b in zip(u, v))

    vecs = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(2)]]
    ortho = orthogonalize(vecs, form)
    assert len(ortho) == 2
    assert form(ortho[0], ortho[1]) == 0


# --- properties on sparse random systems ----------------------------------------
# The structure-constant systems are mostly zeros, so three entries in four
# drawn here are zero too.

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _zero(gaussian):
    return QI(0) if gaussian else Fraction(0)


def _scalars(gaussian):
    return st.builds(QI, SMALL, SMALL) if gaussian else SMALL


def _sparse_matrix(data, gaussian, max_rows=6, max_cols=6):
    nrows = data.draw(st.integers(1, max_rows))
    ncols = data.draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(_zero(gaussian)), st.just(_zero(gaussian)),
                      st.just(_zero(gaussian)), _scalars(gaussian))
    return data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))


def _plain_mat_vec(mat, v, gaussian):
    return [sum((a * b for a, b in zip(row, v)), _zero(gaussian)) for row in mat]


FIELDS = pytest.mark.parametrize("gaussian", [False, True], ids=["Q", "QI"])


@FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_vectors_are_annihilated_and_rank_nullity_holds(gaussian, data):
    mat = _sparse_matrix(data, gaussian)
    ncols = len(mat[0])
    kernel = kernel_basis(mat)
    zero = [_zero(gaussian)] * len(mat)
    for k in kernel:
        assert _plain_mat_vec(mat, k, gaussian) == zero
    assert rank(mat) + len(kernel) == ncols


@FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solve_rebuilds_the_right_hand_side(gaussian, data):
    mat = _sparse_matrix(data, gaussian)
    x = data.draw(st.lists(_scalars(gaussian), min_size=len(mat[0]),
                           max_size=len(mat[0])))
    rhs = _plain_mat_vec(mat, x, gaussian)
    sol = solve(mat, rhs)
    assert sol is not None
    assert _plain_mat_vec(mat, sol, gaussian) == rhs


@FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_basis_ignores_zero_rows_and_row_order(gaussian, data):
    mat = _sparse_matrix(data, gaussian)
    ncols = len(mat[0])
    reference = kernel_basis(mat)
    rows = data.draw(st.permutations([row for row in mat if any(row)]))
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(rows)))
        rows.insert(at, [_zero(gaussian)] * ncols)
    if rows:
        # same values and the same scalar types, so the same reprs
        assert repr(kernel_basis(rows)) == repr(reference)
    else:
        assert kernel_basis(rows, ncols=ncols) == reference


@FIELDS
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_zero_skipping_dot_matches_the_plain_sum(gaussian, data):
    mat = _sparse_matrix(data, gaussian)
    v = data.draw(st.lists(_scalars(gaussian), min_size=len(mat[0]),
                           max_size=len(mat[0])))
    plain = _plain_mat_vec(mat, v, gaussian)
    assert mat_vec(mat, v) == plain
    assert dot(mat[0], v) == plain[0]
    assert all(isinstance(x, QI) == gaussian for x in mat_vec(mat, v))


@settings(max_examples=100, deadline=None)
@given(a=st.builds(QI, SMALL, SMALL), b=st.builds(QI, SMALL, SMALL),
       c=st.builds(QI, SMALL, SMALL), q=SMALL)
def test_qi_field_axioms(a, b, c, q):
    zero, one = QI(0), QI(1)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a - a == zero
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert q * a == QI(q) * a and a + q == a + QI(q)
    if a:
        assert a * (one / a) == one and (b / a) * a == b
