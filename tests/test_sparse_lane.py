"""The sparse exact lane against dense references, and the float-proposed
exact eigenvalues of compact elements in the defining representation."""

from fractions import Fraction

import numpy as np
import pytest

from minorbit.exactla import QI, kernel_basis, mat_vec
from minorbit.matmodel import ModelError, analyze
from minorbit.matmodel.checks import _defining_imag_eigs

FORMS = ("sl2R", "su21", "sp4R", "su22", "sl2H")


def dense(model, op, shift=0):
    """op - shift * I as dense rows, over QI when op or shift is complex."""
    qi = isinstance(shift, QI) or any(isinstance(x, QI) for col in op for _, x in col)
    zero = QI(0) if qi else Fraction(0)
    rows = [[zero] * model.dim for _ in range(model.dim)]
    for j, col in enumerate(op):
        for r, x in col:
            rows[r][j] = x
    return [[x - shift if r == c else x for c, x in enumerate(row)]
            for r, row in enumerate(rows)]


def dense_kernel_in_span(model, ops, span, real=False):
    """Dense mat_vec images, every constraint row kept, then kernel_basis."""
    rows = []
    for op in ops:
        images = [mat_vec(op, v) for v in span]
        for r in range(model.dim):
            row = [img[r] for img in images]
            if real and any(isinstance(x, QI) for x in row):
                rows.append([QI.of(x).re for x in row])
                rows.append([QI.of(x).im for x in row])
            else:
                rows.append(row)
    coeffs = kernel_basis(rows) if rows else kernel_basis([], ncols=len(span))
    out = []
    for t in coeffs:
        vec = [Fraction(0)] * model.dim
        for coef, base in zip(t, span):
            if coef:
                vec = [a + coef * b for a, b in zip(vec, base)]
        out.append(vec)
    return out


def cases(form_id):
    """(operators, shift, span, real) as the structural checks use them."""
    a = analyze(form_id)
    model, datum = a.model, a.datum
    full = [model.unit_coords(i) for i in range(model.dim)]
    k_units = model.subspace_units(model.k_indices)
    p_units = model.subspace_units(model.p_indices)
    ad_x = model.ad_matrix(a.striple.x)
    ad_h = model.ad_matrix(a.cayley.h)
    ad_z = model.ad_matrix(a.lambda_data().t_basis[0])
    yield [model.ad_matrix(a.striple.e)], 0, full, False
    yield [model.ad[i] for i in model.a_indices], 0, p_units, True
    yield [ad_x], 2, full, False
    yield [ad_x], Fraction(-1), full, False
    yield [ad_h], QI(2), p_units, False
    yield [ad_z], QI(0, 1), k_units, False
    yield [ad_z], QI(0), k_units, False
    yield [ad_h], 0, k_units, True
    yield [model.ad_matrix(a.cayley.v)], 0, k_units, True
    yield [model.ad_matrix(v) for v in datum.n_basis], 0, datum.n_basis, False
    yield [], 0, datum.n_basis, False


@pytest.mark.parametrize("form_id", FORMS)
def test_sparse_kernel_matches_dense_reference(form_id):
    model = analyze(form_id).model
    for ops, shift, span, real in cases(form_id):
        sparse = model.kernel_in_span(ops, span, real=real, shift=shift)
        reference = dense_kernel_in_span(
            model, [dense(model, op, shift) for op in ops], span, real=real
        )
        # equal values and scalar types, hence equal reprs
        assert repr(sparse) == repr(reference)


@pytest.mark.parametrize("form_id", FORMS)
def test_ad_matrix_columns_are_brackets(form_id):
    a = analyze(form_id)
    model = a.model
    for x in (a.striple.e, a.cayley.h, a.datum.x_psi):
        op = model.ad_matrix(x)
        for j in range(model.dim):
            bracket = model.bracket(x, model.unit_coords(j))
            column = [Fraction(0)] * model.dim
            for r, value in op[j]:
                column[r] = value
            assert column == bracket
            assert all(value for _, value in op[j])


def test_eigenvalues_outside_any_fixed_grid_are_found():
    model = analyze("sl2R").model
    k0 = model.k_indices[0]
    t = [10 * x for x in model.unit_coords(k0)]
    assert _defining_imag_eigs(model, t) == [Fraction(-10), Fraction(10)]
    t = [Fraction(7, 9) * x for x in model.unit_coords(k0)]
    assert _defining_imag_eigs(model, t) == [Fraction(-7, 9), Fraction(7, 9)]


def test_irrational_eigenvalues_raise():
    # i diag(1, -1) + (E01 - E10) in the su(2) block of su(2,1): eigenvalues
    # 0 and +-i sqrt(2)
    model = analyze("su21").model
    t = [a + b for a, b in zip(model.unit_coords(0), model.unit_coords(2))]
    X = np.array([[1j, 1, 0], [-1, -1j, 0], [0, 0, 0]])
    assert np.array_equal(model.matrix(t).astype(complex), X)
    assert model.theta(t) == t
    with pytest.raises(ModelError, match="rational"):
        _defining_imag_eigs(model, t)
