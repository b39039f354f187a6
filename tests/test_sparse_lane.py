"""The sparse exact lane against dense references, the early exit of the
joint eigenspace refinement, and the float-proposed exact eigenvalues of
compact and Hermitian elements in the defining representation."""

from fractions import Fraction

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_helpers import fractions_up_to, plain_mat_vec, reference_kernel
from minorbit.exactla import I, ONE, ZERO, GaussianRational
from minorbit.matmodel import MODEL_IDS, LieAlgebraModel, ModelError, analyze, build_model
from minorbit.matmodel.checks import centralizer_checks, lambda_data, spectral_checks
from minorbit.matmodel.model import Span, _build, _support
from minorbit.numeric import ModelNumerics
from minorbit.sympver import (
    ks_correspondence_check, moment_cone_check, poisson_identities_check, verify_beta_symplectic,
)

FORMS = ("sl2R", "su21", "sp4R", "su22", "sl2H")


def dense(model, op, shift=0):
    """op - shift * I as dense rows."""
    rows = [[ZERO] * model.dim for _ in range(model.dim)]
    for j, col in enumerate(op):
        for r, x in col:
            rows[r][j] = x
    return [[x - shift if r == c else x for c, x in enumerate(row)]
            for r, row in enumerate(rows)]


def dense_kernel_in_span(model, ops, span, real=False):
    """Dense plain_mat_vec images, every constraint row kept, then the dense
    reference elimination; with ``real`` each row (a_k + b_k i) / d gives the
    rows of Fractions a_k / d and b_k / d, so the coefficients are rational."""
    rows = []
    for op in ops:
        images = [plain_mat_vec(op, v) for v in span]
        for r in range(model.dim):
            row = [img[r] for img in images]
            if real:
                rows.append([Fraction(x.a, x.d) for x in row])
                rows.append([Fraction(x.b, x.d) for x in row])
            else:
                rows.append(row)
    coeffs = [[GaussianRational(*p) for p in v] for v in reference_kernel(rows, len(span))]
    out = []
    for t in coeffs:
        vec = [ZERO] * model.dim
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
    k_units = model.k_units
    p_units = model.p_units
    ad_x = model.ad_matrix(a.striple.x)
    ad_h = model.ad_matrix(a.cayley.h)
    ad_z = model.ad_matrix(a.lambda_data().t_basis[0])
    yield [model.ad_matrix(a.striple.e)], 0, full, False
    yield [model.ad[i] for i in model.a_indices], 0, p_units, True
    yield [ad_x], 2, full, False
    yield [ad_x], Fraction(-1), full, False
    yield [ad_h], GaussianRational(2), p_units, False
    yield [ad_z], I, k_units, False
    yield [ad_z], ZERO, k_units, False
    yield [ad_h], 0, k_units, True
    yield [model.ad_matrix(a.cayley.v)], 0, k_units, True
    yield [model.ad_matrix(v) for v in datum.n_basis], 0, datum.n_basis, False
    yield [], 0, datum.n_basis, False
    # complex span vectors, with rational coefficients (real=True, or no
    # constraint) or Gaussian ones
    gaussian = [a.cayley.v, a.cayley.w]
    i_k = [[I * x for x in u] for u in k_units]
    yield [ad_h], GaussianRational(2), gaussian, False
    yield [ad_h], GaussianRational(-2), gaussian, True
    yield [], 0, gaussian, True
    yield [ad_z], I, i_k, False
    yield [ad_z], ZERO, i_k, True


@pytest.mark.parametrize("form_id", FORMS)
def test_sparse_kernel_matches_dense_reference(form_id):
    model = analyze(form_id).model
    for ops, shift, span, real in cases(form_id):
        sparse = model.kernel_in_span(ops, span, real=real, shift=shift)
        reference = dense_kernel_in_span(
            model, [dense(model, op, shift) for op in ops], span, real=real
        )
        assert sparse == reference
        # rational coefficients of a real span give real vectors
        if real and all(not x.imag for v in span for x in v):
            assert all(not x.imag for v in sparse for x in v)


FRACTIONS = fractions_up_to(9, 12)
ENTRIES = st.one_of(st.just(Fraction(0)), FRACTIONS)


@functools.lru_cache(maxsize=None)
def coordinate_pairs(dim):
    """Two vectors in one draw, each real, complexified or all zero, and its
    parts sparse, or one of them a unit vector, as in the rows B(y, .) of
    the k_nu_perp system; the strategy is built once per dim."""
    parts = st.lists(ENTRIES, min_size=dim, max_size=dim)
    real = parts.map(lambda re: [GaussianRational(a) for a in re])
    gaussian = st.tuples(parts, parts).map(
        lambda p: [GaussianRational(a, b) for a, b in zip(*p)])
    vector = st.one_of(st.one_of(real, gaussian), st.just([ZERO] * dim))
    unit = st.integers(0, dim - 1).map(lambda i: [ONE if j == i else ZERO for j in range(dim)])
    return st.one_of(st.tuples(vector, vector), st.tuples(vector, unit), st.tuples(unit, vector))


@pytest.mark.parametrize("form_id", MODEL_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_trace_form_matches_dense_gram(form_id, data):
    model = build_model(form_id)
    x, y = data.draw(coordinate_pairs(model.dim))
    gram = np.einsum("iab,jba->ij", model.basis, model.basis).real.astype(np.int64)
    gram = [[GaussianRational(g) for g in row] for row in gram.tolist()]
    (reference,) = plain_mat_vec([x], plain_mat_vec(gram, y))
    assert model._tr_form(x, y) == reference


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_eigenspaces_match_one_kernel_per_candidate(form_id):
    """Each space that eigenspaces returns, in candidate order, is the kernel
    of op - lam vector for vector, and each candidate it omits, those after
    the span is filled among them, has an empty kernel."""
    a = analyze(form_id)
    model = a.model
    candidates = (2, -1, 0, 1, -2, 3, -3)
    for op in (model.ad_matrix(a.datum.x_psi), model.ad_matrix(a.cayley.h)):
        for span in (model.units, model.k_units, model.p_units):
            split = model.eigenspaces(op, candidates, span)
            assert list(split) == [lam for lam in candidates if lam in split]
            for lam in candidates:
                assert split.get(lam, []) == model.kernel_in_span([op], span, shift=lam)


def test_no_eigenspace_solve_after_a_filled_subspace(monkeypatch):
    """Spaces of distinct eigenvalues are independent, so the refinement of a
    subspace ends with the solve that fills it."""
    a = analyze("su41")
    model, t_basis = a.model, a.lambda_data().t_basis
    solves = []
    solve = LieAlgebraModel._solve_in_span

    def recorded(self, support, images, shift=0, real=False):
        out = solve(self, support, images, shift, real)
        solves.append((support, len(out)))
        return out

    monkeypatch.setattr(LieAlgebraModel, "_solve_in_span", recorded)
    full = [model.unit_coords(i) for i in range(model.dim)]
    model.torus_roots(model.a_units, full)
    model.torus_roots(t_basis, model.k_units, imaginary=True)
    runs = []  # consecutive solves on one subspace
    for span, found in solves:
        if runs and runs[-1][0] is span:
            runs[-1][1].append(found)
        else:
            runs.append((span, [found]))
    assert len(runs) > 2
    for span, found in runs:
        assert sum(found) == len(span)
        assert found[-1] > 0


@pytest.mark.parametrize("form_id", FORMS)
def test_ad_matrix_columns_are_brackets(form_id):
    """Also for each basis element b_i, whose ad is the model's ad[i] itself,
    and for 2 b_i and -b_i, whose ad is built."""
    a = analyze(form_id)
    model = a.model
    scaled = [[c * x for x in u] for u in model.units for c in (2, -1)]
    for x in (a.striple.e, a.cayley.h, a.datum.x_psi, *model.units, *scaled):
        op = model.ad_matrix(x)
        assert any(op is held for held in model.ad) == (x in model.units)
        for j in range(model.dim):
            bracket = model.bracket(x, model.unit_coords(j))
            column = [Fraction(0)] * model.dim
            for r, value in op[j]:
                column[r] = value
            assert column == bracket
            assert all(value for _, value in op[j])


@pytest.mark.parametrize("form_id", ("su21", "sp4R", "sl2H"))
def test_exact_lane_leaves_the_model_data_unchanged(form_id):
    """ad_matrix hands out the model's ad columns and the unit spans their
    held supports; after the exact checks, the numerics and the four sampled
    checks, ad equals a fresh build's and each support a fresh scan."""
    a = analyze(form_id)
    model = a.model
    spectral_checks(model, a.datum, a.striple, a.cayley)
    centralizer_checks(model, a.datum, a.striple, a.cayley, a.descriptor.hermitian)
    lambda_data(model, a.cayley, a.invariants.dim_X, a.descriptor.hermitian)
    num = ModelNumerics(a)
    for check in (verify_beta_symplectic, ks_correspondence_check,
                  poisson_identities_check, moment_cone_check):
        check(num, samples=5, seed=42)
    fresh = _build(form_id)
    assert len(model.ad) == len(fresh.ad)
    for held, built in zip(model.ad, fresh.ad):
        assert held == built
    for span in (model.units, model.k_units, model.p_units, model.a_units):
        assert isinstance(span, Span) and span.support == _support(span)


def test_eigenvalues_outside_any_fixed_grid_are_found():
    model = analyze("sl2R").model
    k0 = model.k_indices[0]
    t = [10 * x for x in model.unit_coords(k0)]
    assert model.defining_eigenvalues(t, imaginary=True) == [Fraction(-10), Fraction(10)]
    t = [Fraction(7, 9) * x for x in model.unit_coords(k0)]
    assert model.defining_eigenvalues(t, imaginary=True) == [Fraction(-7, 9), Fraction(7, 9)]


def test_irrational_eigenvalues_raise():
    # i diag(1, -1) + (E01 - E10) in the su(2) block of su(2,1): eigenvalues
    # 0 and +-i sqrt(2)
    model = analyze("su21").model
    t = [a + b for a, b in zip(model.unit_coords(0), model.unit_coords(2))]
    X = np.array([[1j, 1, 0], [-1, -1j, 0], [0, 0, 0]])
    assert np.array_equal(model.matrix(t).astype(complex), X)
    assert model.theta(t) == t
    with pytest.raises(ModelError, match="rational"):
        model.defining_eigenvalues(t, imaginary=True)


def test_defining_eigenvalues_of_hermitian_elements():
    model = analyze("sl2R").model
    a = model.unit_coords(model.a_indices[0])
    assert model.defining_eigenvalues([Fraction(7, 9) * x for x in a]) == [
        Fraction(-7, 9), Fraction(7, 9)
    ]
    su21 = analyze("su21").model
    assert su21.defining_eigenvalues(su21.unit_coords(su21.a_indices[0])) == [
        Fraction(-1), Fraction(0), Fraction(1)
    ]
    # diag(1, -1) + (E01 + E10): eigenvalues +-sqrt(2)
    x = [p + q for p, q in zip(a, model.unit_coords(model.p_indices[0]))]
    assert np.array_equal(model.matrix(x).astype(complex), [[1, 1], [1, -1]])
    with pytest.raises(ModelError, match="rational"):
        model.defining_eigenvalues(x)
