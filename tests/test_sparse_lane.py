"""The sparse exact lane against dense references, the labels at which the
joint eigenspace refinement tries each subspace, the root spaces against
direct joint kernels, and the float-proposed exact roots of compact and
Hermitian elements."""

from fractions import Fraction

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_helpers import fractions_up_to, plain_mat_vec, reference_kernel
from minorbit.exactla import I, ONE, ZERO, GaussianRational, kernel_basis
from minorbit.matmodel import MODEL_IDS, LieAlgebraModel, ModelError, analyze, build_model
from minorbit.matmodel.checks import centralizer_checks, lambda_data, spectral_checks
from minorbit.matmodel.model import Span, _apply, _build, _support
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


def _defining_weights(model, torus, imaginary):
    """The joint eigenvalue tuples of the torus on C^n, each with the
    dimension of its exact joint kernel, from the Cartesian product of each
    element's own float eigenvalues, rounded; with ``imaginary`` the tuples
    keep the rationals q of the eigenvalues i q."""
    mats = [model.matrix(t) for t in torus]
    unit = I if imaginary else ONE
    per_element = [
        {Fraction(float(ev.imag if imaginary else ev.real)).limit_denominator(1000)
         for ev in np.linalg.eigvals(X.astype(complex))} for X in mats]
    weights = {}
    for weight in itertools.product(*map(sorted, per_element)):
        rows = [[x - unit * q if r == c else x for c, x in enumerate(row)]
                for X, q in zip(mats, weight) for r, row in enumerate(X.tolist())]
        if dim := len(kernel_basis(rows, model.n)):
            weights[weight] = dim
    assert sum(weights.values()) == model.n
    return weights


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_a_subspace_is_tried_only_at_proposed_labels(monkeypatch, form_id, all_analyses):
    """torus_roots proposes the differences of the joint eigenvalue tuples of
    the torus in the defining representation, and no other label; each
    subspace is tried at the next entries of the labels that extend its own
    label, and the solve that fills it is its last."""
    a = all_analyses[form_id]
    model = a.model
    labels, calls, solves = [], [], []
    joint = LieAlgebraModel.joint_eigenspaces
    split = LieAlgebraModel.eigenspaces
    solve = LieAlgebraModel._solve_in_span

    def recorded_joint(self, ops, proposed, span):
        labels.append(list(proposed))
        return joint(self, ops, proposed, span)

    def recorded_split(self, op, candidates, span):
        before = len(solves)
        out = split(self, op, candidates, span)
        calls.append((span, list(candidates), out, len(solves) - before))
        return out

    def recorded_solve(self, support, images, shift=0, real=False):
        solves.append(shift)
        return solve(self, support, images, shift, real)

    monkeypatch.setattr(LieAlgebraModel, "joint_eigenspaces", recorded_joint)
    monkeypatch.setattr(LieAlgebraModel, "eigenspaces", recorded_split)
    monkeypatch.setattr(LieAlgebraModel, "_solve_in_span", recorded_solve)
    for torus, span, imaginary in ((model.a_units, model.units, False),
                                   (a.lambda_data().t_basis, model.k_units, True)):
        labels.clear()
        calls.clear()
        model.torus_roots(torus, span, imaginary)
        weights = _defining_weights(model, torus, imaginary)
        unit = I if imaginary else ONE
        differences = {tuple(p - q for p, q in zip(u, v)) for u in weights for v in weights}
        assert labels == [[tuple(unit * x for x in d) for d in sorted(differences)]]
        known = {id(span): ()}
        for sub, candidates, out, solved in calls:
            label = known[id(sub)]
            i = len(label)
            assert candidates == list(dict.fromkeys(
                c[i] for c in labels[0] if c[:i] == label))
            assert sum(map(len, out.values())) == len(sub)
            # spaces of distinct eigenvalues are independent, so the solve
            # that fills the subspace is its last
            assert solved == candidates.index(list(out)[-1]) + 1
            for lam, eig in out.items():
                known[id(eig)] = label + (lam,)


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_root_spaces_are_the_direct_joint_kernels(form_id, all_analyses):
    """Each root space of torus_roots, and its zero space, is the kernel of
    ad t_i - lam_i for every i at once, from one solve, vector for vector:
    the kernel basis is the canonical basis of the subspace, so splitting
    one operator at a time gives the same vectors."""
    a = all_analyses[form_id]
    model = a.model
    for torus, span, imaginary in ((model.a_units, model.units, False),
                                   (a.lambda_data().t_basis, model.k_units, True)):
        zero, spaces, *_ = model.torus_roots(torus, span, imaginary)
        ops = [model.ad_matrix(t) for t in torus]
        for root, space in [((ZERO,) * len(torus), zero), *spaces.items()]:
            images = []
            for op, q in zip(ops, root):
                lam = q * I if imaginary else q
                images.append([])
                for nz in span.support:
                    image = _apply(op, nz)
                    for j, x in nz:
                        image[j] = image.get(j, ZERO) - lam * x
                    images[-1].append(image)
            assert model._solve_in_span(span.support, images) == space


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
    """q times the generator of k in sl(2, R) has defining eigenvalues +-q i,
    so its roots on g are +-2q, for q on no fixed grid."""
    model = analyze("sl2R").model
    k0 = model.k_indices[0]
    for q in (10, Fraction(7, 9)):
        t = [q * x for x in model.unit_coords(k0)]
        zero, spaces, *_ = model.torus_roots([t], model.units, imaginary=True)
        assert len(zero) == 1
        assert list(spaces) == [(-2 * q,), (2 * q,)]


def test_irrational_eigenvalues_raise():
    # i diag(1, -1) + (E01 - E10) in the su(2) block of su(2,1): eigenvalues
    # 0 and +-i sqrt(2)
    model = analyze("su21").model
    t = [a + b for a, b in zip(model.unit_coords(0), model.unit_coords(2))]
    X = np.array([[1j, 1, 0], [-1, -1j, 0], [0, 0, 0]])
    assert np.array_equal(model.matrix(t).astype(complex), X)
    assert model.theta(t) == t
    with pytest.raises(ModelError, match="rational"):
        model.torus_roots([t], model.k_units, imaginary=True)


def test_torus_roots_of_hermitian_elements():
    model = analyze("sl2R").model
    a = model.unit_coords(model.a_indices[0])
    _, spaces, *_ = model.torus_roots([[Fraction(7, 9) * x for x in a]], model.units)
    assert list(spaces) == [(Fraction(-14, 9),), (Fraction(14, 9),)]
    su21 = analyze("su21").model
    _, spaces, *_ = su21.torus_roots(su21.a_units, su21.units)
    assert list(spaces) == [(-2,), (-1,), (1,), (2,)]
    # diag(1, -1) + (E01 + E10): eigenvalues +-sqrt(2)
    x = [p + q for p, q in zip(a, model.unit_coords(model.p_indices[0]))]
    assert np.array_equal(model.matrix(x).astype(complex), [[1, 1], [1, -1]])
    with pytest.raises(ModelError, match="rational"):
        model.torus_roots([x], model.units)
