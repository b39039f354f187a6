"""The sparse exact lane against dense references, the labels at which the
joint eigenspace refinement tries each subspace, the root spaces against
direct joint kernels, and the float-proposed exact roots of compact and
Hermitian elements."""

from fractions import Fraction

import contextlib
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_helpers import (
    fractions_up_to,
    plain_mat_vec,
    record_joint_solves,
    reference_kernel,
    reference_rref,
)
from minorbit import exactla
from minorbit.exactla import I, ONE, ZERO, GaussianRational, kernel_basis
from minorbit.matmodel import MODEL_IDS, LieAlgebraModel, ModelError, analyze, build_model
from minorbit.matmodel.checks import centralizer_checks, lambda_data, spectral_checks
from minorbit.matmodel.model import _apply, _build, _support
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
    rows of Fractions a_k / d and b_k / d, so the coefficients are rational,
    the reference for a kernel in a real span of a complex operator."""
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


def solve_in_span(model, ops, span, shift=0):
    """The span solve that kernel_in_span (shift 0) and eigenspaces (one op,
    shift lam) make, at any shift."""
    support = _support(span)
    images = [[_apply(op, nz) for nz in support] for op in ops]
    return model._solve_in_span(support, images, shift)


def real_parts(x):
    """Re x and Im x of a coordinate vector."""
    return [v.real for v in x], [v.imag for v in x]


def cases(form_id):
    """(operators, shift, span) as the structural checks use them."""
    a = analyze(form_id)
    model, datum = a.model, a.datum
    full = [model.unit_coords(i) for i in range(model.dim)]
    k_units = model.k_units
    p_units = model.p_units
    ad_x = model.ad_matrix(a.striple.x)
    ad_h = model.ad_matrix(a.cayley.h)
    ad_z = model.ad_matrix(a.lambda_data().t_basis[0])
    yield [model.ad_matrix(a.striple.e)], 0, full
    yield [model.ad[i] for i in model.a_indices], 0, p_units
    yield [ad_x], 2, full
    yield [ad_x], Fraction(-1), full
    yield [ad_h], GaussianRational(2), p_units
    yield [ad_z], I, k_units
    yield [ad_z], ZERO, k_units
    yield [ad_h], 0, k_units
    yield [model.ad_matrix(x) for x in real_parts(a.cayley.v)], 0, k_units
    yield [model.ad_matrix(a.cayley.v)], 0, k_units
    yield [model.ad_matrix(v) for v in datum.n_basis], 0, datum.n_basis
    yield [], 0, datum.n_basis
    # complex span vectors, with Gaussian coefficients
    gaussian = [a.cayley.v, a.cayley.w]
    i_k = [[I * x for x in u] for u in k_units]
    yield [ad_h], GaussianRational(2), gaussian
    yield [ad_h], GaussianRational(-2), gaussian
    yield [], 0, gaussian
    yield [ad_z], I, i_k
    yield [ad_z], ZERO, i_k


def is_real(vectors):
    return all(not x.imag for v in vectors for x in v)


@pytest.mark.parametrize("form_id", FORMS)
def test_sparse_kernel_matches_dense_reference(form_id):
    model = analyze(form_id).model
    for ops, shift, span in cases(form_id):
        sparse = solve_in_span(model, ops, span, shift)
        reference = dense_kernel_in_span(
            model, [dense(model, op, shift) for op in ops], span
        )
        assert sparse == reference
        if not shift:
            assert model.kernel_in_span(ops, span) == sparse
        # real operators at a real shift on a real span give real vectors
        entries = [x for op in ops for col in op for _, x in col]
        if is_real([*span, entries, [ZERO + shift]]):
            assert is_real(sparse)


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_cent_k_of_v_is_the_rational_kernel_of_ad_v(form_id, all_analyses):
    """Cent_k(v), solved as Cent_k(Re v, Im v), is the dense reference's
    kernel of ad v with each constraint row split into its real and
    imaginary parts, so that the coefficients are rational."""
    a = all_analyses[form_id]
    model, v = a.model, a.cayley.v
    cent = model.centralizer_in_span(real_parts(v), model.k_units)
    reference = dense_kernel_in_span(
        model, [dense(model, model.ad_matrix(v))], model.k_units, real=True)
    assert cent == reference


@contextlib.contextmanager
def direct_kernel_read():
    """The span solves hand their own rows to exactla.eliminate: each row it
    is handed must hold no zero entry, as the elimination divides by a row's
    leading entry, and no row is re-coerced by exactla._sparse_rows."""
    eliminate = exactla.eliminate

    def checked(rows):
        for row in rows:
            assert all(type(x) is GaussianRational and x for x in row.values()), row
        return eliminate(rows)

    def refused(*args):
        raise AssertionError("a span solve went through _sparse_rows")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla, "eliminate", checked)
        mp.setattr(exactla, "_sparse_rows", refused)
        yield


# few values, so that sums of products cancel often
SMALL = (ONE, -ONE, I, -I, GaussianRational(1, 1), GaussianRational(1, -1),
         GaussianRational(2), GaussianRational(Fraction(1, 2)))
SMALL_ENTRIES = st.one_of(st.just(ZERO), st.just(ZERO), st.just(ZERO), st.sampled_from(SMALL))


@functools.lru_cache(maxsize=None)
def random_operators(dim):
    """Up to two sparse operators on dim coordinates, as SparseOp columns."""
    square = st.lists(SMALL_ENTRIES, min_size=dim * dim, max_size=dim * dim).map(
        lambda flat: [[(r, flat[r * dim + j]) for r in range(dim) if flat[r * dim + j]]
                      for j in range(dim)])
    return st.lists(square, max_size=2)


@functools.lru_cache(maxsize=None)
def random_spans(dim):
    """One to four vectors, each sparse or a unit vector; an operator's
    diagonal entry as the shift then cancels the image entry of a unit vector."""
    vector = st.lists(SMALL_ENTRIES, min_size=dim, max_size=dim)
    unit = st.integers(0, dim - 1).map(lambda i: [ONE if j == i else ZERO for j in range(dim)])
    return st.lists(st.one_of(vector, unit), min_size=1, max_size=4)


@pytest.mark.parametrize("form_id", ("sl2R", "su21"))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_direct_kernel_read_matches_dense_reference(form_id, data):
    """The span solve and eigenspaces on random sparse operators and spans,
    with a shift that is often an operator's diagonal entry, equal the dense
    reference kernel recombined over the span, and so does kernel_in_span at
    shift 0; the rows they eliminate hold no zero entry."""
    model = build_model(form_id)
    ops, span = data.draw(random_operators(model.dim)), data.draw(random_spans(model.dim))
    diagonal = [x for op in ops for j, col in enumerate(op) for r, x in col if r == j]
    shifts = [*dict.fromkeys(diagonal), ZERO, ONE, I]
    shift = data.draw(st.sampled_from(shifts))
    with direct_kernel_read():
        sparse = solve_in_span(model, ops, span, shift)
        if not shift:
            assert model.kernel_in_span(ops, span) == sparse
    assert sparse == dense_kernel_in_span(
        model, [dense(model, op, shift) for op in ops], span)
    independent = len(reference_rref(span, model.dim)[1]) == len(span)
    if ops and independent:
        candidates = data.draw(st.lists(st.sampled_from(shifts), unique=True))
        with direct_kernel_read():
            split = model.eigenspaces(ops[0], candidates, span)
        # spaces of distinct eigenvalues of an independent span are
        # independent, so every candidate left untried has an empty kernel
        expected = {lam: space for lam in candidates if (space := dense_kernel_in_span(
            model, [dense(model, ops[0], lam)], span))}
        assert split == expected


def test_direct_kernel_read_of_empty_full_and_cancelled_kernels():
    """A shift that cancels every image entry leaves no row, so the kernel is
    the whole span; the identity at shift 0 has an empty kernel; a shift
    that cancels only the imaginary part of each entry leaves its row."""
    model = build_model("su21")
    units = [model.unit_coords(j) for j in range(3)]
    identity = [[(j, ONE)] for j in range(model.dim)]
    times_i = [[(j, I)] for j in range(model.dim)]
    mixed = [[(j, GaussianRational(1, 1))] for j in range(model.dim)]
    with direct_kernel_read():
        assert model.kernel_in_span([identity], units) == []
        assert solve_in_span(model, [identity], units, shift=1) == units
        assert solve_in_span(model, [times_i], units, shift=I) == units
        assert solve_in_span(model, [mixed], units, shift=I) == []
        assert solve_in_span(model, [mixed], units, shift=GaussianRational(1, 1)) == units
        assert model.kernel_in_span([], units) == units
        assert model.eigenspaces(times_i, [ZERO, I], units) == {I: units}


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_trace_gram_times_its_inverse_is_the_identity(form_id):
    """G G^-1 = I exactly, G the trace Gram of the basis, formed densely."""
    model = build_model(form_id)
    gram = np.einsum("iab,jba->ij", model.basis, model.basis).real.astype(np.int64)
    gram = [[GaussianRational(g) for g in row] for row in gram.tolist()]
    inv = exactla.inverse(gram)
    product = [plain_mat_vec(gram, column) for column in zip(*inv)]
    assert product == [model.unit_coords(j) for j in range(model.dim)]


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
                assert split.get(lam, []) == solve_in_span(model, [op], span, lam)


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
        if dim := len(kernel_basis(rows)):
            weights[weight] = dim
    assert sum(weights.values()) == model.n
    return weights


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_a_subspace_is_tried_only_at_proposed_labels(monkeypatch, form_id, all_analyses):
    """torus_roots proposes the differences of the joint eigenvalue tuples of
    the torus in the defining representation, and no other label.  Exactly
    one of each +- twin of labels reaches _solve_in_span, the other being
    mirrored by sigma_u, and no mirrored subspace is split by a solve; each
    solve tries a subspace at the next entry of a label that extends its own
    label, and, the entries taken nearest zero first, none comes after the
    entry of the subspace's last space."""
    a = all_analyses[form_id]
    model = a.model
    labels = []
    joint = LieAlgebraModel.joint_eigenspaces

    def recorded_joint(self, ops, proposed, span):
        labels.append(list(proposed))
        return joint(self, ops, proposed, span)

    monkeypatch.setattr(LieAlgebraModel, "joint_eigenspaces", recorded_joint)
    for torus, span, imaginary in ((model.a_units, model.units, False),
                                   (a.lambda_data().t_basis, model.k_units, True)):
        labels.clear()
        with monkeypatch.context() as patch:
            solves = record_joint_solves(patch, span)
            zero, spaces, *_ = model.torus_roots(torus, span)
        weights = _defining_weights(model, torus, imaginary)
        unit = I if imaginary else ONE
        differences = {tuple(p - q for p, q in zip(u, v)) for u in weights for v in weights}
        assert labels == [[tuple(unit * x for x in d) for d in sorted(differences)]]
        found = [tuple(unit * x for x in r) for r in [(ZERO,) * len(torus), *spaces]]
        solved = [label + (lam,) for label, lam in solves if label is not None]
        assert len(solved) == len(solves) == len(set(solved))
        for s in solved:
            assert s in {c[:len(s)] for c in labels[0]}
            twin = tuple(-x for x in s)
            assert twin == s or twin not in solved
        # every space at every level, or its twin, is solved
        for f in found:
            for i in range(1, len(f) + 1):
                twin = tuple(-x for x in f[:i])
                assert f[:i] in solved or twin in solved
        for label in {label for label, _ in solves}:
            i = len(label)
            candidates = sorted(dict.fromkeys(c[i] for c in labels[0] if c[:i] == label),
                                key=lambda x: abs(complex(x)))
            last = max(candidates.index(f[i]) for f in found if f[:i] == label)
            assert all(candidates.index(lam) <= last for sub, lam in solves if sub == label)


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
        zero, spaces, *_ = model.torus_roots(torus, span)
        ops = [model.ad_matrix(t) for t in torus]
        support = _support(span)
        for root, space in [((ZERO,) * len(torus), zero), *spaces.items()]:
            images = []
            for op, q in zip(ops, root):
                lam = q * I if imaginary else q
                images.append([])
                for nz in support:
                    image = _apply(op, nz)
                    for j, x in nz:
                        image[j] = image.get(j, ZERO) - lam * x
                    images[-1].append(image)
            assert model._solve_in_span(support, images) == space


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
    """ad_matrix hands out the model's ad columns, and the span solves read
    the unit spans; after the exact checks, the numerics and the four
    sampled checks, ad and each unit span equal a fresh build's."""
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
    for name in ("units", "k_units", "p_units", "a_units"):
        assert getattr(model, name) == getattr(fresh, name)


def test_eigenvalues_outside_any_fixed_grid_are_found():
    """q times the generator of k in sl(2, R) has defining eigenvalues +-q i,
    so its roots on g are +-2q, for q on no fixed grid."""
    model = analyze("sl2R").model
    k0 = model.k_indices[0]
    for q in (10, Fraction(7, 9)):
        t = [q * x for x in model.unit_coords(k0)]
        zero, spaces, *_ = model.torus_roots([t], model.units)
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
        model.torus_roots([t], model.k_units)


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


def test_torus_roots_needs_each_element_in_k_or_in_p(monkeypatch):
    """The torus decides its roots: a Hermitian torus (in p) proposes real
    labels and an anti-Hermitian one (in k) the labels i q, and a root keeps
    the q; eigh and the sigma_u mirror hold for no other torus, so a + k_0 in
    sl(2, R), in neither, and the torus {a, k_0}, with one element in each,
    are refused before any proposal."""
    model = analyze("sl2R").model
    a, k = (model.unit_coords(i) for i in (model.a_indices[0], model.k_indices[0]))
    labels = []
    joint = LieAlgebraModel.joint_eigenspaces

    def recorded_joint(self, ops, proposed, span):
        labels.extend(x for label in proposed for x in label)
        return joint(self, ops, proposed, span)

    monkeypatch.setattr(LieAlgebraModel, "joint_eigenspaces", recorded_joint)
    for t, imaginary in ((a, False), (k, True)):
        labels.clear()
        _, spaces, *_ = model.torus_roots([t], model.units)
        assert list(spaces) == [(-2,), (2,)]
        assert {x.real if imaginary else x.imag for x in labels} == {0}
        assert {x.imag if imaginary else x.real for x in labels} == {-2, 0, 2}
    mixed = [x + y for x, y in zip(a, k)]
    labels.clear()
    for torus in ([mixed], [a, k]):
        with pytest.raises(ModelError, match="neither Hermitian nor anti-Hermitian"):
            model.torus_roots(torus, model.units)
    assert labels == []
