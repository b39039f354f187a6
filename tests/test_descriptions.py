"""Each exact object has one description: structure constants from the
integer trace tensor of the Gaussian-integer basis, the Cartan involution
theta = -X^* on every model, the conjugation sigma as one spec whose one
``apply`` serves both lanes, and one joint-eigenspace routine."""

import dataclasses
import functools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_helpers import fractions_up_to, record_joint_solves
from minorbit.exactla import ZERO, GaussianRational
from minorbit.matmodel import MODEL_IDS, ModelError, build_model
from minorbit.matmodel import model as model_module
from minorbit.matmodel.families import family_data
from minorbit.numeric import numerics

FRACTIONS = fractions_up_to(9, 12)
SCALARS = st.one_of(st.builds(GaussianRational, FRACTIONS),
                    st.builds(GaussianRational, FRACTIONS, FRACTIONS))


@functools.lru_cache(maxsize=None)
def coordinate_pairs(dim):
    """Two coordinate vectors in one draw, the strategy built once per dim."""
    vector = st.lists(SCALARS, min_size=dim, max_size=dim)
    return st.tuples(vector, vector)


@pytest.mark.parametrize("form_id", MODEL_IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_matrix_of_bracket_is_the_commutator(form_id, data):
    """ad against the exact commutator of the defining matrices, for real and
    complex coordinates; matrix() is the exact combination of the basis."""
    model = build_model(form_id)
    x, y = data.draw(coordinate_pairs(model.dim))
    X, Y = model.matrix(x), model.matrix(y)
    exact_basis = np.vectorize(lambda z: GaussianRational(int(z.real), int(z.imag)),
                               otypes=[object])
    assert np.array_equal(X, np.tensordot(x, exact_basis(model.basis), axes=1))
    assert np.array_equal(model.matrix(model.bracket(x, y)), X @ Y - Y @ X)


def _complex_coords(rng, dim):
    """A Gaussian-rational coordinate vector with small random parts."""
    part = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return [GaussianRational(part(), part()) for _ in range(dim)]


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_involution_specs_agree_across_lanes(form_id, all_analyses):
    """theta, sigma_u and the Hermitian pairing agree between the exact lane
    and the float lane on complex points of g_C, and one sigma.apply acts on
    exact object stacks and on complex stacks alike."""
    model = all_analyses[form_id].model
    num = numerics(form_id)
    sigma = model.sigma_spec
    as_array = lambda coords: model.matrix(coords).astype(complex)
    k = set(model.k_indices)
    rng = random.Random(f"{form_id}-involutions")
    points = []
    for _ in range(3):
        c, d = _complex_coords(rng, model.dim), _complex_coords(rng, model.dim)
        points += [c, d]
        X, Y = as_array(c), as_array(d)
        c_k = [x if i in k else ZERO for i, x in enumerate(c)]
        np.testing.assert_allclose(num.k_component(X), as_array(c_k), atol=1e-12)
        np.testing.assert_allclose(
            num.sigma_u(X), as_array(model.sigma_u(c)), atol=1e-12
        )
        H = complex(model.H(c, d))
        assert abs(num.hermitian_pairing(X, Y) - H) <= 1e-12 * max(1.0, abs(H))
    # sigma is an involution in both lanes, the lanes agree on it, and on
    # matrices it is the entrywise conjugation of coordinates
    M = np.stack([model.matrix(c) for c in points])
    X = M.astype(complex)
    assert M.dtype == object and X.dtype == complex
    assert np.array_equal(sigma.apply(sigma.apply(M)), M)
    assert np.array_equal(num.sigma(num.sigma(X)), X)
    assert np.array_equal(num.sigma(X), sigma.apply(M).astype(complex))
    conjugated = np.stack([model.matrix(model.sigma(c)) for c in points])
    assert np.array_equal(sigma.apply(M), conjugated)


def _build_with(monkeypatch, form_id, mutate):
    fam = mutate(family_data(form_id))
    monkeypatch.setattr(model_module, "family_data", lambda _: fam)
    return model_module.build_model.__wrapped__(form_id)


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_build_rejects_a_basis_not_closed_under_the_bracket(monkeypatch, form_id):
    # a simple Lie algebra other than sl(2) has no subalgebra of codimension
    # one, and in sl(2,R) the two generators left in p bracket into k
    def drop_first(fam):
        a_indices = [i - 1 for i in fam.a_indices if i]
        return dataclasses.replace(fam, basis=fam.basis[1:], a_indices=a_indices)

    with pytest.raises(ModelError, match="not closed under the bracket"):
        _build_with(monkeypatch, form_id, drop_first)


def test_build_rejects_an_entry_that_is_not_a_gaussian_integer(monkeypatch):
    def halve_first(fam):
        basis = fam.basis.copy()
        basis[0] = 0.5 * basis[0]
        return dataclasses.replace(fam, basis=basis)

    with pytest.raises(ModelError, match="Gaussian integers"):
        _build_with(monkeypatch, "sl2R", halve_first)


def test_validation_rejects_a_sigma_of_another_real_form(monkeypatch):
    def drop_j(fam):
        return dataclasses.replace(fam, sigma_spec=dataclasses.replace(fam.sigma_spec, J=None))

    with pytest.raises(ModelError, match="sigma"):
        _build_with(monkeypatch, "su21", drop_j)


@pytest.mark.parametrize("form_id", ["sl2R", "su21", "sl2H"])
def test_validation_rejects_a_basis_matrix_neither_hermitian_nor_anti_hermitian(
    monkeypatch, form_id
):
    # b_0 is anti-Hermitian and b_-1 Hermitian; b_0 + b_-1 keeps the span, so
    # the basis is still closed under the bracket, but theta(X) = -X^* no
    # longer fixes or negates every basis matrix
    def mix_first_with_last(fam):
        basis = fam.basis.copy()
        basis[0] = basis[0] + basis[-1]
        return dataclasses.replace(fam, basis=basis)

    with pytest.raises(ModelError, match="neither Hermitian nor anti-Hermitian"):
        _build_with(monkeypatch, form_id, mix_first_with_last)


@pytest.mark.parametrize("form_id", ["sl2R", "sl3R", "su22"])
def test_validation_rejects_an_a_that_is_not_maximal_abelian(monkeypatch, form_id):
    """Cent_p(a) = a is the one check on a: it rejects an a whose two p
    generators do not commute, and an a one generator short."""
    fam = family_data(form_id)
    basis, first = fam.basis, fam.a_indices[0]
    x = basis[first]
    hermitian = [i for i, b in enumerate(basis) if np.array_equal(b.conj().T, b)]
    partner = next(j for j in hermitian if not np.array_equal(x @ basis[j], basis[j] @ x))

    def non_commuting(fam):
        return dataclasses.replace(fam, a_indices=[first, partner])

    def one_short(fam):
        return dataclasses.replace(fam, a_indices=fam.a_indices[:-1])

    for mutate in (non_commuting, one_short):
        with pytest.raises(ModelError, match="not maximal abelian in p"):
            _build_with(monkeypatch, form_id, mutate)


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_cartan_decomposition_facts_of_the_basis(form_id):
    """What the build no longer checks, computed from the basis with numpy:
    ad is k/p-graded, and the trace Gram (the model's tr_rows) is 0 between
    k and p, negative definite on k and positive definite on p."""
    model = build_model(form_id)
    basis = model.basis
    adjoint = basis.conj().swapaxes(-1, -2)
    in_k = (adjoint == -basis).all(axis=(1, 2))
    assert ((adjoint == basis).all(axis=(1, 2)) != in_k).all()
    assert np.flatnonzero(in_k).tolist() == model.k_indices
    for i in range(model.dim):
        for j in range(model.dim):
            bracket = basis[i] @ basis[j] - basis[j] @ basis[i]
            sign = 1 if in_k[i] != in_k[j] else -1
            assert np.array_equal(bracket.conj().T, sign * bracket)
            assert all(in_k[r] == (in_k[i] == in_k[j]) for r, _ in model.ad[i][j])
    gram = np.einsum("iab,jba->ij", basis, basis)
    assert not gram.imag.any()
    gram = gram.real.astype(np.int64)
    assert [[(j, int(g)) for j, g in row] for row in model.tr_rows] == [
        [(j, g) for j, g in enumerate(row) if g] for row in gram.tolist()]
    k, p = model.k_indices, model.p_indices
    assert not gram[np.ix_(k, p)].any()
    assert (np.linalg.eigvalsh(gram[np.ix_(k, k)]) < 0).all()
    assert (np.linalg.eigvalsh(gram[np.ix_(p, p)]) > 0).all()


@pytest.mark.parametrize("form_id", ["sl6R", "su11", "so22", "sl3H"])
def test_build_rejects_a_form_id_outside_the_table(form_id):
    with pytest.raises(ModelError, match=f"form {form_id!r} has no matrix model"):
        build_model(form_id)


def test_joint_eigenspaces_split_sl2R():
    model = build_model("sl2R")
    ad_a = [model.ad[i] for i in model.a_indices]
    spaces = model.joint_eigenspaces(ad_a, [(-2,), (0,), (2,)], model.units)
    assert [(label, len(span)) for label, span in spaces] == [
        ((-2,), 1), ((0,), 1), ((2,), 1)
    ]


def test_joint_eigenspaces_needs_every_eigenvalue():
    model = build_model("sl2R")
    ad_a = [model.ad[i] for i in model.a_indices]
    with pytest.raises(ModelError, match="recovered 2 of 3"):
        model.joint_eigenspaces(ad_a, [(Fraction(-2),), (Fraction(0),)], model.units)


def test_joint_eigenspaces_tries_a_subspace_at_the_labels_that_extend_it(monkeypatch):
    """On sl(3, R), a subspace split off by the first generator of a under
    the eigenvalue lam is split by the second one at the second entries of
    the labels whose first entry is lam, nearest zero first, and at no
    other; one of each +- twin is solved, the other mirrored by sigma_u, and
    no entry is tried once a subspace is filled."""
    model = build_model("sl3R")
    ad_a = [model.ad[i] for i in model.a_indices]
    _, spaces, *_ = model.torus_roots(model.a_units, model.units)
    roots = [(ZERO, ZERO), *spaces]
    assert [tuple(map(int, r)) for r in spaces] == [
        (-2, 1), (-1, -1), (-1, 2), (1, -2), (1, 1), (2, -1)]
    first = roots[-1][0]
    labels = [(first, GaussianRational(7)), *roots, (GaussianRational(5), ZERO)]
    solves = record_joint_solves(monkeypatch, model.units)
    found = model.joint_eigenspaces(ad_a, labels, model.units)
    assert sorted(label for label, _ in found) == sorted(roots)
    # the first entries, nearest zero first, are 0, -1, 1, 2, -2, 5: 1 and -2
    # mirror -1 and 2, and the spaces fill the span before 5; (2,) is filled
    # at -1 before 7, (0,) is split at 0, (-1,) at -1 and 2, and (-2,) and
    # (1,) mirror (2,) and (-1,)
    assert solves == [((), 0), ((), -1), ((), 2), ((2,), -1),
                      ((0,), 0), ((-1,), -1), ((-1,), 2)]
