"""Each exact object has one description: structure constants from the
integer trace tensor of the Gaussian-integer basis, the Cartan involution
theta = -X^* on every model, the conjugation sigma as one spec whose one
``apply`` serves both lanes, and one joint-eigenspace routine."""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorbit.exactla import QI
from minorbit.matmodel import MODEL_IDS, ModelError, build_model
from minorbit.matmodel import model as model_module
from minorbit.matmodel.families import family_data
from minorbit.numeric import numerics

FRACTIONS = st.fractions(min_value=-9, max_value=9, max_denominator=12)
SCALARS = st.one_of(FRACTIONS, st.builds(QI, FRACTIONS, FRACTIONS))


@pytest.mark.parametrize("form_id", MODEL_IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_matrix_of_bracket_is_the_commutator(form_id, data):
    """ad against the exact commutator of the defining matrices, for real and
    complex coordinates; matrix() is the exact combination of the basis."""
    model = build_model(form_id)
    x, y = (data.draw(st.lists(SCALARS, min_size=model.dim, max_size=model.dim))
            for _ in range(2))
    X, Y = model.matrix(x), model.matrix(y)
    exact_basis = np.vectorize(lambda z: QI(int(z.real), int(z.imag)), otypes=[object])
    assert np.array_equal(X, np.tensordot(x, exact_basis(model.basis), axes=1))
    assert np.array_equal(model.matrix(model.bracket(x, y)), X @ Y - Y @ X)


def _complex_coords(rng, dim):
    """A Gaussian-rational coordinate vector with small random parts."""
    part = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return [QI(part(), part()) for _ in range(dim)]


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
        c_k = [x if i in k else QI(0) for i, x in enumerate(c)]
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
    return model_module._build(form_id)


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_build_rejects_a_basis_not_closed_under_the_bracket(monkeypatch, form_id):
    # a simple Lie algebra other than sl(2) has no subalgebra of codimension
    # one, and in sl(2,R) the two generators left in p bracket into k
    def drop_first(fam):
        shift = lambda indices: [i - 1 for i in indices if i]
        return dataclasses.replace(
            fam, basis=fam.basis[1:], k_indices=shift(fam.k_indices),
            p_indices=shift(fam.p_indices), a_indices=shift(fam.a_indices),
        )

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
        return dataclasses.replace(fam, sigma=dataclasses.replace(fam.sigma, J=None))

    with pytest.raises(ModelError, match="sigma"):
        _build_with(monkeypatch, "su21", drop_j)


def test_validation_rejects_a_k_generator_listed_under_p(monkeypatch):
    def move_first_k(fam):
        k0 = fam.k_indices[0]
        return dataclasses.replace(
            fam, k_indices=fam.k_indices[1:], p_indices=fam.p_indices + [k0]
        )

    with pytest.raises(ModelError, match="Hermitian"):
        _build_with(monkeypatch, "sl2R", move_first_k)


def test_joint_eigenspaces_split_sl2R():
    model = build_model("sl2R")
    ad_a = [model.ad[i] for i in model.a_indices]
    full = [model.unit_coords(i) for i in range(model.dim)]
    spaces = model.joint_eigenspaces(ad_a, [[-2, 0, 2]], full)
    assert [(label, len(span)) for label, span in spaces] == [
        ((-2,), 1), ((0,), 1), ((2,), 1)
    ]


def test_joint_eigenspaces_needs_every_eigenvalue():
    model = build_model("sl2R")
    ad_a = [model.ad[i] for i in model.a_indices]
    full = [model.unit_coords(i) for i in range(model.dim)]
    with pytest.raises(ModelError):
        model.joint_eigenspaces(ad_a, [[Fraction(-2), Fraction(0)]], full)
