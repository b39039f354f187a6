"""Each exact object has one description: coordinates from the trace form, the
Cartan involution theta = -X^* on every model, the conjugation sigma as one
spec shared by both lanes, and one joint-eigenspace routine."""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorbit.exactla import QI, QI_I
from minorbit.matmodel import MODEL_IDS, ModelError, build_model, qmat
from minorbit.matmodel import model as model_module
from minorbit.matmodel.families import family_data
from minorbit.numeric import involution, numerics


@pytest.mark.parametrize("form_id", MODEL_IDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_coords_inverts_matrix(form_id, data):
    model = build_model(form_id)
    entries = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    x = data.draw(st.lists(entries, min_size=model.dim, max_size=model.dim))
    assert model.coords(model.matrix(x)) == x


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_coords_rejects_elements_outside_the_real_span(form_id):
    model = build_model(form_id)
    imaginary = [[QI_I * x for x in row] for row in model.basis[0]]
    identity = [[QI(int(i == j)) for j in range(model.n)] for i in range(model.n)]
    for X in (imaginary, identity):
        with pytest.raises(ModelError):
            model.coords(X)


def _complex_coords(rng, dim):
    """A Gaussian-rational coordinate vector with small random parts."""
    part = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return [QI(part(), part()) for _ in range(dim)]


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_involution_specs_agree_across_lanes(form_id, all_analyses):
    """theta, sigma_u and the Hermitian pairing agree between the exact lane
    and the float lane on complex points of g_C."""
    model = all_analyses[form_id].model
    num = numerics(form_id)
    sigma, sigma_np = model.sigma_spec, involution(model.sigma_spec)
    as_array = lambda coords: np.array(qmat.to_complex(model.matrix(coords)))
    k = set(model.k_indices)
    rng = random.Random(f"{form_id}-involutions")
    for _ in range(3):
        c, d = _complex_coords(rng, model.dim), _complex_coords(rng, model.dim)
        X, Y = as_array(c), as_array(d)
        c_k = [x if i in k else QI(0) for i, x in enumerate(c)]
        np.testing.assert_allclose(num.k_component(X), as_array(c_k), atol=1e-12)
        np.testing.assert_allclose(
            num.sigma_u(X), as_array(model.sigma_u(c)), atol=1e-12
        )
        H = complex(model.H(c, d))
        assert abs(num.hermitian_pairing(X, Y) - H) <= 1e-12 * max(1.0, abs(H))
        # sigma is an involution in both lanes, and the lanes agree on it
        M = model.matrix(c)
        assert sigma.apply(sigma.apply(M)) == M
        assert np.array_equal(sigma_np(sigma_np(X)), X)
        assert np.array_equal(sigma_np(X), np.array(qmat.to_complex(sigma.apply(M))))


def _build_with(monkeypatch, form_id, mutate):
    fam = mutate(family_data(form_id))
    monkeypatch.setattr(model_module, "family_data", lambda _: fam)
    return model_module._build(form_id)


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
