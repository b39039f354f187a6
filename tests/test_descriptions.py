"""Each exact object has one description: coordinates from the trace form, the
involutions as specs shared by both lanes, and one joint-eigenspace routine."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorbit.exactla import QI, QI_I
from minorbit.matmodel import MODEL_IDS, ModelError, build_model, qmat
from minorbit.numeric import involution


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


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_involution_specs_agree_across_lanes(form_id):
    model = build_model(form_id)
    theta, sigma = model.theta_spec, model.sigma_spec
    theta_np, sigma_np = involution(theta), involution(sigma)
    for b in model.basis:
        assert theta.apply(theta.apply(b)) == b
        assert sigma.apply(sigma.apply(b)) == b
        assert theta.apply(sigma.apply(b)) == sigma.apply(theta.apply(b))
        B = np.array(qmat.to_complex(b))
        assert np.array_equal(theta_np(B), qmat.to_complex(theta.apply(b)))
        assert np.array_equal(sigma_np(B), qmat.to_complex(sigma.apply(b)))
        assert np.array_equal(theta_np(theta_np(B)), B)
        assert np.array_equal(sigma_np(sigma_np(B)), B)
        assert np.array_equal(theta_np(sigma_np(B)), sigma_np(theta_np(B)))


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
