from fractions import Fraction

import pytest

from minorbit import exactla
from minorbit.matmodel import (
    MODEL_IDS,
    ModelError,
    analyze,
    build_model,
    cayley_transform,
    eigenvalue_multiplicities,
    kernel_ad_e_dimension,
    make_s_triple,
    restricted_root_datum,
)
from minorbit.matmodel.triples import cayley_violations, s_triple_violations


def as_complex(model, coords):
    return model.matrix(coords).astype(complex).tolist()


def test_build_model_rejects_unsupported():
    with pytest.raises(ModelError):
        build_model("sl6R")
    with pytest.raises(ModelError):
        build_model("so22")
    with pytest.raises(ModelError):
        build_model("e8-split")


def test_dimension_examples():
    m = build_model("sl2R")
    assert (m.dim, m.dim_k, m.dim_a, m.dim_m) == (3, 1, 1, 0)
    m = build_model("su21")
    assert (m.dim, m.dim_k, m.dim_a, m.dim_m) == (8, 4, 1, 1)
    m = build_model("sl3R")
    assert (m.dim, m.dim_k, m.dim_a, m.dim_m) == (8, 3, 2, 0)


def test_sl2R_datum_explicit():
    a = analyze("sl2R")
    assert a.datum.c == 1
    x = as_complex(a.model, a.datum.x_psi)
    assert x == [[1, 0], [0, -1]]
    assert len(a.datum.roots) == 2


def test_sl3R_datum_explicit():
    a = analyze("sl3R")
    assert a.datum.c == 1
    x = as_complex(a.model, a.datum.x_psi)
    assert x == [[1, 0, 0], [0, 0, 0], [0, 0, -1]]
    assert len(a.datum.roots) == 6  # A2 datum


def test_su21_datum_is_bc1():
    a = analyze("su21")
    assert a.datum.class_mults() == {"e_i": 2, "2e_i": 1}
    assert len(a.datum.root_spaces[a.datum.psi]) == 1


def test_sl2R_striple_matrices():
    a = analyze("sl2R")
    assert as_complex(a.model, a.striple.e) == [[0, 1], [0, 0]]
    assert as_complex(a.model, a.striple.f) == [[0, 0], [1, 0]]


def test_sl3R_striple_matrices():
    a = analyze("sl3R")
    e = as_complex(a.model, a.striple.e)
    f = as_complex(a.model, a.striple.f)
    assert e == [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
    assert f == [[0, 0, 0], [0, 0, 0], [1, 0, 0]]


def test_sl2R_cayley_matrices():
    a = analyze("sl2R")
    h = as_complex(a.model, a.cayley.h)
    assert h == [[0, 1j], [-1j, 0]]  # i(E12 - E21)
    v = as_complex(a.model, a.cayley.v)
    assert v == [[0.5j, 0.5], [0.5, -0.5j]]  # (i diag(1,-1) + E12 + E21)/2
    assert a.model.B(a.cayley.v, a.cayley.w) == 1


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_striple_and_cayley_identities_exact(form_id, all_analyses):
    a = all_analyses[form_id]
    assert s_triple_violations(a.striple) == []
    assert cayley_violations(a.cayley) == []


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_multiplicities_match_catalog(form_id, all_analyses, catalog_map):
    a = all_analyses[form_id]
    assert a.datum.class_mults() == catalog_map[form_id].mults
    assert a.datum.class_counts() == {
        key: catalog_map[form_id].restricted_system.class_counts()[key]
        for key in a.datum.class_counts()
    }


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_oracle_equivalence_with_catalog(form_id, all_analyses):
    """Combinatorial invariants equal the model eigendecomposition values."""
    a = all_analyses[form_id]
    inv = a.invariants
    assert eigenvalue_multiplicities(a.datum) == inv.m
    dim_zg_e = kernel_ad_e_dimension(a.datum, a.striple.e)
    assert dim_zg_e == inv.m[0] + inv.m[1]
    assert a.model.dim - dim_zg_e == inv.dim_Z


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_model_dim_m_matches_catalog(form_id, all_analyses, catalog_map):
    assert all_analyses[form_id].model.dim_m == catalog_map[form_id].dim_m


def test_reversed_positivity_gives_same_scalars():
    for form_id in ("sl3R", "su21", "sp4R", "so43"):
        model = build_model(form_id)
        lex = restricted_root_datum(model, order="lex")
        rev = restricted_root_datum(model, order="revlex")
        assert lex.c == rev.c
        assert lex.class_mults() == rev.class_mults()
        assert eigenvalue_multiplicities(lex) == eigenvalue_multiplicities(rev)
        st_lex = make_s_triple(model, lex)
        st_rev = make_s_triple(model, rev)
        # conjugate triples share every derived scalar
        assert model.B(st_lex.e, model.theta(st_lex.e)) == model.B(
            st_rev.e, model.theta(st_rev.e)
        )
        assert kernel_ad_e_dimension(lex, st_lex.e) == kernel_ad_e_dimension(
            rev, st_rev.e
        )


def test_rotated_generator_choice_is_invisible():
    a = analyze("sl2H")
    rotated = make_s_triple(a.model, a.datum, rotated=True)
    assert s_triple_violations(rotated) == []
    ct = cayley_transform(rotated)
    assert cayley_violations(ct) == []
    assert kernel_ad_e_dimension(a.datum, rotated.e) == kernel_ad_e_dimension(
        a.datum, a.striple.e
    )


def test_rotation_requires_room():
    a = analyze("sl2R")
    with pytest.raises(ModelError):
        make_s_triple(a.model, a.datum, rotated=True)


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_hermitian_pairing_positive_definite(form_id, all_analyses):
    """Gram-Schmidt under the pairing succeeds with positive diagonal."""
    model = all_analyses[form_id].model
    units = [model.unit_coords(i) for i in range(model.dim)]
    ortho = exactla.orthogonalize(units, model.H)
    assert len(ortho) == model.dim
    for vec in ortho:
        assert model.H(vec, vec) > 0
    for i, u in enumerate(units):
        for v in units[i:]:
            assert model.H(u, v) == model.H(v, u)


def test_su21_generator_in_double_root_space():
    a = analyze("su21")
    psi = a.datum.psi
    assert psi == (Fraction(2),)
    space = a.datum.root_spaces[psi]
    assert len(space) == 1
    assert exactla.span_contains(space, a.striple.e)


def test_direct_sum_decomposition():
    for form_id in ("sl3R", "su21", "sl2H"):
        a = analyze(form_id)
        model, datum = a.model, a.datum
        vectors = list(datum.m_basis)
        vectors += [model.unit_coords(i) for i in model.a_indices]
        for space in datum.root_spaces.values():
            vectors.extend(space)
        assert len(vectors) == model.dim
        assert exactla.rank(vectors) == model.dim
