import dataclasses
import json
from collections import Counter
from fractions import Fraction

import pytest

from minorbit import exactla
from minorbit.exactla import GaussianRational, exact_sqrt
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
from minorbit.matmodel.triples import STriple, cayley_violations, s_triple_violations


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
    assert a.model.c == 1
    x = as_complex(a.model, a.datum.x_psi)
    assert x == [[1, 0], [0, -1]]
    assert len(a.datum.root_spaces) == 2


def test_sl3R_datum_explicit():
    a = analyze("sl3R")
    assert a.model.c == 1
    x = as_complex(a.model, a.datum.x_psi)
    assert x == [[1, 0, 0], [0, 0, 0], [0, 0, -1]]
    assert len(a.datum.root_spaces) == 6  # A2 datum


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
    counts = Counter(a.datum.classes.values())
    assert counts == {
        key: catalog_map[form_id].restricted_system.class_counts()[key]
        for key in counts
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
        key = model.positivity_key
        # the same model with the positivity key read in reverse (revlex)
        revlex = dataclasses.replace(model, positivity_key=lambda r: key(r)[::-1])
        lex = restricted_root_datum(model)
        rev = restricted_root_datum(revlex)
        # the normalization c = 2 / tr(x_psi^2) that each datum fixes
        c_lex, c_rev = (2 / model._tr_form(d.x_psi, d.x_psi) for d in (lex, rev))
        assert c_lex == c_rev == model.c == revlex.c
        assert lex.class_mults() == rev.class_mults()
        assert eigenvalue_multiplicities(lex) == eigenvalue_multiplicities(rev)
        st_lex = make_s_triple(model, lex)
        st_rev = make_s_triple(revlex, rev)
        # conjugate triples share every derived scalar
        assert model.B(st_lex.e, model.theta(st_lex.e)) == model.B(
            st_rev.e, model.theta(st_rev.e)
        )
        assert kernel_ad_e_dimension(lex, st_lex.e) == kernel_ad_e_dimension(
            rev, st_rev.e
        )


def test_rotated_generator_choice_is_invisible():
    """e = (3 e0 + 4 e1) / 5, from the first two H-orthonormal vectors of
    the psi root space, is as good a generator as e0, the analysis's e."""
    a = analyze("sl2H")
    model, datum = a.model, a.datum
    units = []
    for vec in exactla.orthogonalize(datum.root_spaces[datum.psi], model.H)[:2]:
        root = exact_sqrt(model.H(vec, vec))
        units.append([x / root for x in vec])
    assert units[0] == a.striple.e
    cos, sin = GaussianRational(3, 0, 5), GaussianRational(4, 0, 5)
    e = [cos * u + sin * v for u, v in zip(*units)]
    rotated = STriple(model, list(datum.x_psi), e, [-x for x in model.theta(e)])
    assert s_triple_violations(rotated) == []
    ct = cayley_transform(rotated)
    assert cayley_violations(ct) == []
    assert kernel_ad_e_dimension(a.datum, rotated.e) == kernel_ad_e_dimension(
        a.datum, a.striple.e
    )


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
        vectors = list(model.m_basis)
        vectors += [model.unit_coords(i) for i in model.a_indices]
        for space in datum.root_spaces.values():
            vectors.extend(space)
        assert len(vectors) == model.dim
        assert exactla.rank(vectors) == model.dim


def test_analyze_parses_the_catalog_once(tmp_path, monkeypatch):
    from minorbit import realform

    # a copy of the shipped catalog is a source key no earlier call has
    # used, so every cache starts empty for it
    path = tmp_path / "catalog.json"
    path.write_bytes(realform.default_catalog_path().read_bytes())
    ids = [entry["id"] for entry in json.loads(path.read_text(encoding="utf-8"))]
    parses = []
    parse = realform._parse_entry
    monkeypatch.setattr(realform, "_parse_entry",
                        lambda raw: parses.append(raw["id"]) or parse(raw))
    for form_id in MODEL_IDS:
        analyze(form_id, path)
    assert parses == ids
