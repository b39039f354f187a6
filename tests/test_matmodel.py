import dataclasses
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from exact_helpers import orthogonalize
from minorbit import exactla
from minorbit.exactla import GaussianRational, exact_sqrt
from minorbit.matmodel import (
    MODEL_IDS,
    ModelError,
    ModelAnalysis,
    analyze,
    build_model,
    cayley_transform,
    centralizer_checks,
    eigenvalue_multiplicities,
    kernel_ad_e_dimension,
    make_s_triple,
    restricted_root_datum,
    spectral_checks,
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


def _unit_matrix(n, i, j):
    out = np.zeros((n, n), dtype=complex)
    out[i, j] = 1
    return out


def _diagonal_pair(model, x_psi):
    """The (i, j), i != j, with x_psi = E_ii - E_jj; any positive system of
    sl(n, R) has such a highest coroot element."""
    x = model.matrix(x_psi).astype(complex)
    i, j = int(np.argmax(x.diagonal().real)), int(np.argmin(x.diagonal().real))
    assert i != j
    assert np.array_equal(x, _unit_matrix(model.n, i, i) - _unit_matrix(model.n, j, j))
    return i, j


def test_sl3R_datum_explicit():
    a = analyze("sl3R")
    assert a.model.c == 1
    _diagonal_pair(a.model, a.datum.x_psi)
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
    """e = E_ij and f = E_ji for the pair with x_psi = E_ii - E_jj."""
    a = analyze("sl3R")
    i, j = _diagonal_pair(a.model, a.datum.x_psi)
    assert as_complex(a.model, a.striple.e) == _unit_matrix(3, i, j).tolist()
    assert as_complex(a.model, a.striple.f) == _unit_matrix(3, j, i).tolist()


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


def _reversed_analysis(a):
    """The analysis of a's form with its a basis in reverse order, so that
    a root is positive when its first nonzero value, taken from the last
    generator back, is positive."""
    units = a.model.a_units
    model = dataclasses.replace(a.model, a_indices=a.model.a_indices[::-1],
                                a_units=units[::-1], c=None)
    datum = restricted_root_datum(model)
    striple = make_s_triple(model, datum)
    return ModelAnalysis(a.descriptor, a.invariants, model, datum, striple,
                         cayley_transform(striple))


def _scalars(a):
    """c, the class and eigenvalue multiplicities, B(e, theta e), dim ker ad e."""
    e = a.striple.e
    return (a.model.c, a.datum.class_mults(), eigenvalue_multiplicities(a.datum),
            a.model.B(e, a.model.theta(e)), kernel_ad_e_dimension(a.datum, e))


def _verdicts(a):
    return [item.as_dict() for item in (
        *spectral_checks(a.model, a.datum, a.striple, a.cayley),
        *centralizer_checks(a.model, a.datum, a.striple, a.cayley, a.descriptor.hermitian),
        *a.lambda_data().checks)]


def test_reversed_positivity_gives_same_scalars(all_analyses):
    """Positive systems are W-conjugate, so the one the reversed a basis
    picks gives every form the same scalars and the same spectra,
    centralizers and lambda lines; on each form with dim a > 1 it is another
    positive system."""
    for lex in all_analyses.values():
        rev = _reversed_analysis(lex)
        flipped = {r[::-1] for r in rev.datum.positive_roots}
        assert (flipped != set(lex.datum.positive_roots)) == (lex.model.dim_a > 1)
        assert _scalars(rev) == _scalars(lex)
        assert _verdicts(rev) == _verdicts(lex)


def test_rotated_generator_choice_is_invisible():
    """e = (3 e0 + 4 e1) / 5, from the first two H-orthonormal vectors of
    the psi root space, is as good a generator as e0, the analysis's e."""
    a = analyze("sl2H")
    model, datum = a.model, a.datum
    units = []
    for vec in orthogonalize(datum.root_spaces[datum.psi], model.H)[:2]:
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
    ortho = orthogonalize(units, model.H)
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
