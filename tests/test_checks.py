import copy

import pytest

from exact_helpers import orthogonalize
from minorbit import exactla
from minorbit.matmodel import MODEL_IDS, ModelAnalysis, restricted_root_datum
from minorbit.matmodel.checks import centralizer_checks, lambda_data, spectral_checks
from minorbit.matmodel import checks as checks_module
from minorbit.matmodel.model import LieAlgebraModel, build_model
from minorbit.matmodel.triples import cayley_transform, compact_partner, make_s_triple
from minorbit.numeric import ModelNumerics, numerics
from minorbit.sympver import (
    ks_correspondence_check, poisson_identities_check, verify_beta_symplectic,
)


def run_spectral(form_id, all_analyses):
    a = all_analyses[form_id]
    return {c.name: c for c in spectral_checks(a.model, a.datum, a.striple, a.cayley)}


def run_centralizer(form_id, all_analyses, catalog_map):
    a = all_analyses[form_id]
    return {
        c.name: c
        for c in centralizer_checks(
            a.model, a.datum, a.striple, a.cayley, catalog_map[form_id].hermitian
        )
    }


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_spectral_checks_pass(form_id, all_analyses):
    checks = run_spectral(form_id, all_analyses)
    failed = [c for c in checks.values() if c.failed]
    assert not failed, failed


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_centralizer_checks_pass(form_id, all_analyses, catalog_map):
    checks = run_centralizer(form_id, all_analyses, catalog_map)
    failed = [c for c in checks.values() if c.failed]
    assert not failed, failed


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_lambda_checks_pass(form_id, all_analyses):
    lam = all_analyses[form_id].lambda_data()
    failed = [c for c in lam.checks if c.failed]
    assert not failed, failed


@pytest.mark.parametrize("form_id", ("sl2R", "sl3R", "su21", "sp4R", "sl2H"))
def test_lambda_data_solves_the_centralizer_of_z_once(monkeypatch, all_analyses, form_id):
    """k_nu = Cent_k(z) is also the first centralizer of the Cartan extension
    from z: a fresh lambda_data solves it once, and returns what the cached
    one does.  Cent k is the model's, solved before the count (on sl2R, where
    k = R z, it is the same system once more)."""
    a = all_analyses[form_id]
    z = compact_partner(a.cayley)
    a.model.center_k
    solved = []
    original = LieAlgebraModel.centralizer_in_span

    def recorded(self, elements, span):
        solved.append(list(elements))
        return original(self, elements, span)

    monkeypatch.setattr(LieAlgebraModel, "centralizer_in_span", recorded)
    fresh = lambda_data(a.model, a.cayley, a.invariants.dim_X, a.descriptor.hermitian)
    assert solved.count([z]) == 1
    assert fresh == a.lambda_data()


def _fresh_analysis(cached):
    """An analysis of the form of ``cached`` on a freshly built model."""
    model = build_model.__wrapped__(cached.descriptor.id)
    datum = restricted_root_datum(model)
    striple = make_s_triple(model, datum)
    return ModelAnalysis(cached.descriptor, cached.invariants, model, datum, striple,
                         cayley_transform(striple))


@pytest.mark.parametrize("form_id", ("sl2R", "su21", "sp4R", "sl2H", "su41"))
def test_lambda_data_solves_no_complement(monkeypatch, all_analyses, form_id):
    """The complement of k_nu is read off k_nu's pivots: on a freshly built
    model, lambda_data makes no kernel_in_span call that no centralizer
    makes, and its complement is the cached analysis's."""
    cached = all_analyses[form_id]
    a = _fresh_analysis(cached)
    calls = {"kernel_in_span": 0, "centralizer_in_span": 0}

    def count(name):
        original = getattr(LieAlgebraModel, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LieAlgebraModel, name, counted)

    count("kernel_in_span")
    count("centralizer_in_span")
    lam = a.lambda_data()
    assert calls["kernel_in_span"] == calls["centralizer_in_span"]
    assert lam.k_nu_complement == cached.lambda_data().k_nu_complement


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_torus_roots_of_a_and_of_t(form_id, all_analyses):
    """The restricted roots: the zero space m + a, the roots closed under
    negation with equal multiplicities, dim a simple roots, half the roots
    positive.  The roots of k under its Cartan subalgebra t: (dim k - rank) / 2
    positive roots, and rank - dim Cent k simple roots, those of the
    semisimple part."""
    a = all_analyses[form_id]
    model, t_basis = a.model, a.lambda_data().t_basis
    zero, spaces, positive, simple, _ = model.torus_roots(model.a_units, model.units)
    assert len(zero) == model.dim_m + model.dim_a
    for root, space in spaces.items():
        assert len(spaces[tuple(-x for x in root)]) == len(space)
    assert len(simple) == model.dim_a
    assert 2 * len(positive) == len(spaces)
    zero, spaces, positive, simple, dual = model.torus_roots(t_basis, model.k_units)
    rank = len(t_basis)
    assert len(zero) == rank
    assert 2 * len(positive) == len(spaces) == model.dim_k - rank
    assert len(simple) == rank - len(model.center_k)
    assert list(dual) == list(spaces)


def test_dominance_solves_nothing(monkeypatch, all_analyses):
    """The inner product on the roots of k reads their trace duals: on a
    freshly built su41 model, lambda_data makes no exactla.inverse call and
    no elimination at all from inside rootsys.dominant."""
    a = _fresh_analysis(all_analyses["su41"])
    inside, calls = [], {"dominant": 0, "inverse": 0, "eliminate": 0}
    dominant = checks_module.dominant

    def counted_dominant(*args):
        calls["dominant"] += 1
        inside.append(True)
        try:
            return dominant(*args)
        finally:
            inside.pop()

    def counted(name):
        elimination = getattr(exactla, name)

        def call(*args, **kwargs):
            calls[name] += bool(inside)
            return elimination(*args, **kwargs)
        return call

    monkeypatch.setattr(checks_module, "dominant", counted_dominant)
    monkeypatch.setattr(exactla, "inverse", counted("inverse"))
    monkeypatch.setattr(exactla, "eliminate", counted("eliminate"))
    a.lambda_data()
    assert calls == {"dominant": 2, "inverse": 0, "eliminate": 0}


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_k_nu_complement_is_units_completing_k_nu(form_id, all_analyses):
    """The complement is dim X units of k, and with k_nu it spans k."""
    a = all_analyses[form_id]
    model, lam = a.model, a.lambda_data()
    complement = lam.k_nu_complement
    assert all(x in model.k_units for x in complement)
    assert len(complement) == a.invariants.dim_X
    assert exactla.rank(lam.k_nu_basis + complement) == model.dim_k


def b_orthogonal_complement(model, lam):
    """The B-orthogonal complement of k_nu in k the dense way: the Gram rows
    B(y, x) over the units x of k, their kernel, the combinations of the
    units, then Gram-Schmidt under B."""
    gram_rows = [[model.B(y, x) for x in model.k_units] for y in lam.k_nu_basis]
    perp = []
    for t in exactla.kernel_basis(gram_rows):
        vec = [exactla.ZERO] * model.dim
        for coef, unit in zip(t, model.k_units):
            vec = [v + coef * u for v, u in zip(vec, unit)]
        perp.append(vec)
    return orthogonalize(perp, model.B)


def shifted_complement(model, lam):
    """c_i + c_(i+1) for each vector c_i of the complement, the last one
    plus k_nu's first: another complement of k_nu in k."""
    c = lam.k_nu_complement
    return [[x + y for x, y in zip(u, v)] for u, v in zip(c, [*c[1:], lam.k_nu_basis[0]])]


@pytest.mark.parametrize("complement", (shifted_complement, b_orthogonal_complement),
                         ids=("shifted", "B-orthogonal"))
@pytest.mark.parametrize("form_id", [f for f in MODEL_IDS if f != "sl2R"])
def test_any_complement_of_k_nu_frames_beta_and_poisson(form_id, complement, all_analyses):
    """The frame needs some complement of k_nu in k, not a given one: with
    the complement replaced by another, beta and poisson still pass, to
    rounding.  sl2R has dim X = 0, so no complement to replace."""
    a = all_analyses[form_id]
    model, lam = a.model, a.lambda_data()
    other = complement(model, lam)
    assert len(other) == len(lam.k_nu_complement)
    assert exactla.rank(lam.k_nu_basis + other) == model.dim_k
    num = copy.copy(numerics(form_id))
    num.k_nu_complement_basis = [model.matrix(v).astype(complex) for v in other]
    for check in (verify_beta_symplectic, poisson_identities_check):
        for line in check(num, samples=40, seed=42):
            assert line.status == "pass" and line.max_abs_deviation < 1e-12, (check, line)


@pytest.mark.parametrize("form_id", ("su21", "sp4R", "sl2H"))
def test_cent_k_and_isotropy_solved_once(monkeypatch, all_analyses, form_id):
    """Cent k is the model's and Cent_k(e) the S-triple's: on a freshly built
    model, the centralizer checks, lambda_data and the correspondence check
    solve each once."""
    cached = all_analyses[form_id]
    solved = []
    original = LieAlgebraModel.centralizer_in_span

    def recorded(self, elements, span):
        solved.append(list(elements))
        return original(self, elements, span)

    monkeypatch.setattr(LieAlgebraModel, "centralizer_in_span", recorded)
    a = _fresh_analysis(cached)
    model, datum, striple = a.model, a.datum, a.striple
    centralizer_checks(model, datum, striple, a.cayley, a.descriptor.hermitian)
    a.lambda_data()
    ks_correspondence_check(ModelNumerics(a), samples=5, seed=42)
    assert solved.count(model.k_units) == 1
    assert solved.count([striple.e]) == 1


def test_sl2R_multiplicity_vector(all_analyses):
    checks = run_spectral("sl2R", all_analyses)
    assert "{-2: 1, -1: 0, 0: 1, 1: 0, 2: 1}" in checks["adx_multiplicities"].detail
    # d_p = 1 and d_k = 0
    assert checks["adh_p_top_is_line_v"].status == "pass"
    assert "dim 0 d=1" in checks["adh_k_top_dim_d_minus_1"].detail


def test_sl3R_multiplicity_vector_and_compact_spectrum(all_analyses):
    checks = run_spectral("sl3R", all_analyses)
    assert "{-2: 1, -1: 2, 0: 2, 1: 2, 2: 1}" in checks["adx_multiplicities"].detail
    assert checks["adh_k_spectrum_within_1"].status == "pass"


def test_sl2H_top_eigenspace(all_analyses):
    checks = run_spectral("sl2H", all_analyses)
    assert checks["adh_p_top_is_line_v"].status == "pass"
    assert "dim 3 d=4" in checks["adh_k_top_dim_d_minus_1"].detail
    assert checks["adh_k_spectrum_within_1"].status == "skipped"


def test_su21_centralizers(all_analyses, catalog_map):
    checks = run_centralizer("su21", all_analyses, catalog_map)
    # m = u(1) acts trivially on the top root space and the center is a line
    assert "dim span [m,e] = 0" in checks["m_bracket_e_rank"].detail
    assert "dim Cent k = 1" in checks["center_of_k_dimension"].detail


def test_sl3R_centralizers_degenerate_m(all_analyses, catalog_map):
    checks = run_centralizer("sl3R", all_analyses, catalog_map)
    assert "degenerate: m = 0" in checks["m_bracket_e_rank"].detail
    assert "dim Cent k = 0" in checks["center_of_k_dimension"].detail


def test_sl2R_center_is_k(all_analyses, catalog_map):
    checks = run_centralizer("sl2R", all_analyses, catalog_map)
    assert "dim Cent k = 1" in checks["center_of_k_dimension"].detail


def test_sl2H_m_acts_transitively(all_analyses, catalog_map):
    checks = run_centralizer("sl2H", all_analyses, catalog_map)
    assert "dim span [m,e] = 3, d-1 = 3" in checks["m_bracket_e_rank"].detail


def x_equals_minus_x(lam):
    """X = -X, as the ``weight_negation_dichotomy`` line reports it."""
    (line,) = [c for c in lam.checks if c.name == "weight_negation_dichotomy"]
    head, _ = line.detail.split("; ")
    value = head.removeprefix("dominant(l) == dominant(-l): ")
    assert value in ("True", "False"), line.detail
    return value == "True"


def test_sl2R_lambda(all_analyses):
    a = all_analyses["sl2R"]
    lam = a.lambda_data()
    assert len(lam.k_nu_basis) == 1  # k_nu = k
    assert a.model.dim_k - len(lam.k_nu_basis) == 0  # dim X
    assert not x_equals_minus_x(lam)  # hermitian


def test_sl3R_lambda(all_analyses):
    a = all_analyses["sl3R"]
    lam = a.lambda_data()
    assert a.model.dim_k - len(lam.k_nu_basis) == 2  # dim X
    assert x_equals_minus_x(lam)  # -1 is in the Weyl group of k = so(3)


def test_su21_lambda_central_character(all_analyses):
    lam = all_analyses["su21"].lambda_data()
    assert not x_equals_minus_x(lam)
    a = all_analyses["su21"]
    assert len(a.model.center_k) == 1
    z = [x - y for x, y in zip(a.striple.e, a.striple.f)]
    assert a.model.B(z, a.model.center_k[0]) != 0


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_dichotomy_matches_hermitian_flag(form_id, all_analyses, catalog_map):
    a = all_analyses[form_id]
    hermitian = catalog_map[form_id].hermitian
    assert x_equals_minus_x(a.lambda_data()) == (not hermitian)
    assert len(a.model.center_k) == (1 if hermitian else 0)


@pytest.mark.parametrize("form_id", MODEL_IDS)
def test_orbit_dimension_from_isotropy(form_id, all_analyses):
    a = all_analyses[form_id]
    lam = a.lambda_data()
    assert a.model.dim_k - len(lam.k_nu_basis) == a.invariants.dim_X
