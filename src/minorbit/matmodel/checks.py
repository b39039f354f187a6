"""Exact structural checks: spectra, centralizers, and highest-weight data.

These verify, per model, the eigenvalue bookkeeping of the distinguished
compact element h, the agreement of three isotropy subalgebras inside k, the
rank of [m, e], the center of k, and the weight-level dichotomy that decides
whether the compact orbit equals its negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import exactla
from ..report import CheckItem
from ..rootsys import dominant
from .model import Coords, LieAlgebraModel, _apply
from .restricted import RestrictedRootDatum, eigenvalue_multiplicities
from .triples import CayleyTriple, STriple, compact_partner


def spectral_checks(
    model: LieAlgebraModel,
    datum: RestrictedRootDatum,
    striple: STriple,
    cayley: CayleyTriple,
) -> list[CheckItem]:
    checks: list[CheckItem] = []

    m_expected = eigenvalue_multiplicities(datum)
    spectrum = (-2, -1, 0, 1, 2)

    def dims(split, eigenvalues):
        return {lam: len(split.get(lam, [])) for lam in eigenvalues}

    split_x = model.eigenspaces(model.ad_matrix(striple.x), spectrum, model.units)
    dims_x = dims(split_x, spectrum)
    checks.append(CheckItem.verdict(
        "adx_spectrum_in_range",
        sum(dims_x.values()) == model.dim,
        f"eigendims {dims_x}",
    ))
    checks.append(CheckItem.verdict(
        "adx_multiplicities",
        dims_x == m_expected,
        f"kernel dims {dims_x} vs root-space count {m_expected}",
    ))
    top = split_x.get(2, [])
    psi_space = datum.root_spaces[datum.psi]
    checks.append(CheckItem.verdict(
        "adx_top_space_is_g_psi",
        exactla.same_span(top, psi_space),
        f"dim {len(top)}",
    ))

    ad_h = model.ad_matrix(cayley.h)
    dims_h = dims(model.eigenspaces(ad_h, spectrum, model.units), spectrum)
    checks.append(CheckItem.verdict(
        "adh_multiplicities_match_adx",
        dims_h == m_expected and sum(dims_h.values()) == model.dim,
        f"{dims_h}",
    ))
    p_top = model.eigenspaces(ad_h, [2], model.p_units).get(2, [])
    ok_line = len(p_top) == 1 and exactla.span_contains(p_top, cayley.v)
    checks.append(CheckItem.verdict("adh_p_top_is_line_v", ok_line, f"dim {len(p_top)}"))
    split_hk = model.eigenspaces(ad_h, [2, -1, 0, 1], model.k_units)
    k_top = split_hk.get(2, [])
    d = len(psi_space)
    checks.append(CheckItem.verdict(
        "adh_k_top_dim_d_minus_1", len(k_top) == d - 1, f"dim {len(k_top)} d={d}"
    ))
    if d == 1:
        dims_hk = dims(split_hk, [-1, 0, 1])
        checks.append(CheckItem.verdict(
            "adh_k_spectrum_within_1",
            sum(dims_hk.values()) == model.dim_k,
            f"{dims_hk} of dim k {model.dim_k}",
        ))
    else:
        checks.append(
            CheckItem("adh_k_spectrum_within_1", "skipped", "not omin-split")
        )
    return checks


def centralizer_checks(
    model: LieAlgebraModel,
    datum: RestrictedRootDatum,
    striple: STriple,
    cayley: CayleyTriple,
    hermitian: bool,
) -> list[CheckItem]:
    checks: list[CheckItem] = []

    def cent_k(elements) -> list[Coords]:
        return model.centralizer_in_span(elements, model.k_units)

    z_v = cent_k([cayley.v])
    z_e = striple.isotropy
    z_triple = cent_k([striple.x, striple.e, model.theta(striple.e)])
    same = exactla.same_span(z_v, z_e) and exactla.same_span(z_e, z_triple)
    checks.append(CheckItem.verdict(
        "isotropy_subalgebras_agree",
        same,
        f"dims v/e/triple = {len(z_v)}/{len(z_e)}/{len(z_triple)}",
    ))

    d = len(datum.root_spaces[datum.psi])
    rank_me = exactla.rank([model.bracket(mv, striple.e) for mv in model.m_basis])
    checks.append(CheckItem.verdict(
        "m_bracket_e_rank",
        rank_me == d - 1,
        f"dim span [m,e] = {rank_me}, d-1 = {d - 1}"
        + (" (degenerate: m = 0)" if not model.m_basis else ""),
    ))
    checks.append(CheckItem.verdict(
        "m_acts_trivially_iff_d1",
        (rank_me == 0) == (d == 1),
        f"[m,e] rank {rank_me}, d = {d}",
    ))

    cent = model.center_k
    expected = 1 if hermitian else 0
    checks.append(CheckItem.verdict(
        "center_of_k_dimension",
        len(cent) == expected,
        f"dim Cent k = {len(cent)}, hermitian = {hermitian}",
    ))
    return checks


@dataclass
class LambdaData:
    """Weight of the compact group attached to the Cayley triple."""

    t_basis: list[Coords]  # Cartan subalgebra of k containing z
    k_nu_basis: list[Coords] = field(default_factory=list)
    k_nu_perp: list[Coords] = field(default_factory=list)  # orthogonal under B
    x_equals_minus_x: bool = True
    checks: list[CheckItem] = field(default_factory=list)


def _cartan_of_k(model: LieAlgebraModel, z: Coords, cent: list[Coords]) -> list[Coords]:
    """Greedy maximal abelian subalgebra of k containing z, from its
    centralizer ``cent`` in k.  The independent t is abelian, so it spans a
    subspace of Cent_k(t); while that centralizer is larger, one of its basis
    vectors lies outside span(t), and once the dimensions agree it is t."""
    t = [z]
    while len(cent) != len(t):
        t.append(next(c for c in cent if not exactla.span_contains(t, c)))
        cent = model.centralizer_in_span(t, model.k_units)
    return t


def lambda_data(
    model: LieAlgebraModel,
    datum: RestrictedRootDatum,
    striple: STriple,
    cayley: CayleyTriple,
    expected_dim_X: int,
    hermitian: bool,
) -> LambdaData:
    checks: list[CheckItem] = []

    z = compact_partner(cayley)
    k_nu = model.centralizer_in_span([z], model.k_units)
    dim_X = model.dim_k - len(k_nu)
    checks.append(CheckItem.verdict(
        "orbit_dimension",
        dim_X == expected_dim_X,
        f"dim k - dim k_nu = {dim_X}, catalog dim_X = {expected_dim_X}",
    ))

    # the isotropy algebra acts on v through the pairing with h
    def weight_holds(x):
        lam = model.B(cayley.h, x)
        return model.bracket(x, cayley.v) == [lam * a for a in cayley.v]

    checks.append(CheckItem.verdict(
        "isotropy_weight_action", all(map(weight_holds, k_nu)), "[x,v] = B(h,x) v on k_nu"
    ))

    t_basis = _cartan_of_k(model, z, k_nu)
    lam_vec = [model.B(z, t) for t in t_basis]

    # the roots of the complexified k under t; ad t has eigenvalues i q, and
    # a root keeps the rationals q
    zero, _, positive, simple, dual = model.torus_roots(
        t_basis, model.k_units, imaginary=True)
    checks.append(CheckItem.verdict(
        "cartan_is_self_centralizing",
        len(zero) == len(t_basis),
        f"zero space dim {len(zero)}, rank {len(t_basis)}",
    ))

    # the trace form is B / c with c > 0, and dominance does not see the scale
    def ip(u, v):
        return -sum(a * b for a, b in zip(u, dual[v]))

    dom_plus = dominant(lam_vec, simple, ip, len(positive))
    dom_minus = dominant([-x for x in lam_vec], simple, ip, len(positive))
    x_eq = dom_plus == dom_minus
    checks.append(CheckItem.verdict(
        "weight_negation_dichotomy",
        x_eq != hermitian,
        f"dominant(l) == dominant(-l): {x_eq}; hermitian: {hermitian}",
    ))

    center = model.center_k
    if hermitian:
        central_ok = len(center) == 1 and model.B(z, center[0]) != 0
        checks.append(CheckItem.verdict(
            "central_character_nonzero",
            central_ok,
            "weight separates the center of k",
        ))
    else:
        central_ok = len(center) == 0
        checks.append(CheckItem.verdict(
            "center_trivial", central_ok, f"dim Cent k = {len(center)}"
        ))

    # k_nu_perp, the complement of k_nu in k orthogonal under B: the kernel
    # in k of the one operator whose row r is the functional B(y_r, .), y_r
    # in k_nu, read off the trace Gram rows at the nonzero entries of y_r
    forms = [[] for _ in range(model.dim)]
    for r, y in enumerate(k_nu):
        for j, b in _apply(model.tr_rows, [(i, x) for i, x in enumerate(y) if x]).items():
            if b:
                forms[j].append((r, model.c * b))
    perp = model.kernel_in_span([forms], model.k_units, real=True)
    k_nu_perp = exactla.orthogonalize(perp, model.B)

    return LambdaData(
        t_basis=t_basis,
        k_nu_basis=k_nu,
        k_nu_perp=k_nu_perp,
        x_equals_minus_x=x_eq,
        checks=checks,
    )
