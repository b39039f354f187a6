"""Exact structural checks: spectra, centralizers, and highest-weight data.

These verify, per model, the eigenvalue bookkeeping of the distinguished
compact element h, the agreement of three isotropy subalgebras inside k, the
rank of [m, e], the center of k, and the weight-level dichotomy that decides
whether the compact orbit equals its negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .. import exactla
from ..exactla import QI
from ..report import CheckItem
from ..rootsys import dominant
from .families import ModelError
from .model import Coords, LieAlgebraModel
from .restricted import RestrictedRootDatum, eigenvalue_multiplicities
from .triples import CayleyTriple, STriple, compact_partner

# float eigenvalues are rounded to the nearest rational of at most this
# denominator; two such rationals differ by at least its inverse square
PROPOSAL_DENOMINATOR = 1000


def _eig_dims(model, op, span, eigenvalues):
    return {lam: len(model.eigenspace(op, lam, span)) for lam in eigenvalues}


def spectral_checks(
    model: LieAlgebraModel,
    datum: RestrictedRootDatum,
    striple: STriple,
    cayley: CayleyTriple,
) -> list[CheckItem]:
    checks: list[CheckItem] = []

    full = [model.unit_coords(i) for i in range(model.dim)]
    k_units = model.subspace_units(model.k_indices)
    p_units = model.subspace_units(model.p_indices)
    m_expected = eigenvalue_multiplicities(datum)

    ad_x = model.ad_matrix(striple.x)
    dims_x = _eig_dims(model, ad_x, full, [-2, -1, 0, 1, 2])
    checks.append(CheckItem.verdict(
        "adx_spectrum_in_range",
        sum(dims_x.values()) == model.dim,
        f"eigendims {dims_x}",
    ))
    checks.append(CheckItem.verdict(
        "adx_multiplicities",
        {j: dims_x[j] for j in (-2, -1, 0, 1, 2)} == m_expected,
        f"kernel dims {dims_x} vs root-space count {m_expected}",
    ))
    top = model.eigenspace(ad_x, 2, full)
    psi_space = datum.root_spaces[datum.psi]
    checks.append(CheckItem.verdict(
        "adx_top_space_is_g_psi",
        exactla.same_span(top, psi_space),
        f"dim {len(top)}",
    ))

    ad_h = model.ad_matrix(cayley.h)
    dims_h = _eig_dims(model, ad_h, full, [QI(j) for j in (-2, -1, 0, 1, 2)])
    checks.append(CheckItem.verdict(
        "adh_multiplicities_match_adx",
        {j: dims_h[QI(j)] for j in (-2, -1, 0, 1, 2)} == m_expected
        and sum(dims_h.values()) == model.dim,
        f"{ {j: dims_h[QI(j)] for j in (-2, -1, 0, 1, 2)} }",
    ))
    p_top = model.eigenspace(ad_h, QI(2), p_units)
    ok_line = len(p_top) == 1 and exactla.span_contains(
        [[QI.of(x) for x in vec] for vec in p_top], cayley.v
    )
    checks.append(CheckItem.verdict(
        "adh_p_top_is_line_v", ok_line, f"dim {len(p_top)}"
    ))
    k_top = model.eigenspace(ad_h, QI(2), k_units)
    d = len(psi_space)
    checks.append(CheckItem.verdict(
        "adh_k_top_dim_d_minus_1", len(k_top) == d - 1, f"dim {len(k_top)} d={d}"
    ))
    if d == 1:
        dims_hk = _eig_dims(model, ad_h, k_units, [QI(j) for j in (-1, 0, 1)])
        checks.append(CheckItem.verdict(
            "adh_k_spectrum_within_1",
            sum(dims_hk.values()) == model.dim_k,
            f"{ {j: dims_hk[QI(j)] for j in (-1, 0, 1)} } of dim k {model.dim_k}",
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

    k_units = model.subspace_units(model.k_indices)
    theta_e = model.theta(striple.e)

    def cent_k(elements) -> list[Coords]:
        return model.centralizer_in_span(elements, k_units)

    z_v = cent_k([cayley.v])
    z_e = cent_k([striple.e])
    z_triple = cent_k([striple.x, striple.e, theta_e])
    same = (
        len(z_v) == len(z_e) == len(z_triple)
        and exactla.same_span(z_v, z_e)
        and exactla.same_span(z_e, z_triple)
    )
    checks.append(CheckItem.verdict(
        "isotropy_subalgebras_agree",
        same,
        f"dims v/e/triple = {len(z_v)}/{len(z_e)}/{len(z_triple)}",
    ))

    d = len(datum.root_spaces[datum.psi])
    images = [model.bracket(mv, striple.e) for mv in model.m_basis]
    images = [im for im in images if any(im)]
    rank_me = exactla.rank(images) if images else 0
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

    cent = model.centralizer_in_span(k_units, k_units)
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

    model: LieAlgebraModel
    t_basis: list[Coords]  # Cartan subalgebra of k containing z
    lambda_on_t: list[Fraction]  # values B(z, t_j); the i factor is dropped
    k_roots: list[tuple[Fraction, ...]]
    k_nu_basis: list[Coords] = field(default_factory=list)
    center_basis: list[Coords] = field(default_factory=list)
    dim_X: int = 0
    x_equals_minus_x: bool = True
    checks: list[CheckItem] = field(default_factory=list)


def _cartan_of_k(model: LieAlgebraModel, z: Coords) -> list[Coords]:
    """Greedy maximal abelian subalgebra of k containing z."""
    k_units = model.subspace_units(model.k_indices)
    t = [z]
    while True:
        cent = model.centralizer_in_span(t, k_units)
        if len(cent) == len(t):
            if not exactla.same_span(cent, t):
                raise ModelError(f"{model.form_id}: Cartan extension went wrong")
            return t
        extended = False
        for cand in cent:
            if not exactla.span_contains(t, cand):
                t.append(cand)
                extended = True
                break
        if not extended:
            raise ModelError(f"{model.form_id}: could not extend to a Cartan of k")


def _defining_imag_eigs(model: LieAlgebraModel, t_vec: Coords) -> list[Fraction]:
    """Eigenvalues (divided by i) of a compact element in the defining rep.

    Float eigenvalues propose rationals; each one counts only with the
    multiplicity of its exact kernel, and the kernels must fill C^n.
    """
    X = model.matrix(t_vec)
    proposals = sorted({
        Fraction(float(ev.imag)).limit_denominator(PROPOSAL_DENOMINATOR)
        for ev in np.linalg.eigvals(X.astype(complex))
    })
    found: list[Fraction] = []
    for q in proposals:
        shifted = X - np.diag([QI(0, q)] * model.n)
        found.extend([q] * len(exactla.kernel_basis(shifted)))
    if len(found) != model.n:
        raise ModelError(
            f"{model.form_id}: defining eigenvalues are not all rational multiples of i"
        )
    return found


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
    k_units = model.subspace_units(model.k_indices)
    k_nu = model.centralizer_in_span([z], k_units)
    dim_X = model.dim_k - len(k_nu)
    checks.append(CheckItem.verdict(
        "orbit_dimension",
        dim_X == expected_dim_X,
        f"dim k - dim k_nu = {dim_X}, catalog dim_X = {expected_dim_X}",
    ))

    # the isotropy algebra acts on v through the pairing with h
    ok_weight = True
    for x in k_nu:
        lhs = model.bracket([QI.of(c) for c in x], cayley.v)
        lam = model.B(cayley.h, [QI.of(c) for c in x])
        rhs = [lam * a for a in cayley.v]
        if lhs != rhs:
            ok_weight = False
            break
    checks.append(CheckItem.verdict(
        "isotropy_weight_action", ok_weight, "[x,v] = B(h,x) v on k_nu"
    ))

    t_basis = _cartan_of_k(model, z)
    lam_vec = [Fraction(model.B(z, t)) for t in t_basis]

    # root decomposition of the complexified k under t: the eigenvalues of
    # ad t are i*q, q a difference of defining eigenvalues of t divided by i
    candidates = []
    for t_vec in t_basis:
        defining = _defining_imag_eigs(model, t_vec)
        candidates.append(
            [QI(0, q) for q in sorted({a - b for a in defining for b in defining})]
        )
    spaces = model.joint_eigenspaces(
        [model.ad_matrix(t) for t in t_basis], candidates, k_units
    )
    labels = [tuple(lam.im for lam in label) for label, _ in spaces]
    k_roots = sorted(q for q in labels if any(q))
    zero_dim = sum(len(s) for q, (_, s) in zip(labels, spaces) if not any(q))
    checks.append(CheckItem.verdict(
        "cartan_is_self_centralizing",
        zero_dim == len(t_basis),
        f"zero space dim {zero_dim}, rank {len(t_basis)}",
    ))

    gram_t = [[Fraction(model.B(a, b)) for b in t_basis] for a in t_basis]

    def ip(u, v):
        dual = exactla.solve(gram_t, list(v))
        return -sum(a * b for a, b in zip(u, dual))

    positive = [r for r in k_roots if next(x for x in r if x) > 0]
    sums = {tuple(a + b for a, b in zip(r1, r2)) for r1 in positive for r2 in positive}
    simple = [r for r in positive if r not in sums]

    dom_plus = dominant(lam_vec, simple, ip, len(positive))
    dom_minus = dominant([-x for x in lam_vec], simple, ip, len(positive))
    x_eq = dom_plus == dom_minus
    checks.append(CheckItem.verdict(
        "weight_negation_dichotomy",
        x_eq != hermitian,
        f"dominant(l) == dominant(-l): {x_eq}; hermitian: {hermitian}",
    ))

    center = model.centralizer_in_span(k_units, k_units)
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

    return LambdaData(
        model=model,
        t_basis=t_basis,
        lambda_on_t=lam_vec,
        k_roots=k_roots,
        k_nu_basis=k_nu,
        center_basis=center,
        dim_X=dim_X,
        x_equals_minus_x=x_eq,
        checks=checks,
    )
